"""Numerical instantiation: HS cost, Levenberg-Marquardt, multi-start."""

from .cost import (
    BatchedHilbertSchmidtResiduals,
    BatchedStateResiduals,
    HilbertSchmidtResiduals,
    StateResiduals,
    as_target_array,
    infidelity_from_cost,
    is_state_target,
    state_infidelity_from_cost,
    state_success_cost,
)
from .gd import AdamOptions, AdamResult, InfidelityFunction, adam_minimize
from .instantiater import (
    AUTO_BATCH_MIN_STARTS,
    STRATEGIES,
    SUCCESS_THRESHOLD,
    Instantiater,
    InstantiationResult,
    SerializedEngine,
    instantiate,
)
from .lm import (
    LMOptions,
    LMResult,
    batched_levenberg_marquardt,
    levenberg_marquardt,
)
from .pool import EnginePool

__all__ = [
    "Instantiater",
    "EnginePool",
    "InstantiationResult",
    "SerializedEngine",
    "instantiate",
    "STRATEGIES",
    "AUTO_BATCH_MIN_STARTS",
    "SUCCESS_THRESHOLD",
    "HilbertSchmidtResiduals",
    "BatchedHilbertSchmidtResiduals",
    "StateResiduals",
    "BatchedStateResiduals",
    "infidelity_from_cost",
    "state_infidelity_from_cost",
    "state_success_cost",
    "is_state_target",
    "as_target_array",
    "LMOptions",
    "LMResult",
    "levenberg_marquardt",
    "batched_levenberg_marquardt",
    "AdamOptions",
    "AdamResult",
    "InfidelityFunction",
    "adam_minimize",
]
