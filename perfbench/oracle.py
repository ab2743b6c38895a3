"""Independent correctness oracle: re-evaluate results with the
interpreted ``repro.baseline`` evaluator, never the TNVM.

Synthesized circuits are translated gate by gate through a name-keyed
table of baseline twins; Figure 5 fits use the baseline builder of the
same ansatz.  Each re-evaluated unitary is compared with its target by
a formula computed here, and that infidelity must agree with the one
the engine reported.  A gate with no twin raises :class:`OracleError`.
"""

from __future__ import annotations

import numpy as np

from repro.baseline import (
    BaselineCircuit,
    DenseEvaluator,
    build_qsearch_ansatz_baseline,
)
from repro.baseline import gates as bg
from repro.circuit import FIG5_BENCHMARKS

__all__ = [
    "OracleError",
    "SUCCESS_THRESHOLD",
    "baseline_twin",
    "fig5_baseline",
    "oracle_infidelity",
    "verdict",
]

#: The engines' default success threshold on the infidelity.
SUCCESS_THRESHOLD = 1e-8

#: Absolute agreement demanded between the engine's reported
#: infidelity and the oracle's: both are ~1e-15 apart when the engine is
#: right, while a wrong unitary moves the infidelity by far more.
AGREEMENT_ATOL = 1e-9
AGREEMENT_RTOL = 1e-6

#: Gate name (as the QGL library names it) -> baseline twin factory.
TWINS = {
    "U3": bg.U3Gate,
    "CX": bg.CXGate,
}


class OracleError(RuntimeError):
    """The oracle cannot evaluate a result (e.g. a gate has no twin)."""


def baseline_twin(circuit, params) -> BaselineCircuit:
    """The baseline circuit computing ``circuit``'s unitary at ``params``.

    Every operation becomes its baseline twin with its parameter values
    bound as constants, so parameter sharing and constant slots carry
    over exactly.
    """
    params = np.asarray(params, dtype=np.float64)
    twin = BaselineCircuit(circuit.radices)
    for op in circuit:
        name = circuit.expression(op.ref).name
        factory = TWINS.get(name)
        if factory is None:
            raise OracleError(f"gate {name!r} has no baseline twin")
        values = [
            params[slot.index] if slot.kind == "param" else slot.value
            for slot in op.slots
        ]
        twin.append_gate(factory(), op.location, values, parameterized=False)
    return twin


def fig5_baseline(name: str) -> DenseEvaluator:
    """Baseline evaluator for the named Figure 5 ansatz; its free
    parameters follow the same order as :func:`repro.fig5_circuit`."""
    qudits, depth, radix = FIG5_BENCHMARKS[name]
    return DenseEvaluator(build_qsearch_ansatz_baseline(qudits, depth, radix))


def oracle_infidelity(target: np.ndarray, unitary: np.ndarray) -> float:
    """Infidelity of ``unitary`` against a ``(D, D)`` target (Eq. 1,
    up to global phase) or a ``(D,)`` target state (``U|0>``)."""
    if not np.all(np.isfinite(unitary)):
        return float("nan")
    target = np.asarray(target, dtype=np.complex128)
    if target.ndim == 1:
        overlap = np.sum(np.conj(target) * unitary[:, 0])
        return float(1.0 - abs(overlap) ** 2)
    dim = target.shape[0]
    trace = np.sum(np.conj(target) * unitary)
    return float(1.0 - abs(trace) / dim)


def verdict(reported: float, oracle: float, params) -> str | None:
    """``None`` when the result checks out, else the reason it fails."""
    if not np.all(np.isfinite(np.asarray(params, dtype=np.float64))):
        return "non-finite parameters"
    if not (np.isfinite(reported) and np.isfinite(oracle)):
        return f"non-finite infidelity (engine {reported}, oracle {oracle})"
    tol = AGREEMENT_ATOL + AGREEMENT_RTOL * max(abs(reported), abs(oracle))
    if abs(reported - oracle) > tol:
        return f"engine reports {reported:.3e}, oracle finds {oracle:.3e}"
    return None
