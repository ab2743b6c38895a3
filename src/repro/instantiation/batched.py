"""Batched multi-start instantiation (paper sections II-B and V-C).

The sequential :class:`~repro.instantiation.instantiater.Instantiater`
runs its ``S`` starts one after another through a scalar TNVM; every
start re-pays the Python bytecode-dispatch overhead of the evaluation
sweep.  :class:`BatchedInstantiater` instead advances all starts
through one :class:`~repro.tnvm.vm.BatchedTNVM` — each LM iteration
performs a single vectorized forward/gradient contraction and a single
batched normal-equation solve for every live start, amortizing the
sweep overhead across the whole multi-start population.

Semantics match the sequential engine: starts draw their initial
guesses in the same RNG order, each start follows the scalar LM
decision sequence, and the multi-start short-circuit is reproduced
exactly — once every start a sequential run *would* have executed has
finished (and the best of them succeeded), the remaining starts are
abandoned, so ``starts_used`` and the winning start agree with the
sequential engine.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .. import telemetry
from ..circuit.circuit import QuditCircuit
from ..jit.cache import ExpressionCache
from ..tensornet.contract import OutputContract
from ..tnvm.vm import BatchedTNVM, Differentiation
from .cost import (
    BatchedHilbertSchmidtResiduals,
    BatchedStateResiduals,
    infidelity_from_cost,
    is_state_target,
    state_infidelity_from_cost,
    state_success_cost,
)
from .instantiater import (
    SUCCESS_THRESHOLD,
    InstantiationResult,
    draw_guess,
    record_fit,
    scan_winner,
)
from .lm import LMOptions, batched_levenberg_marquardt

__all__ = ["BatchedInstantiater"]


class BatchedInstantiater:
    """Reusable batched multi-start instantiation engine for one PQC.

    The constructor performs the AOT compilation once; batched TNVMs
    are built lazily per distinct start count and cached, so repeated
    ``instantiate(..., starts=S)`` calls with the same ``S`` reuse one
    arena (the Listing 3 amortization, extended with a batch axis).
    """

    def __init__(
        self,
        circuit: QuditCircuit | None = None,
        precision: str = "f64",
        cache: ExpressionCache | None = None,
        success_threshold: float = SUCCESS_THRESHOLD,
        lm_options: LMOptions | None = None,
        program=None,
        contract: OutputContract | None = None,
    ):
        if circuit is None and program is None:
            raise ValueError("pass a circuit or an AOT-compiled program")
        start = time.perf_counter()
        self.circuit = circuit
        # ``program`` lets an owning Instantiater share its compiled
        # bytecode instead of paying the AOT compile twice (and is the
        # only shape source for engines rehydrated in worker processes);
        # its compiled contract then governs.
        if program is not None:
            self.contract = OutputContract.for_program(program, contract)
            self.program = program
        else:
            self.contract = OutputContract.coerce(contract)
            self.program = circuit.compile(contract=self.contract)
        self.precision = precision
        self.cache = cache
        self.aot_seconds = time.perf_counter() - start
        self.success_threshold = success_threshold
        self.num_params = self.program.num_params
        # Encode the infidelity threshold as a residual-cost threshold
        # per target type (see Instantiater.__init__).
        self.lm_options = dataclasses.replace(
            lm_options or LMOptions(),
            success_cost=2.0 * self.program.dim * success_threshold,
        )
        self._state_lm_options = dataclasses.replace(
            self.lm_options,
            success_cost=state_success_cost(success_threshold),
        )
        self._vms: dict[int, BatchedTNVM] = {}

    def _vm_for(self, batch: int) -> BatchedTNVM:
        vm = self._vms.get(batch)
        if vm is None:
            t0 = time.perf_counter()
            vm = BatchedTNVM(
                self.program,
                batch=batch,
                precision=self.precision,
                diff=Differentiation.GRADIENT,
                cache=self.cache,
                contract=self.contract,
            )
            self.aot_seconds += time.perf_counter() - t0
            self._vms[batch] = vm
        return vm

    def instantiate(
        self,
        target: np.ndarray,
        starts: int = 1,
        rng: np.random.Generator | int | None = None,
        x0: np.ndarray | None = None,
    ) -> InstantiationResult:
        """Fit the circuit to ``target``, all starts in one batch.

        ``target`` may be a ``(D, D)`` unitary (Eq. 1 fit) or a
        :class:`~repro.utils.Statevector` / 1-D amplitude vector
        (state preparation, ``O(D)`` residuals per start).

        ``x0`` seeds the first start; remaining starts draw uniform
        random parameters in ``[-2pi, 2pi)`` — the same draw order as
        the sequential engine, so a given ``rng`` seed produces the
        same start population.

        The engine's output contract restricts targets exactly as in
        :meth:`Instantiater.instantiate`: column engines serve only
        state-preparation fits; overlap engines don't instantiate.
        """
        if self.contract.kind == "overlap":
            raise ValueError(
                "an OVERLAP-contract engine cannot instantiate: the "
                "residual form needs column amplitudes, not the reduced "
                "scalar; build the engine with OutputContract.column(0)"
            )
        if self.contract.column_based and not is_state_target(target):
            raise ValueError(
                f"a {self.contract.describe()} engine only serves "
                "state-preparation targets; unitary fits need a "
                "full-unitary engine"
            )
        rng = np.random.default_rng(rng)
        num_starts = max(1, starts)
        guesses = np.empty((num_starts, self.num_params))
        for s in range(num_starts):
            guesses[s] = draw_guess(
                rng, self.num_params, x0 if s == 0 else None
            )

        vm = self._vm_for(num_starts)
        if is_state_target(target):
            residuals = BatchedStateResiduals(vm, target)
            options = self._state_lm_options
            to_infidelity = state_infidelity_from_cost
        else:
            residuals = BatchedHilbertSchmidtResiduals(vm, target)
            options = self.lm_options
            to_infidelity = None
        success_cost = options.success_cost

        def should_abandon(live: np.ndarray, cost: np.ndarray) -> bool:
            # The sequential engine stops after the first start s where
            # the best cost over starts 0..s reaches the threshold.
            # Once every start of such a prefix has finished, the
            # remaining starts cannot influence the result.
            best = np.inf
            for s in range(num_starts):
                if live[s]:
                    return False
                best = min(best, cost[s])
                if best <= success_cost:
                    return True
            return False

        t0 = time.perf_counter()
        with telemetry.tracer().span(
            "fit", category="instantiate",
            dim=vm.dim, starts=num_starts, strategy="batched",
        ):
            runs = batched_levenberg_marquardt(
                residuals.residuals_and_jacobian,
                guesses,
                options,
                should_abandon=should_abandon,
            )
        optimize_seconds = time.perf_counter() - t0

        # Winner selection replays the sequential scan, so the winning
        # start, ``starts_used`` and the short-circuit point agree with
        # the sequential engine.  Abandoned runs sit past the
        # short-circuit point by construction and are never scanned.
        best, used = scan_winner(
            runs, vm.dim, self.success_threshold, to_infidelity
        )

        infidelity = (
            to_infidelity(best.cost)
            if to_infidelity is not None
            else infidelity_from_cost(best.cost, vm.dim)
        )
        if not np.isfinite(infidelity):
            # Every start diverged to NaN/Inf: report an infinite (not
            # NaN) infidelity so callers' comparisons stay ordered.
            telemetry.metrics().counter("instantiate.nonfinite_fits").add()
            infidelity = float("inf")
        result = InstantiationResult(
            params=best.params,
            infidelity=infidelity,
            success=infidelity <= self.success_threshold,
            starts_used=used,
            total_iterations=sum(r.iterations for r in runs),
            total_evaluations=sum(r.num_evaluations for r in runs),
            aot_seconds=self.aot_seconds,
            optimize_seconds=optimize_seconds,
            runs=runs,
        )
        record_fit("batched", vm.dim, result)
        return result
