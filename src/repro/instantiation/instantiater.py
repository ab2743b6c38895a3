"""The numerical instantiation engine (paper sections II-B and V-C).

``Instantiater`` owns the expensive one-time setup — AOT compilation of
the PQC and TNVM initialization — and then runs one or more LM starts
against a target unitary or state.  It owns every fit: it checks the
target against the output contract, draws the starts, picks the
residuals, LM options and cost-to-infidelity conversion for the target
kind, scans for the winner and assembles the result, whichever
schedule ran the starts.  The sequential schedule runs one start at a
time through the scalar TNVM; the lockstep schedule
(:class:`~repro.instantiation.batched.BatchedInstantiater`) advances
every start through one batched TNVM.  Multi-start runs short-circuit:
once a start reaches the success threshold, remaining starts are
skipped (this is the amortization + early-termination effect behind
the paper's 19.6x multi-start speedup).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..circuit.circuit import QuditCircuit
from ..jit.cache import ExpressionCache
from ..jit.compiled import CompiledExpression
from ..tensornet.bytecode import Program
from ..tensornet.contract import OutputContract
from ..tnvm.vm import TNVM, Differentiation, fetch_compiled
from ..utils.statevector import Statevector
from .batched import BatchedInstantiater
from .cost import (
    BatchedHilbertSchmidtResiduals,
    BatchedStateResiduals,
    HilbertSchmidtResiduals,
    StateResiduals,
    infidelity_from_cost,
    is_state_target,
    state_infidelity_from_cost,
    state_success_cost,
)
from .lm import LMOptions, LMResult, levenberg_marquardt

__all__ = [
    "InstantiationResult",
    "Instantiater",
    "SerializedEngine",
    "instantiate",
    "STRATEGIES",
    "AUTO_BATCH_MIN_STARTS",
]

#: Default success threshold on the Eq. (1) infidelity.
SUCCESS_THRESHOLD = 1e-8

#: Valid values for the multi-start execution strategy.
STRATEGIES = ("sequential", "batched", "auto")

#: ``strategy="auto"`` switches to the lockstep schedule at this many
#: starts: below it the sequential short-circuit usually wins (start 0
#: often succeeds and the batch would mostly compute abandoned work),
#: above it the vectorized sweep amortization dominates.
AUTO_BATCH_MIN_STARTS = 4


@dataclass(frozen=True)
class SerializedEngine:
    """A pickle-able snapshot of a compiled instantiation engine.

    Carries the AOT-compiled TNVM bytecode (with its output contract,
    ``program.contract``), the simplified expression entries
    (``CompiledExpression`` pickles those, not generated code) and the
    engine settings — everything another process needs to rebuild an
    equivalent :class:`Instantiater` with
    :meth:`Instantiater.from_serialized` *without* re-paying tensor
    lowering, pathfinding, differentiation or e-graph simplification.
    No generated code ships: the rebuilt engine generates its scalar
    megakernel and per-gate writers from the entries on first use, the
    same source the parent generated.  This is how
    :class:`~repro.instantiation.EnginePool` ships engines to parallel
    synthesis workers.
    """

    program: Program
    compiled: tuple[CompiledExpression, ...]
    precision: str
    success_threshold: float
    lm_options: LMOptions
    strategy: str


@dataclass
class InstantiationResult:
    """Outcome of (possibly multi-start) instantiation.

    ``aot_seconds`` is the engine's one-time cost as of this fit: the
    AOT compile plus every VM the engine has built so far, scalar or
    batched.
    """

    params: np.ndarray
    infidelity: float
    success: bool
    starts_used: int
    total_iterations: int
    total_evaluations: int
    aot_seconds: float
    optimize_seconds: float
    runs: list[LMResult] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.aot_seconds + self.optimize_seconds


class Instantiater:
    """Reusable instantiation engine for one PQC.

    The constructor performs the AOT compilation once and each VM is
    set up once, on the first fit that needs it; :meth:`instantiate`
    can then be called with many targets and starts, exactly matching
    the Listing 3 workflow.
    """

    def __init__(
        self,
        circuit: QuditCircuit | None = None,
        precision: str = "f64",
        cache: ExpressionCache | None = None,
        success_threshold: float = SUCCESS_THRESHOLD,
        lm_options: LMOptions | None = None,
        strategy: str = "sequential",
        program: Program | None = None,
        contract: OutputContract | None = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        if circuit is None and program is None:
            raise ValueError("pass a circuit or an AOT-compiled program")
        start = time.perf_counter()
        self.strategy = strategy
        self.circuit = circuit
        self.precision = precision
        self.cache = cache
        # ``program`` lets a rehydrated engine (or a caller that already
        # compiled) skip the AOT compile; its compiled contract then
        # governs (an explicit ``contract`` must agree with it).
        if program is not None:
            self.program = program
            self.contract = OutputContract.from_program_key(program.contract)
            wanted = OutputContract.coerce(contract or self.contract)
            if wanted.program_key() != self.contract.program_key():
                raise ValueError(
                    f"contract {wanted.describe()} does not match the "
                    f"program's compiled contract {self.contract.describe()}"
                    "; recompile with circuit.compile(contract=...)"
                )
        else:
            self.contract = OutputContract.coerce(contract)
            self.program = circuit.compile(contract=self.contract)
        # Both VMs are built on first use, so an engine pays only for
        # the paths its fits run (an "auto" engine that only ever fits
        # many starts never builds the scalar VM or its kernel).
        self._vm: TNVM | None = None
        self.aot_seconds = time.perf_counter() - start
        self.success_threshold = success_threshold
        self.num_params = self.program.num_params
        self._batched_engine: BatchedInstantiater | None = None
        # Encode the infidelity threshold as a residual-cost threshold,
        # once per target type: unitary fits stop at 2*D*threshold
        # (Eq. 1), state-prep fits at the O(D) residual form's
        # equivalent (see cost.state_success_cost).
        self.lm_options = dataclasses.replace(
            lm_options or LMOptions(),
            success_cost=2.0 * self.program.dim * success_threshold,
        )
        self._state_lm_options = dataclasses.replace(
            self.lm_options,
            success_cost=state_success_cost(success_threshold),
        )

    @property
    def vm(self) -> TNVM:
        """The scalar TNVM, built on first use (the first sequential
        fit) and counted into ``aot_seconds``, as the lockstep
        schedule's batched VMs are."""
        if self._vm is None:
            t0 = time.perf_counter()
            self._vm = TNVM(
                self.program,
                precision=self.precision,
                diff=Differentiation.GRADIENT,
                cache=self.cache,
            )
            self.aot_seconds += time.perf_counter() - t0
        return self._vm

    def _batched(self) -> BatchedInstantiater:
        """The lockstep schedule, built on the first batched fit; it
        runs this engine's program and adds its VM builds to this
        engine's ``aot_seconds``."""
        if self._batched_engine is None:
            self._batched_engine = BatchedInstantiater(self)
        return self._batched_engine

    # ------------------------------------------------------------------
    # Cross-process sharing
    # ------------------------------------------------------------------
    def serialize(self) -> SerializedEngine:
        """Snapshot this engine for shipment to another process.

        The snapshot pairs the compiled bytecode with the simplified
        expression entries its VMs run, fetched through the engine's
        expression cache exactly as VM set-up fetches them.  It builds
        no VM and generates no code, so :meth:`from_serialized`
        reconstructs a numerically identical engine that generates its
        own kernel and writers on first use.
        """
        return SerializedEngine(
            program=self.program,
            compiled=tuple(fetch_compiled(self.program, self.cache, grad=True)),
            precision=self.precision,
            success_threshold=self.success_threshold,
            lm_options=self.lm_options,
            strategy=self.strategy,
        )

    @classmethod
    def from_serialized(
        cls,
        payload: SerializedEngine,
        cache: ExpressionCache | None = None,
        verify: bool | None = None,
    ) -> Instantiater:
        """Rebuild an engine from a :class:`SerializedEngine`.

        The shipped compiled expressions are seeded into ``cache`` (a
        fresh private cache by default) before TNVM setup, so every
        ``cache.get`` during initialization hits — no differentiation
        or e-graph work is repeated.  The first scalar fit generates
        the megakernel from the program and the shipped entries, the
        first batched fit its per-gate writers; both are the source
        the original engine generated, so the rebuilt engine produces
        bit-identical costs and gradients.

        Under ``verify=True`` (or ``REPRO_VERIFY=1``) the payload is
        statically verified first — bytecode (with its contract),
        compiled-expression table and settings — and a corrupt payload
        raises a pointed :class:`~repro.analysis.VerificationError`
        instead of rehydrating into silently wrong numerics; the
        regenerated kernel is linted when it binds.
        """
        from ..analysis import maybe_verify_engine

        maybe_verify_engine(
            payload, verify=verify, subject="serialized engine"
        )
        if cache is None:
            cache = ExpressionCache()
        for compiled in payload.compiled:
            cache.put(compiled)
        return cls(
            precision=payload.precision,
            cache=cache,
            success_threshold=payload.success_threshold,
            lm_options=payload.lm_options,
            strategy=payload.strategy,
            program=payload.program,
        )

    def instantiate(
        self,
        target: np.ndarray | Statevector,
        starts: int = 1,
        rng: np.random.Generator | int | None = None,
        x0: np.ndarray | None = None,
        strategy: str | None = None,
    ) -> InstantiationResult:
        """Fit the circuit to ``target`` with multi-start LM.

        ``target`` selects the cost: a ``(D, D)`` matrix is a unitary
        fit (Eq. 1); a :class:`~repro.utils.Statevector` or 1-D
        amplitude vector is a state-preparation fit of
        ``U(theta)|0>`` (``O(D)`` residuals).  Both target types run
        through the same compiled engine — no recompilation.

        ``x0`` seeds the first start; remaining starts draw uniform
        random parameters in ``[-2pi, 2pi)``.  ``strategy`` overrides
        the engine default for this call: ``"sequential"`` runs starts
        one at a time through the scalar TNVM, ``"batched"`` advances
        all starts through one vectorized BatchedTNVM sweep, and
        ``"auto"`` picks batched once enough starts are requested to
        amortize the batch.

        The engine's output contract restricts the admissible targets:
        a ``COLUMN(0)`` engine only serves state-preparation fits (a
        unitary target needs all ``D`` columns).
        """
        if self.contract.column_based and not is_state_target(target):
            raise ValueError(
                f"a {self.contract.describe()} engine only serves "
                "state-preparation targets; unitary fits need a "
                "full-unitary engine"
            )
        strategy = strategy if strategy is not None else self.strategy
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        num_starts = max(1, starts)
        if strategy == "auto":
            strategy = (
                "batched"
                if num_starts >= AUTO_BATCH_MIN_STARTS and self.num_params > 0
                else "sequential"
            )
        dim = self.program.dim
        if is_state_target(target):
            scalar_cls, batched_cls = StateResiduals, BatchedStateResiduals
            options = self._state_lm_options
            to_infidelity = state_infidelity_from_cost
        else:
            scalar_cls = HilbertSchmidtResiduals
            batched_cls = BatchedHilbertSchmidtResiduals
            options = self.lm_options
            to_infidelity = functools.partial(infidelity_from_cost, dim=dim)
        if x0 is not None:
            x0 = np.asarray(x0, dtype=np.float64)
            if x0.shape != (self.num_params,):
                raise ValueError(f"x0 must have shape ({self.num_params},)")
        rng = np.random.default_rng(rng)
        # One draw order for both schedules, so a seed gives them the
        # same start population.
        guesses = (
            x0 if s == 0 and x0 is not None
            else rng.uniform(-2 * np.pi, 2 * np.pi, self.num_params)
            for s in range(num_starts)
        )

        runs: list[LMResult] = []
        if strategy == "batched":
            schedule = self._batched()
            rows = np.array(list(guesses))
            fn = batched_cls(
                schedule.vm_for(num_starts), target
            ).residuals_and_jacobian

            def executed():
                runs.extend(schedule.instantiate(fn, rows, options))
                yield from runs

        else:
            fn = scalar_cls(self.vm, target).residuals_and_jacobian

            def executed():
                # Lazy: a start is drawn and run only when the scan
                # asks for it, so breaking out of the scan skips the
                # remaining starts.
                for guess in guesses:
                    runs.append(levenberg_marquardt(fn, guess, options))
                    yield runs[-1]

        t0 = time.perf_counter()
        with telemetry.tracer().span(
            "fit", category="instantiate",
            dim=dim, starts=num_starts, strategy=strategy,
        ) as span:
            # The winner scan: best so far by cost, stopping at the
            # first start where the best reaches the threshold (the
            # paper's early-termination short-circuit).  The starts the
            # lockstep schedule abandoned lie past that point, so both
            # schedules agree on the winner and ``starts_used``.
            best: LMResult | None = None
            used = 0
            for run in executed():
                used += 1
                if best is None or run.cost < best.cost:
                    best = run
                if to_infidelity(best.cost) <= self.success_threshold:
                    break
            span.set(starts_used=used)
        optimize_seconds = time.perf_counter() - t0
        assert best is not None
        registry = telemetry.metrics()
        infidelity = to_infidelity(best.cost)
        if not np.isfinite(infidelity):
            # Every start diverged to NaN/Inf: report an infinite (not
            # NaN) infidelity so callers' comparisons stay ordered.
            registry.counter("instantiate.nonfinite_fits").add()
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
        registry.counter("instantiate.fits").add()
        registry.counter(f"instantiate.fits.{strategy}").add()
        for run in runs:
            registry.counter(f"instantiate.stop.{run.stop_reason}").add()
        registry.counter("instantiate.lm_iterations").add(
            result.total_iterations
        )
        registry.counter("instantiate.evaluations").add(
            result.total_evaluations
        )
        registry.histogram("instantiate.starts_used").observe(used)
        registry.histogram("instantiate.lm_iterations_per_fit").observe(
            result.total_iterations
        )
        registry.histogram(f"instantiate.eval_wall.dim{dim}").observe(
            optimize_seconds
        )
        registry.counter("instantiate.optimize_seconds").add(
            optimize_seconds
        )
        return result


def instantiate(
    circuit: QuditCircuit,
    target: np.ndarray | Statevector,
    starts: int = 1,
    rng: np.random.Generator | int | None = None,
    precision: str = "f64",
    success_threshold: float = SUCCESS_THRESHOLD,
    lm_options: LMOptions | None = None,
    strategy: str = "sequential",
    contract: OutputContract | None = None,
) -> InstantiationResult:
    """One-shot convenience wrapper around :class:`Instantiater`.

    ``target`` may be a ``(D, D)`` unitary, a
    :class:`~repro.utils.Statevector`, or a 1-D amplitude vector
    (state preparation).  ``contract`` selects the engine's output
    contract; ``OutputContract.column(0)`` compiles the column-
    specialized program for state-preparation targets."""
    engine = Instantiater(
        circuit,
        precision=precision,
        success_threshold=success_threshold,
        lm_options=lm_options,
        strategy=strategy,
        contract=contract,
    )
    return engine.instantiate(target, starts=starts, rng=rng)
