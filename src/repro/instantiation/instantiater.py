"""The numerical instantiation engine (paper sections II-B and V-C).

``Instantiater`` owns the expensive one-time setup — AOT compilation of
the PQC and TNVM initialization — and then runs one or more LM starts
against a target unitary.  Multi-start runs short-circuit: once a start
reaches the success threshold, remaining starts are skipped (this is
the amortization + early-termination effect behind the paper's 19.6x
multi-start speedup).
"""

from __future__ import annotations

import dataclasses
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
from .cost import (
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

#: ``strategy="auto"`` switches to the batched engine at this many
#: starts: below it the sequential short-circuit usually wins (start 0
#: often succeeds and the batch would mostly compute abandoned work),
#: above it the vectorized sweep amortization dominates.
AUTO_BATCH_MIN_STARTS = 4


def check_target_contract(contract: OutputContract, target) -> None:
    """Reject a unitary target on a column engine (it needs all ``D``
    columns); shared by both engines."""
    if contract.column_based and not is_state_target(target):
        raise ValueError(
            f"a {contract.describe()} engine only serves "
            "state-preparation targets; unitary fits need a "
            "full-unitary engine"
        )


def record_fit(kind: str, dim: int, result: InstantiationResult) -> None:
    """Fold one finished fit into the telemetry registry.

    Called by both engines at the *leaf* fit path only (the sequential
    engine's batched delegation is recorded once, by the batched
    engine), so counters never double-count a fit.
    """
    registry = telemetry.metrics()
    registry.counter("instantiate.fits").add()
    registry.counter(f"instantiate.fits.{kind}").add()
    registry.counter("instantiate.lm_iterations").add(
        result.total_iterations
    )
    registry.counter("instantiate.evaluations").add(
        result.total_evaluations
    )
    registry.histogram("instantiate.starts_used").observe(result.starts_used)
    registry.histogram("instantiate.lm_iterations_per_fit").observe(
        result.total_iterations
    )
    registry.histogram(f"instantiate.eval_wall.dim{dim}").observe(
        result.optimize_seconds
    )
    registry.counter("instantiate.optimize_seconds").add(
        result.optimize_seconds
    )


def draw_guess(
    rng: np.random.Generator,
    num_params: int,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """One start's initial parameters: ``x0`` when given (start 0),
    else uniform in ``[-2pi, 2pi)``.

    Shared by the sequential and batched engines so that a given rng
    seed produces the identical start population in either.
    """
    if x0 is not None:
        guess = np.asarray(x0, dtype=np.float64)
        if guess.shape != (num_params,):
            raise ValueError(f"x0 must have shape ({num_params},)")
        return guess
    return rng.uniform(-2 * np.pi, 2 * np.pi, num_params)


def scan_winner(runs, dim: int, success_threshold: float, to_infidelity=None):
    """The multi-start winner scan: best-so-far by cost, stopping at
    the first start where the best reaches the threshold (the paper's
    early-termination short-circuit).

    ``runs`` may be a lazy iterator — the sequential engine feeds one
    that *executes* each start on demand, so breaking out of the scan
    is what skips the remaining starts.  The batched engine replays
    the same scan over its completed runs, which is what guarantees
    the two engines agree on the winning start and ``starts_used``.

    ``to_infidelity`` converts a least-squares cost to the target
    type's infidelity; the default is the Eq. (1) Hilbert–Schmidt
    conversion for ``dim`` (state-prep scans pass
    :func:`~repro.instantiation.cost.state_infidelity_from_cost`).

    Returns ``(best_run, starts_used)``.
    """
    if to_infidelity is None:
        def to_infidelity(cost):
            return infidelity_from_cost(cost, dim)
    best: LMResult | None = None
    used = 0
    for run in runs:
        used += 1
        if best is None or run.cost < best.cost:
            best = run
        if to_infidelity(best.cost) <= success_threshold:
            break  # short-circuit: a valid solution was found
    return best, used


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
    """Outcome of (possibly multi-start) instantiation."""

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

    The constructor performs the AOT compilation and TNVM setup once;
    :meth:`instantiate` can then be called with many targets and starts,
    exactly matching the Listing 3 workflow.
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
        self._batched_engine = None
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
        fit) and counted into ``aot_seconds``."""
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

    def _batched(self):
        """The lazily-built batched engine sharing this AOT compile."""
        if self._batched_engine is None:
            from .batched import BatchedInstantiater

            engine = BatchedInstantiater(
                self.circuit,
                precision=self.precision,
                cache=self.cache,
                success_threshold=self.success_threshold,
                lm_options=self.lm_options,
                program=self.program,
            )  # circuit may be None; the shared program carries the shape
            # The bytecode was compiled by *this* engine; report one
            # combined AOT figure rather than double-counting zero.
            engine.aot_seconds += self.aot_seconds
            self._batched_engine = engine
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
        check_target_contract(self.contract, target)
        strategy = strategy if strategy is not None else self.strategy
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        if strategy == "auto":
            strategy = (
                "batched"
                if max(1, starts) >= AUTO_BATCH_MIN_STARTS
                and self.num_params > 0
                else "sequential"
            )
        if strategy == "batched":
            return self._batched().instantiate(
                target, starts=starts, rng=rng, x0=x0
            )

        rng = np.random.default_rng(rng)
        if is_state_target(target):
            residuals = StateResiduals(self.vm, target)
            options = self._state_lm_options
            to_infidelity = state_infidelity_from_cost
        else:
            residuals = HilbertSchmidtResiduals(self.vm, target)
            options = self.lm_options
            to_infidelity = None
        fn = residuals.residuals_and_jacobian

        t0 = time.perf_counter()
        runs: list[LMResult] = []

        def run_starts():
            # Lazy: each start draws and optimizes only when the
            # winner scan asks for it, so breaking out of the scan is
            # the multi-start short-circuit.
            for s in range(max(1, starts)):
                guess = draw_guess(
                    rng, self.num_params, x0 if s == 0 else None
                )
                run = levenberg_marquardt(fn, guess, options)
                runs.append(run)
                yield run

        with telemetry.tracer().span(
            "fit", category="instantiate",
            dim=self.vm.dim, starts=max(1, starts), strategy="sequential",
        ) as span:
            best, used = scan_winner(
                run_starts(), self.vm.dim, self.success_threshold,
                to_infidelity,
            )
            span.set(starts_used=used)
        optimize_seconds = time.perf_counter() - t0
        infidelity = (
            to_infidelity(best.cost)
            if to_infidelity is not None
            else infidelity_from_cost(best.cost, self.vm.dim)
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
        record_fit("sequential", self.vm.dim, result)
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
