"""Candidate-evaluation executors: the parallel frontier layer.

Candidates produced by one synthesis round — all successors of a
frontier expansion, all gate-deletion variants of a compression scan
wave — are independent instantiation problems.  This module evaluates
such a batch through a :class:`CandidateExecutor`:

* :class:`SerialCandidateExecutor` runs the batch in-process through
  the shared :class:`~repro.instantiation.EnginePool` (the seed
  behaviour, minus the draw-order RNG coupling);
* :class:`ProcessCandidateExecutor` fans the batch out over a process
  pool.  Workers never AOT-compile: the parent pool compiles each new
  template shape once, snapshots it as a pickled
  :class:`~repro.instantiation.SerializedEngine` (TNVM bytecode +
  simplified expression entries, no generated code), and ships the
  snapshot with every task; a per-worker LRU rehydrates each shape
  once and reuses its engine, which generates its megakernel and
  writers from the entries on first use.

Determinism: each candidate's multi-start RNG is seeded by
:func:`candidate_seed` — a stable hash of the pass's base seed and the
candidate's structure key — never by draw order, so serial and
parallel evaluation of the same batch return bit-identical results no
matter how the work is scheduled.

Fault tolerance: a dead worker breaks the whole
``ProcessPoolExecutor``, so :meth:`ProcessCandidateExecutor.run`
rebuilds the pool and resubmits only the unresolved jobs (the
structure-keyed seeding makes the retried results bit-identical to a
fault-free run).  Per-job retry budgets quarantine poison candidates
as failed :class:`FitOutcome`\\ s instead of sinking the pass,
per-job/per-round deadlines bound stragglers, non-finite fit results
degrade to failed outcomes instead of poisoning the frontier, and
repeated pool breakage falls back to in-process serial evaluation.
Every recovery event rides telemetry (``executor.retries`` /
``.quarantined`` / ``.timeouts`` / ``.pool_rebuilds`` /
``.serial_fallbacks`` / ``.nonfinite_results`` /
``.failed_candidates``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..circuit.circuit import QuditCircuit
from ..instantiation.cost import as_target_array, is_state_target
from ..instantiation.instantiater import Instantiater
from ..instantiation.pool import EnginePool
from ..jit.cache import ExpressionCache
from ..tensornet.contract import FULL_UNITARY, OutputContract
from ..testing.faults import maybe_fault
from ..utils.statevector import state_prep_infidelity
from ..utils.unitary import hilbert_schmidt_infidelity

__all__ = [
    "FitJob",
    "FitOutcome",
    "CandidateExecutor",
    "SerialCandidateExecutor",
    "ProcessCandidateExecutor",
    "make_executor",
    "candidate_seed",
]


def candidate_seed(base_seed: int, key: object) -> int:
    """A stable per-candidate RNG seed.

    Derived from the pass's base seed and the candidate's identity
    (typically its :meth:`~QuditCircuit.structure_key`) through SHA-256,
    so the seed depends on *what* is being fitted, never on the order
    candidates happen to be drawn or scheduled in — the property that
    makes serial and parallel evaluation bit-identical.
    """
    digest = hashlib.sha256(repr((base_seed, key)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class FitJob:
    """One candidate fit: circuit, target, and its derived seed.

    ``target`` is a ``(D, D)`` unitary (Eq. 1 fit) or a 1-D amplitude
    vector (state preparation); the engines dispatch on the shape, so
    both target types flow through the same executors, process pool,
    and shipped-engine payloads.  The target's shape also fixes the
    engine's :class:`~repro.tensornet.OutputContract`
    (:attr:`contract`): a state fits through a ``COLUMN(0)`` engine,
    a unitary through a full-unitary one.

    ``timeout`` is this job's wall-clock budget in seconds (measured
    from the submission of its attempt); a straggler past it is
    abandoned as a failed outcome.  ``None`` falls back to the
    executor's default ``job_timeout`` (itself ``None`` = unbounded).
    """

    circuit: QuditCircuit
    target: np.ndarray
    starts: int
    seed: int
    x0: np.ndarray | None = None
    timeout: float | None = None

    @property
    def contract(self) -> OutputContract:
        """The engine contract this job's target needs."""
        if is_state_target(self.target):
            return OutputContract.column(0)
        return FULL_UNITARY


@dataclass
class FitOutcome:
    """Result of one candidate fit plus its engine-side wall time."""

    params: np.ndarray
    infidelity: float
    busy_seconds: float
    #: True when the candidate had parameters and hit an engine (the
    #: condition under which passes count an instantiation call).
    engine_call: bool
    #: True when the fit never produced a usable result (quarantined
    #: crash, deadline, non-finite numbers); ``infidelity`` is then
    #: ``inf``, so the candidate can never win a round or a frontier
    #: slot, and ``failure`` names the reason.
    failed: bool = False
    failure: str = ""


def _constant_outcome(job: FitJob) -> FitOutcome:
    """A fully constant candidate has nothing to optimize."""
    t0 = time.perf_counter()
    unitary = job.circuit.get_unitary(())
    if is_state_target(job.target):
        infidelity = state_prep_infidelity(job.target, unitary)
    else:
        infidelity = hilbert_schmidt_infidelity(as_target_array(job.target), unitary)
    return FitOutcome(
        params=np.empty(0),
        infidelity=infidelity,
        busy_seconds=time.perf_counter() - t0,
        engine_call=False,
    )


def _failed_outcome(job: FitJob, reason: str) -> FitOutcome:
    """The degraded result for a candidate that could not be fitted.

    Infinite infidelity (like a hopeless fit, never ``NaN``) keeps
    every downstream comparison well-behaved: the candidate loses all
    round scans, never reaches a success threshold, and the search
    skips it when filling the frontier.
    """
    telemetry.metrics().counter("executor.failed_candidates").add()
    telemetry.tracer().instant(
        "candidate.failed", category="executor", reason=reason, seed=job.seed
    )
    return FitOutcome(
        params=np.zeros(job.circuit.num_params),
        infidelity=float("inf"),
        busy_seconds=0.0,
        engine_call=False,
        failed=True,
        failure=reason,
    )


def _guarded_outcome(
    job: FitJob, params: np.ndarray, infidelity: float, busy: float
) -> FitOutcome:
    """Wrap a fit result, degrading non-finite numbers to a failure.

    The LM loops already refuse to *accept* non-finite steps, but a
    target or start that evaluates to NaN/Inf on the very first sweep
    still surfaces here; converting it to a failed outcome keeps the
    garbage out of the frontier and out of warm-start vectors.
    """
    if not np.isfinite(infidelity) or not np.all(np.isfinite(params)):
        telemetry.metrics().counter("executor.nonfinite_results").add()
        return _failed_outcome(job, "non-finite")
    return FitOutcome(
        params=params,
        infidelity=infidelity,
        busy_seconds=busy,
        engine_call=True,
    )


class CandidateExecutor:
    """Protocol: evaluate a batch of candidate fits against one pool."""

    workers: int = 1
    pool: EnginePool

    def run(
        self, jobs: list[FitJob], round_timeout: float | None = None
    ) -> list[FitOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def abandon(self) -> None:
        """Tear down without waiting on in-flight work (preemption
        path: the grace period may not cover a join).  Serial
        executors have nothing in flight, so this is just close."""
        self.close()

    def __enter__(self) -> CandidateExecutor:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SerialCandidateExecutor(CandidateExecutor):
    """In-process batch evaluation through the shared engine pool."""

    def __init__(self, pool: EnginePool):
        self.pool = pool
        self.workers = 1

    def run(
        self, jobs: list[FitJob], round_timeout: float | None = None
    ) -> list[FitOutcome]:
        deadline = (
            None if round_timeout is None
            else time.monotonic() + round_timeout
        )
        outcomes = []
        for job in jobs:
            if deadline is not None and time.monotonic() > deadline:
                # An in-process fit cannot be interrupted mid-flight;
                # the round budget is enforced between jobs.
                telemetry.metrics().counter("executor.timeouts").add()
                outcomes.append(_failed_outcome(job, "round-timeout"))
                continue
            if job.circuit.num_params == 0:
                outcomes.append(_constant_outcome(job))
                continue
            engine = self.pool.engine_for(job.circuit, job.contract)
            t0 = time.perf_counter()
            result = engine.instantiate(
                job.target, starts=job.starts, rng=job.seed, x0=job.x0
            )
            outcomes.append(
                _guarded_outcome(
                    job,
                    result.params,
                    result.infidelity,
                    time.perf_counter() - t0,
                )
            )
        return outcomes


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

#: Rehydrated engines per (structure key, contract) — the pool's own
#: key; a worker process serves one executor, and an executor one
#: pool, so the pool's settings need no place in it.  Each worker
#: unpickles a shape's payload once, on a miss, then reuses the engine
#: — including its lazily built VMs and megakernel — for every later
#: task on that shape.
_WORKER_ENGINES: OrderedDict = OrderedDict()
_WORKER_CAPACITY = 32

#: One expression cache per worker process: engines rehydrated for
#: different template shapes share their gate-level
#: ``CompiledExpression`` objects (seeded from the payloads), so e.g.
#: the batched writer variant of U3 is generated once per worker, not
#: once per rehydrated engine.
_WORKER_CACHE: ExpressionCache | None = None


def _worker_expression_cache() -> ExpressionCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = ExpressionCache()
    return _WORKER_CACHE


def _worker_fit(
    key: tuple,
    payload: bytes,
    target: np.ndarray,
    starts: int,
    seed: int,
    x0: np.ndarray | None,
    trace: bool = False,
):
    """Task body: rehydrate (or reuse) the shape's engine and fit.

    ``payload`` is the shape's pickled engine snapshot, which every
    task carries; the worker unpickles it only when its engine LRU
    misses (a fresh worker, or an evicted shape).

    Telemetry rides the result tuple: the worker always ships the
    metrics its task produced (a registry delta), and when the parent
    had tracing on (``trace=True``) it also records spans locally and
    ships their states so the parent merges one coherent timeline
    tagged with this worker's pid.  The fit itself never consults
    either, so results are bit-identical with tracing on or off.

    The :func:`~repro.testing.faults.maybe_fault` hook at the top is
    the chaos suite's handle on this process: an armed ``REPRO_FAULT``
    can kill the worker here (exercising the parent's pool-rebuild
    retry), hang it (exercising the job deadline), or flag the result
    for NaN corruption (exercising the non-finite quarantine).  With
    no spec armed the hook is a single ``os.environ`` read.
    """
    fault = maybe_fault("worker_fit", key=seed)
    registry = telemetry.metrics()
    metrics_before = registry.snapshot()
    if trace:
        telemetry.enable()
    try:
        with telemetry.tracer().span("worker_task", category="executor"):
            engine = _WORKER_ENGINES.get(key)
            if engine is None:
                with telemetry.tracer().span(
                    "engine.rehydrate", category="executor"
                ):
                    engine = Instantiater.from_serialized(
                        pickle.loads(payload),
                        cache=_worker_expression_cache(),
                    )
                _WORKER_ENGINES[key] = engine
                while len(_WORKER_ENGINES) > _WORKER_CAPACITY:
                    _WORKER_ENGINES.popitem(last=False)
            else:
                _WORKER_ENGINES.move_to_end(key)
            t0 = time.perf_counter()
            result = engine.instantiate(
                target, starts=starts, rng=seed, x0=x0
            )
            busy = time.perf_counter() - t0
            params, infidelity = result.params, result.infidelity
            if fault == "nan":
                params = np.full_like(params, np.nan)
                infidelity = float("nan")
            if not np.isfinite(infidelity) or not np.all(
                np.isfinite(params)
            ):
                # Never ship garbage parameters across the pipe: the
                # parent will degrade this to a failed outcome, but
                # normalize here too so a partially-written result
                # can't leak NaN into any consumer.
                params = np.zeros_like(params)
                infidelity = float("inf")
    finally:
        # Per-task enable/disable keeps the worker's tracer empty
        # between tasks (and inert when the parent stops tracing).
        spans = (
            [span.state() for span in telemetry.disable()] if trace else []
        )
    return (
        params,
        infidelity,
        busy,
        spans,
        telemetry.delta(metrics_before, registry.snapshot()),
    )


@dataclass
class _PendingFit:
    """Parent-side state of one not-yet-resolved process-pool job."""

    job: FitJob
    key: tuple
    payload: bytes
    retries: int = 0


class ProcessCandidateExecutor(CandidateExecutor):
    """Process-pool batch evaluation with shipped compiled engines.

    The parent resolves every job through ``pool.engine_for`` exactly
    like the serial executor (so AOT compiles happen once, here, and
    the pool's hit/miss counters agree between serial and parallel
    runs), then submits ``(structure key, engine snapshot, target,
    starts, seed, x0)`` tasks.  The process pool is created lazily on
    first use and persists across batches, so worker-side engine
    caches amortize across a whole synthesis pass.

    Every task carries its shape's pickled engine snapshot (program
    and simplified entries, a few KB); a worker unpickles it only when
    its engine LRU misses, so each worker rehydrates a shape once and
    later tasks on the shape reuse its engine.

    Failure posture: a crashed worker breaks the whole
    ``ProcessPoolExecutor``, so :meth:`run` collects whatever results
    completed, rebuilds the pool, and resubmits only the unresolved
    jobs — each at most ``max_retries`` times before it is quarantined
    as a failed outcome.  After ``max_pool_rebuilds`` rebuilds within
    one :meth:`run`, the remaining jobs are evaluated in-process
    through a :class:`SerialCandidateExecutor` instead of erroring the
    pass (structure-keyed seeds make the fallback bit-identical).
    ``job_timeout`` (overridable per :class:`FitJob`) and the
    per-round budget bound stragglers; a timed-out round tears the
    pool down without waiting (hung workers are killed, not joined).
    """

    def __init__(
        self,
        pool: EnginePool,
        workers: int,
        mp_context: str | None = None,
        max_retries: int = 2,
        max_pool_rebuilds: int = 2,
        job_timeout: float | None = None,
    ):
        if workers < 2:
            raise ValueError("ProcessCandidateExecutor needs workers >= 2")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        self.pool = pool
        self.workers = workers
        self.max_retries = max_retries
        self.max_pool_rebuilds = max_pool_rebuilds
        self.job_timeout = job_timeout
        #: set by ``__exit__``: the owner declared this executor done,
        #: so a later ``run()`` is a bug, not a restart request.
        self._terminal = False
        if mp_context is None:
            # forkserver gives cheap per-worker forks from a clean
            # server process (no inherited BLAS/OpenMP thread state, no
            # 3.12+ fork-with-threads deprecation); fall back to plain
            # fork, then to the platform default (spawn).  Either way,
            # compiled engines travel via the pickled payload, never
            # via inheritance.
            methods = multiprocessing.get_all_start_methods()
            for preferred in ("forkserver", "fork"):
                if preferred in methods:
                    mp_context = preferred
                    break
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            ctx = (
                multiprocessing.get_context(self._mp_context)
                if self._mp_context is not None
                else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
        return self._executor

    @staticmethod
    def _attempt_timeout(
        attempt_start: float,
        job_timeout: float | None,
        round_deadline: float | None,
    ) -> float | None:
        """Seconds to wait on one future: the tighter of the job's
        own budget (from its attempt's submission) and the round
        deadline; ``None`` = wait forever."""
        deadlines = []
        if job_timeout is not None:
            deadlines.append(attempt_start + job_timeout)
        if round_deadline is not None:
            deadlines.append(round_deadline)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def run(
        self, jobs: list[FitJob], round_timeout: float | None = None
    ) -> list[FitOutcome]:
        if self._terminal:
            raise RuntimeError(
                "this ProcessCandidateExecutor was closed by its context "
                "manager and is done; build a new executor (an explicit "
                "close() instead leaves it restartable)"
            )
        registry = telemetry.metrics()
        tracer = telemetry.tracer()
        round_deadline = (
            None if round_timeout is None
            else time.monotonic() + round_timeout
        )
        outcomes: list[FitOutcome | None] = [None] * len(jobs)
        # The parent resolves every job's payload — one engine_for per
        # job, the same hit/miss pattern as the serial executor — and
        # every task carries it, crash-retry resubmissions included.
        pending: dict[int, _PendingFit] = {}
        for i, job in enumerate(jobs):
            if job.circuit.num_params == 0:
                outcomes[i] = _constant_outcome(job)
                continue
            contract = job.contract
            payload = self.pool.serialized_bytes(job.circuit, contract)
            key = (job.circuit.structure_key(), contract)
            pending[i] = _PendingFit(job=job, key=key, payload=payload)

        rebuilds = 0
        timed_out = False
        try:
            while pending:
                if (
                    round_deadline is not None
                    and time.monotonic() > round_deadline
                ):
                    for i in sorted(pending):
                        registry.counter("executor.timeouts").add()
                        outcomes[i] = _failed_outcome(
                            pending[i].job, "round-timeout"
                        )
                    pending.clear()
                    break
                executor = self._ensure_executor()
                attempt_start = time.monotonic()
                futures: list[tuple[int, object]] = []
                broken = False
                for i in sorted(pending):
                    entry = pending[i]
                    try:
                        futures.append((
                            i,
                            executor.submit(
                                _worker_fit,
                                entry.key,
                                entry.payload,
                                entry.job.target,
                                entry.job.starts,
                                entry.job.seed,
                                entry.job.x0,
                                telemetry.tracing_enabled(),
                            ),
                        ))
                    except BrokenProcessPool:
                        # The pool died under an earlier submission;
                        # everything unsubmitted stays pending.
                        broken = True
                        break
                for i, future in futures:
                    job_timeout = (
                        pending[i].job.timeout
                        if pending[i].job.timeout is not None
                        else self.job_timeout
                    )
                    try:
                        result = future.result(
                            timeout=self._attempt_timeout(
                                attempt_start, job_timeout, round_deadline
                            )
                        )
                    except FuturesTimeout:
                        # The straggler may be hung, not just slow:
                        # abandon the result either way, and tear the
                        # pool down at the end of the run so the
                        # occupied worker is reclaimed, not reused.
                        future.cancel()
                        timed_out = True
                        registry.counter("executor.timeouts").add()
                        reason = (
                            "round-timeout"
                            if round_deadline is not None
                            and time.monotonic() >= round_deadline
                            else "timeout"
                        )
                        outcomes[i] = _failed_outcome(
                            pending.pop(i).job, reason
                        )
                        continue
                    except BrokenProcessPool:
                        broken = True
                        continue  # stays pending for the retry pass
                    outcomes[i] = self._outcome(pending.pop(i).job, result)
                if not broken:
                    continue
                # --- crash recovery -----------------------------------
                # A dead worker broke the pool: everything that had
                # completed was already harvested above (done futures
                # keep their results); what remains is retried on a
                # fresh pool, within a per-job budget.
                rebuilds += 1
                registry.counter("executor.pool_rebuilds").add()
                tracer.instant(
                    "pool.rebuild", category="executor",
                    rebuilds=rebuilds, unresolved=len(pending),
                )
                for i in sorted(pending):
                    entry = pending[i]
                    entry.retries += 1
                    if entry.retries > self.max_retries:
                        # A candidate that keeps killing workers is
                        # poison: fail it so the round (and the pass)
                        # survive without it.
                        registry.counter("executor.quarantined").add()
                        outcomes[i] = _failed_outcome(
                            entry.job, "quarantined"
                        )
                        del pending[i]
                    else:
                        registry.counter("executor.retries").add()
                self._abandon()
                if pending and rebuilds > self.max_pool_rebuilds:
                    # The pool keeps dying under jobs that are still
                    # within their own retry budgets — stop burning
                    # workers and finish the round in-process.
                    registry.counter("executor.serial_fallbacks").add()
                    tracer.instant(
                        "serial.fallback", category="executor",
                        jobs=len(pending),
                    )
                    order = sorted(pending)
                    remaining_budget = (
                        None if round_deadline is None
                        else max(0.0, round_deadline - time.monotonic())
                    )
                    serial = SerialCandidateExecutor(self.pool).run(
                        [pending[i].job for i in order],
                        round_timeout=remaining_budget,
                    )
                    for i, outcome in zip(order, serial):
                        outcomes[i] = outcome
                    pending.clear()
        except KeyboardInterrupt:
            # Ctrl-C must not block on in-flight fits: cancel queued
            # work, kill the workers, and leave the executor
            # restartable (the old shutdown(wait=True) path could hang
            # for a full LM fit — or forever, on a hung worker).
            self._abandon()
            raise
        except BaseException:
            # An unexpected error (pickling, protocol) leaves the pool
            # in an unknown state; drop it so the next run() rebuilds
            # a fresh pool instead of failing forever.
            self.close()
            raise
        if timed_out:
            # At least one worker may still be executing an abandoned
            # task (or be hung outright); recycle the pool so the next
            # round starts with responsive workers.
            self._abandon()
        return outcomes  # type: ignore[return-value]

    def _outcome(self, job: FitJob, result) -> FitOutcome:
        params, infidelity, busy, span_states, metrics_delta = result
        if span_states:
            # Re-base the worker's spans into this process's clock and
            # add them as a separate track tagged by the worker's pid.
            telemetry.tracer().ingest(
                span_states, label=f"worker-{span_states[0]['pid']}"
            )
        if metrics_delta:
            telemetry.metrics().merge(metrics_delta)
        return _guarded_outcome(job, params, infidelity, busy)

    def _abandon(self) -> None:
        """Tear the pool down without waiting on in-flight work.

        Used when workers may be dead, hung, or mid-task after an
        interrupt: queued tasks are cancelled, worker processes are
        killed rather than joined, and the executor stays restartable
        (the next :meth:`run` builds a fresh pool).
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass  # already dead, or never fully started
        executor.shutdown(wait=False, cancel_futures=True)

    def abandon(self) -> None:
        """Public non-waiting teardown (see :meth:`_abandon`); the
        checkpoint subsystem's preemption flush calls this so SIGTERM
        handling never joins possibly-wedged workers."""
        self._abandon()

    def close(self) -> None:
        """Shut the pool down cleanly (idempotent; the executor stays
        restartable — the next :meth:`run` builds a fresh pool)."""
        if self._executor is not None:
            # wait=True: the pool is idle (run() drains its futures),
            # and a non-waiting shutdown races the management thread
            # against pipe teardown, spraying harmless-but-noisy
            # "Bad file descriptor" tracebacks at interpreter exit.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __exit__(self, *_exc) -> None:
        self.close()
        self._terminal = True


def make_executor(
    pool: EnginePool,
    workers: int = 1,
    mp_context: str | None = None,
    max_retries: int = 2,
    max_pool_rebuilds: int = 2,
    job_timeout: float | None = None,
) -> CandidateExecutor:
    """The executor for a worker count: serial at 1, processes above.

    The fault-tolerance knobs (``max_retries``, ``max_pool_rebuilds``,
    ``job_timeout``) only apply to the process executor; serial
    evaluation has no workers to lose."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        return SerialCandidateExecutor(pool)
    return ProcessCandidateExecutor(
        pool,
        workers,
        mp_context=mp_context,
        max_retries=max_retries,
        max_pool_rebuilds=max_pool_rebuilds,
        job_timeout=job_timeout,
    )
