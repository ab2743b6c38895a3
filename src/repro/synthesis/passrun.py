"""One driver for the plumbing the synthesis passes share.

:class:`~repro.synthesis.SynthesisSearch`,
:class:`~repro.synthesis.Resynthesizer` and
:class:`~repro.synthesis.PartitionedSynthesizer` are small state
machines — expand a frontier, scan deletions, walk windows — inside the
same plumbing, which lives here once:

* :class:`SynthesisPass` — the engine, executor and fault-tolerance
  settings of the search and the compression pass, their validation,
  and the lifecycle of the lazily built candidate executor;
* :class:`PassRun` — one pass call: resume-or-start, the base seed and
  the pass counters, candidate rounds, round boundaries (fault point,
  snapshot, preemption), the pass span, and the result.

Each pass keeps its resumable state in one dataclass.  A snapshot
stores it next to the base seed and counter totals that
:class:`PassRun` owns, so the snapshot layout and the restore come
from one definition per pass.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, TypeVar

import numpy as np

from .. import telemetry
from ..checkpoint import CheckpointStore, PassCheckpointer, load_resume_state
from ..circuit.circuit import QuditCircuit
from ..instantiation.lm import LMOptions
from ..instantiation.pool import EnginePool
from ..testing.faults import maybe_fault
from .executor import (
    CandidateExecutor,
    FitJob,
    FitOutcome,
    candidate_seed,
    make_executor,
)
from .result import SynthesisResult

__all__ = ["PassRun", "SynthesisPass"]

_Pass = TypeVar("_Pass", bound="SynthesisPass")


def _resolve_pool(
    pool: EnginePool | None,
    success_threshold: float,
    strategy: str | None,
    precision: str | None,
    lm_options: LMOptions | None,
) -> EnginePool:
    """The engine pool for a synthesis pass: the injected one, after
    rejecting silently-conflicting engine options (pooled engines are
    built from the *pool's* settings, so per-pass strategy/precision/
    lm_options would be ignored, and a pool threshold looser than the
    pass threshold would make the engines' multi-start short-circuit
    stop above the pass's bar), or a private pool built from the pass
    settings."""
    if pool is not None:
        if (
            strategy is not None
            or precision is not None
            or lm_options is not None
        ):
            raise ValueError(
                "strategy/precision/lm_options are engine settings; "
                "when injecting an EnginePool, configure them on the pool "
                "instead"
            )
        if pool.success_threshold > success_threshold:
            raise ValueError(
                f"pool.success_threshold ({pool.success_threshold:g}) is "
                f"looser than the requested success_threshold "
                f"({success_threshold:g}); pooled engines would "
                "short-circuit before reaching it"
            )
        return pool
    return EnginePool(
        strategy=strategy if strategy is not None else "auto",
        precision=precision if precision is not None else "f64",
        success_threshold=success_threshold,
        lm_options=lm_options,
    )


class SynthesisPass:
    """Settings and executor lifecycle shared by the search and the
    compression pass.

    The engine pool persists across calls, so a pass object reused for
    many targets pays each template shape's AOT compile once (the
    Listing 3 amortization).  The candidate executor is built on first
    use and closed by :meth:`close` (or the ``with`` block) unless it
    was injected, in which case its owner closes it.
    """

    def __init__(
        self,
        *,
        success_threshold: float,
        starts: int,
        strategy: str | None,
        precision: str | None,
        lm_options: LMOptions | None,
        pool: EnginePool | None,
        workers: int,
        executor: CandidateExecutor | None,
        job_timeout: float | None,
        round_timeout: float | None,
        max_retries: int,
        checkpoint_dir: str | None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None)")
        self.success_threshold = success_threshold
        self.starts = starts
        #: Fault-tolerance budgets, threaded into every round's
        #: :class:`FitJob`\ s (per-job wall clock) and executor calls
        #: (per-round wall clock); ``None`` = unbounded, the default.
        self.job_timeout = job_timeout
        self.round_timeout = round_timeout
        self.max_retries = max_retries
        #: Where round-boundary snapshots go (``None`` disables
        #: checkpointing).
        self.checkpoint_dir = checkpoint_dir
        self.pool = _resolve_pool(
            pool, success_threshold, strategy, precision, lm_options
        )
        if executor is not None and executor.pool is not self.pool:
            raise ValueError(
                "an injected executor must wrap the pass's engine pool"
            )
        if (
            executor is not None
            and workers != 1
            and workers != executor.workers
        ):
            raise ValueError(
                f"workers={workers} conflicts with the injected "
                f"executor's {executor.workers} worker(s); pass one or "
                "the other"
            )
        self.workers = executor.workers if executor is not None else workers
        self._executor = executor
        self._owns_executor = executor is None

    @property
    def executor(self) -> CandidateExecutor:
        """The candidate executor (built lazily so serial passes and
        unpicklable process machinery never mix)."""
        if self._executor is None:
            self._executor = make_executor(
                self.pool,
                self.workers,
                max_retries=self.max_retries,
                job_timeout=self.job_timeout,
            )
        return self._executor

    def close(self) -> None:
        """Shut down worker processes this pass created (no-op for
        serial passes and injected executors, which their owner
        closes)."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self: _Pass) -> _Pass:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class _PassCounters:
    """Per-pass telemetry counters for one pass call.

    Each field is a child of the process-global registry counter of
    the same name, so a pass reads its own exact values (the
    deterministic numbers that populate :class:`SynthesisResult`)
    while BENCH/trace artifacts see whole-process aggregates.
    ``expanded`` counts frontier expansions for the search and
    examined deletion candidates for the resynthesizer.
    """

    __slots__ = ("calls", "expanded", "busy", "eval_wall")

    def __init__(self):
        registry = telemetry.metrics()
        self.calls = registry.counter("synthesis.instantiation_calls").child()
        self.expanded = registry.counter("synthesis.nodes_expanded").child()
        self.busy = registry.counter("synthesis.busy_seconds").child()
        self.eval_wall = registry.counter("synthesis.eval_wall_seconds").child()

    def totals(self) -> tuple:
        return tuple(getattr(self, name).value for name in self.__slots__)

    def restore(self, totals: tuple) -> None:
        """Re-add stored totals (a resumed pass continues the counts)."""
        for name, total in zip(self.__slots__, totals):
            getattr(self, name).add(total)


class PassRun:
    """One pass call, as a context manager.

    Construction resumes or starts the pass.  With ``resume_from`` it
    loads the newest compatible snapshot (refusing a different pass
    kind, target or config): a finished pass leaves its stored result
    in :attr:`stored` for the call to return without redoing work,
    otherwise the base seed, counters, round index and the pass's
    state dataclass (:attr:`state`) come back.  A fresh pass draws its
    base seed from ``rng`` and checkpoints into ``checkpoint_dir`` when
    one is given.  ``owner`` supplies the pool and executor (the inner
    search's for the partitioned pass).

    Entering opens the preemption guard (checkpointed passes only) and
    the pass span ``span`` (tagged with ``span_args`` and the worker
    count); both close on any exit, exceptions included.
    """

    def __init__(
        self,
        owner: SynthesisPass,
        kind: str,
        target: str,
        config: str,
        *,
        rng: np.random.Generator | int | None = None,
        resume_from: str | CheckpointStore | None = None,
        checkpoint_dir: str | None = None,
        span: str | None = None,
        **span_args: Any,
    ):
        self.t0 = time.perf_counter()
        self.owner = owner
        #: A finished pass's stored result (``None`` while work remains).
        self.stored: SynthesisResult | None = None
        #: The pass's resumable state: restored on resume, otherwise
        #: ``None`` until the pass builds it.
        self.state: Any = None
        #: Completed rounds; each boundary snapshots this many.
        self.round_index = 0
        #: The round boundary this call resumed from (``None`` = fresh).
        self.resumed_from: int | None = None
        #: The open pass span, for the pass to tag (``None`` outside).
        self.span: Any = None
        self._span_name, self._span_args = span, span_args
        self._stack = contextlib.ExitStack()
        store: CheckpointStore | None = None
        payload: dict | None = None
        if resume_from is not None:
            store, payload = load_resume_state(
                resume_from, kind=kind, target=target, config=config
            )
            if payload["complete"]:
                self.stored = payload["result"]
                return
        elif checkpoint_dir is not None:
            store = CheckpointStore(checkpoint_dir)
        self._metrics0 = telemetry.metrics().snapshot()
        self._hits0, self._misses0 = owner.pool.hits, owner.pool.misses
        self.counters = _PassCounters()
        self.executor = owner.executor
        self._checkpointer = (
            None
            if store is None
            else PassCheckpointer(
                store, kind=kind, target=target, config=config,
                executor=self.executor,
            )
        )
        if payload is None:
            # One base seed per pass; every candidate derives its own
            # seed from this and its structure key, so results do not
            # depend on the order candidates are drawn or scheduled in.
            self.base_seed = int(np.random.default_rng(rng).integers(2**63))
        else:
            snapshot = payload["state"]
            self.base_seed = snapshot["base_seed"]
            self.counters.restore(snapshot["counters"])
            self.state = snapshot["pass"]
            self.round_index = self.resumed_from = int(payload["round"])

    def __enter__(self) -> PassRun:
        if self.stored is None:
            if self._checkpointer is not None:
                self._stack.enter_context(self._checkpointer)
            if self._span_name is not None:
                self.span = self._stack.enter_context(
                    telemetry.tracer().span(
                        self._span_name, category="synthesize",
                        **self._span_args, workers=self.executor.workers,
                    )
                )
        return self

    def __exit__(self, *exc_info) -> None:
        self._stack.__exit__(*exc_info)

    # ------------------------------------------------------------------
    def job(
        self,
        circuit: QuditCircuit,
        target: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> FitJob:
        """The fit job for one candidate.  Its seed derives from the
        base seed and the candidate's structure key; its target fixes
        the engine contract (:attr:`FitJob.contract`)."""
        return FitJob(
            circuit,
            target,
            self.owner.starts,
            candidate_seed(self.base_seed, circuit.structure_key()),
            x0,
            timeout=self.owner.job_timeout,
        )

    def _evaluate(self, jobs: list[FitJob]) -> list[FitOutcome]:
        """Evaluate a batch of candidate fits and update the counters.

        ``calls`` counts engine invocations (constant candidates have
        nothing to optimize and are evaluated directly, without
        counting); ``busy``/``eval_wall`` feed ``parallel_efficiency``.
        The owner's ``round_timeout`` bounds the batch's wall clock:
        stragglers past it degrade to failed outcomes.
        """
        with telemetry.tracer().span(
            "round", category="synthesize",
            jobs=len(jobs), workers=self.executor.workers,
        ):
            t0 = time.perf_counter()
            outcomes = self.executor.run(
                jobs, round_timeout=self.owner.round_timeout
            )
            self.counters.eval_wall.add(time.perf_counter() - t0)
        for outcome in outcomes:
            self.counters.busy.add(outcome.busy_seconds)
            if outcome.engine_call:
                self.counters.calls.add()
        return outcomes

    def fit(self, job: FitJob) -> FitOutcome:
        """Fit the pass's starting point (the search root or the
        compression baseline), which is not a round."""
        [outcome] = self._evaluate([job])
        return outcome

    def round(self, jobs: list[FitJob]) -> list[FitOutcome]:
        """Evaluate one round of candidates as a batch and count it."""
        outcomes = self._evaluate(jobs)
        self.round_index += 1
        return outcomes

    def boundary(self, state: Any) -> None:
        """A round boundary, with ``state`` describing exactly
        :attr:`round_index` completed rounds: a snapshot here replays
        no finished work and skips none.  The ``round`` fault point
        lets chaos tests deliver a SIGTERM at a chosen round; a latched
        signal flushes the snapshot and raises
        :class:`~repro.checkpoint.PreemptedError`."""
        maybe_fault("round", key=self.round_index)
        if self._checkpointer is not None:
            self._checkpointer.round_boundary(
                self.round_index,
                {
                    "base_seed": self.base_seed,
                    "counters": self.counters.totals(),
                    "pass": state,
                },
            )

    # ------------------------------------------------------------------
    def result(
        self,
        circuit: QuditCircuit,
        params: np.ndarray,
        infidelity: float,
    ) -> SynthesisResult:
        """Assemble the pass's result from its counters and metrics
        delta, and record it as the completion snapshot."""
        success = infidelity <= self.owner.success_threshold
        counters = self.counters
        self.span.set(success=success, expanded=counters.expanded.value)
        metrics = telemetry.delta(self._metrics0, telemetry.metrics().snapshot())
        workers = self.executor.workers
        eval_wall = counters.eval_wall.value
        result = SynthesisResult(
            circuit=circuit,
            params=params,
            infidelity=infidelity,
            success=success,
            instantiation_calls=counters.calls.value,
            engine_cache_hits=self.owner.pool.hits - self._hits0,
            engine_cache_misses=self.owner.pool.misses - self._misses0,
            nodes_expanded=counters.expanded.value,
            wall_seconds=time.perf_counter() - self.t0,
            workers=workers,
            # Engine busy time over the workers x wall budget.
            parallel_efficiency=(
                counters.busy.value / (workers * eval_wall)
                if eval_wall > 0.0
                else None
            ),
            metrics=metrics,
            failed_candidates=int(metrics.get("executor.failed_candidates", 0)),
            retries=int(metrics.get("executor.retries", 0)),
            timed_out=int(metrics.get("executor.timeouts", 0)),
            resumed_from_round=self.resumed_from,
        )
        return self.complete(result)

    def complete(self, result: SynthesisResult) -> SynthesisResult:
        """Record ``result`` as the completion snapshot, so a later
        resume returns it without redoing work."""
        if self._checkpointer is not None:
            self._checkpointer.complete(self.round_index, result)
        return result
