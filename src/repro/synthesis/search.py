"""Bottom-up search-based circuit synthesis (paper section II-B).

:class:`SynthesisSearch` is the QSearch-lineage workload the fast
instantiation engine exists to serve: starting from a layer generator's
root template, it keeps a frontier of candidate templates ordered by an
A* score (instantiated infidelity plus gate-count cost), expands the
best one, and instantiates each new candidate against the target until
one fits to the success threshold.

The instantiation inner loop is where the paper's machinery composes:

* every candidate's multi-start fit runs through one engine with
  ``strategy="auto"`` — at the default 8 starts that is a single
  vectorized :class:`~repro.tnvm.vm.BatchedTNVM` sweep per LM round
  rather than 8 scalar passes;
* engines come from a structure-keyed
  :class:`~repro.instantiation.EnginePool`, so the AOT compile of a
  template shape is paid once per shape, not once per candidate — and
  frontier candidates that share a template shape collapse onto the
  same engine (identical-shape duplicates are not re-instantiated at
  all, via the visited set);
* candidates are evaluated in *rounds* — every successor of up to
  ``expansion_width`` frontier expansions forms one batch handed to a
  :class:`~repro.synthesis.executor.CandidateExecutor`, so with
  ``workers > 1`` the whole round runs concurrently on processes that
  rehydrate the pool's already-compiled engines.  Per-candidate RNG
  seeds derive from the candidate's structure key, so results are
  bit-identical across worker counts and evaluation orders.
"""

from __future__ import annotations

import contextlib
import heapq
import time
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..checkpoint import (
    CheckpointStore,
    PassCheckpointer,
    config_fingerprint,
    load_resume_state,
    target_fingerprint,
)
from ..circuit.circuit import QuditCircuit
from ..instantiation.cost import as_target_array
from ..instantiation.instantiater import SUCCESS_THRESHOLD
from ..instantiation.lm import LMOptions
from ..instantiation.pool import EnginePool
from ..tensornet.contract import OutputContract
from ..testing.faults import maybe_fault
from ..utils.statevector import Statevector
from .executor import CandidateExecutor, FitJob, candidate_seed, make_executor
from .layers import LayerGenerator, QSearchLayerGenerator
from .result import SynthesisResult

__all__ = ["SynthesisSearch", "infer_radices"]


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


class _PassCounters:
    """Per-pass telemetry counters for one synthesis/resynthesis run.

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


def _run_round(
    executor: CandidateExecutor,
    jobs: list[FitJob],
    counters: _PassCounters,
    round_timeout: float | None = None,
):
    """Evaluate one round of candidate fits and update the pass
    counters (shared by the search and resynthesis passes).

    ``calls`` counts engine invocations (constant candidates have
    nothing to optimize and are evaluated directly, without counting);
    ``busy``/``eval_wall`` feed the ``parallel_efficiency`` report.
    ``round_timeout`` bounds the whole round's wall clock: stragglers
    past it degrade to failed outcomes instead of stalling the pass.
    """
    with telemetry.tracer().span(
        "round", category="synthesize",
        jobs=len(jobs), workers=executor.workers,
    ):
        t0 = time.perf_counter()
        outcomes = executor.run(jobs, round_timeout=round_timeout)
        counters.eval_wall.add(time.perf_counter() - t0)
    for outcome in outcomes:
        counters.busy.add(outcome.busy_seconds)
        if outcome.engine_call:
            counters.calls.add()
    return outcomes


def _parallel_efficiency(
    executor: CandidateExecutor, counters: _PassCounters
) -> float | None:
    """Engine busy time over the ``workers x wall`` evaluation budget."""
    eval_wall = counters.eval_wall.value
    if eval_wall <= 0.0:
        return None
    return counters.busy.value / (executor.workers * eval_wall)


def infer_radices(dim: int) -> tuple[int, ...]:
    """Radices for a target dimension: qubits if ``dim`` is a power of
    two, qutrits if a power of three; anything else needs explicit
    radices from the caller."""
    for radix in (2, 3):
        n, d = 0, dim
        while d % radix == 0:
            d //= radix
            n += 1
        if d == 1 and n > 0:
            return (radix,) * n
    raise ValueError(
        f"cannot infer radices for dimension {dim}; pass radices="
    )


@dataclass
class _Node:
    """One frontier entry: an instantiated candidate template."""

    circuit: QuditCircuit
    params: np.ndarray
    infidelity: float
    layers: int


class SynthesisSearch:
    """Frontier-based bottom-up synthesis over a layer-generator grammar.

    ``heuristic`` selects the frontier order:

    * ``"astar"`` (default) — ``layers + heuristic_weight * infidelity``:
      greedy toward templates that already sit close to the target,
      biased toward fewer entangling blocks;
    * ``"dijkstra"`` — ``layers`` only: expands strictly by gate count,
      guaranteeing the first solution found uses the fewest entangling
      blocks the grammar allows (at the price of more expansions);
    * a callable ``f(infidelity, layers) -> float`` for custom orders.

    Budgets: ``max_layers`` caps template depth, ``max_expansions`` caps
    frontier pops, so a search on an unreachable target terminates with
    the best candidate found (``success=False``).

    Parallelism: every round pops up to ``expansion_width`` frontier
    nodes, and *all* their successors are evaluated as one batch
    through the candidate executor — ``workers`` processes when > 1.
    ``expansion_width`` (not ``workers``) defines the search
    trajectory, so any two runs with the same width return bit-identical
    results regardless of worker count; widen it (typically to the
    worker count or a small multiple of the grammar's branching factor)
    to give the executor enough concurrent candidates per round.

    Fault tolerance: worker crashes are retried (up to ``max_retries``
    per candidate) on a rebuilt pool — structure-keyed seeding makes
    the recovered result bit-identical to a fault-free run —
    ``job_timeout`` / ``round_timeout`` bound stragglers, and
    candidates that fail anyway (quarantined, timed out, non-finite)
    are excluded from the frontier rather than erroring the pass; the
    result's ``failed_candidates`` / ``retries`` / ``timed_out``
    fields report such degradation.

    Durability: with ``checkpoint_dir`` set, the pass snapshots its
    round-boundary state (frontier, visited set, best-so-far, base
    seed, counters) into a :class:`~repro.checkpoint.CheckpointStore`
    every ``checkpoint_every`` rounds and/or ``checkpoint_seconds``
    seconds, flushes a final snapshot on SIGTERM/SIGINT (then tears
    the pool down via the non-waiting abandon path and raises
    :class:`~repro.checkpoint.PreemptedError`), and resumes with
    ``synthesize(resume_from=...)``.  Because candidate seeds derive
    from structure keys, a resumed pass returns a result bit-identical
    (circuit, params, infidelity, call counts) to an uninterrupted
    run — only wall-clock and cache-hit accounting differ.
    """

    def __init__(
        self,
        layer_generator: LayerGenerator | None = None,
        success_threshold: float = SUCCESS_THRESHOLD,
        heuristic: str | object = "astar",
        heuristic_weight: float = 10.0,
        max_layers: int = 8,
        max_expansions: int = 256,
        starts: int = 8,
        strategy: str | None = None,
        precision: str | None = None,
        lm_options: LMOptions | None = None,
        pool: EnginePool | None = None,
        warm_start: bool = True,
        workers: int = 1,
        expansion_width: int = 1,
        executor: CandidateExecutor | None = None,
        job_timeout: float | None = None,
        round_timeout: float | None = None,
        max_retries: int = 2,
        checkpoint_dir: str | None = None,
        checkpoint_every: int | None = 1,
        checkpoint_seconds: float | None = None,
        checkpoint_keep: int = 3,
    ):
        if not callable(heuristic) and heuristic not in ("astar", "dijkstra"):
            raise ValueError(
                "heuristic must be 'astar', 'dijkstra', or a callable"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if expansion_width < 1:
            raise ValueError("expansion_width must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None)")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if checkpoint_seconds is not None and checkpoint_seconds <= 0:
            raise ValueError("checkpoint_seconds must be positive (or None)")
        if checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        self.layer_generator = layer_generator or QSearchLayerGenerator()
        self.success_threshold = success_threshold
        self.heuristic = heuristic
        self.heuristic_weight = heuristic_weight
        self.max_layers = max_layers
        self.max_expansions = max_expansions
        self.starts = starts
        self.warm_start = warm_start
        self.expansion_width = expansion_width
        #: Fault-tolerance budgets, threaded into every round's
        #: :class:`FitJob`\ s (per-job wall clock) and executor calls
        #: (per-round wall clock); ``None`` = unbounded, the default.
        self.job_timeout = job_timeout
        self.round_timeout = round_timeout
        self.max_retries = max_retries
        #: Durability knobs: where round-boundary snapshots go (``None``
        #: disables checkpointing), how often (rounds and/or seconds —
        #: whichever fires first), and how many snapshots the store
        #: retains for corrupt-latest fallback.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.checkpoint_seconds = checkpoint_seconds
        self.checkpoint_keep = checkpoint_keep
        #: The engine pool persists across ``synthesize`` calls, so a
        #: search object reused for many targets pays each template
        #: shape's AOT compile once (the Listing 3 amortization).
        self.pool = _resolve_pool(
            pool, success_threshold, strategy, precision, lm_options
        )
        if executor is not None and executor.pool is not self.pool:
            raise ValueError(
                "an injected executor must wrap the search's engine pool"
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
        """The candidate executor (built lazily so serial searches and
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
        """Shut down worker processes this search created (no-op for
        serial searches and injected executors, which their owner
        closes)."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> SynthesisSearch:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _priority(self, infidelity: float, layers: int) -> float:
        if callable(self.heuristic):
            return float(self.heuristic(infidelity, layers))
        if self.heuristic == "dijkstra":
            return float(layers)
        return layers + self.heuristic_weight * infidelity

    def _config_fingerprint(self) -> str:
        # Only trajectory-shaping knobs: worker count and checkpoint
        # cadence are excluded because results are bit-identical
        # across them.  A callable heuristic hashes by a placeholder
        # (its repr would embed a memory address and never match).
        return config_fingerprint(
            pass_kind="search",
            success_threshold=self.success_threshold,
            heuristic=(
                self.heuristic
                if isinstance(self.heuristic, str)
                else "<callable>"
            ),
            heuristic_weight=self.heuristic_weight,
            max_layers=self.max_layers,
            max_expansions=self.max_expansions,
            starts=self.starts,
            warm_start=self.warm_start,
            expansion_width=self.expansion_width,
            layer_generator=type(self.layer_generator).__name__,
        )

    def synthesize(
        self,
        target: np.ndarray | Statevector,
        radices: tuple[int, ...] | None = None,
        rng: np.random.Generator | int | None = None,
        resume_from: str | CheckpointStore | None = None,
        checkpoint_dir: str | None = None,
    ) -> SynthesisResult:
        """Search for a circuit implementing ``target`` up to global
        phase, to the configured success threshold.

        ``target`` is a ``(D, D)`` unitary (circuit synthesis) or a
        :class:`~repro.utils.Statevector` / 1-D amplitude vector
        (state preparation: every candidate is fitted through a
        ``COLUMN(0)``-contract engine whose dynamic section propagates
        the single column ``U(theta)|0>`` — never the full unitary).
        A ``Statevector`` supplies its own radices; both target types
        share the search's engine pool, where engines are keyed by
        (circuit structure, output contract), so column and
        full-unitary engines for the same shape coexist.

        ``checkpoint_dir`` overrides the constructor knob for this
        call (useful when one search object serves many targets —
        each target needs its own checkpoint directory).
        ``resume_from`` (a checkpoint directory or
        :class:`~repro.checkpoint.CheckpointStore`) restores the
        newest valid snapshot and continues — bit-identically — from
        its round boundary, checkpointing onward into the same store;
        ``rng`` is ignored on resume (the stored base seed governs).
        Resuming a finished pass returns the stored result without
        redoing any work.
        """
        t0 = time.perf_counter()
        if isinstance(target, Statevector) and radices is None:
            radices = target.radices
        target = as_target_array(target)
        if target.ndim == 2 and target.shape[0] != target.shape[1]:
            raise ValueError("target must be a square matrix")
        if target.ndim not in (1, 2):
            raise ValueError(
                "target must be a (D, D) unitary, a Statevector, or a "
                "1-D amplitude vector"
            )
        radices = (
            tuple(int(r) for r in radices)
            if radices is not None
            else infer_radices(target.shape[0])
        )
        dim = 1
        for r in radices:
            dim *= r
        if dim != target.shape[0]:
            raise ValueError(
                f"radices {radices} give dimension {dim}, target has "
                f"dimension {target.shape[0]}"
            )
        # State-prep rounds run column engines end-to-end; unitary
        # targets keep the default full contract.
        contract = (
            OutputContract.column(0) if target.ndim == 1 else None
        )
        rng = np.random.default_rng(rng)
        # One base seed per pass; every candidate derives its own seed
        # from this and its structure key, so results do not depend on
        # the order candidates are drawn or scheduled in.  A resume
        # below overwrites this with the stored seed.
        base_seed = int(rng.integers(2**63))

        target_fp = target_fingerprint(target, extra=(radices,))
        config_fp = self._config_fingerprint()
        directory = (
            checkpoint_dir
            if checkpoint_dir is not None
            else self.checkpoint_dir
        )
        store: CheckpointStore | None = None
        resume_payload: dict | None = None
        if resume_from is not None:
            store, payload, _ = load_resume_state(
                resume_from,
                kind="search",
                target=target_fp,
                config=config_fp,
                keep=self.checkpoint_keep,
            )
            if payload["complete"]:
                # The pass already finished: a no-op resume returning
                # the stored result, not a re-run.
                return payload["result"]
            resume_payload = payload
        elif directory is not None:
            store = CheckpointStore(directory, keep=self.checkpoint_keep)

        registry = telemetry.metrics()
        metrics0 = registry.snapshot()
        frontier_depth = registry.histogram("synthesis.frontier_depth")
        hits0, misses0 = self.pool.hits, self.pool.misses
        counters = _PassCounters()
        executor = self.executor
        round_index = 0
        resumed_from: int | None = None
        ck: PassCheckpointer | None = None
        if store is not None:
            ck = PassCheckpointer(
                store,
                kind="search",
                target=target_fp,
                config=config_fp,
                every_rounds=self.checkpoint_every,
                every_seconds=self.checkpoint_seconds,
                executor=executor,
            )
        pass_span = telemetry.tracer().span(
            "synthesize", category="synthesize",
            dim=int(target.shape[0]), workers=executor.workers,
        )

        def finish(node: _Node, success: bool) -> SynthesisResult:
            pass_span.set(
                success=success, expanded=counters.expanded.value
            )
            pass_span.__exit__(None, None, None)
            pass_metrics = telemetry.delta(metrics0, registry.snapshot())
            result = SynthesisResult(
                circuit=node.circuit,
                params=node.params,
                infidelity=node.infidelity,
                success=success,
                instantiation_calls=counters.calls.value,
                engine_cache_hits=self.pool.hits - hits0,
                engine_cache_misses=self.pool.misses - misses0,
                nodes_expanded=counters.expanded.value,
                wall_seconds=time.perf_counter() - t0,
                workers=executor.workers,
                parallel_efficiency=_parallel_efficiency(executor, counters),
                metrics=pass_metrics,
                failed_candidates=int(
                    pass_metrics.get("executor.failed_candidates", 0)
                ),
                retries=int(pass_metrics.get("executor.retries", 0)),
                timed_out=int(pass_metrics.get("executor.timeouts", 0)),
                resumed_from_round=resumed_from,
            )
            if ck is not None:
                ck.complete(round_index, result)
            return result

        def search_state() -> dict:
            # Everything a resume needs to replay the loop from this
            # round boundary: the heap is stored verbatim (it already
            # satisfies the heap invariant, so pops replay identically)
            # and counters are stored as totals, restored via add()
            # into the new process's child counters.
            return {
                "base_seed": base_seed,
                "tick": tick,
                "visited": visited,
                "frontier": frontier,
                "best": best,
                "counters": {
                    "calls": counters.calls.value,
                    "expanded": counters.expanded.value,
                    "busy": counters.busy.value,
                    "eval_wall": counters.eval_wall.value,
                },
            }

        with contextlib.ExitStack() as stack:
            if ck is not None:
                stack.enter_context(ck)
            if resume_payload is not None:
                state = resume_payload["state"]
                base_seed = state["base_seed"]
                tick = state["tick"]
                visited = state["visited"]
                frontier = state["frontier"]
                best = state["best"]
                round_index = resumed_from = int(resume_payload["round"])
                counters.calls.add(state["counters"]["calls"])
                counters.expanded.add(state["counters"]["expanded"])
                counters.busy.add(state["counters"]["busy"])
                counters.eval_wall.add(state["counters"]["eval_wall"])
            else:
                root_circuit = self.layer_generator.initial(radices)
                [root_outcome] = _run_round(
                    executor,
                    [
                        FitJob(
                            root_circuit,
                            target,
                            self.starts,
                            candidate_seed(
                                base_seed, root_circuit.structure_key()
                            ),
                            contract=contract,
                            timeout=self.job_timeout,
                        )
                    ],
                    counters,
                    round_timeout=self.round_timeout,
                )
                root = _Node(
                    root_circuit,
                    root_outcome.params,
                    root_outcome.infidelity,
                    0,
                )
                if root.infidelity <= self.success_threshold:
                    return finish(root, True)

                best = root
                visited = {root_circuit.structure_key()}
                tick = 0  # FIFO tiebreak keeps the heap deterministic
                # A failed root (quarantined/timed out: infinite
                # infidelity) still seeds the frontier — its successors
                # may fit fine — but failed *candidates* below never
                # re-enter it.
                frontier: list[tuple[float, int, _Node]] = [
                    (self._priority(root.infidelity, 0), tick, root)
                ]
            while frontier and counters.expanded.value < self.max_expansions:
                # Round boundary: the state is exactly "round_index
                # rounds completed", so a snapshot here replays no
                # finished work.  The fault point lets chaos tests
                # deliver a SIGTERM at a chosen round.
                maybe_fault("round", key=round_index)
                if ck is not None:
                    ck.round_boundary(round_index, search_state)
                frontier_depth.observe(len(frontier))
                # Assemble one round: up to expansion_width frontier
                # pops (bounded by the remaining expansion budget),
                # skipping nodes already at the depth cap.
                width = min(
                    self.expansion_width,
                    self.max_expansions - counters.expanded.value,
                )
                parents: list[_Node] = []
                while frontier and len(parents) < width:
                    _, _, node = heapq.heappop(frontier)
                    if node.layers >= self.max_layers:
                        continue
                    parents.append(node)
                if not parents:
                    break
                counters.expanded.add(len(parents))

                jobs: list[FitJob] = []
                meta: list[tuple[QuditCircuit, _Node]] = []
                for node in parents:
                    for child in self.layer_generator.successors(
                        node.circuit
                    ):
                        key = child.structure_key()
                        if key in visited:
                            continue  # template shape already instantiated
                        visited.add(key)
                        x0 = None
                        if (
                            self.warm_start
                            and child.num_params >= len(node.params)
                        ):
                            # Seed start 0 at the parent optimum, new
                            # gates at zero (identity for the default
                            # singles).
                            x0 = np.concatenate(
                                [
                                    node.params,
                                    np.zeros(
                                        child.num_params - len(node.params)
                                    ),
                                ]
                            )
                        jobs.append(
                            FitJob(
                                child,
                                target,
                                self.starts,
                                candidate_seed(base_seed, key),
                                x0,
                                contract=contract,
                                timeout=self.job_timeout,
                            )
                        )
                        meta.append((child, node))

                # The whole round evaluates as one batch (concurrently
                # when workers > 1); outcomes are then scanned in
                # deterministic job order, so the first success is the
                # same no matter how the batch was scheduled.
                outcomes = _run_round(
                    executor, jobs, counters, round_timeout=self.round_timeout
                )
                round_index += 1
                for (child, parent), outcome in zip(meta, outcomes):
                    if outcome.failed:
                        # Quarantined / timed-out / non-finite
                        # candidates never join the frontier: an
                        # infinite-infidelity node would only waste an
                        # expansion, and its zeroed parameters must not
                        # warm-start children.
                        continue
                    child_node = _Node(
                        child, outcome.params, outcome.infidelity,
                        parent.layers + 1,
                    )
                    if outcome.infidelity <= self.success_threshold:
                        return finish(child_node, True)
                    if outcome.infidelity < best.infidelity:
                        best = child_node
                    tick += 1
                    heapq.heappush(
                        frontier,
                        (
                            self._priority(
                                outcome.infidelity, child_node.layers
                            ),
                            tick,
                            child_node,
                        ),
                    )
            return finish(best, best.infidelity <= self.success_threshold)
