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

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..checkpoint import CheckpointStore, config_fingerprint, target_fingerprint
from ..circuit.circuit import QuditCircuit
from ..instantiation.cost import as_target_array
from ..instantiation.instantiater import SUCCESS_THRESHOLD
from ..instantiation.lm import LMOptions
from ..instantiation.pool import EnginePool
from ..utils.statevector import Statevector
from .executor import CandidateExecutor, FitJob
from .layers import LayerGenerator, QSearchLayerGenerator
from .passrun import PassRun, SynthesisPass
from .result import SynthesisResult

__all__ = ["SynthesisSearch", "infer_radices"]


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


@dataclass
class _SearchState:
    """The search's resumable state at a round boundary.

    The heap is stored verbatim: it already satisfies the heap
    invariant, so a resumed pass pops it in the same order.
    """

    frontier: list[tuple[float, int, _Node]]
    visited: set[tuple]
    best: _Node
    #: FIFO tiebreak for equal priorities: keeps the heap deterministic.
    tick: int = 0


class SynthesisSearch(SynthesisPass):
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
    at every round boundary, flushes it on SIGTERM/SIGINT (then tears
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
    ):
        if not callable(heuristic) and heuristic not in ("astar", "dijkstra"):
            raise ValueError(
                "heuristic must be 'astar', 'dijkstra', or a callable"
            )
        if expansion_width < 1:
            raise ValueError("expansion_width must be >= 1")
        super().__init__(
            success_threshold=success_threshold,
            starts=starts,
            strategy=strategy,
            precision=precision,
            lm_options=lm_options,
            pool=pool,
            workers=workers,
            executor=executor,
            job_timeout=job_timeout,
            round_timeout=round_timeout,
            max_retries=max_retries,
            checkpoint_dir=checkpoint_dir,
        )
        self.layer_generator = layer_generator or QSearchLayerGenerator()
        self.heuristic = heuristic
        self.heuristic_weight = heuristic_weight
        self.max_layers = max_layers
        self.max_expansions = max_expansions
        self.warm_start = warm_start
        self.expansion_width = expansion_width

    # ------------------------------------------------------------------
    def _priority(self, infidelity: float, layers: int) -> float:
        if callable(self.heuristic):
            return float(self.heuristic(infidelity, layers))
        if self.heuristic == "dijkstra":
            return float(layers)
        return layers + self.heuristic_weight * infidelity

    def _config_fingerprint(self) -> str:
        # Only trajectory-shaping knobs: the worker count is excluded
        # because results are bit-identical across it.  A callable
        # heuristic hashes by a placeholder (its repr would embed a
        # memory address and never match).
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
        dim = math.prod(radices)
        if dim != target.shape[0]:
            raise ValueError(
                f"radices {radices} give dimension {dim}, target has "
                f"dimension {target.shape[0]}"
            )

        with PassRun(
            self,
            "search",
            target_fingerprint(target, extra=(radices,)),
            self._config_fingerprint(),
            rng=rng,
            resume_from=resume_from,
            checkpoint_dir=checkpoint_dir or self.checkpoint_dir,
            span="synthesize",
            dim=int(target.shape[0]),
        ) as run:
            if run.stored is not None:
                return run.stored
            search: _SearchState | None = run.state
            if search is None:
                circuit = self.layer_generator.initial(radices)
                root_fit = run.fit(run.job(circuit, target))
                root = _Node(circuit, root_fit.params, root_fit.infidelity, 0)
                if root.infidelity <= self.success_threshold:
                    return run.result(root.circuit, root.params, root.infidelity)
                # A failed root (quarantined/timed out: infinite
                # infidelity) still seeds the frontier — its successors
                # may fit fine — but failed *candidates* below never
                # re-enter it.
                search = _SearchState(
                    frontier=[(self._priority(root.infidelity, 0), 0, root)],
                    visited={circuit.structure_key()},
                    best=root,
                )
            frontier = search.frontier
            frontier_depth = telemetry.metrics().histogram(
                "synthesis.frontier_depth"
            )
            expanded = run.counters.expanded
            while frontier and expanded.value < self.max_expansions:
                run.boundary(search)
                frontier_depth.observe(len(frontier))
                # Assemble one round: up to expansion_width frontier
                # pops (bounded by the remaining expansion budget),
                # skipping nodes already at the depth cap.
                width = min(
                    self.expansion_width,
                    self.max_expansions - expanded.value,
                )
                parents: list[_Node] = []
                while frontier and len(parents) < width:
                    _, _, node = heapq.heappop(frontier)
                    if node.layers >= self.max_layers:
                        continue
                    parents.append(node)
                if not parents:
                    break
                expanded.add(len(parents))

                jobs: list[FitJob] = []
                meta: list[tuple[QuditCircuit, _Node]] = []
                for node in parents:
                    for child in self.layer_generator.successors(
                        node.circuit
                    ):
                        key = child.structure_key()
                        if key in search.visited:
                            continue  # template shape already instantiated
                        search.visited.add(key)
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
                        jobs.append(run.job(child, target, x0))
                        meta.append((child, node))

                # The whole round evaluates as one batch (concurrently
                # when workers > 1); outcomes are then scanned in
                # deterministic job order, so the first success is the
                # same no matter how the batch was scheduled.
                outcomes = run.round(jobs)
                for (child, parent), outcome in zip(meta, outcomes):
                    if outcome.failed:
                        # Quarantined / timed-out / non-finite
                        # candidates never join the frontier: an
                        # infinite-infidelity node would only waste an
                        # expansion, and its zeroed parameters must not
                        # warm-start children.
                        continue
                    if outcome.infidelity <= self.success_threshold:
                        return run.result(
                            child, outcome.params, outcome.infidelity
                        )
                    child_node = _Node(
                        child, outcome.params, outcome.infidelity,
                        parent.layers + 1,
                    )
                    if outcome.infidelity < search.best.infidelity:
                        search.best = child_node
                    search.tick += 1
                    heapq.heappush(
                        frontier,
                        (
                            self._priority(
                                outcome.infidelity, child_node.layers
                            ),
                            search.tick,
                            child_node,
                        ),
                    )
            best = search.best
            return run.result(best.circuit, best.params, best.infidelity)
