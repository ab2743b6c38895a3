"""Resynthesis passes: compression and window-partitioned synthesis.

:class:`Resynthesizer` is the paper's Section II-B compression loop —
delete a gate, re-instantiate the remainder against the original
unitary, keep the deletion if the fit still reaches threshold — the
workload whose "hundreds of instantiation calls per target" motivates
the engine's amortized AOT + batched multi-start design.

:class:`PartitionedSynthesizer` scales synthesis past direct search by
walking a wide circuit left-to-right in windows of at most ``window``
qudits, synthesizing each window's unitary with a
:class:`~repro.synthesis.SynthesisSearch`, and stitching the results
back onto the full register with
:meth:`QuditCircuit.append_circuit`.

Both passes evaluate candidates through the same
:class:`~repro.synthesis.executor.CandidateExecutor` layer as the
search: a compression scan proceeds in *waves* of deletion candidates
that are fitted as one batch (concurrently with ``workers > 1``), and
every candidate's RNG seed derives from its structure key, so results
are bit-identical across worker counts.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Sequence

import numpy as np

from .. import telemetry
from ..checkpoint import (
    CheckpointStore,
    PassCheckpointer,
    config_fingerprint,
    load_resume_state,
    target_fingerprint,
)
from ..circuit.circuit import Operation, QuditCircuit
from ..instantiation.cost import as_target_array
from ..instantiation.instantiater import SUCCESS_THRESHOLD
from ..instantiation.lm import LMOptions
from ..instantiation.pool import EnginePool
from ..tensornet.contract import OutputContract
from ..testing.faults import maybe_fault
from ..utils.statevector import Statevector
from ..utils.unitary import hilbert_schmidt_infidelity
from .executor import CandidateExecutor, FitJob, candidate_seed, make_executor
from .result import SynthesisResult
from .search import (
    SynthesisSearch,
    _parallel_efficiency,
    _PassCounters,
    _resolve_pool,
    _run_round,
)

__all__ = ["Resynthesizer", "PartitionedSynthesizer", "SCAN_ORDERS"]

#: Valid gate-deletion scan orders for :class:`Resynthesizer`.
SCAN_ORDERS = ("backward", "forward", "entangler-first")


class Resynthesizer:
    """Gate-deletion compression against a fixed target unitary.

    Each pass scans the circuit in ``scan_order``, tentatively deleting
    one gate and re-instantiating the survivors (warm-started at their
    current values) against the target; the first deletion that still
    fits is kept and the scan restarts.  The engine pool makes repeat
    shapes — common once several gates have been removed from a regular
    template — reuse their AOT compile.

    ``scan_order`` selects which deletions are tried first:

    * ``"backward"`` (default) — last-appended gate first;
    * ``"forward"`` — first-appended gate first;
    * ``"entangler-first"`` — multi-qudit gates (back to front), then
      single-qudit gates: entangling blocks are both the expensive
      gates on hardware and the most likely to be redundant in an
      over-deep template, so trying them first tends to reach a
      cheaper circuit in fewer accepted deletions.

    ``scan_batch`` sets the wave size: that many deletion candidates
    are fitted as one executor batch before the scan decides (``None``
    = the whole scan as one wave).  The default of 1 reproduces the
    fully short-circuiting serial scan; raise it to the worker count
    (or ``None``) to trade some extra fits for concurrency.  The
    accepted deletion is always the first fitting one in scan order,
    and candidate seeds derive from structure keys, so for a given
    ``scan_batch`` the outcome is bit-identical across worker counts
    and batch scheduling.
    """

    def __init__(
        self,
        success_threshold: float = SUCCESS_THRESHOLD,
        starts: int = 8,
        strategy: str | None = None,
        precision: str | None = None,
        lm_options: LMOptions | None = None,
        pool: EnginePool | None = None,
        max_passes: int | None = None,
        scan_order: str = "backward",
        scan_batch: int | None = 1,
        workers: int = 1,
        executor: CandidateExecutor | None = None,
        job_timeout: float | None = None,
        round_timeout: float | None = None,
        max_retries: int = 2,
        checkpoint_dir: str | None = None,
        checkpoint_every: int | None = 1,
        checkpoint_seconds: float | None = None,
        checkpoint_keep: int = 3,
    ):
        if scan_order not in SCAN_ORDERS:
            raise ValueError(
                f"scan_order must be one of {SCAN_ORDERS}, "
                f"got {scan_order!r}"
            )
        if scan_batch is not None and scan_batch < 1:
            raise ValueError("scan_batch must be >= 1 (or None)")
        if workers < 1:
            raise ValueError("workers must be >= 1")
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
        self.success_threshold = success_threshold
        self.starts = starts
        self.max_passes = max_passes
        self.scan_order = scan_order
        self.scan_batch = scan_batch
        # Fault-tolerance budgets (see SynthesisSearch): per-candidate
        # and per-wave wall clocks, and the crash-retry budget.
        self.job_timeout = job_timeout
        self.round_timeout = round_timeout
        self.max_retries = max_retries
        # Durability knobs (see SynthesisSearch): one snapshot per
        # ``checkpoint_every`` scan waves and/or ``checkpoint_seconds``.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.checkpoint_seconds = checkpoint_seconds
        self.checkpoint_keep = checkpoint_keep
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
        if self._executor is None:
            self._executor = make_executor(
                self.pool,
                self.workers,
                max_retries=self.max_retries,
                job_timeout=self.job_timeout,
            )
        return self._executor

    def close(self) -> None:
        """Shut down worker processes this pass created."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> Resynthesizer:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _scan_indices(self, circuit: QuditCircuit) -> list[int]:
        """Deletion-candidate indices for one pass, in scan order."""
        n = circuit.num_operations
        if self.scan_order == "forward":
            return list(range(n))
        if self.scan_order == "backward":
            return list(reversed(range(n)))
        ops = list(circuit)
        entangling = [
            i for i in reversed(range(n)) if len(ops[i].location) > 1
        ]
        singles = [
            i for i in reversed(range(n)) if len(ops[i].location) <= 1
        ]
        return entangling + singles

    def _config_fingerprint(self) -> str:
        return config_fingerprint(
            pass_kind="resynth",
            success_threshold=self.success_threshold,
            starts=self.starts,
            max_passes=self.max_passes,
            scan_order=self.scan_order,
            scan_batch=self.scan_batch,
        )

    def resynthesize(
        self,
        circuit: QuditCircuit,
        params: Sequence[float] = (),
        target: np.ndarray | Statevector | None = None,
        rng: np.random.Generator | int | None = None,
        resume_from: str | CheckpointStore | None = None,
    ) -> SynthesisResult:
        """Compress ``circuit`` while preserving its unitary.

        ``target`` defaults to the circuit's own unitary at ``params``
        (resynthesis); pass an explicit target to compress toward a
        different unitary the circuit is known to reach.  A
        :class:`~repro.utils.Statevector` or 1-D amplitude vector
        compresses a state-preparation circuit instead: deletions are
        kept as long as ``U(theta)|0>`` still reaches the state, a
        strictly weaker constraint than preserving the full unitary —
        so state-prep compression typically deletes more gates.

        With ``checkpoint_dir`` set, the pass snapshots its scan
        position (compressed circuit so far, next pass/wave) at every
        wave boundary; ``resume_from`` continues a preempted or killed
        scan bit-identically — the wave in flight at the kill is
        re-run, completed waves are not.
        """
        t0 = time.perf_counter()
        params = np.asarray(params, dtype=np.float64)
        if target is None:
            target = circuit.get_unitary(params)
        else:
            target = as_target_array(target)
        # State-prep compression fits through column-contract engines
        # (the deletions only have to preserve ``U(theta)|0>``).
        contract = (
            OutputContract.column(0) if target.ndim == 1 else None
        )
        rng = np.random.default_rng(rng)
        base_seed = int(rng.integers(2**63))

        target_fp = target_fingerprint(
            target, extra=(circuit.structure_key(),)
        )
        config_fp = self._config_fingerprint()
        store: CheckpointStore | None = None
        resume_payload: dict | None = None
        if resume_from is not None:
            store, payload, _ = load_resume_state(
                resume_from,
                kind="resynth",
                target=target_fp,
                config=config_fp,
                keep=self.checkpoint_keep,
            )
            if payload["complete"]:
                return payload["result"]
            resume_payload = payload
        elif self.checkpoint_dir is not None:
            store = CheckpointStore(
                self.checkpoint_dir, keep=self.checkpoint_keep
            )

        registry = telemetry.metrics()
        metrics0 = registry.snapshot()
        hits0, misses0 = self.pool.hits, self.pool.misses
        counters = _PassCounters()
        executor = self.executor
        round_index = 0
        resumed_from: int | None = None
        ck: PassCheckpointer | None = None
        if store is not None:
            ck = PassCheckpointer(
                store,
                kind="resynth",
                target=target_fp,
                config=config_fp,
                every_rounds=self.checkpoint_every,
                every_seconds=self.checkpoint_seconds,
                executor=executor,
            )
        resynth_span = telemetry.tracer().span(
            "resynthesize", category="synthesize",
            ops=circuit.num_operations, workers=executor.workers,
        )

        with contextlib.ExitStack() as stack:
            if ck is not None:
                stack.enter_context(ck)
            if resume_payload is not None:
                state = resume_payload["state"]
                base_seed = state["base_seed"]
                current = state["current"]
                cur_params = state["cur_params"]
                cur_inf = state["cur_inf"]
                # Re-enter the interrupted pass at the wave that was in
                # flight; the while loop's `passes += 1` restores the
                # stored pass number.
                passes = state["next_pass"] - 1
                resume_wave: int | None = state["next_wave"]
                improved = True
                round_index = resumed_from = int(resume_payload["round"])
                counters.calls.add(state["counters"]["calls"])
                counters.expanded.add(state["counters"]["expanded"])
                counters.busy.add(state["counters"]["busy"])
                counters.eval_wall.add(state["counters"]["eval_wall"])
            else:
                current = circuit.copy()
                x0 = params if len(params) == current.num_params else None
                [baseline] = _run_round(
                    executor,
                    [
                        FitJob(
                            current,
                            target,
                            self.starts,
                            candidate_seed(
                                base_seed, current.structure_key()
                            ),
                            x0,
                            contract=contract,
                            timeout=self.job_timeout,
                        )
                    ],
                    counters,
                    round_timeout=self.round_timeout,
                )
                cur_params, cur_inf = baseline.params, baseline.infidelity
                improved = cur_inf <= self.success_threshold
                passes = 0
                resume_wave = None

            next_wave = 0

            def scan_state() -> dict:
                # The scan's replay point: the compressed circuit so
                # far plus "next work is wave `next_wave` of pass
                # `passes`".  Scan order is a pure function of the
                # circuit, so the resumed pass recomputes it.
                return {
                    "base_seed": base_seed,
                    "current": current,
                    "cur_params": cur_params,
                    "cur_inf": cur_inf,
                    "next_pass": passes,
                    "next_wave": next_wave,
                    "counters": {
                        "calls": counters.calls.value,
                        "expanded": counters.expanded.value,
                        "busy": counters.busy.value,
                        "eval_wall": counters.eval_wall.value,
                    },
                }

            while improved and (
                self.max_passes is None or passes < self.max_passes
            ):
                improved = False
                passes += 1
                if current.num_operations <= 1:
                    break
                order = self._scan_indices(current)
                batch = self.scan_batch or len(order)
                first_wave = resume_wave if resume_wave is not None else 0
                resume_wave = None
                for wave_start in range(first_wave, len(order), batch):
                    # Wave boundary: state describes this wave as the
                    # next work, so a snapshot (or preemption flush)
                    # here never replays a completed wave.
                    next_wave = wave_start
                    maybe_fault("round", key=round_index)
                    if ck is not None:
                        ck.round_boundary(round_index, scan_state)
                    wave = order[wave_start:wave_start + batch]
                    jobs: list[FitJob] = []
                    candidates: list[QuditCircuit] = []
                    for i in wave:
                        candidate, kept = current.without_operation(i)
                        jobs.append(
                            FitJob(
                                candidate,
                                target,
                                self.starts,
                                candidate_seed(
                                    base_seed, candidate.structure_key()
                                ),
                                cur_params[list(kept)],
                                contract=contract,
                                timeout=self.job_timeout,
                            )
                        )
                        candidates.append(candidate)
                    counters.expanded.add(len(wave))
                    outcomes = _run_round(
                        executor, jobs, counters,
                        round_timeout=self.round_timeout,
                    )
                    round_index += 1
                    # Accept the first fitting deletion in scan order —
                    # the same winner regardless of how the wave was
                    # scheduled.
                    for candidate, outcome in zip(candidates, outcomes):
                        if outcome.infidelity <= self.success_threshold:
                            current = candidate
                            cur_params = outcome.params
                            cur_inf = outcome.infidelity
                            improved = True
                            registry.counter(
                                "resynth.deletions_accepted"
                            ).add()
                            break
                    if improved:
                        break  # rescan the shorter circuit

            registry.counter("resynth.passes").add(passes)
            resynth_span.set(
                passes=passes, examined=counters.expanded.value
            )
            resynth_span.__exit__(None, None, None)
            pass_metrics = telemetry.delta(metrics0, registry.snapshot())
            result = SynthesisResult(
                circuit=current,
                params=cur_params,
                infidelity=cur_inf,
                success=cur_inf <= self.success_threshold,
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


class PartitionedSynthesizer:
    """Window-partitioned resynthesis for circuits too wide to search.

    Operations are grouped left-to-right into contiguous blocks whose
    wires fit in ``window`` qudits (a greedy linear partition); each
    block's unitary is synthesized independently by ``search`` and the
    solutions are stitched back in order, which reproduces the original
    circuit exactly because consecutive blocks are appended in the
    original operation order.  A window the search cannot solve falls
    back to its original gates, so the pass never breaks the circuit.
    """

    def __init__(
        self,
        search: SynthesisSearch | None = None,
        window: int = 3,
        checkpoint_dir: str | None = None,
        checkpoint_every: int | None = 1,
        checkpoint_seconds: float | None = None,
        checkpoint_keep: int = 3,
    ):
        if window < 2:
            raise ValueError("window must span at least 2 qudits")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if checkpoint_seconds is not None and checkpoint_seconds <= 0:
            raise ValueError("checkpoint_seconds must be positive (or None)")
        if checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        self.search = search or SynthesisSearch()
        self.window = window
        # Durability knobs: one snapshot per ``checkpoint_every``
        # completed windows and/or ``checkpoint_seconds``; the stitched
        # prefix is stored, so a resume re-synthesizes at most the
        # window in flight.  The inner search keeps its own (per-window)
        # checkpoint knobs if its owner configured any.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.checkpoint_seconds = checkpoint_seconds
        self.checkpoint_keep = checkpoint_keep

    def _partition(
        self, circuit: QuditCircuit
    ) -> list[tuple[tuple[int, ...], list[Operation]]]:
        blocks: list[tuple[tuple[int, ...], list[Operation]]] = []
        qudits: set[int] = set()
        ops: list[Operation] = []
        for op in circuit:
            loc = set(op.location)
            if len(loc) > self.window:
                raise ValueError(
                    f"gate on {sorted(loc)} is wider than the "
                    f"{self.window}-qudit window"
                )
            if ops and len(qudits | loc) > self.window:
                blocks.append((tuple(sorted(qudits)), ops))
                qudits, ops = set(), []
            qudits |= loc
            ops.append(op)
        if ops:
            blocks.append((tuple(sorted(qudits)), ops))
        return blocks

    @staticmethod
    def _block_circuit(
        circuit: QuditCircuit,
        wires: tuple[int, ...],
        ops: list[Operation],
        params: np.ndarray,
    ) -> QuditCircuit:
        """The block as a standalone constant circuit on its own wires."""
        sub = QuditCircuit([circuit.radices[q] for q in wires])
        wire_map = {q: i for i, q in enumerate(wires)}
        for op in ops:
            ref = sub.cache_operation(circuit.expression(op.ref), check=False)
            values = [
                params[s.index] if s.kind == "param" else s.value
                for s in op.slots
            ]
            sub.append_ref_constant(
                ref, tuple(wire_map[q] for q in op.location), values
            )
        return sub

    def synthesize_circuit(
        self,
        circuit: QuditCircuit,
        params: Sequence[float] = (),
        rng: np.random.Generator | int | None = None,
        resume_from: str | CheckpointStore | None = None,
    ) -> SynthesisResult:
        """Re-express ``circuit`` (at ``params``) window by window in
        the search's gate set.

        With ``checkpoint_dir`` set, the stitched prefix and per-window
        reports are snapshotted after each window; ``resume_from``
        restores them and re-synthesizes only the window that was in
        flight (per-window seeds derive from the stored base seed, so
        the stitched result is bit-identical to an uninterrupted run).
        """
        t0 = time.perf_counter()
        params = np.asarray(params, dtype=np.float64)
        if len(params) != circuit.num_params:
            raise ValueError(
                f"expected {circuit.num_params} parameter values, "
                f"got {len(params)}"
            )
        rng = np.random.default_rng(rng)
        # Stable per-window seeds (index-derived, not draw-ordered), so
        # a window's result does not depend on how many windows precede
        # it or on how earlier windows were evaluated.
        base_seed = int(rng.integers(2**63))

        target_fp = target_fingerprint(
            params, extra=(circuit.structure_key(),)
        )
        config_fp = config_fingerprint(
            pass_kind="partitioned",
            window=self.window,
            search=self.search._config_fingerprint(),
        )
        store: CheckpointStore | None = None
        resume_payload: dict | None = None
        if resume_from is not None:
            store, payload, _ = load_resume_state(
                resume_from,
                kind="partitioned",
                target=target_fp,
                config=config_fp,
                keep=self.checkpoint_keep,
            )
            if payload["complete"]:
                return payload["result"]
            resume_payload = payload
        elif self.checkpoint_dir is not None:
            store = CheckpointStore(
                self.checkpoint_dir, keep=self.checkpoint_keep
            )
        ck: PassCheckpointer | None = None
        if store is not None:
            ck = PassCheckpointer(
                store,
                kind="partitioned",
                target=target_fp,
                config=config_fp,
                every_rounds=self.checkpoint_every,
                every_seconds=self.checkpoint_seconds,
                executor=self.search.executor,
            )

        out = QuditCircuit(circuit.radices)
        out_params: list[float] = []
        windows: list[SynthesisResult] = []
        all_solved = True
        next_window = 0
        resumed_from: int | None = None
        if resume_payload is not None:
            state = resume_payload["state"]
            base_seed = state["base_seed"]
            out = state["out"]
            out_params = state["out_params"]
            windows = state["windows"]
            all_solved = state["all_solved"]
            next_window = resumed_from = int(resume_payload["round"])

        def window_state() -> dict:
            # The stitched prefix is the replay point: windows before
            # `round` are done (their gates already in `out`), windows
            # from `round` on have not started.
            return {
                "base_seed": base_seed,
                "out": out,
                "out_params": list(out_params),
                "windows": windows,
                "all_solved": all_solved,
            }

        blocks = self._partition(circuit)
        with contextlib.ExitStack() as stack:
            if ck is not None:
                stack.enter_context(ck)
            for index, (wires, ops) in enumerate(blocks):
                if index < next_window:
                    continue  # restored from the stitched prefix
                maybe_fault("round", key=index)
                if ck is not None:
                    ck.round_boundary(index, window_state)
                sub = self._block_circuit(circuit, wires, ops, params)
                with telemetry.tracer().span(
                    "window", category="synthesize",
                    index=index, wires=list(wires), ops=len(ops),
                ):
                    result = self.search.synthesize(
                        sub.get_unitary(()),
                        radices=sub.radices,
                        rng=candidate_seed(base_seed, ("window", index)),
                    )
                windows.append(result)
                if result.success:
                    added = out.append_circuit(
                        result.circuit, location=wires
                    )
                    out_params.extend(result.params[j] for j in added)
                else:
                    # Fall back to the original gates for this window.
                    all_solved = False
                    for op, sub_op in zip(ops, sub):
                        ref = out.cache_operation(
                            circuit.expression(op.ref), check=False
                        )
                        out.append_ref_constant(
                            ref,
                            op.location,
                            [s.value for s in sub_op.slots],
                        )

        final_params = np.asarray(out_params, dtype=np.float64)
        infidelity = (
            hilbert_schmidt_infidelity(
                circuit.get_unitary(params), out.get_unitary(final_params)
            )
            if len(out)
            else 0.0
        )
        efficiencies = [
            (w.parallel_efficiency, w.wall_seconds)
            for w in windows
            if w.parallel_efficiency is not None
        ]
        total_eff_wall = sum(wall for _, wall in efficiencies)
        merged_metrics = telemetry.MetricsRegistry()
        for w in windows:
            merged_metrics.merge(w.metrics)
        result = SynthesisResult(
            circuit=out,
            params=final_params,
            infidelity=infidelity,
            success=all_solved
            and infidelity
            <= self.search.success_threshold * max(1, len(windows)),
            instantiation_calls=sum(w.instantiation_calls for w in windows),
            engine_cache_hits=sum(w.engine_cache_hits for w in windows),
            engine_cache_misses=sum(w.engine_cache_misses for w in windows),
            nodes_expanded=sum(w.nodes_expanded for w in windows),
            failed_candidates=sum(w.failed_candidates for w in windows),
            retries=sum(w.retries for w in windows),
            timed_out=sum(w.timed_out for w in windows),
            wall_seconds=time.perf_counter() - t0,
            windows=windows,
            workers=self.search.workers,
            parallel_efficiency=(
                sum(eff * wall for eff, wall in efficiencies)
                / total_eff_wall
                if total_eff_wall > 0
                else None
            ),
            metrics=merged_metrics.snapshot(),
            resumed_from_round=resumed_from,
        )
        if ck is not None:
            ck.complete(len(blocks), result)
        return result
