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

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..checkpoint import CheckpointStore, config_fingerprint, target_fingerprint
from ..circuit.circuit import Operation, QuditCircuit
from ..instantiation.cost import as_target_array
from ..instantiation.instantiater import SUCCESS_THRESHOLD
from ..instantiation.lm import LMOptions
from ..instantiation.pool import EnginePool
from ..utils.statevector import Statevector
from ..utils.unitary import hilbert_schmidt_infidelity
from .executor import CandidateExecutor, candidate_seed
from .passrun import PassRun, SynthesisPass
from .result import SynthesisResult
from .search import SynthesisSearch

__all__ = ["Resynthesizer", "PartitionedSynthesizer", "SCAN_ORDERS"]

#: Valid gate-deletion scan orders for :class:`Resynthesizer`.
SCAN_ORDERS = ("backward", "forward", "entangler-first")


@dataclass
class _ScanState:
    """The compression scan's resumable state at a wave boundary: the
    circuit compressed so far, and the next work — wave ``wave`` (a
    start index into the scan order, which is a pure function of the
    circuit) of pass ``passes``."""

    circuit: QuditCircuit
    params: np.ndarray
    infidelity: float
    passes: int = 0
    wave: int = 0


@dataclass
class _StitchState:
    """The partitioned pass's resumable state at a window boundary:
    the stitched prefix (windows before the boundary are done, their
    gates already in ``circuit``) and those windows' results."""

    circuit: QuditCircuit
    params: list[float] = field(default_factory=list)
    windows: list[SynthesisResult] = field(default_factory=list)
    all_solved: bool = True


class Resynthesizer(SynthesisPass):
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
    ):
        if scan_order not in SCAN_ORDERS:
            raise ValueError(
                f"scan_order must be one of {SCAN_ORDERS}, "
                f"got {scan_order!r}"
            )
        if scan_batch is not None and scan_batch < 1:
            raise ValueError("scan_batch must be >= 1 (or None)")
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
        self.max_passes = max_passes
        self.scan_order = scan_order
        self.scan_batch = scan_batch

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
        params = np.asarray(params, dtype=np.float64)
        if len(params) != circuit.num_params and (len(params) or target is None):
            raise ValueError(
                f"expected {circuit.num_params} parameter values, "
                f"got {len(params)}"
            )
        if target is None:
            target = circuit.get_unitary(params)
        else:
            target = as_target_array(target)

        with PassRun(
            self,
            "resynth",
            target_fingerprint(target, extra=(circuit.structure_key(),)),
            self._config_fingerprint(),
            rng=rng,
            resume_from=resume_from,
            checkpoint_dir=self.checkpoint_dir,
            span="resynthesize",
            ops=circuit.num_operations,
        ) as run:
            if run.stored is not None:
                return run.stored
            scan: _ScanState | None = run.state
            if scan is None:
                current = circuit.copy()
                x0 = params if len(params) == current.num_params else None
                baseline = run.fit(run.job(current, target, x0))
                scan = _ScanState(current, baseline.params, baseline.infidelity)
                improved = scan.infidelity <= self.success_threshold
                first_wave = 0
            else:
                # Re-enter the stored pass at the wave that was in
                # flight; the loop's `passes += 1` restores the stored
                # pass number.
                improved = True
                first_wave = scan.wave
                scan.passes -= 1

            while improved and (
                self.max_passes is None or scan.passes < self.max_passes
            ):
                improved = False
                scan.passes += 1
                if scan.circuit.num_operations <= 1:
                    break
                order = self._scan_indices(scan.circuit)
                batch = self.scan_batch or len(order)
                for wave in range(first_wave, len(order), batch):
                    scan.wave = wave
                    run.boundary(scan)
                    deletions = [
                        scan.circuit.without_operation(i)
                        for i in order[wave:wave + batch]
                    ]
                    run.counters.expanded.add(len(deletions))
                    jobs = [
                        run.job(candidate, target, scan.params[list(kept)])
                        for candidate, kept in deletions
                    ]
                    outcomes = run.round(jobs)
                    # Accept the first fitting deletion in scan order —
                    # the same winner regardless of how the wave was
                    # scheduled.
                    for (candidate, _), outcome in zip(deletions, outcomes):
                        if outcome.infidelity <= self.success_threshold:
                            scan.circuit = candidate
                            scan.params = outcome.params
                            scan.infidelity = outcome.infidelity
                            improved = True
                            telemetry.metrics().counter(
                                "resynth.deletions_accepted"
                            ).add()
                            break
                    if improved:
                        break  # rescan the shorter circuit
                first_wave = 0

            telemetry.metrics().counter("resynth.passes").add(scan.passes)
            run.span.set(passes=scan.passes)
            return run.result(scan.circuit, scan.params, scan.infidelity)


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
    ):
        if window < 2:
            raise ValueError("window must span at least 2 qudits")
        self.search = search or SynthesisSearch()
        self.window = window
        # One snapshot per window boundary: the stitched prefix is
        # stored, so a resume re-synthesizes at most the window in
        # flight.  The inner search keeps its own (per-window)
        # checkpoint directory if its owner configured one.
        self.checkpoint_dir = checkpoint_dir

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
        params = np.asarray(params, dtype=np.float64)
        if len(params) != circuit.num_params:
            raise ValueError(
                f"expected {circuit.num_params} parameter values, "
                f"got {len(params)}"
            )
        blocks = self._partition(circuit)
        # The inner search supplies the executor a preemption abandons.
        # Per-window seeds derive from the base seed and the window
        # index (not draw order), so a window's result does not depend
        # on how many windows precede it or how they were evaluated.
        with PassRun(
            self.search,
            "partitioned",
            target_fingerprint(params, extra=(circuit.structure_key(),)),
            config_fingerprint(
                pass_kind="partitioned",
                window=self.window,
                search=self.search._config_fingerprint(),
            ),
            rng=rng,
            resume_from=resume_from,
            checkpoint_dir=self.checkpoint_dir,
        ) as run:
            if run.stored is not None:
                return run.stored
            stitched: _StitchState = run.state or _StitchState(
                QuditCircuit(circuit.radices)
            )
            out, windows = stitched.circuit, stitched.windows
            for index in range(run.round_index, len(blocks)):
                run.boundary(stitched)
                wires, ops = blocks[index]
                sub = self._block_circuit(circuit, wires, ops, params)
                with telemetry.tracer().span(
                    "window", category="synthesize",
                    index=index, wires=list(wires), ops=len(ops),
                ):
                    result = self.search.synthesize(
                        sub.get_unitary(()),
                        radices=sub.radices,
                        rng=candidate_seed(run.base_seed, ("window", index)),
                    )
                windows.append(result)
                if result.success:
                    added = out.append_circuit(
                        result.circuit, location=wires
                    )
                    stitched.params.extend(result.params[j] for j in added)
                else:
                    # Fall back to the original gates for this window.
                    stitched.all_solved = False
                    for op, sub_op in zip(ops, sub):
                        ref = out.cache_operation(
                            circuit.expression(op.ref), check=False
                        )
                        out.append_ref_constant(
                            ref,
                            op.location,
                            [s.value for s in sub_op.slots],
                        )
                run.round_index += 1

        final_params = np.asarray(stitched.params, dtype=np.float64)
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
            success=stitched.all_solved
            and infidelity
            <= self.search.success_threshold * max(1, len(windows)),
            instantiation_calls=sum(w.instantiation_calls for w in windows),
            engine_cache_hits=sum(w.engine_cache_hits for w in windows),
            engine_cache_misses=sum(w.engine_cache_misses for w in windows),
            nodes_expanded=sum(w.nodes_expanded for w in windows),
            failed_candidates=sum(w.failed_candidates for w in windows),
            retries=sum(w.retries for w in windows),
            timed_out=sum(w.timed_out for w in windows),
            wall_seconds=time.perf_counter() - run.t0,
            windows=windows,
            workers=self.search.workers,
            parallel_efficiency=(
                sum(eff * wall for eff, wall in efficiencies)
                / total_eff_wall
                if total_eff_wall > 0
                else None
            ),
            metrics=merged_metrics.snapshot(),
            resumed_from_round=run.resumed_from,
        )
        return run.complete(result)
