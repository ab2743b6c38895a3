"""The synthesis report shared by every pass in :mod:`repro.synthesis`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuit.circuit import QuditCircuit

__all__ = ["SynthesisResult"]


@dataclass
class SynthesisResult:
    """Outcome of a synthesis, resynthesis, or partitioned pass.

    ``instantiation_calls`` counts inner-loop engine invocations (the
    quantity the paper's fast instantiation multiplies out), and the
    ``engine_cache_*`` counters report how often the structure-keyed
    :class:`~repro.instantiation.EnginePool` skipped an AOT compile.
    ``nodes_expanded`` is the number of search states examined — frontier
    expansions for :class:`~repro.synthesis.SynthesisSearch`, deletion
    candidates for :class:`~repro.synthesis.Resynthesizer`, windows for
    :class:`~repro.synthesis.PartitionedSynthesizer`.

    ``workers`` reports the candidate-executor width the pass ran with,
    and ``parallel_efficiency`` the fraction of the theoretical
    ``workers x evaluation-wall`` budget that engines actually spent
    fitting (1.0 = perfect scaling; ``None`` when nothing was fitted).
    Candidate seeds are derived per structure key, so the
    circuit/params/infidelity/counter fields are bit-identical across
    worker counts — only the wall/efficiency fields vary.
    """

    circuit: QuditCircuit
    params: np.ndarray
    infidelity: float
    success: bool
    instantiation_calls: int = 0
    engine_cache_hits: int = 0
    engine_cache_misses: int = 0
    nodes_expanded: int = 0
    wall_seconds: float = 0.0
    #: Per-window reports for partitioned passes (empty otherwise).
    windows: list["SynthesisResult"] = field(default_factory=list)
    workers: int = 1
    parallel_efficiency: float | None = None
    #: Degradation counters (from the executor's telemetry): candidates
    #: that returned a failed outcome (quarantined crash, deadline,
    #: non-finite fit), crash-retry resubmissions that recovered, and
    #: deadline expiries.  All zero on a healthy pass; a caller seeing
    #: nonzero values knows this result ran degraded rounds (its best
    #: circuit is still valid, but some candidates were never scored).
    failed_candidates: int = 0
    retries: int = 0
    timed_out: int = 0
    #: Round boundary this pass was restored from (``None`` for a
    #: fault-free, single-process run).  Informational only: resumed
    #: results are bit-identical to uninterrupted ones.
    resumed_from_round: int | None = None
    #: The merged telemetry-registry delta this pass produced (flat
    #: metric name -> number, or histogram-state dict); includes
    #: metrics shipped back from worker processes.  Empty for results
    #: built before the pass ran under telemetry.
    metrics: dict = field(default_factory=dict)

    @property
    def gate_counts(self) -> dict[str, int]:
        return self.circuit.gate_counts()

    def count(self, gate_name: str) -> int:
        """Occurrences of a gate by name (e.g. ``"CX"``)."""
        return self.gate_counts.get(gate_name, 0)

    def report(self) -> str:
        """A human-readable multi-line report with a timing breakdown.

        Rendered from the pass's merged metrics: where the wall went
        (AOT compile, optimizer time, executor busy vs idle), the
        engine-cache hit ratio, and the fit-level counters, LM starts
        by stop reason among them — the numbers a synthesis user reads
        before reaching for the full Perfetto trace.
        """
        m = self.metrics

        def num(name: str) -> float:
            value = m.get(name, 0)
            if isinstance(value, dict):
                return float(value.get("sum", 0.0))
            return float(value)

        lines = [
            f"synthesis {'succeeded' if self.success else 'FAILED'}: "
            f"infidelity={self.infidelity:.3e} "
            f"ops={self.circuit.num_operations} "
            f"wall={self.wall_seconds:.2f}s",
            f"  search: {self.nodes_expanded} nodes expanded, "
            f"{self.instantiation_calls} instantiation calls, "
            f"{self.workers} worker(s)",
        ]
        total_cache = self.engine_cache_hits + self.engine_cache_misses
        if total_cache:
            lines.append(
                f"  engine cache: {self.engine_cache_hits} hits / "
                f"{self.engine_cache_misses} misses "
                f"({self.engine_cache_hits / total_cache:.0%} hit ratio)"
            )
        compile_s = num("engine_pool.aot_seconds")
        optimize_s = num("instantiate.optimize_seconds")
        busy_s = num("synthesis.busy_seconds")
        eval_wall_s = num("synthesis.eval_wall_seconds")
        if self.wall_seconds > 0 and (compile_s or optimize_s or eval_wall_s):
            lines.append("  timing breakdown:")
            lines.append(
                f"    compile (AOT):   {compile_s:8.3f}s "
                f"({compile_s / self.wall_seconds:5.1%} of wall)"
            )
            lines.append(
                f"    optimize (LM):   {optimize_s:8.3f}s "
                f"({optimize_s / self.wall_seconds:5.1%} of wall)"
            )
            if eval_wall_s:
                budget = self.workers * eval_wall_s
                idle_s = max(0.0, budget - busy_s)
                lines.append(
                    f"    executor busy:   {busy_s:8.3f}s of "
                    f"{budget:.3f}s budget (idle {idle_s:.3f}s)"
                )
        fits = m.get("instantiate.fits", 0)
        if fits:
            iters = num("instantiate.lm_iterations")
            lines.append(
                f"  fits: {fits} ({int(iters)} LM iterations, "
                f"{iters / fits:.1f} per fit)"
            )
        prefix = "instantiate.stop."
        stops = {
            name[len(prefix):]: int(num(name))
            for name in m
            if name.startswith(prefix)
        }
        if stops:
            # Most frequent first.
            order = sorted(stops, key=lambda reason: (-stops[reason], reason))
            lines.append(
                "  LM stops: "
                + ", ".join(f"{reason} {stops[reason]}" for reason in order)
            )
        if self.parallel_efficiency is not None:
            lines.append(
                f"  parallel efficiency: {self.parallel_efficiency:.0%}"
            )
        if self.failed_candidates or self.retries or self.timed_out:
            lines.append(
                f"  degraded: {self.failed_candidates} failed "
                f"candidate(s), {self.retries} crash retries, "
                f"{self.timed_out} deadline expiries"
            )
        if self.resumed_from_round is not None:
            lines.append(
                f"  resumed from round {self.resumed_from_round} "
                "(bit-identical to an uninterrupted run)"
            )
        if self.windows:
            lines.append(f"  windows: {len(self.windows)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "success" if self.success else "FAILED"
        return (
            f"<SynthesisResult {status} infidelity={self.infidelity:.3e} "
            f"ops={self.circuit.num_operations} "
            f"calls={self.instantiation_calls} "
            f"wall={self.wall_seconds:.2f}s>"
        )
