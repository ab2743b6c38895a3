"""Telemetry-inertness and coverage over a full GHZ-3 synthesis.

The tentpole contract: a synthesis run with tracing enabled returns a
``SynthesisResult`` bit-identical to the run with tracing disabled —
for the scalar and batched engines, serial and under spawned workers —
while the recorded spans cover every layer of the stack
(compile → pathfind → fuse → instantiate → synthesize), including
spans recorded inside worker processes.
"""

import json
import os

import numpy as np
import pytest

from repro import telemetry
from repro.checkpoint import PreemptedError
from repro.circuit import build_qsearch_ansatz
from repro.synthesis import Resynthesizer, SynthesisSearch
from repro.synthesis.executor import ProcessCandidateExecutor
from repro.testing import faults
from repro.utils import Statevector


@pytest.fixture(autouse=True)
def _tracer_off():
    telemetry.disable()
    yield
    telemetry.disable()


def result_snapshot(result):
    """The deterministic face of a SynthesisResult."""
    return (
        result.circuit.structure_key(),
        tuple(np.asarray(result.params).tolist()),
        result.infidelity,
        result.success,
        result.instantiation_calls,
        result.engine_cache_hits,
        result.engine_cache_misses,
        result.nodes_expanded,
    )


def run_ghz3(strategy=None, workers=1, trace=False, spawn=False):
    if trace:
        telemetry.enable()
    search = SynthesisSearch(
        strategy=strategy, workers=workers, expansion_width=2
    )
    if spawn and workers > 1:
        search._executor = ProcessCandidateExecutor(
            search.pool, workers, mp_context="spawn"
        )
    try:
        result = search.synthesize(Statevector.ghz(3), rng=7)
    finally:
        search.close()
    spans = telemetry.tracer().spans() if trace else []
    if trace:
        telemetry.disable()
    return result, spans


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", ["sequential", "batched"])
    def test_trace_on_off_identical_serial(self, strategy):
        off, _ = run_ghz3(strategy=strategy)
        on, spans = run_ghz3(strategy=strategy, trace=True)
        assert result_snapshot(off) == result_snapshot(on)
        assert on.success
        assert spans  # the traced run actually recorded something

    def test_trace_on_off_identical_spawn_workers(self):
        off, _ = run_ghz3(workers=1)
        on, spans = run_ghz3(workers=2, trace=True, spawn=True)
        assert result_snapshot(off) == result_snapshot(on)
        worker_spans = [s for s in spans if s.pid != os.getpid()]
        assert worker_spans, "spawned workers shipped no spans"


class TestFiveLayerCoverage:
    def test_trace_covers_all_layers(self, tmp_path):
        # Sequential fits run the scalar VM, whose megakernel codegen
        # is the fuse layer (batched fits run closures and fuse none).
        _, spans = run_ghz3(strategy="sequential", trace=True)
        categories = {s.category for s in spans}
        assert {"compile", "pathfind", "fuse", "instantiate",
                "synthesize"} <= categories
        # And the export round-trips as valid Chrome trace JSON.
        path = tmp_path / "trace.json"
        telemetry.enable()
        telemetry.tracer().ingest([s.state() for s in spans])
        telemetry.write_chrome_trace(path)
        telemetry.disable()
        trace = json.loads(path.read_text())
        assert {e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"} >= {
            "compile", "pathfind", "fuse", "instantiate", "synthesize"
        }


class TestCrossProcessMerge:
    def test_worker_spans_merge_into_parent_timeline(self):
        result, spans = run_ghz3(workers=2, trace=True, spawn=True)
        parent_pid = os.getpid()
        worker_spans = [s for s in spans if s.pid != parent_pid]
        assert worker_spans
        # Merged spans were re-based into the parent's clock domain...
        offsets = {s.wall_offset for s in spans}
        assert len(offsets) == 1
        # ...and land inside the pass's wall interval.
        pass_spans = [s for s in spans if s.name == "synthesize"]
        assert pass_spans
        lo, hi = pass_spans[0].start, pass_spans[0].end
        slack = 0.25  # clock re-basing is exact only up to wall jitter
        for s in worker_spans:
            assert s.start >= lo - slack
            assert s.end <= hi + slack
        # The export names one track per worker process.
        trace = telemetry.chrome_trace(
            spans, {s.pid: f"worker-{s.pid}" for s in worker_spans},
            main_pid=parent_pid,
        )
        tracks = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert "repro main" in tracks
        assert any(t.startswith("repro worker-") for t in tracks)

    def test_worker_metrics_merge_into_result(self):
        result, _ = run_ghz3(workers=2, trace=True, spawn=True)
        # Fits executed inside workers surface in the pass's metrics
        # delta (shipped back and merged by the parent).
        assert result.metrics.get("instantiate.fits", 0) >= \
            result.instantiation_calls


class TestReport:
    def test_report_renders_timing_breakdown(self):
        result, _ = run_ghz3()
        text = result.report()
        assert "timing breakdown" in text
        assert "compile (AOT)" in text
        assert "optimize (LM)" in text
        assert "engine cache" in text
        assert "LM iterations" in text


def run_preempted(kind, ckpt):
    """A checkpointed pass that ``sigterm@round:seed1`` preempts."""
    circ = build_qsearch_ansatz(2, 2, 2)
    p = np.random.default_rng(3).uniform(-np.pi, np.pi, circ.num_params)
    if kind == "search":
        SynthesisSearch(expansion_width=2, checkpoint_dir=ckpt).synthesize(
            circ.get_unitary(p), rng=5
        )
    else:
        Resynthesizer(checkpoint_dir=ckpt).resynthesize(circ, p, rng=9)


class TestPreemptedPassSpan:
    @pytest.mark.parametrize(
        ("kind", "span_name"),
        [("search", "synthesize"), ("resynth", "resynthesize")],
    )
    def test_span_closes_when_the_pass_raises(self, tmp_path, kind, span_name):
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        telemetry.enable()
        with faults.activate("sigterm@round:seed1", str(fault_dir)):
            with pytest.raises(PreemptedError):
                run_preempted(kind, str(tmp_path / "ckpt"))
        with telemetry.tracer().span("after", category="test"):
            pass
        spans = telemetry.disable()
        assert span_name in {s.name for s in spans}
        [after] = [s for s in spans if s.name == "after"]
        assert after.parent_id is None  # nothing left open on the stack
