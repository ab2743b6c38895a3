"""Durable checkpoint/resume for the synthesis passes.

The headline contract: a synthesis pass SIGKILLed mid-round (parent
death — no cleanup code runs) and resumed from its latest snapshot
returns a ``SynthesisResult`` bit-identical — circuit, params,
infidelity, deterministic counters — to an uninterrupted run.  The
same holds for graceful preemption (SIGTERM flushes a final snapshot,
abandons the worker pool, and raises :class:`PreemptedError`) and for
a corrupted latest snapshot (the store falls back to the previous
one; the resume just replays one more round).

Bit-identity works because candidate seeds derive from
``candidate_seed(base_seed, structure_key)`` — never draw order — so
restoring the frontier heap, counters, and base seed replays the
exact trajectory.  Parent death is injected with
:func:`repro.testing.faults.run_and_kill` (a subprocess harness that
SIGKILLs the pass once snapshots appear); preemption with the
``sigterm@round`` fault point.
"""

import os
import shutil
import signal

import numpy as np
import pytest

from repro import telemetry
from repro.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointSchemaError,
    CheckpointStore,
    PreemptedError,
    snapshot_count,
)
from repro.circuit import build_qsearch_ansatz
from repro.instantiation import EnginePool
from repro.synthesis import (
    PartitionedSynthesizer,
    ProcessCandidateExecutor,
    Resynthesizer,
    SynthesisSearch,
)
from repro.testing import faults
from repro.testing.faults import run_and_kill


def reachable_target(circ, seed):
    p = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.num_params)
    return circ.get_unitary(p)


def make_search(**kwargs):
    kwargs.setdefault("expansion_width", 2)
    kwargs.setdefault("max_expansions", 24)
    return SynthesisSearch(**kwargs)


def assert_resumed_identical(resumed, clean):
    """The resume contract: circuit, params, infidelity, and the
    deterministic counters match an uninterrupted run.  Engine-cache
    hits/misses are process-local (a resume starts with a cold pool)
    and legitimately differ."""
    assert resumed.circuit.structure_key() == clean.circuit.structure_key()
    assert np.array_equal(resumed.params, clean.params)
    assert resumed.infidelity == clean.infidelity
    assert resumed.success == clean.success
    assert resumed.instantiation_calls == clean.instantiation_calls
    assert resumed.nodes_expanded == clean.nodes_expanded


def metrics_delta(before):
    return telemetry.delta(before, telemetry.metrics().snapshot())


def _victim_target():
    return reachable_target(build_qsearch_ansatz(2, 2, 2), 7)


def _search_victim(ckpt_dir):
    """Spawn-picklable chaos victim: a checkpointed parallel search the
    harness SIGKILLs mid-pass (workers=2 under spawn, per the headline
    acceptance criterion)."""
    pool = EnginePool()
    executor = ProcessCandidateExecutor(pool, workers=2, mp_context="spawn")
    search = SynthesisSearch(
        pool=pool,
        executor=executor,
        expansion_width=2,
        max_expansions=24,
        checkpoint_dir=ckpt_dir,
    )
    search.synthesize(_victim_target(), rng=5)


# ----------------------------------------------------------------------
# Parent death: SIGKILL mid-round, resume in a fresh process
# ----------------------------------------------------------------------


class TestParentDeath:
    def test_sigkill_mid_pass_then_resume_is_bit_identical(self, tmp_path):
        # CI points this at a workspace-relative dir so the checkpoint
        # store can be uploaded as an artifact when the test fails.
        base = os.environ.get("REPRO_CHECKPOINT_SMOKE_DIR") or str(tmp_path)
        ckpt = os.path.join(base, "search-kill")
        shutil.rmtree(ckpt, ignore_errors=True)  # stale smoke dirs

        report = run_and_kill(
            _search_victim, (ckpt,), watch_dir=ckpt, snapshots=1
        )
        assert report.killed
        assert report.exitcode == -signal.SIGKILL  # died, not exited
        assert report.snapshots >= 1

        # Resume in this (fresh) process, again parallel under spawn.
        pool = EnginePool()
        executor = ProcessCandidateExecutor(
            pool, workers=2, mp_context="spawn"
        )
        try:
            search = SynthesisSearch(
                pool=pool,
                executor=executor,
                expansion_width=2,
                max_expansions=24,
            )
            resumed = search.synthesize(_victim_target(), resume_from=ckpt)
        finally:
            executor.close()

        with make_search() as clean_search:
            clean = clean_search.synthesize(_victim_target(), rng=5)

        assert resumed.resumed_from_round is not None
        assert_resumed_identical(resumed, clean)


# ----------------------------------------------------------------------
# Graceful preemption: SIGTERM flush, then resume
# ----------------------------------------------------------------------


def preempted_search_dir(tmp_path, target, at_round=1):
    """Run a checkpointed serial search that is SIGTERMed at the given
    round boundary; returns its checkpoint directory."""
    ckpt = tmp_path / "ckpt"
    fault_dir = tmp_path / "faults"
    fault_dir.mkdir(exist_ok=True)
    with faults.activate(f"sigterm@round:seed{at_round}", str(fault_dir)):
        with pytest.raises(PreemptedError) as err:
            make_search(checkpoint_dir=str(ckpt)).synthesize(target, rng=5)
    assert err.value.round_index == at_round
    assert os.path.exists(err.value.snapshot_path)
    assert "resume_from" in str(err.value)
    return str(ckpt)


class TestPreemption:
    def test_sigterm_flush_then_resume_is_bit_identical(self, tmp_path):
        target = _victim_target()
        with make_search() as search:
            clean = search.synthesize(target, rng=5)

        ckpt = preempted_search_dir(tmp_path, target, at_round=1)

        before = telemetry.metrics().snapshot()
        resumed = make_search().synthesize(target, resume_from=ckpt)
        assert metrics_delta(before).get("checkpoint.resumes") == 1
        assert resumed.resumed_from_round == 1
        assert_resumed_identical(resumed, clean)
        assert "resumed from round 1" in resumed.report()
        assert "resumed" not in clean.report()

    def test_corrupt_latest_snapshot_falls_back_on_resume(self, tmp_path):
        target = _victim_target()
        with make_search() as search:
            clean = search.synthesize(target, rng=5)

        ckpt = preempted_search_dir(tmp_path, target, at_round=1)
        store = CheckpointStore(ckpt)
        snaps = store.snapshots()
        assert len(snaps) >= 2  # round-0 cadence + round-1 flush
        with open(snaps[-1], "r+b") as fh:
            fh.seek(48)
            fh.write(b"\xff\xff\xff\xff")  # poison the payload bytes

        before = telemetry.metrics().snapshot()
        resumed = make_search().synthesize(target, resume_from=ckpt)
        delta = metrics_delta(before)
        assert delta.get("checkpoint.fallbacks", 0) >= 1
        assert delta.get("checkpoint.resumes") == 1
        # Fell back one boundary: replays from round 0, same answer.
        assert resumed.resumed_from_round == 0
        assert_resumed_identical(resumed, clean)


# ----------------------------------------------------------------------
# Resume validation: completion no-op, schema and identity mismatches
# ----------------------------------------------------------------------


def run_pass(
    kind, checkpoint_dir=None, resume_from=None, target_seed=0, **config
):
    """Run one of the three passes on its validation input.

    ``target_seed`` shifts the input to a different target; ``config``
    goes to the pass's constructor (the inner search's for the
    partitioned pass).
    """
    if kind == "search":
        circ = build_qsearch_ansatz(2, 2, 2)
        return make_search(checkpoint_dir=checkpoint_dir, **config).synthesize(
            reachable_target(circ, 7 + target_seed),
            rng=5,
            resume_from=resume_from,
        )
    if kind == "resynth":
        circ = build_qsearch_ansatz(2, 2, 2)
        p = np.random.default_rng(3 + target_seed).uniform(
            -np.pi, np.pi, circ.num_params
        )
        config.setdefault("max_passes", 2)
        return Resynthesizer(
            checkpoint_dir=checkpoint_dir, **config
        ).resynthesize(circ, p, rng=9, resume_from=resume_from)
    circ = build_qsearch_ansatz(3, 2, 2)
    p = np.random.default_rng(4 + target_seed).uniform(
        -np.pi, np.pi, circ.num_params
    )
    return PartitionedSynthesizer(
        make_search(**config), window=2, checkpoint_dir=checkpoint_dir
    ).synthesize_circuit(circ, p, rng=11, resume_from=resume_from)


#: A trajectory-shaping knob per pass, changed from its default.
OTHER_CONFIG = {
    "search": {"heuristic_weight": 5.0},
    "resynth": {"scan_order": "forward"},
    "partitioned": {"heuristic_weight": 5.0},
}


@pytest.fixture(scope="module")
def completed_pass(tmp_path_factory):
    """``completed_pass(kind) -> (ckpt, result)``: one checkpointed run
    to completion per pass kind, shared by the validation tests (none
    of them mutate the store)."""
    runs = {}

    def get(kind):
        if kind not in runs:
            ckpt = str(tmp_path_factory.mktemp(f"completed-{kind}"))
            runs[kind] = ckpt, run_pass(kind, checkpoint_dir=ckpt)
        return runs[kind]

    return get


class _ResumeValidationCases:
    """Resume validation shared by every pass; each subclass names its
    pass in ``kind`` (a class per pass keeps the search cases' test
    ids)."""

    kind = "search"

    def test_resume_after_completion_is_a_noop(self, completed_pass):
        ckpt, result = completed_pass(self.kind)
        count = snapshot_count(ckpt)
        before = telemetry.metrics().snapshot()
        again = run_pass(self.kind, resume_from=ckpt)
        delta = metrics_delta(before)
        # The stored result comes back without redoing (or re-writing)
        # anything — not even a new snapshot.
        assert delta.get("checkpoint.resumes") == 1
        assert delta.get("checkpoint.writes", 0) == 0
        assert snapshot_count(ckpt) == count
        assert_resumed_identical(again, result)
        assert again.wall_seconds == result.wall_seconds
        assert again.engine_cache_hits == result.engine_cache_hits

    def test_target_mismatch_is_refused(self, completed_pass):
        ckpt, _ = completed_pass(self.kind)
        with pytest.raises(
            CheckpointError, match="different synthesis target"
        ):
            run_pass(self.kind, resume_from=ckpt, target_seed=1)

    def test_config_mismatch_is_refused(self, completed_pass):
        ckpt, _ = completed_pass(self.kind)
        with pytest.raises(
            CheckpointError, match="different search configuration"
        ):
            run_pass(self.kind, resume_from=ckpt, **OTHER_CONFIG[self.kind])


class TestResumeValidation(_ResumeValidationCases):
    kind = "search"

    def test_pass_kind_mismatch_is_refused(self, completed_pass):
        ckpt, _ = completed_pass("search")
        circ = build_qsearch_ansatz(2, 2, 2)
        p = np.zeros(circ.num_params)
        with pytest.raises(CheckpointError, match="pass types"):
            Resynthesizer().resynthesize(circ, p, resume_from=ckpt)

    def test_schema_mismatch_is_a_pointed_error(self, tmp_path):
        CheckpointStore(str(tmp_path), schema=SCHEMA_VERSION + 1).save(
            {"kind": "search", "round": 0}
        )
        with pytest.raises(CheckpointSchemaError, match="schema version"):
            make_search().synthesize(
                _victim_target(), resume_from=str(tmp_path)
            )

    def test_empty_directory_is_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            make_search().synthesize(
                _victim_target(), resume_from=str(tmp_path)
            )

    def test_per_call_checkpoint_dir(self, tmp_path):
        # One search object serving many targets gives each call its
        # own store through synthesize(checkpoint_dir=).
        ckpt = str(tmp_path / "per-call")
        with make_search() as search:
            result = search.synthesize(
                _victim_target(), rng=5, checkpoint_dir=ckpt
            )
        assert snapshot_count(ckpt) >= 1
        again = make_search().synthesize(_victim_target(), resume_from=ckpt)
        assert_resumed_identical(again, result)
        assert again.wall_seconds == result.wall_seconds  # stored result


class TestResynthesizerResumeValidation(_ResumeValidationCases):
    kind = "resynth"


class TestPartitionedResumeValidation(_ResumeValidationCases):
    kind = "partitioned"


# ----------------------------------------------------------------------
# The compression passes checkpoint and resume too
# ----------------------------------------------------------------------


def _no_deletion_case():
    """Eight ops compressed against their own unitary: no deletion
    fits, so the scan is one pass of single-gate waves."""
    circ = build_qsearch_ansatz(2, 2, 2)
    p = np.random.default_rng(3).uniform(-np.pi, np.pi, circ.num_params)
    return circ, p, None, 2, 9


def _pass_boundary_case():
    """The depth-3 ansatz compressed toward the 1-block target of
    ``benchmarks/run_synthesis.py``: each pass accepts its first wave,
    so rounds 1 and 2 open passes 2 and 3."""
    deep = build_qsearch_ansatz(2, 3, 2)
    target = reachable_target(build_qsearch_ansatz(2, 1, 2), 42)
    return deep, (), target, 3, 5


RESYNTH_CASES = {
    "no-deletion": _no_deletion_case,
    "pass-boundary": _pass_boundary_case,
}


class TestResynthesizerResume:
    @pytest.mark.parametrize(
        ("case", "at_round"),
        [("no-deletion", 2), ("pass-boundary", 1), ("pass-boundary", 2)],
    )
    def test_sigterm_then_resume_is_bit_identical(
        self, tmp_path, case, at_round
    ):
        circ, p, target, max_passes, seed = RESYNTH_CASES[case]()
        clean = Resynthesizer(max_passes=max_passes).resynthesize(
            circ, p, target=target, rng=seed
        )

        ckpt = tmp_path / "ckpt"
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        with faults.activate(f"sigterm@round:seed{at_round}", str(fault_dir)):
            with pytest.raises(PreemptedError):
                Resynthesizer(
                    max_passes=max_passes, checkpoint_dir=str(ckpt)
                ).resynthesize(circ, p, target=target, rng=seed)

        resumed = Resynthesizer(max_passes=max_passes).resynthesize(
            circ, p, target=target, resume_from=str(ckpt)
        )
        assert resumed.resumed_from_round == at_round
        assert_resumed_identical(resumed, clean)
        # A resume re-enters the stored pass rather than starting one.
        assert (
            resumed.metrics["resynth.passes"]
            == clean.metrics["resynth.passes"]
        )


class TestPartitionedResume:
    def test_sigterm_then_resume_is_bit_identical(self, tmp_path):
        circ = build_qsearch_ansatz(3, 2, 2)
        p = np.random.default_rng(4).uniform(-np.pi, np.pi, circ.num_params)
        clean = PartitionedSynthesizer(
            make_search(), window=2
        ).synthesize_circuit(circ, p, rng=11)
        assert len(clean.windows) >= 2

        ckpt = tmp_path / "ckpt"
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        with faults.activate("sigterm@round:seed1", str(fault_dir)):
            with pytest.raises(PreemptedError) as err:
                PartitionedSynthesizer(
                    make_search(), window=2, checkpoint_dir=str(ckpt)
                ).synthesize_circuit(circ, p, rng=11)
        assert err.value.round_index == 1  # window 0 done, 1 in flight

        resumed = PartitionedSynthesizer(
            make_search(), window=2
        ).synthesize_circuit(circ, p, resume_from=str(ckpt))
        assert resumed.resumed_from_round == 1
        assert_resumed_identical(resumed, clean)
        # The restored prefix is the *same* per-window result, not a
        # re-synthesis of it.
        assert np.array_equal(
            resumed.windows[0].params, clean.windows[0].params
        )
