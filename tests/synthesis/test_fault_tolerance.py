"""Chaos suite: fault-tolerant candidate execution.

The headline contract extends the executor's determinism guarantee to
*failure* paths: a synthesis pass that loses a worker mid-round
recovers by rebuilding the pool and retrying the unresolved jobs, and
— because candidate seeds derive from structure keys, not draw order
or attempt count — returns a ``SynthesisResult`` bit-identical to a
fault-free run.  Hangs are bounded by deadlines, non-finite fits are
quarantined without poisoning the frontier, and repeated pool breakage
falls back to in-process serial evaluation instead of erroring.

Faults are injected with :mod:`repro.testing.faults`, armed through
the environment so spawned workers (``mp_context="spawn"`` — fresh
processes that read ``os.environ`` at start) see them; tick markers in
a per-test ``tmp_path`` make "fail exactly once" exact across
processes.
"""

import signal
import time

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import build_qsearch_ansatz
from repro.instantiation import EnginePool, Instantiater
from repro.instantiation.gd import adam_minimize
from repro.instantiation.lm import (
    batched_levenberg_marquardt,
    levenberg_marquardt,
)
from repro.synthesis import (
    FitJob,
    ProcessCandidateExecutor,
    Resynthesizer,
    SerialCandidateExecutor,
    SynthesisSearch,
    candidate_seed,
)
from repro.testing import faults


def reachable_target(circ, seed):
    p = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.num_params)
    return circ.get_unitary(p)


def assert_identical(a, b):
    """The bit-identical subset of SynthesisResult (wall/efficiency
    and the degradation counters legitimately differ)."""
    assert a.circuit.structure_key() == b.circuit.structure_key()
    assert np.array_equal(a.params, b.params)
    assert a.infidelity == b.infidelity
    assert a.success == b.success
    assert a.instantiation_calls == b.instantiation_calls
    assert a.engine_cache_hits == b.engine_cache_hits
    assert a.engine_cache_misses == b.engine_cache_misses
    assert a.nodes_expanded == b.nodes_expanded


def metrics_delta(before):
    return telemetry.delta(before, telemetry.metrics().snapshot())


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_parsing(self):
        assert faults.parse_spec(None) is None
        assert faults.parse_spec("") is None
        assert faults.parse_spec("crash") == faults.FaultSpec(
            "crash", "first", 1
        )
        assert faults.parse_spec("hang:once") == faults.FaultSpec(
            "hang", "first", 1
        )
        assert faults.parse_spec("nan:first3") == faults.FaultSpec(
            "nan", "first", 3
        )
        assert faults.parse_spec("crash:tick2") == faults.FaultSpec(
            "crash", "tick", 2
        )
        assert faults.parse_spec("crash:seed99") == faults.FaultSpec(
            "crash", "seed", 99
        )
        assert faults.parse_spec("nan:always") == faults.FaultSpec(
            "nan", "always"
        )
        with pytest.raises(ValueError):
            faults.parse_spec("explode:once")
        with pytest.raises(ValueError):
            faults.parse_spec("crash:sometimes")

    def test_tick_claims_are_unique(self, tmp_path):
        claimed = [faults._claim_tick(str(tmp_path)) for _ in range(5)]
        assert claimed == [0, 1, 2, 3, 4]

    def test_soft_fault_fires_once(self, tmp_path):
        with faults.activate("nan:once", str(tmp_path)):
            assert faults.maybe_fault("worker_fit", key=1) == "nan"
            assert faults.maybe_fault("worker_fit", key=1) is None
        # Deactivated on exit.
        assert faults.maybe_fault("worker_fit", key=1) is None

    def test_seed_selector_is_sticky(self, tmp_path):
        with faults.activate("nan:seed7", str(tmp_path)):
            assert faults.maybe_fault("worker_fit", key=7) == "nan"
            assert faults.maybe_fault("worker_fit", key=8) is None
            assert faults.maybe_fault("worker_fit", key=7) == "nan"

    def test_crash_is_inert_in_main_process(self, tmp_path):
        # A crash spec must never kill the parent (the serial-fallback
        # safety property): in the main process it is a no-op.
        with faults.activate("crash:always", str(tmp_path)):
            assert faults.maybe_fault("worker_fit", key=1) is None

    def test_point_grammar(self):
        # Pointless specs keep the pre-point default (worker_fit).
        assert faults.parse_spec("crash").point == faults.DEFAULT_POINT
        assert faults.parse_spec("sigterm@round:seed2") == faults.FaultSpec(
            "sigterm", "seed", 2, "round"
        )
        assert faults.parse_spec("nan@round:once") == faults.FaultSpec(
            "nan", "first", 1, "round"
        )
        with pytest.raises(ValueError):
            faults.parse_spec("boom@round:once")

    def test_non_matching_point_does_not_claim_ticks(self, tmp_path):
        # A hit at the wrong point must neither fire nor consume the
        # one tick a `once` spec has — otherwise arming a round-level
        # fault would be defused by the first worker-level hit.
        with faults.activate("nan@round:once", str(tmp_path)):
            assert faults.maybe_fault("worker_fit", key=1) is None
            assert faults.maybe_fault("round", key=1) == "nan"

    def test_sigterm_fires_in_main_process_only(self, tmp_path):
        # The mirror asymmetry of crash: sigterm targets the *parent*
        # (provoking the checkpoint preemption flush).  Latch it with
        # the guard so the test process survives the signal.
        from repro.checkpoint import PreemptionGuard

        with faults.activate("sigterm:once", str(tmp_path)):
            with PreemptionGuard() as guard:
                assert faults.maybe_fault("worker_fit", key=1) is None
                assert guard.pending == signal.SIGTERM


def _snapshot_writer(directory):
    """run_and_kill victim: snapshots forever until killed."""
    from repro.checkpoint import CheckpointStore

    store = CheckpointStore(directory, keep=10)
    for i in range(10_000):
        store.save({"round": i})
        time.sleep(0.05)


class TestRunAndKill:
    def test_kills_once_snapshots_appear(self, tmp_path):
        d = str(tmp_path / "ckpt")
        report = faults.run_and_kill(
            _snapshot_writer, (d,), watch_dir=d, snapshots=2
        )
        assert report.killed
        assert report.exitcode == -signal.SIGKILL
        assert report.snapshots >= 2

    def test_times_out_when_no_snapshots_appear(self, tmp_path):
        d = str(tmp_path / "never")
        with pytest.raises(TimeoutError):
            faults.run_and_kill(
                time.sleep, (30,), watch_dir=d, timeout=1.0
            )


# ----------------------------------------------------------------------
# Numerical robustness: NaN/Inf guards in the optimizers and engines
# ----------------------------------------------------------------------


class TestNonFiniteGuards:
    def test_scalar_lm_nan_start_fails_with_inf_cost(self):
        def residual_fn(_x):
            return np.array([np.nan]), np.array([[np.nan]])

        run = levenberg_marquardt(residual_fn, np.array([0.5]))
        assert run.stop_reason == "non-finite"
        assert run.cost == float("inf")
        assert not run.converged

    def test_batched_lm_retires_nan_start_individually(self):
        def residual_fn(X):
            R = np.zeros((X.shape[0], 2))
            R[1] = np.nan  # start 1 is poisoned, the others are fine
            J = np.zeros((X.shape[0], 2, X.shape[1]))
            return R, J

        runs = batched_levenberg_marquardt(
            residual_fn, np.zeros((3, 1))
        )
        assert runs[1].stop_reason == "non-finite"
        assert runs[1].cost == float("inf")
        assert runs[0].stop_reason == "gradient-tolerance"
        assert runs[2].stop_reason == "gradient-tolerance"
        assert all(np.isfinite(r.cost) for r in (runs[0], runs[2]))

    def test_adam_stops_on_non_finite(self):
        class NanFn:
            calls = 0

            def value_and_grad(self, x):
                self.calls += 1
                if self.calls == 1:
                    return 0.5, np.ones_like(x)
                return np.nan, np.full_like(x, np.nan)

        result = adam_minimize(NanFn(), np.array([0.1]))
        assert result.stop_reason == "non-finite"
        assert np.isfinite(result.infidelity)

    @pytest.mark.parametrize("strategy", ["sequential", "batched"])
    def test_engine_reports_inf_not_nan(self, strategy):
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = np.full((4, 4), np.nan, dtype=complex)
        engine = Instantiater(circuit, strategy=strategy)
        result = engine.instantiate(target, starts=4, rng=1)
        assert result.infidelity == float("inf")  # inf, never NaN
        assert not result.success

    def test_serial_executor_quarantines_nan_target(self):
        circuit = build_qsearch_ansatz(2, 1, 2)
        bad = np.full((4, 4), np.nan, dtype=complex)
        good = reachable_target(circuit, 11)
        before = telemetry.metrics().snapshot()
        outcomes = SerialCandidateExecutor(EnginePool()).run([
            FitJob(circuit, bad, 2, candidate_seed(1, "bad")),
            FitJob(circuit, good, 2, candidate_seed(1, "good")),
        ])
        assert outcomes[0].failed
        assert outcomes[0].infidelity == float("inf")
        assert not outcomes[1].failed
        assert np.isfinite(outcomes[1].infidelity)
        delta = metrics_delta(before)
        assert delta.get("executor.failed_candidates") == 1


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_serial_round_timeout_degrades_leftovers(self):
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 13)
        jobs = [
            FitJob(circuit, target, 4, candidate_seed(2, ("t", k)))
            for k in range(3)
        ]
        # The budget admits the first job (the deadline is checked
        # before each job, microseconds after it was set) and expires
        # during its multi-millisecond fit, so the rest degrade.
        outcomes = SerialCandidateExecutor(EnginePool()).run(
            jobs, round_timeout=1e-3
        )
        assert not outcomes[0].failed
        assert [o.failure for o in outcomes[1:]] == ["round-timeout"] * 2
        assert all(o.infidelity == float("inf") for o in outcomes[1:])

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            SynthesisSearch(job_timeout=0.0)
        with pytest.raises(ValueError):
            SynthesisSearch(round_timeout=-1.0)
        with pytest.raises(ValueError):
            Resynthesizer(job_timeout=-2.0)
        with pytest.raises(ValueError):
            ProcessCandidateExecutor(EnginePool(), 2, job_timeout=0.0)
        with pytest.raises(ValueError):
            ProcessCandidateExecutor(EnginePool(), 2, max_retries=-1)


# ----------------------------------------------------------------------
# Executor lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_close_is_idempotent_and_restartable(self):
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 17)
        jobs = [FitJob(circuit, target, 2, candidate_seed(4, "x"))]
        proc = ProcessCandidateExecutor(EnginePool(), workers=2)
        try:
            first = proc.run(jobs)
            proc.close()
            proc.close()  # idempotent
            second = proc.run(jobs)  # an explicit close() is a restart
        finally:
            proc.close()
        assert np.array_equal(first[0].params, second[0].params)
        assert first[0].infidelity == second[0].infidelity

    def test_context_manager_exit_is_terminal(self):
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 17)
        with ProcessCandidateExecutor(EnginePool(), workers=2) as proc:
            pass
        with pytest.raises(RuntimeError, match="context manager"):
            proc.run([FitJob(circuit, target, 2, 1)])

    def test_keyboard_interrupt_tears_down_without_waiting(self):
        class FakeFuture:
            def result(self, timeout=None):
                raise KeyboardInterrupt

            def cancel(self):
                pass

        class FakeExecutor:
            def __init__(self):
                self.shutdown_calls = []
                self._processes = {}

            def submit(self, *_args, **_kwargs):
                return FakeFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                self.shutdown_calls.append((wait, cancel_futures))

        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 17)
        proc = ProcessCandidateExecutor(EnginePool(), workers=2)
        fake = FakeExecutor()
        proc._executor = fake
        with pytest.raises(KeyboardInterrupt):
            proc.run([FitJob(circuit, target, 2, 1)])
        # Non-blocking teardown: wait=False + cancel_futures=True (the
        # old path blocked on shutdown(wait=True) — for a hung worker,
        # forever), and the executor is dropped for a clean rebuild.
        assert fake.shutdown_calls == [(False, True)]
        assert proc._executor is None


# ----------------------------------------------------------------------
# Chaos: injected faults against real spawned worker pools
# ----------------------------------------------------------------------


class TestChaos:
    def test_worker_crash_recovers_bit_identically(self, tmp_path):
        # One worker is killed mid-round; the pass must rebuild the
        # pool, retry the unresolved job, and return the exact result
        # of a fault-free run (structure-keyed seeds make the retried
        # fit reproduce its clean-run numbers bit for bit).
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 21)
        with SynthesisSearch() as search:
            clean = search.synthesize(target, rng=5)
        assert clean.success

        pool = EnginePool()
        executor = ProcessCandidateExecutor(
            pool, workers=2, mp_context="spawn"
        )
        try:
            with faults.activate("crash:once", str(tmp_path)):
                with SynthesisSearch(pool=pool, executor=executor) as s:
                    recovered = s.synthesize(target, rng=5)
        finally:
            executor.close()
        assert_identical(clean, recovered)
        assert recovered.retries >= 1
        assert recovered.failed_candidates == 0
        assert "degraded" in recovered.report()

    def test_hang_is_bounded_and_pass_returns(self, tmp_path):
        # A hung worker must not stall the pass: the job deadline
        # expires, the candidate degrades to a failed outcome, the
        # hung pool is torn down (killed, not joined), and the search
        # still solves the target through later rounds.
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 21)
        pool = EnginePool()
        executor = ProcessCandidateExecutor(
            pool, workers=2, mp_context="spawn", job_timeout=3.0
        )
        t0 = time.monotonic()
        try:
            with faults.activate(
                "hang:once", str(tmp_path), hang_seconds=60.0
            ):
                with SynthesisSearch(pool=pool, executor=executor) as s:
                    result = s.synthesize(target, rng=5)
        finally:
            executor.close()
        wall = time.monotonic() - t0
        # The hang hit the root fit (the first task); the root then
        # degraded, its successors still solved the target.
        assert result.success
        assert result.timed_out == 1
        assert result.failed_candidates == 1
        assert wall < 40.0  # deadline-bounded, nowhere near the 60s hang

    def test_nan_injection_quarantines_without_poisoning(self, tmp_path):
        # Which task claims the fault tick depends on scheduling, so
        # assert positionally: exactly one outcome failed (with an
        # *infinite*, ordered infidelity — never NaN), and every other
        # outcome is bit-identical to its serial counterpart.
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 23)
        jobs = [
            FitJob(circuit, target, 4, candidate_seed(9, ("nan", k)))
            for k in range(3)
        ]
        serial = SerialCandidateExecutor(EnginePool()).run(jobs)
        before = telemetry.metrics().snapshot()
        with faults.activate("nan:once", str(tmp_path)):
            with ProcessCandidateExecutor(
                EnginePool(), workers=2, mp_context="spawn"
            ) as proc:
                outcomes = proc.run(jobs)
        failed = [o for o in outcomes if o.failed]
        assert len(failed) == 1
        assert failed[0].infidelity == float("inf")
        assert failed[0].failure == "non-finite"
        for a, b in zip(serial, outcomes):
            if not b.failed:
                assert np.array_equal(a.params, b.params)
                assert a.infidelity == b.infidelity
        delta = metrics_delta(before)
        assert delta.get("executor.nonfinite_results") == 1

    def test_poison_job_is_quarantined(self, tmp_path):
        # A candidate that kills its worker on *every* attempt burns
        # its retry budget and is quarantined as a failed outcome; the
        # executor stays usable for the jobs that follow.
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 29)
        poison = FitJob(circuit, target, 2, candidate_seed(6, "poison"))
        before = telemetry.metrics().snapshot()
        proc = ProcessCandidateExecutor(
            EnginePool(), workers=2, mp_context="spawn",
            max_retries=1, max_pool_rebuilds=10,
        )
        try:
            with faults.activate(
                f"crash:seed{poison.seed}", str(tmp_path)
            ):
                [outcome] = proc.run([poison])
                assert outcome.failed
                assert outcome.failure == "quarantined"
                assert outcome.infidelity == float("inf")
                # The pool survives the poison: later batches fit.
                ok = FitJob(
                    circuit, target, 2, candidate_seed(6, "healthy")
                )
                [healthy] = proc.run([ok])
        finally:
            proc.close()
        assert not healthy.failed
        assert np.isfinite(healthy.infidelity)
        delta = metrics_delta(before)
        assert delta.get("executor.quarantined") == 1
        assert delta.get("executor.retries") == 1
        assert delta.get("executor.pool_rebuilds") == 2

    def test_repeated_breakage_falls_back_to_serial(self, tmp_path):
        # When the pool keeps dying under jobs still inside their
        # retry budgets, the round finishes in-process — and because
        # the crash injector is inert in the main process (like a real
        # worker-environment failure that doesn't afflict the parent),
        # the fallback produces the true, bit-identical outcomes.
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 31)
        jobs = [
            FitJob(circuit, target, 2, candidate_seed(8, ("s", k)))
            for k in range(2)
        ]
        serial = SerialCandidateExecutor(EnginePool()).run(jobs)
        before = telemetry.metrics().snapshot()
        proc = ProcessCandidateExecutor(
            EnginePool(), workers=2, mp_context="spawn",
            max_retries=5, max_pool_rebuilds=1,
        )
        try:
            with faults.activate("crash:always", str(tmp_path)):
                outcomes = proc.run(jobs)
        finally:
            proc.close()
        for a, b in zip(serial, outcomes):
            assert not b.failed
            assert np.array_equal(a.params, b.params)
            assert a.infidelity == b.infidelity
        delta = metrics_delta(before)
        assert delta.get("executor.serial_fallbacks") == 1
        assert delta.get("executor.pool_rebuilds") == 2
