"""Tests for parallel candidate evaluation.

The headline contract: a synthesis pass returns a bit-identical
``SynthesisResult`` (circuit, params, infidelity, instantiation_calls,
cache counters) for any worker count, because candidate RNG seeds
derive from structure keys rather than draw order and batch outcomes
are scanned in deterministic job order.
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import build_qft_circuit, build_qsearch_ansatz
from repro.instantiation import EnginePool
from repro.synthesis import (
    FitJob,
    ProcessCandidateExecutor,
    Resynthesizer,
    SerialCandidateExecutor,
    SynthesisSearch,
    candidate_seed,
    make_executor,
)
from repro.tensornet import FULL_UNITARY, OutputContract


def reachable_target(circ, seed):
    p = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.num_params)
    return circ.get_unitary(p)


def assert_identical(a, b):
    """The bit-identical subset of SynthesisResult (wall/efficiency
    legitimately differ)."""
    assert a.circuit.structure_key() == b.circuit.structure_key()
    assert np.array_equal(a.params, b.params)
    assert a.infidelity == b.infidelity
    assert a.success == b.success
    assert a.instantiation_calls == b.instantiation_calls
    assert a.engine_cache_hits == b.engine_cache_hits
    assert a.engine_cache_misses == b.engine_cache_misses
    assert a.nodes_expanded == b.nodes_expanded


class TestCandidateSeed:
    def test_stable_and_key_dependent(self):
        key_a = ("shape", 1)
        key_b = ("shape", 2)
        assert candidate_seed(7, key_a) == candidate_seed(7, key_a)
        assert candidate_seed(7, key_a) != candidate_seed(7, key_b)
        assert candidate_seed(7, key_a) != candidate_seed(8, key_a)

    def test_seed_is_valid_for_numpy(self):
        seed = candidate_seed(0, ("x",))
        np.random.default_rng(seed)  # must not raise
        assert seed >= 0


class TestExecutors:
    def test_serial_and_process_agree(self):
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 21)
        jobs = [
            FitJob(circuit, target, 4, candidate_seed(3, ("job", k)))
            for k in range(3)
        ]
        serial = SerialCandidateExecutor(EnginePool())
        serial_out = serial.run(jobs)
        with ProcessCandidateExecutor(EnginePool(), workers=2) as proc:
            proc_out = proc.run(jobs)
        for a, b in zip(serial_out, proc_out):
            assert np.array_equal(a.params, b.params)
            assert a.infidelity == b.infidelity
            assert a.engine_call and b.engine_call

    def test_state_job_fits_through_a_column_engine(self):
        # A hand-built job takes its contract from its target: a 1-D
        # state fits through the pool's COLUMN(0) engine, in-process
        # and across workers alike, with bit-identical outcomes.
        circuit = build_qsearch_ansatz(2, 1, 2)
        unitary = reachable_target(circuit, 5)
        state = np.ascontiguousarray(unitary[:, 0])
        job = FitJob(circuit, state, 4, candidate_seed(4, "state"))
        assert job.contract == OutputContract.column(0)
        assert FitJob(circuit, unitary, 4, 0).contract == FULL_UNITARY
        with pytest.raises(AttributeError):
            job.contract = FULL_UNITARY
        outcomes = []
        for make in (
            SerialCandidateExecutor,
            lambda pool: ProcessCandidateExecutor(pool, workers=2),
        ):
            pool = EnginePool()
            with make(pool) as executor:
                [outcome] = executor.run([job])
            assert outcome.engine_call and outcome.infidelity < 1e-8
            misses = pool.misses
            pool.engine_for(circuit, OutputContract.column(0))
            assert pool.misses == misses and pool.hits >= 1
            outcomes.append(outcome)
        serial, proc = outcomes
        assert np.array_equal(serial.params, proc.params)
        assert serial.infidelity == proc.infidelity

    def test_constant_candidates_skip_engines(self):
        circuit = build_qft_circuit(2)  # fully constant
        target = circuit.get_unitary(())
        job = FitJob(circuit, target, 4, 0)
        pool = EnginePool()
        with make_executor(pool, 2) as executor:
            [outcome] = executor.run([job])
        assert not outcome.engine_call
        assert outcome.infidelity <= 1e-12
        assert pool.misses == 0  # never touched an engine

    def test_make_executor_selects_backend(self):
        pool = EnginePool()
        assert isinstance(make_executor(pool, 1), SerialCandidateExecutor)
        assert isinstance(make_executor(pool, 2), ProcessCandidateExecutor)
        with pytest.raises(ValueError):
            make_executor(pool, 0)
        with pytest.raises(ValueError):
            ProcessCandidateExecutor(pool, workers=1)

    def test_injected_executor_must_wrap_pool(self):
        foreign = SerialCandidateExecutor(EnginePool())
        with pytest.raises(ValueError):
            SynthesisSearch(executor=foreign)
        with pytest.raises(ValueError):
            Resynthesizer(executor=foreign)
        pool = EnginePool()
        search = SynthesisSearch(
            pool=pool, executor=SerialCandidateExecutor(pool)
        )
        assert search.workers == 1

    def test_conflicting_workers_and_executor_rejected(self):
        pool = EnginePool()
        serial = SerialCandidateExecutor(pool)
        with pytest.raises(ValueError):
            SynthesisSearch(pool=pool, executor=serial, workers=4)
        with pytest.raises(ValueError):
            Resynthesizer(pool=pool, executor=serial, workers=4)
        # Matching (or default) worker counts are fine.
        SynthesisSearch(pool=pool, executor=serial, workers=1)


class TestPayloadDedup:
    """Every task carries its shape's payload; a worker unpickles it
    only on a miss in its engine LRU, so each worker rehydrates a
    shape once."""

    def test_worker_unpickles_payload_only_on_miss(self):
        from repro.synthesis.executor import _WORKER_ENGINES, _worker_fit

        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 5)
        pool = EnginePool()
        payload = pool.serialized_bytes(circuit)
        key = ("test-dedup", circuit.structure_key())
        _WORKER_ENGINES.pop(key, None)
        params, infidelity, busy, spans, metrics = _worker_fit(
            key, payload, target, 2, 1, None
        )
        assert params.shape == (circuit.num_params,)
        # Tracing was off, so no spans ship; the task's metrics delta
        # always does.
        assert spans == []
        assert metrics.get("instantiate.fits", 0) == 1
        # Now the LRU holds the engine: the task's payload is never
        # unpickled, so even unreadable bytes fit the same.
        again = _worker_fit(key, b"not a pickle", target, 2, 1, None)
        assert np.array_equal(again[0], params)
        _WORKER_ENGINES.pop(key, None)

    def test_each_worker_rehydrates_a_shape_once(self):
        circuit = build_qsearch_ansatz(2, 1, 2)
        target = reachable_target(circuit, 23)
        jobs = [
            FitJob(circuit, target, 4, candidate_seed(9, ("dedup", k)))
            for k in range(3)
        ]
        serial_out = SerialCandidateExecutor(EnginePool()).run(jobs)
        telemetry.enable()
        try:
            with ProcessCandidateExecutor(EnginePool(), workers=2) as proc:
                first = proc.run(jobs)
                second = proc.run(jobs)
        finally:
            spans = telemetry.disable()
        rehydrates = Counter(
            s.pid for s in spans
            if s.name == "engine.rehydrate" and s.category == "executor"
        )
        # Six tasks on one shape: at most one rehydration per worker
        # process, none in the parent.
        assert rehydrates
        assert set(rehydrates.values()) == {1}
        assert len(rehydrates) <= 2
        assert os.getpid() not in rehydrates
        for outcome in (first, second):
            for a, b in zip(serial_out, outcome):
                assert np.array_equal(a.params, b.params)
                assert a.infidelity == b.infidelity


class TestSearchEquivalence:
    def test_workers_do_not_change_results(self):
        # A 3-qubit reachable target: expansions branch 3 ways, so
        # parallel rounds genuinely batch multiple candidates.
        target = reachable_target(build_qsearch_ansatz(3, 1, 2), 31)
        reference = None
        for workers in (1, 3):
            with SynthesisSearch(
                workers=workers, expansion_width=2
            ) as search:
                result = search.synthesize(target, rng=5)
            assert result.success
            assert result.workers == workers
            assert result.parallel_efficiency is not None
            if reference is None:
                reference = result
            else:
                assert_identical(reference, result)

    def test_qft2_workers_equivalence(self):
        target = build_qft_circuit(2).get_unitary(())
        with SynthesisSearch() as serial:
            a = serial.synthesize(target, rng=7)
        with SynthesisSearch(workers=2) as parallel:
            b = parallel.synthesize(target, rng=7)
        assert_identical(a, b)

    def test_expansion_width_validation(self):
        with pytest.raises(ValueError):
            SynthesisSearch(expansion_width=0)
        with pytest.raises(ValueError):
            SynthesisSearch(workers=0)

    def test_same_rng_reproducible_on_warm_pool(self):
        # Candidate seeds derive from structure keys, so a warm pool
        # (different hit/miss pattern) cannot perturb the numbers.
        pool = EnginePool()
        target = build_qft_circuit(2).get_unitary(())
        first = SynthesisSearch(pool=pool).synthesize(target, rng=3)
        second = SynthesisSearch(pool=pool).synthesize(target, rng=3)
        assert np.array_equal(first.params, second.params)
        assert first.infidelity == second.infidelity


class TestResynthesisEquivalence:
    def test_workers_do_not_change_results(self):
        deep = build_qsearch_ansatz(2, 3, 2)
        target = reachable_target(build_qsearch_ansatz(2, 1, 2), 64)
        reference = None
        for workers in (1, 2):
            with Resynthesizer(workers=workers, scan_batch=4) as resynth:
                result = resynth.resynthesize(deep, target=target, rng=2)
            assert result.success
            if reference is None:
                reference = result
            else:
                assert_identical(reference, result)

    def test_scan_batch_changes_only_call_count(self):
        # The accepted deletion is the first fitting one in scan order
        # and candidate seeds are order-independent, so the wave size
        # affects how much speculative work is done — never the result.
        deep = build_qsearch_ansatz(2, 3, 2)
        target = reachable_target(build_qsearch_ansatz(2, 1, 2), 65)
        short = Resynthesizer(scan_batch=1).resynthesize(
            deep, target=target, rng=4
        )
        full = Resynthesizer(scan_batch=None).resynthesize(
            deep, target=target, rng=4
        )
        assert short.circuit.structure_key() == full.circuit.structure_key()
        assert np.array_equal(short.params, full.params)
        assert short.infidelity == full.infidelity
        # The full-wave scan speculatively evaluates more candidates.
        assert full.instantiation_calls >= short.instantiation_calls
