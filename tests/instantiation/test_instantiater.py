"""Tests for the multi-start instantiation engine."""

import numpy as np
import pytest

from repro.circuit import build_qft_circuit, build_qsearch_ansatz, gates, QuditCircuit
from repro.instantiation import (
    AUTO_BATCH_MIN_STARTS,
    Instantiater,
    LMOptions,
    instantiate,
)


@pytest.fixture(scope="module")
def shallow2q():
    circ = build_qsearch_ansatz(2, 2, 2)
    return circ, Instantiater(circ)


def target_from_ansatz(circ, seed):
    p = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.num_params)
    return circ.get_unitary(p), p


class TestRecovery:
    def test_recovers_reachable_target(self, shallow2q):
        circ, engine = shallow2q
        target, _ = target_from_ansatz(circ, 11)
        result = engine.instantiate(target, starts=8, rng=0)
        assert result.success
        assert result.infidelity < 1e-8
        # The recovered parameters actually reproduce the target.
        u = circ.get_unitary(result.params)
        from repro.utils import hilbert_schmidt_infidelity

        assert hilbert_schmidt_infidelity(target, u) < 1e-8

    def test_x0_seeding_converges_immediately(self, shallow2q):
        circ, engine = shallow2q
        target, p_true = target_from_ansatz(circ, 12)
        result = engine.instantiate(target, starts=1, x0=p_true)
        assert result.success
        assert result.total_iterations <= 3

    def test_single_qubit_exact(self):
        circ = QuditCircuit.qubits(1)
        u3 = circ.cache_operation(gates.u3())
        circ.append_ref(u3, 0)
        from repro.utils import random_unitary

        target = random_unitary(2, rng=3)
        result = instantiate(circ, target, starts=4, rng=1)
        assert result.success  # U3 parameterizes all of U(2) mod phase


class TestMultiStart:
    def test_short_circuit_on_success(self, shallow2q):
        circ, engine = shallow2q
        target, p_true = target_from_ansatz(circ, 13)
        result = engine.instantiate(target, starts=8, x0=p_true, rng=2)
        assert result.starts_used == 1  # first start already succeeds

    def test_multi_start_beats_single(self, shallow2q):
        circ, engine = shallow2q
        successes_single = 0
        successes_multi = 0
        for seed in range(4):
            target, _ = target_from_ansatz(circ, 50 + seed)
            if engine.instantiate(target, starts=1, rng=seed).success:
                successes_single += 1
            if engine.instantiate(target, starts=8, rng=seed).success:
                successes_multi += 1
        assert successes_multi >= successes_single

    def test_runs_recorded(self, shallow2q):
        circ, engine = shallow2q
        target, _ = target_from_ansatz(circ, 14)
        result = engine.instantiate(target, starts=3, rng=4)
        assert 1 <= len(result.runs) <= 3
        assert result.starts_used == len(result.runs)


class TestAccounting:
    def test_timings_present(self, shallow2q):
        circ, engine = shallow2q
        target, _ = target_from_ansatz(circ, 15)
        result = engine.instantiate(target, starts=1, rng=0)
        assert engine.aot_seconds > 0
        assert result.optimize_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.aot_seconds + result.optimize_seconds
        )

    def test_bad_x0_shape_rejected(self, shallow2q):
        circ, engine = shallow2q
        target, _ = target_from_ansatz(circ, 16)
        with pytest.raises(ValueError):
            engine.instantiate(target, x0=np.zeros(1))

    def test_custom_lm_options(self, shallow2q):
        circ, _ = shallow2q
        target, _ = target_from_ansatz(circ, 17)
        result = instantiate(
            circ, target, starts=1, rng=0,
            lm_options=LMOptions(max_iterations=2),
        )
        assert result.runs[0].iterations <= 2


class TestAutoStrategy:
    """``strategy="auto"`` switches engines at AUTO_BATCH_MIN_STARTS."""

    def test_threshold_value(self):
        assert AUTO_BATCH_MIN_STARTS == 4

    def test_below_threshold_stays_sequential(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        engine = Instantiater(circ, strategy="auto")
        target, p_true = target_from_ansatz(circ, 30)
        for starts in range(1, AUTO_BATCH_MIN_STARTS):
            result = engine.instantiate(target, starts=starts, rng=0, x0=p_true)
            assert result.success
            # The batched engine is built lazily on first batched call;
            # below the threshold it must never come into existence.
            assert engine._batched_engine is None

    def test_at_threshold_switches_to_batched(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        engine = Instantiater(circ, strategy="auto")
        target, p_true = target_from_ansatz(circ, 31)
        result = engine.instantiate(
            target, starts=AUTO_BATCH_MIN_STARTS, rng=0, x0=p_true
        )
        assert result.success
        assert engine._batched_engine is not None

    def test_zero_param_circuit_stays_sequential(self):
        # A fully constant template has nothing to batch over.
        circ = build_qft_circuit(2)
        engine = Instantiater(circ, strategy="auto")
        result = engine.instantiate(circ.get_unitary(()), starts=8)
        assert result.success
        assert result.infidelity <= 1e-8
        assert engine._batched_engine is None

    def test_per_call_override_beats_engine_default(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        engine = Instantiater(circ, strategy="auto")
        target, _ = target_from_ansatz(circ, 32)
        engine.instantiate(target, starts=2, rng=0, strategy="batched")
        assert engine._batched_engine is not None


class TestEngineReuse:
    """One Instantiater serves many targets (the Listing 3 workflow)."""

    @pytest.mark.parametrize("strategy", ["sequential", "batched"])
    def test_many_targets_one_engine(self, strategy):
        from repro.utils import hilbert_schmidt_infidelity

        circ = build_qsearch_ansatz(2, 2, 2)
        engine = Instantiater(circ, strategy=strategy)
        aot_after_first = None
        for seed in range(3):
            target, p_true = target_from_ansatz(circ, 40 + seed)
            result = engine.instantiate(target, starts=8, rng=seed)
            assert result.success
            assert (
                hilbert_schmidt_infidelity(
                    target, circ.get_unitary(result.params)
                )
                < 1e-8
            )
            if aot_after_first is None:
                # The first fit builds the VM it runs; repeat targets
                # must not pay any further AOT time.
                aot_after_first = result.aot_seconds
            assert result.aot_seconds == aot_after_first

    def test_batched_reuses_one_arena_per_start_count(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        engine = Instantiater(circ, strategy="batched")
        for seed in range(3):
            target, _ = target_from_ansatz(circ, 45 + seed)
            engine.instantiate(target, starts=8, rng=seed)
        batched = engine._batched_engine
        assert batched is not None
        assert set(batched._vms) == {8}  # one BatchedTNVM, reused
