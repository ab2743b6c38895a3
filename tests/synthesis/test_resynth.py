"""Tests for gate-deletion resynthesis and window-partitioned synthesis."""

import numpy as np
import pytest

from repro.circuit import QuditCircuit, build_qsearch_ansatz, gates
from repro.synthesis import (
    PartitionedSynthesizer,
    Resynthesizer,
    SynthesisSearch,
)
from repro.utils import hilbert_schmidt_infidelity


def reachable_target(circ, seed):
    p = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.num_params)
    return circ.get_unitary(p), p


class TestResynthesizer:
    def test_compresses_overdeep_ansatz(self):
        # The target needs one entangling block; fit it with three and
        # let the deletion loop strip the excess.
        shallow = build_qsearch_ansatz(2, 1, 2)
        target, _ = reachable_target(shallow, 60)
        deep = build_qsearch_ansatz(2, 3, 2)
        result = Resynthesizer().resynthesize(deep, target=target, rng=0)
        assert result.success
        assert result.infidelity <= 1e-8
        assert result.count("CX") <= 1
        assert result.circuit.num_operations < deep.num_operations
        assert (
            hilbert_schmidt_infidelity(
                target, result.circuit.get_unitary(result.params)
            )
            <= 1e-8
        )

    def test_preserves_own_unitary(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        target, p = reachable_target(circ, 61)
        result = Resynthesizer().resynthesize(circ, params=p, rng=1)
        assert result.success
        assert (
            hilbert_schmidt_infidelity(
                target, result.circuit.get_unitary(result.params)
            )
            <= 1e-8
        )
        assert result.circuit.num_operations <= circ.num_operations

    def test_unreachable_baseline_fails_cleanly(self):
        circ = QuditCircuit.qubits(2)
        circ.append_ref(circ.cache_operation(gates.u3()), 0)
        from repro.utils import random_unitary

        result = Resynthesizer().resynthesize(
            circ, target=random_unitary(4, rng=7), rng=0
        )
        assert not result.success
        # No deletions are attempted from an invalid starting point.
        assert result.nodes_expanded == 0
        assert result.circuit.num_operations == 1

    def test_max_passes_caps_work(self):
        deep = build_qsearch_ansatz(2, 3, 2)
        shallow = build_qsearch_ansatz(2, 1, 2)
        target, _ = reachable_target(shallow, 62)
        capped = Resynthesizer(max_passes=1).resynthesize(
            deep, target=target, rng=0
        )
        uncapped = Resynthesizer().resynthesize(deep, target=target, rng=0)
        assert (
            capped.circuit.num_operations >= uncapped.circuit.num_operations
        )

    def test_param_length_validated(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        target, p = reachable_target(circ, 64)
        # A partial vector is refused whether or not a target is given.
        for explicit in (target, None):
            with pytest.raises(
                ValueError, match="expected 18 parameter values, got 5"
            ):
                Resynthesizer().resynthesize(circ, p[:5], target=explicit)
        # No values at all with a target is a cold baseline fit.
        result = Resynthesizer(max_passes=1).resynthesize(
            circ, (), target=target, rng=0
        )
        assert result.success

    def test_engine_pool_counters_reported(self):
        deep = build_qsearch_ansatz(2, 2, 2)
        target, p = reachable_target(deep, 63)
        result = Resynthesizer().resynthesize(deep, params=p, rng=0)
        assert (
            result.engine_cache_hits + result.engine_cache_misses
            == result.instantiation_calls
        )


class TestScanOrders:
    def test_invalid_scan_order_rejected(self):
        with pytest.raises(ValueError):
            Resynthesizer(scan_order="random")
        with pytest.raises(ValueError):
            Resynthesizer(scan_batch=0)

    def test_scan_index_orders(self):
        deep = build_qsearch_ansatz(2, 2, 2)  # s s | e s s | e s s
        n = deep.num_operations
        ops = list(deep)
        entanglers = [i for i in range(n) if len(ops[i].location) > 1]
        backward = Resynthesizer(scan_order="backward")._scan_indices(deep)
        forward = Resynthesizer(scan_order="forward")._scan_indices(deep)
        ent_first = Resynthesizer(
            scan_order="entangler-first"
        )._scan_indices(deep)
        assert backward == list(reversed(range(n)))
        assert forward == list(range(n))
        assert sorted(ent_first) == list(range(n))
        # Every entangling block is tried before any single-qudit gate,
        # back to front within each group.
        assert ent_first[: len(entanglers)] == sorted(
            entanglers, reverse=True
        )

    def test_entangler_first_compresses(self):
        shallow = build_qsearch_ansatz(2, 1, 2)
        target, _ = reachable_target(shallow, 66)
        deep = build_qsearch_ansatz(2, 3, 2)
        result = Resynthesizer(scan_order="entangler-first").resynthesize(
            deep, target=target, rng=0
        )
        assert result.success
        assert result.count("CX") <= 1
        assert result.circuit.num_operations < deep.num_operations

    def test_forward_scan_compresses(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        target, p = reachable_target(circ, 67)
        result = Resynthesizer(scan_order="forward").resynthesize(
            circ, params=p, rng=1
        )
        assert result.success
        assert result.circuit.num_operations <= circ.num_operations


class TestPartitionedSynthesizer:
    def test_three_qubit_circuit_in_two_qubit_windows(self):
        circ = build_qsearch_ansatz(3, 2, 2)
        _, p = reachable_target(circ, 70)
        synth = PartitionedSynthesizer(window=2)
        result = synth.synthesize_circuit(circ, p, rng=0)
        assert result.success
        assert len(result.windows) > 1
        assert all(w.success for w in result.windows)
        assert (
            hilbert_schmidt_infidelity(
                circ.get_unitary(p),
                result.circuit.get_unitary(result.params),
            )
            <= 1e-7
        )

    def test_output_circuit_spans_full_register(self):
        circ = build_qsearch_ansatz(4, 3, 2)
        _, p = reachable_target(circ, 71)
        result = PartitionedSynthesizer(window=2).synthesize_circuit(
            circ, p, rng=1
        )
        assert result.circuit.radices == circ.radices
        touched = {q for op in result.circuit for q in op.location}
        assert touched == set(range(4))

    def test_counters_aggregate_windows(self):
        circ = build_qsearch_ansatz(3, 2, 2)
        _, p = reachable_target(circ, 72)
        result = PartitionedSynthesizer(window=2).synthesize_circuit(
            circ, p, rng=2
        )
        assert result.instantiation_calls == sum(
            w.instantiation_calls for w in result.windows
        )

    def test_gate_wider_than_window_rejected(self):
        circ = QuditCircuit.qubits(3)
        circ.append_ref(circ.cache_operation(gates.ccx()), (0, 1, 2))
        with pytest.raises(ValueError):
            PartitionedSynthesizer(window=2).synthesize_circuit(circ, ())

    def test_param_length_validated(self):
        circ = build_qsearch_ansatz(3, 1, 2)
        with pytest.raises(ValueError):
            PartitionedSynthesizer(window=2).synthesize_circuit(
                circ, np.zeros(1)
            )

    def test_empty_circuit(self):
        result = PartitionedSynthesizer(window=2).synthesize_circuit(
            QuditCircuit.qubits(3), ()
        )
        assert result.success
        assert result.circuit.num_operations == 0
        assert result.windows == []

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PartitionedSynthesizer(window=1)

    def test_shared_search_pool(self):
        search = SynthesisSearch()
        synth = PartitionedSynthesizer(search=search, window=2)
        circ = build_qsearch_ansatz(3, 2, 2)
        _, p = reachable_target(circ, 73)
        first = synth.synthesize_circuit(circ, p, rng=3)
        second = synth.synthesize_circuit(circ, p, rng=4)
        assert second.engine_cache_misses <= first.engine_cache_misses
