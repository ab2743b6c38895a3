"""Tests for the structure-keyed LRU engine pool."""

import numpy as np
import pytest

from repro.circuit import QuditCircuit, build_qsearch_ansatz, gates
from repro.instantiation import EnginePool
from repro.tensornet import FULL_UNITARY


def make_target(circ, seed):
    p = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.num_params)
    return circ.get_unitary(p)


class TestPooling:
    def test_structurally_identical_circuits_share_engine(self):
        pool = EnginePool()
        a = build_qsearch_ansatz(2, 2, 2)
        b = build_qsearch_ansatz(2, 2, 2)  # distinct object, same shape
        ea = pool.engine_for(a)
        eb = pool.engine_for(b)
        assert ea is eb
        assert pool.hits == 1
        assert pool.misses == 1
        assert len(pool) == 1

    def test_pooled_engine_solves_either_circuit(self):
        pool = EnginePool()
        a = build_qsearch_ansatz(2, 2, 2)
        b = build_qsearch_ansatz(2, 2, 2)
        target = make_target(b, seed=21)
        result = pool.engine_for(a).instantiate(target, starts=8, rng=0)
        assert result.success
        # The solution parameters apply to the twin circuit directly.
        from repro.utils import hilbert_schmidt_infidelity

        assert (
            hilbert_schmidt_infidelity(target, b.get_unitary(result.params))
            < 1e-8
        )

    def test_different_shapes_miss(self):
        pool = EnginePool()
        pool.engine_for(build_qsearch_ansatz(2, 1, 2))
        pool.engine_for(build_qsearch_ansatz(2, 2, 2))
        assert pool.misses == 2
        assert pool.hits == 0
        assert len(pool) == 2

    def test_const_values_are_part_of_the_key(self):
        pool = EnginePool()
        for angle in (0.5, 0.7):
            circ = QuditCircuit.qubits(1)
            rx = circ.cache_operation(gates.rx())
            circ.append_ref_constant(rx, 0, (angle,))
            pool.engine_for(circ)
        assert pool.misses == 2


class TestLRU:
    def test_eviction_at_capacity(self):
        pool = EnginePool(capacity=1)
        a = build_qsearch_ansatz(2, 1, 2)
        b = build_qsearch_ansatz(2, 2, 2)
        ea = pool.engine_for(a)
        pool.engine_for(b)  # evicts a's engine
        assert len(pool) == 1
        assert pool.engine_for(a) is not ea  # fresh engine object
        assert pool.misses == 3

    def test_eviction_snapshots_unshipped_engine(self):
        # An engine evicted before anything serialized its shape must
        # land in the payload store, so the next hit on that shape
        # rehydrates (program-backed, no circuit) instead of re-paying
        # the AOT compile.
        pool = EnginePool(capacity=1)
        a = build_qsearch_ansatz(2, 1, 2)
        b = build_qsearch_ansatz(2, 2, 2)
        pool.engine_for(a)
        pool.engine_for(b)  # evicts a, snapshotting it on the way out
        assert (a.structure_key(), FULL_UNITARY) in pool._payloads
        revived = pool.engine_for(a)
        assert revived.circuit is None  # rehydrated, not recompiled
        target = make_target(a, seed=11)
        result = revived.instantiate(target, starts=4, rng=2)
        fresh = EnginePool().engine_for(a).instantiate(
            target, starts=4, rng=2
        )
        assert np.array_equal(result.params, fresh.params)
        assert result.infidelity == fresh.infidelity

    def test_eviction_snapshot_reuses_existing_payload(self):
        pool = EnginePool(capacity=1)
        a = build_qsearch_ansatz(2, 1, 2)
        payload = pool.serialized_bytes(a)
        pool.engine_for(build_qsearch_ansatz(2, 2, 2))  # evicts a
        # The already-serialized payload is kept, not re-pickled.
        assert (
            pool._payloads[(a.structure_key(), FULL_UNITARY)]
            is payload
        )

    def test_hit_refreshes_recency(self):
        pool = EnginePool(capacity=2)
        a = build_qsearch_ansatz(2, 1, 2)
        b = build_qsearch_ansatz(2, 2, 2)
        c = build_qsearch_ansatz(2, 3, 2)
        ea = pool.engine_for(a)
        pool.engine_for(b)
        pool.engine_for(a)  # a becomes most recent
        pool.engine_for(c)  # evicts b, not a
        assert pool.engine_for(a) is ea
        assert pool.hits == 2

    def test_clear_keeps_counters(self):
        pool = EnginePool()
        pool.engine_for(build_qsearch_ansatz(2, 1, 2))
        pool.clear()
        assert len(pool) == 0
        assert pool.misses == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EnginePool(capacity=0)
