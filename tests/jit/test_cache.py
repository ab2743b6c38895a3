"""Tests for the ExpressionCache (paper section IV-B)."""

import threading

from repro import telemetry
from repro.circuit import fig5_circuit, gates
from repro.expression import UnitaryExpression
from repro.instantiation import Instantiater
from repro.jit.cache import ExpressionCache, canonical_key


class TestCanonicalKey:
    def test_alpha_equivalence(self):
        a = UnitaryExpression(
            "G(x) { [[cos(x), ~sin(x)], [sin(x), cos(x)]] }"
        )
        b = UnitaryExpression(
            "G(zz) { [[cos(zz), ~sin(zz)], [sin(zz), cos(zz)]] }"
        )
        assert canonical_key(a.matrix, True, True) == canonical_key(
            b.matrix, True, True
        )

    def test_distinct_semantics_distinct_keys(self):
        a = gates.rx().matrix
        b = gates.ry().matrix
        assert canonical_key(a, True, True) != canonical_key(
            b, True, True
        )

    def test_flags_partition_cache(self):
        m = gates.rx().matrix
        assert canonical_key(m, True, True) != canonical_key(
            m, False, True
        )

    def test_key_parts_are_memoized(self):
        m = gates.u3().matrix
        assert m.alpha_parts() is m.alpha_parts()
        assert canonical_key(m, True, True)[-1] is m.alpha_parts()


class TestCache:
    def test_hit_miss_accounting(self):
        cache = ExpressionCache()
        cache.get(gates.rx().matrix)
        cache.get(gates.rx().matrix)
        cache.get(gates.ry().matrix)
        assert cache.misses == 2
        assert cache.hits == 1
        assert len(cache) == 2

    def test_alpha_equivalent_gates_share(self):
        cache = ExpressionCache()
        a = UnitaryExpression("A(u) { [[1, 0], [0, e^(i*u)]] }")
        b = UnitaryExpression("B(v) { [[1, 0], [0, e^(i*v)]] }")
        assert cache.get(a.matrix) is cache.get(b.matrix)

    def test_clear(self):
        cache = ExpressionCache()
        cache.get(gates.rx().matrix)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0

    def test_counts_mirror_into_registry(self):
        registry = telemetry.metrics()
        hits = registry.counter("expression_cache.hits")
        misses = registry.counter("expression_cache.misses")
        hits0, misses0 = hits.value, misses.value
        a, b = ExpressionCache(), ExpressionCache()
        a.get(gates.rx().matrix)
        a.get(gates.rx().matrix)
        b.get(gates.rx().matrix)
        b.clear()  # restarts b's counts, not the registry's
        assert (a.hits, a.misses, b.hits, b.misses) == (1, 1, 0, 0)
        assert (hits.value - hits0, misses.value - misses0) == (1, 2)

    def test_each_fig5_gate_simplified_once(self):
        # Laid-out leaves share their gate's entry, so a fresh cache
        # simplifies U3, CX, P3 and CSUM3 once each for all five
        # Figure 5 engines and their scalar VMs.
        runs = telemetry.metrics().counter("compile.egraph_runs")
        before = runs.value
        cache = ExpressionCache()
        for name in (
            "2-qubit shallow", "3-qubit shallow", "3-qubit deep",
            "2-qutrit shallow", "3-qutrit shallow",
        ):
            Instantiater(fig5_circuit(name), cache=cache).vm
        assert runs.value - before == 4
        assert cache.misses == 4

    def test_concurrent_access_single_artifact(self):
        cache = ExpressionCache()
        results = []

        def worker():
            results.append(cache.get(gates.u3().matrix))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        assert all(r is results[0] for r in results)
