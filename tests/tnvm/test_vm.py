"""TNVM correctness tests: values, gradients, precision, semantics."""

import numpy as np
import pytest

from repro.baseline.evaluator import DenseEvaluator
from repro.circuit import QuditCircuit, build_qsearch_ansatz, gates
from repro.tnvm import TNVM, Differentiation

from ..conftest import build_random_circuit_pair


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_reference_on_random_circuits(self, seed):
        circ, base, n = build_random_circuit_pair(seed)
        params = np.random.default_rng(seed + 99).uniform(
            -np.pi, np.pi, n
        )
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        dense = DenseEvaluator(base)
        assert np.allclose(
            vm.evaluate(tuple(params)),
            dense.get_unitary(params),
            atol=1e-10,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_dense_reference(self, seed):
        circ, base, n = build_random_circuit_pair(seed, num_ops=6)
        params = np.random.default_rng(seed + 7).uniform(
            -np.pi, np.pi, n
        )
        vm = TNVM(circ.compile(), diff=Differentiation.GRADIENT)
        u, g = vm.evaluate_with_grad(tuple(params))
        du, dg = DenseEvaluator(base).get_unitary_and_grad(params)
        assert np.allclose(u, du, atol=1e-10)
        assert np.allclose(g, dg, atol=1e-9)

    def test_output_is_unitary(self):
        circ = build_qsearch_ansatz(3, 4, 2)
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        p = np.random.default_rng(0).uniform(-np.pi, np.pi, circ.num_params)
        u = vm.evaluate(tuple(p))
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)

    def test_view_semantics(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        p = np.zeros(circ.num_params)
        first = vm.evaluate(tuple(p))
        snapshot = first.copy()
        p2 = np.full(circ.num_params, 0.5)
        second = vm.evaluate(tuple(p2))
        # evaluate returns a view into the arena: same storage object,
        # contents overwritten by the second call.
        assert second is first
        assert not np.allclose(first, snapshot)


class TestDifferentiationLevels:
    def test_none_mode_rejects_grad(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        with pytest.raises(RuntimeError):
            vm.evaluate_with_grad(
                tuple(np.zeros(circ.num_params))
            )

    def test_gradient_zero_rows_for_constant_params(self):
        # A circuit parameter that feeds no gate cannot exist by
        # construction, but constant ops produce no gradient rows; the
        # full gradient must still be shaped (num_params, D, D).
        circ = QuditCircuit.pure([2, 2])
        u3 = circ.cache_operation(gates.u3())
        cx = circ.cache_operation(gates.cx())
        circ.append_ref(u3, 0)
        circ.append_ref_constant(cx, (0, 1))
        vm = TNVM(circ.compile())
        _, g = vm.evaluate_with_grad((0.1, 0.2, 0.3))
        assert g.shape == (3, 4, 4)


class TestPrecision:
    def test_f32_close_to_f64(self):
        circ = build_qsearch_ansatz(3, 4, 2)
        prog = circ.compile()
        p = np.random.default_rng(1).uniform(-np.pi, np.pi, circ.num_params)
        u64 = TNVM(prog, precision="f64", diff=Differentiation.NONE)
        u32 = TNVM(prog, precision="f32", diff=Differentiation.NONE)
        a = u64.evaluate(tuple(p))
        b = u32.evaluate(tuple(p))
        assert b.dtype == np.complex64
        assert np.allclose(a, b, atol=1e-5)

    def test_bad_precision_rejected(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        with pytest.raises(ValueError):
            TNVM(circ.compile(), precision="f16")

    def test_memory_footprint_reported(self):
        circ = build_qsearch_ansatz(3, 4, 2)
        program = circ.compile()
        vm64 = TNVM(program, precision="f64")
        vm32 = TNVM(circ.compile(), precision="f32")
        assert vm64.memory_bytes == 2 * vm32.memory_bytes
        # One arena: each buffer's value row plus one gradient row per
        # parameter it depends on, and only the value rows without
        # differentiation.
        rows = sum((1 + len(b.params)) * b.size for b in program.buffers)
        assert vm64.memory_bytes == 16 * rows
        plain = TNVM(program, diff=Differentiation.NONE)
        assert plain.memory_bytes == 16 * program.memory_elements
        # The paper reports ~211KB for the 3-qubit shallow circuit in
        # f64 with gradients; ours should be the same order.
        assert vm64.memory_bytes < 2_000_000


class TestParamChecks:
    def test_wrong_arity(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        with pytest.raises(ValueError):
            vm.evaluate((0.0,))

    def test_repr(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        vm = TNVM(circ.compile())
        assert "TNVM" in repr(vm)
        assert "f64" in repr(vm)
