"""Tests for the Hilbert-Schmidt cost/residual functions (Eq. 1)."""

import numpy as np
import pytest

from repro.circuit import build_qsearch_ansatz
from repro.instantiation.cost import (
    HilbertSchmidtResiduals,
    infidelity_from_cost,
)
from repro.tnvm import TNVM, Differentiation
from repro.utils import hilbert_schmidt_infidelity, random_unitary


def sum_sq(res, p):
    """The least-squares cost ``sum(r^2)`` at ``p``."""
    r = res.residuals_and_jacobian(p)[0]
    return float(r @ r)


@pytest.fixture(scope="module")
def setup():
    circ = build_qsearch_ansatz(2, 2, 2)
    vm = TNVM(circ.compile(), diff=Differentiation.GRADIENT)
    target = random_unitary(4, rng=5)
    return circ, vm, HilbertSchmidtResiduals(vm, target), target


class TestResidualIdentity:
    def test_sum_sq_equals_scaled_infidelity(self, setup):
        circ, vm, res, target = setup
        p = np.random.default_rng(1).uniform(-np.pi, np.pi, circ.num_params)
        cost = sum_sq(res, p)
        u = vm.evaluate(tuple(p)).copy()
        infid = hilbert_schmidt_infidelity(target, u)
        assert cost == pytest.approx(2 * 4 * infid, abs=1e-10)

    def test_cost_matches_eq1(self, setup):
        circ, vm, res, target = setup
        p = np.random.default_rng(2).uniform(-np.pi, np.pi, circ.num_params)
        u = vm.evaluate(tuple(p)).copy()
        assert infidelity_from_cost(sum_sq(res, p), 4) == pytest.approx(
            hilbert_schmidt_infidelity(target, u)
        )

    def test_zero_at_exact_target(self, setup):
        circ, vm, res, _ = setup
        p = np.random.default_rng(3).uniform(-np.pi, np.pi, circ.num_params)
        u = vm.evaluate(tuple(p)).copy()
        res_self = HilbertSchmidtResiduals(vm, u)
        assert infidelity_from_cost(sum_sq(res_self, p), 4) == pytest.approx(
            0.0, abs=1e-12
        )
        r = res_self.residuals_and_jacobian(p)[0]
        assert np.allclose(r, 0, atol=1e-8)

    def test_global_phase_invariance(self, setup):
        circ, vm, res, _ = setup
        p = np.random.default_rng(4).uniform(-np.pi, np.pi, circ.num_params)
        u = vm.evaluate(tuple(p)).copy()
        res_phase = HilbertSchmidtResiduals(vm, np.exp(0.42j) * u)
        assert infidelity_from_cost(sum_sq(res_phase, p), 4) == pytest.approx(
            0.0, abs=1e-12
        )


class TestJacobian:
    def test_cost_gradient_matches_finite_difference(self, setup):
        """The Jacobian holds the alignment phase fixed (Gauss-Newton),
        but because that phase *minimizes* the cost, the envelope
        theorem makes ``2 r^T J`` the exact gradient of ``sum(r^2)`` —
        which finite differences of the cost must confirm."""
        circ, vm, res, _ = setup
        p = np.random.default_rng(6).uniform(-np.pi, np.pi, circ.num_params)
        r0, jac = res.residuals_and_jacobian(p)
        analytic = 2 * (r0 @ jac)
        eps = 1e-6
        for k in range(min(circ.num_params, 6)):
            hi = p.copy()
            hi[k] += eps
            lo = p.copy()
            lo[k] -= eps
            fd = (sum_sq(res, hi) - sum_sq(res, lo)) / (2 * eps)
            assert analytic[k] == pytest.approx(fd, abs=1e-5)

    def test_shapes(self, setup):
        circ, vm, res, _ = setup
        p = np.zeros(circ.num_params)
        r, jac = res.residuals_and_jacobian(p)
        assert r.shape == (2 * 16,)
        assert jac.shape == (2 * 16, circ.num_params)


class TestValidation:
    def test_requires_gradient_vm(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        with pytest.raises(ValueError):
            HilbertSchmidtResiduals(vm, np.eye(4))

    def test_target_shape_checked(self, setup):
        _, vm, _, _ = setup
        with pytest.raises(ValueError):
            HilbertSchmidtResiduals(vm, np.eye(8))

    def test_infidelity_from_cost(self):
        assert infidelity_from_cost(8.0, 4) == 1.0

    def test_infidelity_from_cost_accepts_arrays(self):
        # Regression: the batched path feeds an (S,) cost array; the
        # function must vectorize (and its annotations now say so).
        costs = np.array([8.0, 4.0, 0.0])
        out = infidelity_from_cost(costs, 4)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [1.0, 0.5, 0.0])
