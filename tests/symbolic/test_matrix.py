"""Unit tests for the ExpressionMatrix IR and its composability suite."""

import numpy as np
import pytest

from repro.symbolic import expr as E
from repro.symbolic.complexexpr import CONE, CZERO, ComplexExpr
from repro.symbolic.matrix import ExpressionMatrix


def rx_matrix() -> ExpressionMatrix:
    t = E.var("t")
    c = ComplexExpr(E.cos(t / 2), E.ZERO)
    s = ComplexExpr(E.ZERO, -(E.sin(t / 2)))
    return ExpressionMatrix([[c, s], [s, c]], params=("t",), name="RX")


def rx_numpy(t: float) -> np.ndarray:
    c, s = np.cos(t / 2), -1j * np.sin(t / 2)
    return np.array([[c, s], [s, c]])


class TestConstruction:
    def test_shape_and_params(self):
        m = rx_matrix()
        assert m.shape == (2, 2)
        assert m.params == ("t",)
        assert m.radices == (2,)
        assert m.num_qudits == 1

    def test_default_qubit_radices(self):
        m = ExpressionMatrix([[CONE, CZERO], [CZERO, CONE]])
        assert m.radices == (2,)

    def test_explicit_radices_validated(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(
                [[CONE, CZERO], [CZERO, CONE]], radices=(3,)
            )

    def test_qutrit_radices(self):
        m = ExpressionMatrix.identity(3, radices=(3,))
        assert m.radices == (3,)

    def test_non_power_of_two_gets_empty_radices(self):
        m = ExpressionMatrix.identity(3)
        assert m.radices == ()

    def test_undeclared_params_rejected(self):
        x = ComplexExpr(E.var("x"), E.ZERO)
        with pytest.raises(ValueError):
            ExpressionMatrix([[x, CZERO], [CZERO, CONE]], params=())

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ExpressionMatrix([[CONE, CZERO], [CZERO]])

    def test_from_numpy_roundtrip(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = ExpressionMatrix.from_numpy(a)
        assert np.allclose(m.evaluate(()), a)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            rx_matrix().params = ()


class TestAlgebra:
    def test_matmul_matches_numpy(self):
        m = rx_matrix()
        prod = m @ m
        t = 0.9
        assert np.allclose(
            prod.evaluate([t]), rx_numpy(t) @ rx_numpy(t)
        )

    def test_matmul_dimension_check(self):
        m = rx_matrix()
        other = ExpressionMatrix.identity(4)
        with pytest.raises(ValueError):
            m @ other

    def test_kron_matches_numpy(self):
        m = rx_matrix()
        k = m.kron(ExpressionMatrix.identity(2))
        assert k.radices == (2, 2)
        assert np.allclose(
            k.evaluate([0.7]), np.kron(rx_numpy(0.7), np.eye(2))
        )

    def test_kron_merges_params(self):
        a = rx_matrix()
        b = rx_matrix().rename_params({"t": "s"})
        k = a.kron(b)
        assert k.params == ("t", "s")

    def test_hadamard(self):
        m = rx_matrix()
        h = m.hadamard(m)
        assert np.allclose(h.evaluate([0.5]), rx_numpy(0.5) ** 2)

    def test_addition(self):
        m = rx_matrix()
        s = m + m
        assert np.allclose(s.evaluate([0.5]), 2 * rx_numpy(0.5))

    def test_scale(self):
        m = rx_matrix().scale(2j)
        assert np.allclose(m.evaluate([0.5]), 2j * rx_numpy(0.5))


class TestStructural:
    def test_dagger_is_inverse(self):
        m = rx_matrix()
        prod = m @ m.dagger()
        assert np.allclose(prod.evaluate([1.1]), np.eye(2), atol=1e-12)

    def test_transpose(self):
        m = rx_matrix()
        assert np.allclose(
            m.transpose().evaluate([0.3]), rx_numpy(0.3).T
        )

    def test_conjugate(self):
        m = rx_matrix()
        assert np.allclose(
            m.conjugate().evaluate([0.3]), rx_numpy(0.3).conj()
        )

    def test_trace(self):
        m = rx_matrix()
        assert m.trace().evaluate({"t": 0.8}) == pytest.approx(
            np.trace(rx_numpy(0.8))
        )

    def test_controlled_structure(self):
        m = rx_matrix().controlled()
        assert m.shape == (4, 4)
        assert m.radices == (2, 2)
        u = m.evaluate([0.6])
        assert np.allclose(u[:2, :2], np.eye(2))
        assert np.allclose(u[2:, 2:], rx_numpy(0.6))

    def test_controlled_qutrit_levels(self):
        m = rx_matrix().controlled(control_radix=3, control_levels=(2,))
        u = m.evaluate([0.6])
        assert u.shape == (6, 6)
        assert np.allclose(u[:4, :4], np.eye(4))
        assert np.allclose(u[4:, 4:], rx_numpy(0.6))

    def test_controlled_bad_level(self):
        with pytest.raises(ValueError):
            rx_matrix().controlled(control_levels=(5,))

    def test_substitute_preserves_declared_order(self):
        a = rx_matrix()
        b = a.rename_params({"t": "b"})
        k = a.kron(b)  # params (t, b)
        out = k.substitute({"t": E.const(0.5)})
        assert out.params == ("b",)
        k2 = k.substitute({"b": E.var("zz")})
        assert k2.params == ("t", "zz")

    def test_bind(self):
        m = rx_matrix().bind({"t": 0.25})
        assert m.num_params == 0
        assert np.allclose(m.evaluate(()), rx_numpy(0.25))


class TestCalculus:
    def test_gradient_matches_finite_difference(self):
        m = rx_matrix()
        g = m.gradient()
        assert len(g) == 1
        t, eps = 0.8, 1e-7
        fd = (m.evaluate([t + eps]) - m.evaluate([t - eps])) / (2 * eps)
        assert np.allclose(g[0].evaluate([t]), fd, atol=1e-6)

    def test_gradient_param_order(self):
        a = rx_matrix()
        b = rx_matrix().rename_params({"t": "s"})
        k = a.kron(b)
        g = k.gradient()
        assert len(g) == 2
        eps = 1e-7
        p = [0.4, 1.1]
        for i in range(2):
            hi = list(p)
            hi[i] += eps
            fd = (k.evaluate(hi) - k.evaluate(p)) / eps
            assert np.allclose(g[i].evaluate(p), fd, atol=1e-5)


class TestNumerics:
    def test_is_unitary(self):
        assert rx_matrix().is_unitary([0.7])

    def test_not_unitary(self):
        m = rx_matrix().scale(2.0)
        assert not m.is_unitary([0.7])

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            rx_matrix().evaluate([1.0, 2.0])

    def test_partial_trace(self):
        m = rx_matrix().kron(ExpressionMatrix.identity(2))
        traced = m.partial_trace_expr([(1, 1)])
        # Tracing out the identity factor gives 2 * RX.
        assert np.allclose(traced.evaluate([0.5]), 2 * rx_numpy(0.5))
