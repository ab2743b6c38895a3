"""Tests for the Levenberg-Marquardt optimizer."""

import numpy as np
import pytest

from repro.circuit import QuditCircuit, fig5_circuit, gates
from repro.instantiation import lm
from repro.instantiation.cost import (
    BatchedHilbertSchmidtResiduals,
    BatchedStateResiduals,
    HilbertSchmidtResiduals,
)
from repro.instantiation.lm import (
    LMOptions,
    batched_levenberg_marquardt,
    levenberg_marquardt,
)
from repro.tensornet import OutputContract
from repro.tnvm import TNVM, BatchedTNVM
from repro.utils import random_unitary

from .test_lm_reference import assert_bitwise_equal

#: The stop reasons :class:`~repro.instantiation.lm.LMResult` documents
#: for a start that ran (``abandoned`` needs a ``should_abandon`` hook).
STOP_REASONS = {
    "success-threshold",
    "gradient-tolerance",
    "step-tolerance",
    "reduction-tolerance",
    "damping-limit",
    "max-iterations",
    "non-finite",
}


def linear_problem(seed=0, m=20, n=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    x_true = rng.normal(size=n)
    b = a @ x_true

    def fn(x):
        return a @ x - b, a

    return fn, x_true


class TestConvergence:
    def test_linear_least_squares_exact(self):
        fn, x_true = linear_problem()
        result = levenberg_marquardt(fn, np.zeros(5))
        assert result.cost < 1e-18
        assert np.allclose(result.params, x_true, atol=1e-8)

    def test_rosenbrock_residuals(self):
        # Classic (1-x)^2 + 100 (y - x^2)^2 in residual form.
        def fn(v):
            x, y = v
            r = np.array([1 - x, 10 * (y - x * x)])
            jac = np.array([[-1.0, 0.0], [-20 * x, 10.0]])
            return r, jac

        result = levenberg_marquardt(
            fn, np.array([-1.2, 1.0]),
            LMOptions(max_iterations=500),
        )
        assert np.allclose(result.params, [1.0, 1.0], atol=1e-6)

    def test_nonlinear_sinusoid_fit(self):
        rng = np.random.default_rng(3)
        ts = np.linspace(0, 1, 40)
        true = np.array([1.3, 2.1])
        data = true[0] * np.sin(true[1] * ts)

        def fn(v):
            a, w = v
            r = a * np.sin(w * ts) - data
            jac = np.stack(
                [np.sin(w * ts), a * ts * np.cos(w * ts)], axis=1
            )
            return r, jac

        result = levenberg_marquardt(fn, np.array([1.0, 2.0]))
        assert np.allclose(result.params, true, atol=1e-6)


class TestStopping:
    def test_success_cost_short_circuits(self):
        fn, _ = linear_problem()
        loose = levenberg_marquardt(
            fn, np.zeros(5), LMOptions(success_cost=1e-2)
        )
        tight = levenberg_marquardt(fn, np.zeros(5))
        assert loose.stop_reason == "success-threshold"
        assert loose.num_evaluations <= tight.num_evaluations

    def test_max_iterations_respected(self):
        def fn(x):
            # A stubborn nonlinear residual.
            return np.array([np.exp(x[0]) - 2, x[0] ** 3]), np.array(
                [[np.exp(x[0])], [3 * x[0] ** 2]]
            )

        result = levenberg_marquardt(
            fn, np.array([5.0]), LMOptions(max_iterations=3)
        )
        assert result.iterations <= 3

    def test_zero_parameter_problem(self):
        def fn(x):
            return np.array([1.0]), np.zeros((1, 0))

        result = levenberg_marquardt(fn, np.zeros(0))
        assert result.stop_reason == "no-parameters"
        assert result.cost == 1.0

    def test_already_converged_gradient(self):
        fn, x_true = linear_problem()
        result = levenberg_marquardt(fn, x_true)
        assert result.converged
        assert result.iterations <= 2

    def test_evaluation_accounting(self):
        fn, _ = linear_problem()
        result = levenberg_marquardt(fn, np.zeros(5))
        assert result.num_evaluations >= result.iterations


def saddle(x):
    """``r = [x0 x1 - 1, x0 - x1]``: near the origin the cost is 1 and
    its gradient vanishes, so the first damped step there is predicted
    to lower the cost by about 4e-17 of it; the steps after it grow
    until the fit reaches ``x0 = x1 = 1``."""
    return (
        np.array([x[0] * x[1] - 1.0, x[0] - x[1]]),
        np.array([[x[1], x[0]], [1.0, -1.0]]),
    )


def valley(x):
    """``r = 1e6 (cos x + 2)``, one residual per parameter: each
    ``x = pi (mod 2 pi)`` is a minimum of cost 1e12 per parameter.  At
    ``x = pi`` the cosine rounds to exactly -1, so no step lowers the
    cost, while ``J^T r = -1e12 sin(pi)`` stays near -1.2e-4, above the
    gradient tolerance."""
    return 1e6 * (np.cos(x) + 2.0), np.diag(-1e6 * np.sin(x))


def stacked(fn):
    """``fn`` applied to each row: a batched residual function."""

    def batched(X):
        pairs = [fn(x) for x in X]
        return (
            np.stack([r for r, _ in pairs]),
            np.stack([jac for _, jac in pairs]),
        )

    return batched


class TestReductionStop:
    """A retry whose damped step is predicted to lower the cost by less
    than ``REDUCTION_TOLERANCE`` of it stops the start before its
    evaluation; the first try at each point always runs."""

    def test_saddle_escape_scalar(self):
        # The first step from near the origin is predicted to gain
        # almost nothing; testing it would stop the fit at cost 1.
        run = levenberg_marquardt(
            saddle, np.array([1e-10, 1e-10]), LMOptions(success_cost=1e-20)
        )
        assert run.stop_reason == "success-threshold"
        assert run.num_evaluations == 8
        assert np.allclose(run.params, [1.0, 1.0])

    def test_saddle_escape_batched(self):
        x = np.array([1e-10, 1e-10])
        runs = batched_levenberg_marquardt(
            stacked(saddle), np.stack([x, 3 * x]),
            LMOptions(success_cost=1e-20),
        )
        assert [run.stop_reason for run in runs] == ["success-threshold"] * 2
        assert [run.num_evaluations for run in runs] == [8, 14]

    def test_stuck_start_stops_before_the_climb(self, monkeypatch):
        x0 = np.array([np.pi])
        run = levenberg_marquardt(valley, x0)
        assert run.stop_reason == "reduction-tolerance"
        assert run.params.tobytes() == x0.tobytes()
        assert run.cost == 1e12
        # Without the test, the damping climbs to max_mu, one
        # rejected evaluation per try.
        monkeypatch.setattr(lm, "REDUCTION_TOLERANCE", 0.0)
        climb = levenberg_marquardt(valley, x0)
        assert climb.stop_reason == "damping-limit"
        assert run.num_evaluations < climb.num_evaluations

    def test_stuck_start_does_not_depend_on_width(self, monkeypatch):
        # Slot 3 starts at the minimum; the others descend to one and
        # stop there by the same test.
        starts = np.pi + np.linspace(-1.5, 1.5, 8)[:, None]
        starts[3] = np.pi
        runs = batched_levenberg_marquardt(stacked(valley), starts)
        assert {run.stop_reason for run in runs} == {"reduction-tolerance"}
        for s, run in enumerate(runs):
            alone = batched_levenberg_marquardt(
                stacked(valley), starts[s : s + 1]
            )
            assert_bitwise_equal([run], alone)
        monkeypatch.setattr(lm, "REDUCTION_TOLERANCE", 0.0)
        climb = batched_levenberg_marquardt(stacked(valley), starts)
        assert climb[3].stop_reason == "damping-limit"
        assert runs[3].num_evaluations < climb[3].num_evaluations


def redundant_circuit():
    """``u3`` on wire 0, two ``rz`` in a row on wire 1, ``cx(0, 1)``,
    then ``u3`` on wire 1.  The two ``rz`` angles enter only through
    their sum, so every Jacobian is rank-deficient."""
    circ = QuditCircuit.qubits(2)
    circ.append(gates.u3(), 0)
    circ.append(gates.rz(), 1)
    circ.append(gates.rz(), 1)
    circ.append(gates.cx(), (0, 1))
    circ.append(gates.u3(), 1)
    return circ


def assert_sane(run):
    assert np.all(np.isfinite(run.params))
    assert np.isfinite(run.cost)
    assert run.stop_reason in STOP_REASONS


def assert_width_independent(fit, starts):
    """Each start's trajectory ignores its slot and the batch width:
    at full width it is bitwise the run it makes alone at width 1."""
    for s, run in enumerate(fit(starts)):
        assert_sane(run)
        [alone] = fit(starts[s : s + 1])
        assert np.array_equal(run.params, alone.params)
        assert run.cost == alone.cost
        assert run.iterations == alone.iterations
        assert run.stop_reason == alone.stop_reason


class TestIllConditioned:
    """Seeded rank-deficient fits: 8 starts, f64 and f32, against a
    reachable and an unreachable target; and state fits, whose ``2D``
    residuals are fewer than the parameters."""

    @pytest.fixture(scope="class")
    def problem(self):
        circ = redundant_circuit()
        rng = np.random.default_rng(11)
        starts = rng.uniform(-2 * np.pi, 2 * np.pi, (8, circ.num_params))
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        targets = {
            "reachable": circ.get_unitary(theta),
            "unreachable": random_unitary(4, rng=5),
        }
        return circ, circ.compile(), starts, targets

    def test_every_jacobian_is_rank_deficient(self, problem):
        circ, program, starts, targets = problem
        res = HilbertSchmidtResiduals(TNVM(program), targets["unreachable"])
        for x in starts:
            jac = res.residuals_and_jacobian(x)[1]
            assert np.linalg.matrix_rank(jac) < circ.num_params

    @pytest.mark.parametrize("target", ["reachable", "unreachable"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_scalar_starts_stay_finite(self, problem, precision, target):
        _, program, starts, targets = problem
        vm = TNVM(program, precision=precision)
        res = HilbertSchmidtResiduals(vm, targets[target])
        for x0 in starts:
            assert_sane(levenberg_marquardt(res.residuals_and_jacobian, x0))

    @pytest.mark.parametrize("target", ["reachable", "unreachable"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_batched_starts_do_not_depend_on_width(
        self, problem, precision, target
    ):
        _, program, starts, targets = problem

        def fit(rows):
            vm = BatchedTNVM(program, len(rows), precision=precision)
            res = BatchedHilbertSchmidtResiduals(vm, targets[target])
            return batched_levenberg_marquardt(res.residuals_and_jacobian, rows)

        assert_width_independent(fit, starts)

    @pytest.fixture(scope="class")
    def state_problem(self):
        circ = fig5_circuit("2-qubit shallow")
        rng = np.random.default_rng(12)
        starts = rng.uniform(-2 * np.pi, 2 * np.pi, (8, circ.num_params))
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        amps = rng.normal(size=circ.dim) + 1j * rng.normal(size=circ.dim)
        targets = {
            "reachable": np.ascontiguousarray(circ.get_unitary(theta)[:, 0]),
            "random": amps / np.linalg.norm(amps),
        }
        programs = {
            "full": circ.compile(),
            "column": circ.compile(contract=OutputContract.column(0)),
        }
        return programs, starts, targets

    @pytest.mark.parametrize("target", ["reachable", "random"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("contract", ["full", "column"])
    def test_batched_state_starts_do_not_depend_on_width(
        self, state_problem, contract, precision, target
    ):
        # The same guarantee for state targets: a row's overlap and
        # normal equations never mix rows, on either VM.
        programs, starts, targets = state_problem

        def fit(rows):
            vm = BatchedTNVM(programs[contract], len(rows), precision=precision)
            res = BatchedStateResiduals(vm, targets[target])
            return batched_levenberg_marquardt(res.residuals_and_jacobian, rows)

        assert_width_independent(fit, starts)
