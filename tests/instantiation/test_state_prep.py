"""State-preparation target tests: cost functions and the engine matrix.

The contract: a statevector target flows through every engine path —
scalar/batched/fused, serialized/rehydrated, pooled — with the same
bit-identity guarantees as unitary targets, at ``O(D)`` residuals.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.circuit import build_qsearch_ansatz
from repro.instantiation import (
    BatchedStateResiduals,
    EnginePool,
    Instantiater,
    StateResiduals,
    instantiate,
    is_state_target,
    state_infidelity_from_cost,
    state_success_cost,
)
from repro.tensornet import OutputContract
from repro.tnvm import TNVM, BatchedTNVM, Differentiation
from repro.utils import Statevector, state_prep_infidelity


@pytest.fixture(scope="module")
def setup():
    circ = build_qsearch_ansatz(2, 2, 2)
    vm = TNVM(circ.compile(), diff=Differentiation.GRADIENT)
    target = Statevector.ghz(2)
    return circ, vm, StateResiduals(vm, target), target


def sum_sq(res, p):
    """The least-squares cost ``sum(r^2)`` at ``p``."""
    r = res.residuals_and_jacobian(p)[0]
    return float(r @ r)


def infidelity(res, p):
    """The state-prep infidelity the residuals encode at ``p``."""
    return state_infidelity_from_cost(sum_sq(res, p))


def reachable_state(circ, seed):
    p = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.num_params)
    return np.ascontiguousarray(circ.get_unitary(p)[:, 0])


class TestStateResiduals:
    def test_cost_matches_definition(self, setup):
        circ, vm, res, target = setup
        p = np.random.default_rng(1).uniform(-np.pi, np.pi, circ.num_params)
        u = vm.evaluate(tuple(p)).copy()
        assert infidelity(res, p) == pytest.approx(
            state_prep_infidelity(target, u)
        )

    def test_sum_sq_matches_conversion(self, setup):
        # sum(r^2) = 2*(1-|overlap|)  <->  infidelity = c - c^2/4
        circ, vm, res, target = setup
        p = np.random.default_rng(2).uniform(-np.pi, np.pi, circ.num_params)
        c = sum_sq(res, p)
        u = vm.evaluate(tuple(p)).copy()
        overlap = abs(np.vdot(target.amplitudes, u[:, 0]))
        assert c == pytest.approx(2 * (1 - overlap), abs=1e-10)
        assert state_infidelity_from_cost(c) == pytest.approx(
            state_prep_infidelity(target, u), abs=1e-10
        )

    def test_zero_at_reachable_state(self, setup):
        circ, vm, _, _ = setup
        p = np.random.default_rng(3).uniform(-np.pi, np.pi, circ.num_params)
        res_self = StateResiduals(vm, reachable_state(circ, 3))
        assert infidelity(res_self, p) == pytest.approx(0.0, abs=1e-12)
        r = res_self.residuals_and_jacobian(p)[0]
        assert np.allclose(r, 0, atol=1e-8)

    def test_global_phase_invariance(self, setup):
        circ, vm, _, _ = setup
        p = np.random.default_rng(4).uniform(-np.pi, np.pi, circ.num_params)
        state = reachable_state(circ, 4)
        res_phase = StateResiduals(vm, np.exp(0.42j) * state)
        assert infidelity(res_phase, p) == pytest.approx(0.0, abs=1e-12)

    def test_residuals_are_o_of_d(self, setup):
        circ, vm, res, _ = setup
        p = np.zeros(circ.num_params)
        r, jac = res.residuals_and_jacobian(p)
        assert res.num_residuals == 2 * 4  # 2D, not 2D^2
        assert r.shape == (2 * 4,)
        assert jac.shape == (2 * 4, circ.num_params)

    def test_cost_gradient_matches_finite_difference(self, setup):
        # The envelope theorem makes 2 r^T J exact (phase minimizes).
        circ, vm, res, _ = setup
        p = np.random.default_rng(6).uniform(-np.pi, np.pi, circ.num_params)
        r0, jac = res.residuals_and_jacobian(p)
        analytic = 2 * (r0 @ jac)
        eps = 1e-6
        for k in range(min(circ.num_params, 6)):
            hi, lo = p.copy(), p.copy()
            hi[k] += eps
            lo[k] -= eps
            fd = (sum_sq(res, hi) - sum_sq(res, lo)) / (2 * eps)
            assert analytic[k] == pytest.approx(fd, abs=1e-5)

    def test_requires_gradient_vm(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        with pytest.raises(ValueError):
            StateResiduals(vm, Statevector.ghz(2))

    def test_rejects_wrong_dimension(self, setup):
        _, vm, _, _ = setup
        with pytest.raises(ValueError):
            StateResiduals(vm, Statevector.ghz(3))

    def test_rejects_unnormalized_state(self, setup):
        _, vm, _, _ = setup
        with pytest.raises(ValueError):
            StateResiduals(vm, np.array([1.0, 1.0, 0.0, 0.0]))


class TestBatchedStateResiduals:
    def test_rows_match_scalar(self, setup):
        circ, vm, res, target = setup
        program = circ.compile()
        bvm = BatchedTNVM(program, 3, diff=Differentiation.GRADIENT)
        batched = BatchedStateResiduals(bvm, target)
        rows = np.random.default_rng(8).uniform(
            -np.pi, np.pi, (3, circ.num_params)
        )
        rb, jb = batched.residuals_and_jacobian(rows)
        assert rb.shape == (3, 2 * 4)
        assert jb.shape == (3, 2 * 4, circ.num_params)
        costs = state_infidelity_from_cost(np.einsum("sr,sr->s", rb, rb))
        for s in range(3):
            rs, js = res.residuals_and_jacobian(rows[s])
            assert np.allclose(rb[s], rs, atol=1e-12)
            assert np.allclose(jb[s], js, atol=1e-12)
            assert costs[s] == pytest.approx(infidelity(res, rows[s]), abs=1e-12)


class TestConversions:
    def test_state_success_cost_inverts_infidelity(self):
        for t in (1e-8, 1e-4, 0.1):
            c = state_success_cost(t)
            assert state_infidelity_from_cost(c) == pytest.approx(
                t, rel=1e-9
            )

    def test_is_state_target(self):
        assert is_state_target(Statevector.ghz(2))
        assert is_state_target(np.zeros(4))
        assert not is_state_target(np.eye(4))


class TestEngineMatrix:
    """Sequential vs batched engines on one state target."""

    @pytest.fixture(scope="class")
    def problem(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        return circ, Statevector.ghz(2)

    def test_sequential_solves(self, problem):
        circ, ghz = problem
        result = instantiate(circ, ghz, starts=4, rng=0)
        assert result.success
        assert state_prep_infidelity(
            ghz, circ.get_unitary(result.params)
        ) < 1e-7

    def test_batched_matches_sequential(self, problem):
        circ, ghz = problem
        engine = Instantiater(circ, strategy="sequential")
        seq = engine.instantiate(ghz, starts=5, rng=21)
        bat = engine.instantiate(ghz, starts=5, rng=21, strategy="batched")
        # Winner and short-circuit point agree; total_iterations may
        # not (the batch advances other starts until the winner ends).
        assert bat.starts_used == seq.starts_used
        assert bat.runs[0].iterations == seq.runs[0].iterations
        assert bat.runs[0].stop_reason == seq.runs[0].stop_reason
        np.testing.assert_allclose(bat.params, seq.params, atol=1e-8)
        assert bat.infidelity == pytest.approx(seq.infidelity, abs=1e-10)

    def test_statevector_and_array_agree(self, problem):
        circ, ghz = problem
        engine = Instantiater(circ)
        r1 = engine.instantiate(ghz, starts=2, rng=3)
        r2 = engine.instantiate(ghz.amplitudes, starts=2, rng=3)
        assert np.array_equal(r1.params, r2.params)
        assert r1.infidelity == r2.infidelity

    def test_one_engine_serves_both_target_types(self, problem):
        # The tentpole property: engines are structure-keyed, so a
        # pool warmed by unitary fits serves state fits at zero
        # additional compiles.
        circ, ghz = problem
        pool = EnginePool()
        unitary = circ.get_unitary(
            np.random.default_rng(5).uniform(-np.pi, np.pi, circ.num_params)
        )
        engine = pool.engine_for(circ)
        ru = engine.instantiate(unitary, starts=4, rng=0)
        rs = pool.engine_for(circ.copy()).instantiate(ghz, starts=4, rng=0)
        assert pool.misses == 1 and pool.hits == 1
        assert ru.success and rs.success


class TestStateEngineSerialization:
    def test_rehydrated_engine_fits_state_target(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        ghz = Statevector.ghz(2)
        engine = Instantiater(circ, strategy="auto")
        payload = pickle.loads(pickle.dumps(engine.serialize()))
        clone = Instantiater.from_serialized(payload)
        r1 = engine.instantiate(ghz, starts=6, rng=42)
        r2 = clone.instantiate(ghz, starts=6, rng=42)
        assert np.array_equal(r1.params, r2.params)
        assert r1.infidelity == r2.infidelity
        assert r1.starts_used == r2.starts_used

    def test_spawn_rehydrated_engine_fits_state_target(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        ghz = Statevector.ghz(2)
        payload_bytes = pickle.dumps(Instantiater(circ).serialize())
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                _child_state_instantiate, (payload_bytes, ghz.amplitudes)
            )
        parent = Instantiater(circ).instantiate(ghz, starts=4, rng=9)
        child_params, child_infidelity = child
        assert np.array_equal(parent.params, child_params)
        assert parent.infidelity == child_infidelity


def _child_state_instantiate(payload_bytes, amplitudes):
    from repro.instantiation import Instantiater as ChildInstantiater

    engine = ChildInstantiater.from_serialized(pickle.loads(payload_bytes))
    result = engine.instantiate(amplitudes, starts=4, rng=9)
    return result.params, result.infidelity


class TestColumnContractEngines:
    """State prep through COLUMN(0)-contract engines (the fast path)."""

    @pytest.fixture(scope="class")
    def problem3(self):
        return build_qsearch_ansatz(3, 2, 2), Statevector.ghz(3)

    def test_column_residuals_consume_vector_directly(self, problem3):
        circ, ghz = problem3
        col = circ.compile(contract=OutputContract.column(0))
        vm_full = TNVM(circ.compile(), diff=Differentiation.GRADIENT)
        vm_col = TNVM(col, diff=Differentiation.GRADIENT)
        rf = StateResiduals(vm_full, ghz)
        rc = StateResiduals(vm_col, ghz)
        p = np.random.default_rng(2).uniform(
            -np.pi, np.pi, circ.num_params
        )
        np.testing.assert_allclose(
            infidelity(rc, p), infidelity(rf, p), atol=1e-12
        )
        r1, j1 = rf.residuals_and_jacobian(p)
        r2, j2 = rc.residuals_and_jacobian(p)
        np.testing.assert_allclose(r2, r1, atol=1e-12, rtol=0)
        np.testing.assert_allclose(j2, j1, atol=1e-12, rtol=0)
        bvf = BatchedTNVM(
            circ.compile(), batch=3, diff=Differentiation.GRADIENT
        )
        bvc = BatchedTNVM(col, batch=3, diff=Differentiation.GRADIENT)
        ps = np.random.default_rng(4).uniform(
            -np.pi, np.pi, (3, circ.num_params)
        )
        br1, bj1 = BatchedStateResiduals(bvf, ghz).residuals_and_jacobian(ps)
        br2, bj2 = BatchedStateResiduals(bvc, ghz).residuals_and_jacobian(ps)
        np.testing.assert_allclose(br2, br1, atol=1e-12, rtol=0)
        np.testing.assert_allclose(bj2, bj1, atol=1e-12, rtol=0)

    def test_residuals_reject_unusable_contracts(self, problem3):
        circ, ghz = problem3
        col1 = circ.compile(contract=OutputContract.column(1))
        vm = TNVM(col1, diff=Differentiation.GRADIENT)
        with pytest.raises(ValueError, match="column"):
            StateResiduals(vm, ghz)
        batched = BatchedTNVM(col1, batch=2, diff=Differentiation.GRADIENT)
        with pytest.raises(ValueError, match="column"):
            BatchedStateResiduals(batched, ghz)

    def test_ghz3_column_engine_matches_full_engine(self, problem3):
        # The acceptance scenario: GHZ-3 state prep through a column
        # engine lands on the same optimum as the full-unitary path.
        circ, ghz = problem3
        full = Instantiater(circ)
        coleng = Instantiater(circ, contract=OutputContract.column(0))
        rf = full.instantiate(ghz, starts=4, rng=7)
        rc = coleng.instantiate(ghz, starts=4, rng=7)
        assert rf.success and rc.success
        assert rc.starts_used == rf.starts_used
        np.testing.assert_allclose(rc.params, rf.params, atol=1e-6)
        prepared = circ.get_unitary(rc.params)
        assert state_prep_infidelity(ghz, prepared) < 1e-8

    def test_column_engine_rejects_unitary_targets(self, problem3):
        circ, _ = problem3
        engine = Instantiater(circ, contract=OutputContract.column(0))
        unitary = np.eye(8, dtype=complex)
        with pytest.raises(ValueError, match="state-preparation"):
            engine.instantiate(unitary)
        with pytest.raises(ValueError, match="state-preparation"):
            engine.instantiate(unitary, starts=4, strategy="batched")

    def test_column_engine_batched_matches_sequential(self, problem3):
        circ, ghz = problem3
        engine = Instantiater(circ, contract=OutputContract.column(0))
        seq = engine.instantiate(ghz, starts=5, rng=21)
        bat = engine.instantiate(ghz, starts=5, rng=21, strategy="batched")
        assert bat.starts_used == seq.starts_used
        np.testing.assert_allclose(bat.params, seq.params, atol=1e-8)

    def test_spawn_rehydrated_column_engine_is_bitwise(self, problem3):
        # A column engine shipped to a spawn worker (fresh interpreter,
        # megakernel regenerated from the payload's program and
        # entries) must rebuild the parent's kernel source and
        # reproduce the parent bit for bit.  The payload carries no
        # contract of its own: the rehydrated engine and its VM read
        # COLUMN(0) back from the shipped program.
        circ, ghz = problem3
        contract = OutputContract.column(0)
        parent = Instantiater(circ, contract=contract)
        payload_bytes = pickle.dumps(parent.serialize())
        probe = np.random.default_rng(3).uniform(
            -np.pi, np.pi, circ.num_params
        )
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                _child_column_probe, (payload_bytes, ghz.amplitudes, probe)
            )
        value, grad = (a.copy() for a in parent.vm.evaluate_with_grad(probe))
        result = parent.instantiate(ghz, starts=4, rng=9)
        engine_contract, vm_contract, child_value, child_grad = child[:4]
        assert engine_contract == contract
        assert vm_contract == contract
        assert child_value.shape == (8,)
        assert np.array_equal(value, child_value)
        assert np.array_equal(grad, child_grad)
        child_params, child_infidelity, child_source = child[4:]
        assert np.array_equal(result.params, child_params)
        assert result.infidelity == child_infidelity
        assert child_source == parent.vm.fused_kernel.source


def _child_column_probe(payload_bytes, amplitudes, probe):
    from repro.instantiation import Instantiater as ChildInstantiater

    engine = ChildInstantiater.from_serialized(pickle.loads(payload_bytes))
    value, grad = (a.copy() for a in engine.vm.evaluate_with_grad(probe))
    result = engine.instantiate(amplitudes, starts=4, rng=9)
    return (
        engine.contract,
        engine.vm.contract,
        value,
        grad,
        result.params,
        result.infidelity,
        engine.vm.fused_kernel.source,
    )
