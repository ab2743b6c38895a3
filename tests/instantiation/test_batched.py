"""Batched multi-start instantiation: equivalence and short-circuit."""

import gc
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import fig5_circuit
from repro.instantiation import (
    HilbertSchmidtResiduals,
    Instantiater,
    batched_levenberg_marquardt,
    levenberg_marquardt,
)


def make_target(name: str, seed: int) -> np.ndarray:
    circ = fig5_circuit(name)
    params = np.random.default_rng(seed).uniform(
        -np.pi, np.pi, circ.num_params
    )
    return circ.get_unitary(params)


class TestBatchedLM:
    def test_decision_sequence_matches_scalar(self):
        """With a bit-identical residual function, every start of the
        batched LM follows the scalar optimizer's exact decision
        sequence (iterations, evaluations, stop reason)."""
        circ = fig5_circuit("2-qubit shallow")
        engine = Instantiater(circ)
        target = make_target("2-qubit shallow", seed=7)
        res = HilbertSchmidtResiduals(engine.vm, target)

        def batch_fn(X):
            rs, js = [], []
            for x in X:
                r, j = res.residuals_and_jacobian(x)
                rs.append(r.copy())
                js.append(j.copy())
            return np.array(rs), np.array(js)

        starts = 5
        X0 = np.random.default_rng(0).uniform(
            -2 * np.pi, 2 * np.pi, (starts, circ.num_params)
        )
        batched = batched_levenberg_marquardt(
            batch_fn, X0, engine.lm_options
        )
        for s in range(starts):
            scalar = levenberg_marquardt(
                res.residuals_and_jacobian, X0[s], engine.lm_options
            )
            assert batched[s].stop_reason == scalar.stop_reason
            assert batched[s].iterations == scalar.iterations
            assert batched[s].num_evaluations == scalar.num_evaluations
            assert batched[s].converged == scalar.converged
            np.testing.assert_allclose(
                batched[s].params, scalar.params, atol=1e-8
            )

    def test_rejects_non_matrix_x0(self):
        with pytest.raises(ValueError):
            batched_levenberg_marquardt(
                lambda X: (X, X[:, :, None]), np.zeros(3)
            )

    def test_survives_singular_solve_alongside_accepted_step(
        self, monkeypatch
    ):
        """Regression: when one start's damped normal equations are
        singular (solve raises) in the same round as another start
        accepting its step, the failed start must escalate damping —
        not crash on a mismatched step index."""
        real_solve = np.linalg.solve

        def flaky_solve(a, b):
            if a.ndim == 3:  # the stacked batched solve
                raise np.linalg.LinAlgError("singular")
            if abs(a[0, 0] - a[1, 1]) < 1e-30:
                # start 0's system (constant residuals, zero
                # Jacobian => isotropic damping) is declared singular
                raise np.linalg.LinAlgError("singular")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)

        def residual_fn(X):
            # start 0: constant residuals with a symmetric Jacobian
            # (isotropic damped system -> "singular" above, and no
            # step can improve); start 1: clean anisotropic quadratic.
            R = np.stack([np.full(2, 1e3), X[1] ** 2 * [1.0, 2.0]])
            J = np.zeros((2, 2, 2))
            J[0] = 1.0
            J[1] = 2.0 * np.diag(X[1]) * [[1.0], [2.0]]
            return R, J

        runs = batched_levenberg_marquardt(
            residual_fn, np.array([[1.0, 1.0], [1.0, 2.0]])
        )
        assert runs[0].stop_reason == "damping-limit"
        assert runs[1].cost < 1e-10


@pytest.mark.parametrize(
    "name", ["2-qubit shallow", "3-qubit shallow", "2-qutrit shallow"]
)
def test_batched_engine_matches_sequential(name):
    """Same RNG seed => same start population, same winning start, and
    a result within the success threshold for both engines."""
    circ = fig5_circuit(name)
    target = make_target(name, seed=11)
    seq = Instantiater(circ)
    bat = Instantiater(circ, strategy="batched")
    for seed in range(3):
        rs = seq.instantiate(target, starts=8, rng=seed)
        rb = bat.instantiate(target, starts=8, rng=seed)
        assert rb.success == rs.success
        assert rb.starts_used == rs.starts_used
        if rs.success:
            assert rb.infidelity <= seq.success_threshold
        # both fits reproduce the same unitary up to the threshold
        u_seq = circ.get_unitary(rs.params)
        u_bat = circ.get_unitary(rb.params)
        d = circ.dim
        for u in (u_seq, u_bat):
            overlap = abs(np.trace(target.conj().T @ u)) / d
            if rs.success:
                assert 1.0 - overlap <= 10 * seq.success_threshold


def test_batched_short_circuit_starts_used():
    """Multi-start short-circuits: seeding start 0 with the solution
    stops after one start, and the remaining runs are abandoned."""
    circ = fig5_circuit("2-qubit shallow")
    p_true = np.random.default_rng(5).uniform(
        -np.pi, np.pi, circ.num_params
    )
    target = circ.get_unitary(p_true)
    engine = Instantiater(circ, strategy="batched")
    result = engine.instantiate(target, starts=8, x0=p_true, rng=2)
    assert result.success
    assert result.starts_used == 1
    assert len(result.runs) == 8
    assert all(
        r.stop_reason == "abandoned" for r in result.runs[1:]
    ), [r.stop_reason for r in result.runs]


def test_strategy_switch_routes_to_batched():
    circ = fig5_circuit("2-qubit shallow")
    target = make_target("2-qubit shallow", seed=3)
    engine = Instantiater(circ, strategy="batched")
    result = engine.instantiate(target, starts=4, rng=0)
    assert result.success
    # the batched engine is created lazily and reused
    assert engine._batched_engine is not None
    again = engine.instantiate(target, starts=4, rng=1)
    assert again.success

    # per-call override wins over the engine default
    seq_engine = Instantiater(circ)
    result = seq_engine.instantiate(
        target, starts=4, rng=0, strategy="batched"
    )
    assert result.success


def test_strategy_auto_threshold():
    circ = fig5_circuit("2-qubit shallow")
    target = make_target("2-qubit shallow", seed=3)
    engine = Instantiater(circ, strategy="auto")
    engine.instantiate(target, starts=1, rng=0)
    assert engine._batched_engine is None  # few starts: sequential
    engine.instantiate(target, starts=8, rng=0)
    assert engine._batched_engine is not None  # many starts: batched


def test_strategy_validation():
    circ = fig5_circuit("2-qubit shallow")
    with pytest.raises(ValueError):
        Instantiater(circ, strategy="warp-speed")
    engine = Instantiater(circ)
    with pytest.raises(ValueError):
        engine.instantiate(np.eye(4), starts=2, strategy="warp-speed")


def test_dropped_engine_frees_its_batched_vm():
    # The schedule holds its engine weakly: dropping the engine frees
    # its batched VMs and arenas by reference count, with no cyclic
    # collection.
    target = make_target("2-qubit shallow", seed=3)
    gc.collect()
    gc.disable()
    try:
        engine = Instantiater(fig5_circuit("2-qubit shallow"))
        engine.instantiate(target, starts=4, rng=0, strategy="batched")
        vm = weakref.ref(engine._batched().vm_for(4))
        assert vm() is not None
        del engine
        assert vm() is None
    finally:
        gc.enable()


def test_batched_engine_reuses_vm_per_batch_size():
    circ = fig5_circuit("2-qubit shallow")
    target = make_target("2-qubit shallow", seed=3)
    engine = Instantiater(circ, strategy="batched")
    engine.instantiate(target, starts=4, rng=0)
    vms = engine._batched_engine._vms
    vm4 = vms[4]
    engine.instantiate(target, starts=4, rng=1)
    assert vms[4] is vm4
    engine.instantiate(target, starts=2, rng=0)
    assert set(vms) == {2, 4}


def test_every_result_reports_the_engine_aot_seconds():
    """One AOT figure per engine: the first batched fit adds its
    BatchedTNVM build to the compile time, a later fit with the same
    start count adds nothing, and every result reports the engine's
    figure as of that fit."""
    circ = fig5_circuit("2-qubit shallow")
    target = make_target("2-qubit shallow", seed=3)
    engine = Instantiater(circ, strategy="batched")
    compiled = engine.aot_seconds
    first = engine.instantiate(target, starts=4, rng=0)
    assert first.aot_seconds == engine.aot_seconds > compiled
    again = engine.instantiate(target, starts=4, rng=1)
    assert again.aot_seconds == first.aot_seconds
    scalar = engine.instantiate(target, starts=1, rng=0, strategy="sequential")
    assert scalar.aot_seconds == engine.aot_seconds > again.aot_seconds
    wider = engine.instantiate(target, starts=6, rng=0)
    assert wider.aot_seconds == engine.aot_seconds > scalar.aot_seconds


def test_batched_x0_validation():
    circ = fig5_circuit("2-qubit shallow")
    engine = Instantiater(circ, strategy="batched")
    with pytest.raises(ValueError):
        engine.instantiate(np.eye(4), starts=2, x0=np.zeros(3))


def test_lockstep_occupancy_counters():
    """One seeded 8-start fit: 13 lockstep rounds of 8 rows, 101 rows
    carrying a live start, and 65 evaluations spent on the 5 starts
    abandoned once start 0 had won."""
    circ = fig5_circuit("2-qubit shallow")
    target = make_target("2-qubit shallow", seed=2)
    engine = Instantiater(circ, strategy="batched")
    before = telemetry.metrics().snapshot()
    result = engine.instantiate(target, starts=8, rng=2)
    counts = telemetry.delta(before, telemetry.metrics().snapshot())
    occupancy = {
        name: counts[f"instantiate.{name}"]
        for name in (
            "lockstep_rounds",
            "lockstep_rows",
            "lockstep_live_rows",
            "abandoned_evaluations",
        )
    }
    assert occupancy == {
        "lockstep_rounds": 13,
        "lockstep_rows": 104,
        "lockstep_live_rows": 101,
        "abandoned_evaluations": 65,
    }
    # One round per batched sweep; every live row is one evaluation.
    assert counts["vm.batched_grad_sweeps"] == 13
    assert result.total_evaluations == 101
    abandoned = [r for r in result.runs if r.stop_reason == "abandoned"]
    assert len(abandoned) == 5
    assert sum(r.num_evaluations for r in abandoned) == 65
