"""The zero-copy least-squares contract.

The residual classes hand the LM views: ``J`` is the VM's full-gradient
buffer viewed as real and transposed, and ``(r, J)`` stay valid only
until the next call.  These tests pin both halves: the Jacobian shares
the VM's memory, and both LM loops finish every read of a pair before
they evaluate again.
"""

import numpy as np
import pytest

from repro.circuit import fig5_circuit
from repro.instantiation import (
    BatchedHilbertSchmidtResiduals,
    BatchedStateResiduals,
    HilbertSchmidtResiduals,
    LMOptions,
    StateResiduals,
    batched_levenberg_marquardt,
    levenberg_marquardt,
)
from repro.tensornet import OutputContract
from repro.tnvm import TNVM, BatchedTNVM

CIRCUIT = "2-qubit shallow"


@pytest.fixture(scope="module")
def problem():
    circ = fig5_circuit(CIRCUIT)
    rng = np.random.default_rng(4)
    u = circ.get_unitary(rng.uniform(-np.pi, np.pi, circ.num_params))
    starts = rng.uniform(-2 * np.pi, 2 * np.pi, (4, circ.num_params))
    programs = {
        "full": circ.compile(),
        "column": circ.compile(contract=OutputContract.column(0)),
    }
    # A random state: its fits reject steps in f64 too, so a stale
    # read has rounds to show up in.
    amps = rng.normal(size=circ.dim) + 1j * rng.normal(size=circ.dim)
    targets = {"unitary": u, "state": amps / np.linalg.norm(amps)}
    return programs, targets, starts


#: (residual class, program, target) for the two zero-copy cases
CASES = {
    "unitary-full": (HilbertSchmidtResiduals, "full", "unitary"),
    "state-column": (StateResiduals, "column", "state"),
}
BATCHED = {
    HilbertSchmidtResiduals: BatchedHilbertSchmidtResiduals,
    StateResiduals: BatchedStateResiduals,
}


def residuals(problem, case, precision, batch=None):
    programs, targets, _ = problem
    cls, program, target = CASES[case]
    if batch is None:
        return cls(TNVM(programs[program], precision=precision),
                   targets[target])
    vm = BatchedTNVM(programs[program], batch, precision=precision)
    return BATCHED[cls](vm, targets[target])


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("batch", [None, 3])
def test_jacobian_is_a_view_of_the_vm_gradient(
    problem, case, precision, batch
):
    _, _, starts = problem
    res = residuals(problem, case, precision, batch)
    params = starts[0] if batch is None else starts[:batch]
    r, jac = res.residuals_and_jacobian(params)
    assert np.shares_memory(jac, res.vm._full_grad)
    real = np.float32 if precision == "f32" else np.float64
    assert jac.dtype == real
    assert r.dtype == np.float64
    lead = () if batch is None else (batch,)
    assert r.shape == lead + (res.num_residuals,)
    assert jac.shape == lead + (res.num_residuals, res.num_params)


def test_state_residuals_on_a_full_vm_copy_only_the_column(problem):
    # A full-unitary VM serving a state target slices column 0 of its
    # gradient: the one copy left, O(P D), not O(P D^2).
    programs, targets, starts = problem
    res = StateResiduals(TNVM(programs["full"]), targets["state"])
    _, jac = res.residuals_and_jacobian(starts[0])
    assert not np.shares_memory(jac, res.vm._full_grad)
    assert jac.shape == (2 * res.dim, res.num_params)


def test_residuals_interleave_real_and_imaginary_parts(problem):
    programs, targets, starts = problem
    res = HilbertSchmidtResiduals(TNVM(programs["full"]), targets["unitary"])
    r, jac = res.residuals_and_jacobian(starts[0])
    u, grad = res.vm.evaluate_with_grad(starts[0])
    trace = np.vdot(targets["unitary"], u)
    diff = (u - trace / abs(trace) * targets["unitary"]).ravel()
    np.testing.assert_array_equal(r[0::2], diff.real)
    np.testing.assert_array_equal(r[1::2], diff.imag)
    flat = grad.reshape(res.num_params, -1)
    np.testing.assert_array_equal(jac[0::2], flat.real.T)
    np.testing.assert_array_equal(jac[1::2], flat.imag.T)


def poisoned(fn):
    """``fn``, but each call first overwrites the ``(r, J)`` it last
    returned with NaN: a read of a stale residual vector poisons the
    fit."""
    last = []

    def wrapper(params):
        for arr in last:
            arr[...] = np.nan
        r, jac = fn(params)
        last[:] = [r, jac]
        return r, jac

    return wrapper


def detached(fn):
    """``fn``, but every pair is a fresh copy in the view's memory
    layout (so the LM runs the same BLAS calls): a stale Jacobian read
    sees the old point here and the new one through the VM's buffer."""

    def wrapper(params):
        r, jac = fn(params)
        return r.copy(order="K"), jac.copy(order="K")

    return wrapper


def assert_same_run(a, b):
    assert np.array_equal(a.params, b.params)
    assert a.cost == b.cost
    assert a.iterations == b.iterations
    assert a.num_evaluations == b.num_evaluations
    assert a.stop_reason == b.stop_reason
    assert a.converged == b.converged


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_lm_never_reads_a_stale_pair(problem, case, precision):
    _, _, starts = problem
    options = LMOptions(max_iterations=40)
    res = residuals(problem, case, precision)
    fn = res.residuals_and_jacobian
    for x0 in starts:
        clean = levenberg_marquardt(fn, x0, options)
        assert np.isfinite(clean.cost)
        for guarded in (poisoned(fn), detached(fn)):
            assert_same_run(levenberg_marquardt(guarded, x0, options), clean)


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_lm_never_reads_a_stale_pair(problem, case, precision):
    _, _, starts = problem
    options = LMOptions(max_iterations=40)
    res = residuals(problem, case, precision, batch=len(starts))
    fn = res.residuals_and_jacobian
    clean = batched_levenberg_marquardt(fn, starts, options)
    for guarded in (poisoned(fn), detached(fn)):
        runs = batched_levenberg_marquardt(guarded, starts, options)
        for a, b in zip(runs, clean, strict=True):
            assert_same_run(a, b)
            assert np.isfinite(b.cost)
