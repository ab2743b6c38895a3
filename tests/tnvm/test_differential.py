"""Differential reference: every TNVM execution path vs the baseline.

The five Figure 5 circuits (qubit and qutrit) run through the scalar
:class:`~repro.tnvm.TNVM` and through :class:`~repro.tnvm.BatchedTNVM`
at batch sizes 1 and 5, under the ``FULL_UNITARY``, ``COLUMN(0)`` and
``OVERLAP`` contracts, in f32 and f64.  Values and gradients must match
the interpreted :class:`~repro.baseline.DenseEvaluator` of the same
ansatz (:func:`~repro.baseline.build_qsearch_ansatz_baseline`) to
within ``allclose``.  The evaluator multiplies dense embedded gates and
shares no code with the compiler, the expression JIT or the VMs.

The hand-built programs of the ``test_fused`` zoo (HADAMARD, the
product-rule cases, the scatter WRITE) have no baseline twin; for
those the scalar VM must match every row of the batched VM.
"""

import numpy as np
import pytest

from repro.baseline import DenseEvaluator, build_qsearch_ansatz_baseline
from repro.circuit import FIG5_BENCHMARKS, fig5_circuit
from repro.tensornet import OutputContract
from repro.tnvm import TNVM, BatchedTNVM, Differentiation

from .test_fused import PROGRAMS

BATCH = 5
#: (value atol, gradient atol) per precision
TOLERANCE = {"f64": (1e-10, 1e-9), "f32": (2e-5, 5e-5)}


class _Reference:
    """One Figure 5 circuit: its compiled programs, ``BATCH`` parameter
    rows, and the baseline unitary and gradient at each row."""

    def __init__(self, name: str):
        qudits, depth, radix = FIG5_BENCHMARKS[name]
        circuit = fig5_circuit(name)
        self.full = circuit.compile()
        self.column = circuit.compile(contract=OutputContract.column(0))
        rng = np.random.default_rng(sorted(FIG5_BENCHMARKS).index(name))
        self.rows = rng.uniform(-np.pi, np.pi, (BATCH, circuit.num_params))
        dim = self.full.dim
        bra = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        self.bra = bra / np.linalg.norm(bra)
        dense = DenseEvaluator(
            build_qsearch_ansatz_baseline(qudits, depth, radix)
        )
        pairs = [dense.get_unitary_and_grad(row) for row in self.rows]
        self.unitaries = np.stack([u for u, _ in pairs])
        self.grads = np.stack([g for _, g in pairs])

    def setup(self, contract: str):
        """``(program, contract, values, grads)``: the expected
        contract-shaped outputs, with a leading batch axis."""
        u, g = self.unitaries, self.grads
        if contract == "full":
            return self.full, None, u, g
        col, gcol = u[:, :, 0], g[:, :, :, 0]
        if contract == "column":
            return self.column, None, col, gcol
        overlap = OutputContract.overlap(self.bra)
        return self.column, overlap, col @ self.bra.conj(), gcol @ self.bra.conj()


@pytest.fixture(scope="module")
def references():
    return {name: _Reference(name) for name in FIG5_BENCHMARKS}


def _close(got, want, atol):
    np.testing.assert_allclose(got, want, atol=atol, rtol=0)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("contract", ["full", "column", "overlap"])
@pytest.mark.parametrize("name", list(FIG5_BENCHMARKS))
def test_fig5_matches_baseline(references, name, contract, precision):
    program, overlap, values, grads = references[name].setup(contract)
    rows = references[name].rows
    vatol, gatol = TOLERANCE[precision]

    scalar = TNVM(program, precision=precision, contract=overlap)
    plain = TNVM(
        program, precision=precision, diff=Differentiation.NONE,
        contract=overlap,
    )
    for s, row in enumerate(rows):
        value, grad = scalar.evaluate_with_grad(row)
        _close(value, values[s], vatol)
        _close(grad, grads[s], gatol)
        _close(scalar.evaluate(row), values[s], vatol)
        _close(plain.evaluate(row), values[s], vatol)

    for batch in (1, BATCH):
        vm = BatchedTNVM(program, batch, precision=precision, contract=overlap)
        value, grad = vm.evaluate_with_grad(rows[:batch])
        _close(value, values[:batch], vatol)
        _close(grad, grads[:batch], gatol)
        _close(vm.evaluate(rows[:batch]), values[:batch], vatol)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_zoo_scalar_matches_every_batched_row(name, precision):
    program = PROGRAMS[name]()
    atol = TOLERANCE[precision][0]
    rows = np.random.default_rng(23).uniform(
        -2 * np.pi, 2 * np.pi, (BATCH, program.num_params)
    )
    scalar = TNVM(program, precision=precision)
    for batch in (1, BATCH):
        vm = BatchedTNVM(program, batch, precision=precision)
        values, grads = vm.evaluate_with_grad(rows[:batch])
        for s in range(batch):
            value, grad = scalar.evaluate_with_grad(rows[s])
            _close(values[s], value, atol)
            _close(grads[s], grad, atol)
