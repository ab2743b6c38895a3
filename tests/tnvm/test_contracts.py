"""Output-contract tests: column/overlap engines vs the full unitary.

Column programs are checked against the full program's corresponding
column at machine precision (tight ``allclose``): BLAS matrix-matrix
and matrix-vector kernels accumulate in different orders, so literal
bitwise identity *between* the two worlds is not promised.  Within the
column world, rehydrated payloads are bitwise identical (asserted with
``array_equal`` in the state-prep serialization tests).
"""

import numpy as np
import pytest

from repro.circuit import build_qsearch_ansatz
from repro.tensornet import FULL_UNITARY, OutputContract, column_digits
from repro.tnvm import TNVM, BatchedTNVM, Differentiation

ATOL = 1e-12


def _params(program, seed=0, batch=None):
    rng = np.random.default_rng(seed)
    shape = (
        (program.num_params,)
        if batch is None
        else (batch, program.num_params)
    )
    return rng.uniform(-np.pi, np.pi, shape)


class TestContractObject:
    def test_factories_and_keys(self):
        assert OutputContract.full_unitary() == FULL_UNITARY
        col = OutputContract.column(3)
        assert col.program_key() == ("column", 3)
        assert col.key() == ("column", 3, ())
        assert col.column_based and not FULL_UNITARY.column_based
        ovl = OutputContract.overlap([1.0, 0.0], column=0)
        # Overlap rides the column program's bytecode...
        assert ovl.program_key() == OutputContract.column(0).program_key()
        # ...but has its own engine identity (the bra participates).
        assert ovl.key() != OutputContract.column(0).key()

    def test_coerce(self):
        assert OutputContract.coerce(None) is FULL_UNITARY
        col = OutputContract.column(1)
        assert OutputContract.coerce(col) is col
        with pytest.raises(TypeError):
            OutputContract.coerce("column")

    def test_validation(self):
        with pytest.raises(ValueError):
            OutputContract("diag")
        with pytest.raises(ValueError):
            OutputContract.column(-1)
        with pytest.raises(ValueError):
            OutputContract("overlap")  # needs a bra

    def test_column_digits_row_major(self):
        # First wire most significant, matching Statevector ordering.
        assert column_digits((2, 2, 2), 5) == (1, 0, 1)
        assert column_digits((2, 3), 4) == (1, 1)
        with pytest.raises(ValueError):
            column_digits((2, 2), 4)

    def test_contract_program_mismatch_raises(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        full = circ.compile()
        col = circ.compile(contract=OutputContract.column(0))
        with pytest.raises(ValueError):
            TNVM(full, contract=OutputContract.column(0))
        with pytest.raises(ValueError):
            TNVM(col, contract=OutputContract.column(1))
        with pytest.raises(ValueError):
            TNVM(col, contract=FULL_UNITARY)

    def test_overlap_bra_length_mismatch_raises(self):
        circ = build_qsearch_ansatz(2, 1, 2)
        col = circ.compile(contract=OutputContract.column(0))
        with pytest.raises(ValueError):
            TNVM(col, contract=OutputContract.overlap([1.0, 0.0, 0.0]))


class TestColumnVsFull:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize(
        "radices,depth,j",
        [((2, 2), 2, 0), ((2, 2, 2), 2, 0), ((2, 2, 2), 2, 5), ((3, 3), 2, 4)],
    )
    def test_column_matches_full_column(self, precision, radices, depth, j):
        circ = build_qsearch_ansatz(len(radices), depth, radices[0])
        full = circ.compile()
        col = circ.compile(contract=OutputContract.column(j))
        assert full.output_shape == (full.dim, full.dim)
        assert col.output_shape == (full.dim, 1)
        x = _params(full, seed=j + 1)
        vmf = TNVM(full, precision=precision)
        vmc = TNVM(col, precision=precision)
        U, G = vmf.evaluate_with_grad(x)
        v, g = vmc.evaluate_with_grad(x)
        assert v.shape == (full.dim,)
        assert g.shape == (full.num_params, full.dim)
        atol = ATOL if precision == "f64" else 1e-5
        np.testing.assert_allclose(v, U[:, j], atol=atol, rtol=0)
        np.testing.assert_allclose(g, G[:, :, j], atol=atol, rtol=0)

    @pytest.mark.parametrize("backend", ["closures", "fused"])
    def test_batched_matches_scalar_rows(self, backend):
        # Each row of a batch-4 sweep is checked against that row run
        # alone: through the batched closures at batch 1 ("closures"),
        # or through the scalar megakernel ("fused").
        circ = build_qsearch_ansatz(3, 2, 2)
        col = circ.compile(contract=OutputContract.column(0))
        xs = _params(col, seed=5, batch=4)
        batched = BatchedTNVM(col, batch=4)
        if backend == "fused":
            scalar = TNVM(col)
            assert scalar.fused_kernel is not None
            row_eval = scalar.evaluate_with_grad
        else:
            single = BatchedTNVM(col, batch=1)

            def row_eval(x):
                v, g = single.evaluate_with_grad(x[None, :])
                return v[0], g[0]

        bv, bg = batched.evaluate_with_grad(xs)
        assert bv.shape == (4, col.dim)
        assert bg.shape == (4, col.num_params, col.dim)
        for s in range(4):
            v, g = row_eval(xs[s])
            np.testing.assert_allclose(bv[s], v, atol=ATOL, rtol=0)
            np.testing.assert_allclose(bg[s], g, atol=ATOL, rtol=0)

    def test_diff_none_column_evaluate(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        col = circ.compile(contract=OutputContract.column(0))
        x = _params(col, seed=9)
        v = TNVM(col, diff=Differentiation.NONE).evaluate(x)
        U = TNVM(circ.compile(), diff=Differentiation.NONE).evaluate(x)
        np.testing.assert_allclose(v, U[:, 0], atol=ATOL, rtol=0)


class TestOverlap:
    def test_scalar_overlap_is_bra_dot_column(self):
        circ = build_qsearch_ansatz(3, 2, 2)
        col = circ.compile(contract=OutputContract.column(0))
        rng = np.random.default_rng(7)
        bra = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        bra /= np.linalg.norm(bra)
        x = _params(col, seed=7)
        v, g = TNVM(col).evaluate_with_grad(x)
        ovl = TNVM(col, contract=OutputContract.overlap(bra))
        val, grad = ovl.evaluate_with_grad(x)
        assert np.isscalar(val) or np.ndim(val) == 0
        assert grad.shape == (col.num_params,)
        assert np.allclose(val, np.vdot(bra, v), atol=ATOL)
        np.testing.assert_allclose(grad, g @ bra.conj(), atol=ATOL, rtol=0)
        assert np.allclose(ovl.evaluate(x), val, atol=ATOL)

    def test_batched_overlap(self):
        circ = build_qsearch_ansatz(2, 2, 2)
        col = circ.compile(contract=OutputContract.column(0))
        rng = np.random.default_rng(8)
        bra = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xs = _params(col, seed=8, batch=3)
        bv, bg = BatchedTNVM(col, batch=3).evaluate_with_grad(xs)
        ovl = BatchedTNVM(
            col, batch=3, contract=OutputContract.overlap(bra)
        )
        val, grad = ovl.evaluate_with_grad(xs)
        assert val.shape == (3,)
        assert grad.shape == (3, col.num_params)
        np.testing.assert_allclose(val, bv @ bra.conj(), atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad, bg @ bra.conj(), atol=ATOL, rtol=0)


class TestBackendResolution:
    def test_auto_fuses_a_d16_column_vm(self):
        # No dimension threshold: column and full D=16 VMs both fuse.
        circ = build_qsearch_ansatz(4, 1, 2)
        col = circ.compile(contract=OutputContract.column(0))
        full = circ.compile()
        x = _params(full, seed=4)
        vcol, full_vm = TNVM(col), TNVM(full)
        assert vcol.fused_kernel is not None
        assert full_vm.fused_kernel is not None
        np.testing.assert_allclose(
            vcol.evaluate(x), full_vm.evaluate(x)[:, 0], atol=ATOL, rtol=0
        )
