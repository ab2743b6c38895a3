"""Output-contract tests: column engines vs the full unitary.

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
from repro.instantiation import Instantiater
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
        assert FULL_UNITARY.program_key() == ("full",)
        col = OutputContract.column(3)
        assert col.program_key() == ("column", 3)
        assert col.column_based and not FULL_UNITARY.column_based
        # The program key round-trips, so a program fixes its contract.
        assert OutputContract.from_program_key(col.program_key()) == col
        assert OutputContract.from_program_key(("full",)) is FULL_UNITARY

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

    def test_column_digits_row_major(self):
        # First wire most significant, matching Statevector ordering.
        assert column_digits((2, 2, 2), 5) == (1, 0, 1)
        assert column_digits((2, 3), 4) == (1, 1)
        with pytest.raises(ValueError):
            column_digits((2, 2), 4)

    def test_contract_program_mismatch_raises(self):
        # An engine built on a compiled program cannot reinterpret it.
        circ = build_qsearch_ansatz(2, 1, 2)
        full = circ.compile()
        col = circ.compile(contract=OutputContract.column(0))
        with pytest.raises(ValueError, match="does not match"):
            Instantiater(program=full, contract=OutputContract.column(0))
        with pytest.raises(ValueError, match="does not match"):
            Instantiater(program=col, contract=OutputContract.column(1))
        with pytest.raises(ValueError, match="does not match"):
            Instantiater(program=col, contract=FULL_UNITARY)
        # An agreeing (or omitted) contract is accepted.
        engine = Instantiater(program=col, contract=OutputContract.column(0))
        assert engine.contract == OutputContract.column(0)
        assert Instantiater(program=full).contract is FULL_UNITARY


class TestDerivedContract:
    @pytest.mark.parametrize(
        "contract",
        [FULL_UNITARY, OutputContract.column(0), OutputContract.column(5)],
        ids=["full", "col0", "col5"],
    )
    def test_vms_report_the_programs_contract(self, contract):
        circ = build_qsearch_ansatz(3, 1, 2)
        program = circ.compile(contract=contract)
        derived = OutputContract.from_program_key(program.contract)
        assert derived == contract
        assert TNVM(program).contract == derived
        assert TNVM(program, diff=Differentiation.NONE).contract == derived
        assert BatchedTNVM(program, batch=2).contract == derived


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
