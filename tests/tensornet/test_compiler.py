"""Tests for the AOT compiler: section split, fusion, dedup, correctness."""

import numpy as np
import pytest

from repro.circuit import (
    QuditCircuit,
    build_dtc_circuit,
    build_qft_circuit,
    build_qsearch_ansatz,
    fig5_circuit,
    gates,
)
from repro.symbolic import expr as E
from repro.symbolic.complexexpr import ComplexExpr
from repro.symbolic.matrix import ExpressionMatrix
from repro.tensornet import OutputContract
from repro.tensornet.compiler import compile_network
from repro.tnvm import TNVM, Differentiation
from repro.tnvm.buffers import write_layout

FIG5 = (
    "2-qubit shallow",
    "3-qubit shallow",
    "3-qubit deep",
    "2-qutrit shallow",
    "3-qutrit shallow",
)


def reshape_permute(
    matrix: ExpressionMatrix, shape, perm
) -> ExpressionMatrix:
    """The symbolic reshape-permute-reshape a TRANSPOSE applies: the
    reference a WRITE layout must reproduce (the compiler once
    rewrote fused leaves into these permuted copies)."""
    data = np.empty(matrix.shape, dtype=object)
    for idx, elem in matrix.elements():
        data[idx] = elem
    out = data.reshape(shape).transpose(perm).reshape(matrix.shape)
    return ExpressionMatrix(out.copy(), params=matrix.params, radices=None)


class TestSections:
    def test_fully_constant_circuit_is_all_constant(self):
        prog = build_dtc_circuit(3, 1).compile()
        assert prog.dynamic_section == []
        assert len(prog.const_section) > 0

    def test_constant_subtrees_split_out(self):
        circ = QuditCircuit.pure([2, 2])
        u3 = circ.cache_operation(gates.u3())
        cx = circ.cache_operation(gates.cx())
        circ.append_ref_constant(cx, (0, 1))
        circ.append_ref_constant(cx, (0, 1))
        circ.append_ref(u3, 0)
        prog = circ.compile()
        # The two CNOTs form a parameter-free subtree.
        assert len(prog.const_section) >= 1
        assert len(prog.dynamic_section) >= 1

    def test_parameterized_circuit_has_dynamic_output(self):
        prog = build_qsearch_ansatz(2, 2, 2).compile()
        out_spec = prog.buffers[prog.output_buffer]
        assert not out_spec.constant
        assert out_spec.params == tuple(range(prog.num_params))


class TestExpressionDedup:
    def test_repeated_gate_compiled_once(self):
        circ = build_qsearch_ansatz(3, 8, 2)  # many U3s, many CXs
        prog = circ.compile()
        names = [e.name for e in prog.expressions]
        # Laid-out leaves share their gate's entry: one U3, one CX.
        assert sorted(names) == ["CX", "U3"]

    def test_constant_binding_creates_distinct_expression(self):
        circ = QuditCircuit.pure([2])
        rx = circ.cache_operation(gates.rx())
        circ.append_ref(rx, 0)
        circ.append_ref_constant(rx, 0, (0.5,))
        prog = circ.compile()
        # One parameterized RX, one constant-bound RX.
        assert len(prog.expressions) == 2


class TestFusion:
    def test_reshape_permute_is_transpose(self):
        t, u = E.var("t"), E.var("s")
        m = ExpressionMatrix(
            [
                [ComplexExpr(E.cos(t), E.ZERO), ComplexExpr(E.sin(t), E.ZERO)],
                [ComplexExpr(E.ZERO, E.sin(u)), ComplexExpr(E.cos(u), E.ZERO)],
            ],
            params=("t", "s"),
        ).kron(gates.rx().matrix)
        # Swapping the two row axes and the two col axes swaps qudits.
        p = reshape_permute(m, (2, 2, 2, 2), (1, 0, 3, 2))
        params = [0.4, 1.2, 0.7]
        swapped = (
            m.evaluate(params).reshape(2, 2, 2, 2)
            .transpose(1, 0, 3, 2)
            .reshape(4, 4)
        )
        assert np.array_equal(p.evaluate(params), swapped)

    @pytest.mark.parametrize(
        "builder",
        [lambda name=name: fig5_circuit(name) for name in FIG5]
        + [
            lambda q=q, d=d: build_qsearch_ansatz(q, d, 2)
            for q in (2, 3)
            for d in (1, 2, 3)
        ],
        ids=list(FIG5)
        + [f"qsearch-{q}-{d}" for q in (2, 3) for d in (1, 2, 3)],
    )
    @pytest.mark.parametrize("contract", [None, OutputContract.column(0)])
    def test_layouts_relabel_canonical_gates(self, builder, contract):
        # No program holds a permuted copy of a gate: a fused leaf's
        # WRITE keeps the library expression and carries the layout,
        # and the relabelling both VMs read from ``write_layout`` puts
        # every canonical entry where the symbolic permutation does.
        prog = builder().compile(contract=contract)
        assert not any("perm" in (e.name or "") for e in prog.expressions)
        laid_out = 0
        for instr in prog.const_section + prog.dynamic_section:
            if instr.opcode != "WRITE" or not instr.perm:
                continue
            laid_out += 1
            expr = prog.expressions[instr.expr_id]
            want = reshape_permute(expr, instr.shape, instr.perm)
            dims, axes = write_layout(instr, expr.shape)
            rows, cols = expr.shape
            pos = np.arange(rows * cols).reshape(dims).transpose(axes)
            pos = pos.reshape(expr.shape)
            for (i, j), elem in expr.elements():
                assert want[divmod(int(pos[i, j]), cols)] is elem
        if contract is None:
            assert laid_out > 0

    def test_no_transposes_for_leaves(self):
        # Every leaf that needs a permuted layout gets it as its
        # WRITE's layout; TRANSPOSE instructions only appear for
        # internal intermediates (or the final output permutation).
        circ = QuditCircuit.pure([2, 2])
        cx = circ.cache_operation(gates.cx())
        circ.append_ref_constant(cx, (1, 0))  # reversed location
        prog = circ.compile()
        assert all(
            i.opcode != "TRANSPOSE" for i in prog.const_section
        ), prog.disassemble()

    def test_reversed_cx_correct(self):
        circ = QuditCircuit.pure([2, 2])
        cx = circ.cache_operation(gates.cx())
        circ.append_ref_constant(cx, (1, 0))
        vm = TNVM(circ.compile(), diff=Differentiation.NONE)
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
            dtype=complex,
        )
        assert np.allclose(vm.evaluate(()), expected)

    def test_nonadjacent_gate(self):
        circ = QuditCircuit.pure([2, 2, 2])
        cx = circ.cache_operation(gates.cx())
        circ.append_ref_constant(cx, (0, 2))
        u = TNVM(circ.compile(), diff=Differentiation.NONE).evaluate(())
        from repro.baseline.evaluator import embed
        from repro.baseline.gates import CXGate

        expected = embed(CXGate().get_unitary(()), (0, 2), (2, 2, 2))
        assert np.allclose(u, expected)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_qsearch_ansatz(2, 2, 2),
            lambda: build_qsearch_ansatz(3, 4, 2),
            lambda: build_qsearch_ansatz(2, 2, 3),
            lambda: build_qft_circuit(3),
            lambda: build_dtc_circuit(3, 2),
        ],
        ids=["2q", "3q", "2qutrit", "qft3", "dtc3"],
    )
    def test_compiled_program_validates(self, builder):
        prog = builder().compile()
        prog.validate()
        assert prog.output_shape[0] == prog.output_shape[1]

    def test_mixed_radix_circuit(self):
        # A [2, 3] circuit using an embedded U3 on the qutrit and a
        # qubit RX: checks general qudit dims throughout the pipeline.
        circ = QuditCircuit.pure([2, 3])
        rx = circ.cache_operation(gates.rx())
        eu = circ.cache_operation(gates.embedded_u3(3, 0, 1))
        circ.append_ref(rx, 0)
        circ.append_ref(eu, 1)
        params = np.random.default_rng(0).uniform(-np.pi, np.pi, 4)
        u = circ.get_unitary(params)
        rx_m = gates.rx().unitary(params[:1])
        eu_m = gates.embedded_u3(3, 0, 1).unitary(params[1:])
        assert np.allclose(u, np.kron(rx_m, eu_m))

    def test_empty_network_rejected(self):
        from repro.tensornet.network import TensorNetwork

        with pytest.raises(ValueError):
            compile_network(TensorNetwork())

    def test_single_gate_circuit(self):
        circ = QuditCircuit.pure([2])
        rx = circ.cache_operation(gates.rx())
        circ.append_ref(rx, 0)
        u = circ.get_unitary([0.9])
        assert np.allclose(u, gates.rx().unitary([0.9]))
