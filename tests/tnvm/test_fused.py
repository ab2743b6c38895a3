"""Scalar megakernel tests.

The scalar TNVM runs every program as one generated megakernel; the
batched TNVM runs grouped WRITE closures and one closure per
contraction call.  Both are checked
against the interpreted baseline in ``test_differential.py``.  This
module pins what the execution paths must keep across every opcode,
both precisions, and with and without differentiation: a VM rebuilt
from shipped artifacts (program bytes and pickled compiled
expressions) regenerates the original's kernel source byte for byte
and is bit-identical to the original; both VMs' gradients match
central differences of a values-only VM; both VMs store a laid-out
WRITE's canonical entries where numpy's reshape-transpose puts them,
in one batched writer per gate; the megakernel makes one
numpy call per TRANSPOSE and at most two per product without shared
parameters, and both VMs make exactly the calls ``contraction_calls``
lowers the Figure 5 programs to; kernels are generated once per
program and survive
pickling as source text; and neither VM takes a backend knob.
"""

import math
import pickle
import re

import numpy as np
import pytest

from repro.circuit import (
    QuditCircuit,
    build_qft_circuit,
    build_qsearch_ansatz,
    fig5_circuit,
    gates,
)
from repro.jit.cache import ExpressionCache
from repro.tensornet import OutputContract
from repro.tensornet.bytecode import BufferSpec, Instruction, Program
from repro.tensornet.network import ParamSlot
from repro.tnvm import TNVM, BatchedTNVM, Differentiation, bind_fused_kernel
from repro.tnvm.buffers import contraction_calls, gradient_rows
from repro.tnvm.fused import fused_kernel_for


# ----------------------------------------------------------------------
# Program zoo: every opcode and every AD specialization path.
# ----------------------------------------------------------------------


def _qsearch_2q():
    # WRITE + MATMUL + TRANSPOSE with disjoint operand parameters.
    return build_qsearch_ansatz(2, 2, 2).compile()


def _qsearch_3q():
    return build_qsearch_ansatz(3, 1, 2).compile()


def _single_gate():
    # Root-leaf fusion: the whole program is one WRITE.
    circ = QuditCircuit.pure([2])
    circ.append_ref(circ.cache_operation(gates.u3()), 0)
    return circ.compile()


def _kron_product_rule():
    # RX(t) on wire 0 and RX(t) on wire 1: KRON with the product rule
    # (same parameter on both operands).
    circ = QuditCircuit.pure([2, 2])
    rx = circ.cache_operation(gates.rx())
    (theta,) = circ.append_ref(rx, 0)
    circ.append_ref_bound(rx, 1, [ParamSlot.param(theta)])
    return circ.compile()


def _matmul_overlap():
    # RZ(t) @ RX(t) on one wire: MATMUL with overlapping parameters.
    circ = QuditCircuit.pure([2])
    rx = circ.cache_operation(gates.rx())
    rz = circ.cache_operation(gates.rz())
    (t,) = circ.append_ref(rx, 0)
    circ.append_ref_bound(rz, 0, [ParamSlot.param(t)])
    return circ.compile()


def _scatter_write():
    # U3(t, t, 0.4): duplicated slots within one WRITE force the
    # scatter/accumulate gradient path.
    circ = QuditCircuit.pure([2])
    rx = circ.cache_operation(gates.rx())
    u3 = circ.cache_operation(gates.u3())
    (t,) = circ.append_ref(rx, 0)
    circ.append_ref_bound(
        u3, 0, [ParamSlot.param(t), ParamSlot.param(t), ParamSlot.const(0.4)]
    )
    return circ.compile()


def _hadamard_disjoint():
    # The compiler never emits HADAMARD today; build the bytecode by
    # hand so the opcode's fused emission is still covered.
    rx = gates.rx().matrix
    program = Program(
        num_params=2,
        radices=(2,),
        expressions=[rx],
        buffers=[
            BufferSpec(0, 4, (0,), False),
            BufferSpec(1, 4, (1,), False),
            BufferSpec(2, 4, (0, 1), False),
        ],
        dynamic_section=[
            Instruction("WRITE", out_buf=0, expr_id=0, slots=(0,), params=(0,)),
            Instruction("WRITE", out_buf=1, expr_id=0, slots=(1,), params=(1,)),
            Instruction(
                "HADAMARD",
                out_buf=2,
                a_buf=0,
                b_buf=1,
                a_shape=(2, 2),
                b_shape=(2, 2),
                params=(0, 1),
            ),
        ],
        output_buffer=2,
        output_shape=(2, 2),
    )
    program.validate()
    return program


def _hadamard_overlap():
    # Both HADAMARD operands depend on the same parameter: product rule.
    rx = gates.rx().matrix
    program = Program(
        num_params=1,
        radices=(2,),
        expressions=[rx],
        buffers=[
            BufferSpec(0, 4, (0,), False),
            BufferSpec(1, 4, (0,), False),
            BufferSpec(2, 4, (0,), False),
        ],
        dynamic_section=[
            Instruction("WRITE", out_buf=0, expr_id=0, slots=(0,), params=(0,)),
            Instruction("WRITE", out_buf=1, expr_id=0, slots=(0,), params=(0,)),
            Instruction(
                "HADAMARD",
                out_buf=2,
                a_buf=0,
                b_buf=1,
                a_shape=(2, 2),
                b_shape=(2, 2),
                params=(0,),
            ),
        ],
        output_buffer=2,
        output_shape=(2, 2),
    )
    program.validate()
    return program


def _unsorted_write():
    # U3 bound to params (2, 0, 1): unique slots out of sorted order,
    # whose gradient rows follow the slots, feeding a MATMUL whose B
    # side adds parameter 3.
    program = Program(
        num_params=4,
        radices=(2,),
        expressions=[gates.u3().matrix, gates.rx().matrix],
        buffers=[
            BufferSpec(0, 4, (0, 1, 2), False),
            BufferSpec(1, 4, (3,), False),
            BufferSpec(2, 4, (0, 1, 2, 3), False),
        ],
        dynamic_section=[
            Instruction(
                "WRITE", out_buf=0, expr_id=0, slots=(2, 0, 1),
                params=(0, 1, 2),
            ),
            Instruction("WRITE", out_buf=1, expr_id=1, slots=(3,), params=(3,)),
            Instruction(
                "MATMUL",
                out_buf=2,
                a_buf=0,
                b_buf=1,
                a_shape=(2, 2),
                b_shape=(2, 2),
                params=(0, 1, 2, 3),
            ),
        ],
        output_buffer=2,
        output_shape=(2, 2),
    )
    program.validate()
    return program


def _matmul_gather():
    # RX(t1) @ U3(t0, t1, t2): B's rows for t0 and t2 straddle the
    # shared t1, so the B-only rows are gathered.
    program = Program(
        num_params=3,
        radices=(2,),
        expressions=[gates.rx().matrix, gates.u3().matrix],
        buffers=[
            BufferSpec(0, 4, (1,), False),
            BufferSpec(1, 4, (0, 1, 2), False),
            BufferSpec(2, 4, (0, 1, 2), False),
        ],
        dynamic_section=[
            Instruction("WRITE", out_buf=0, expr_id=0, slots=(1,), params=(1,)),
            Instruction(
                "WRITE", out_buf=1, expr_id=1, slots=(0, 1, 2),
                params=(0, 1, 2),
            ),
            Instruction(
                "MATMUL",
                out_buf=2,
                a_buf=0,
                b_buf=1,
                a_shape=(2, 2),
                b_shape=(2, 2),
                params=(0, 1, 2),
            ),
        ],
        output_buffer=2,
        output_shape=(2, 2),
    )
    program.validate()
    return program


def _constant_circuit():
    # Fully constant: empty dynamic section, megakernel is a no-op.
    return build_qft_circuit(2).compile()


#: the WRITE layouts of ``_laid_out_writes``: (shape, perm) per buffer
LAYOUTS = {
    1: ((2, 2), (1, 0)),
    2: ((2, 2), (1, 0)),
    3: ((2, 2, 2, 2), (2, 0, 1, 3)),
    4: ((2, 2, 2, 2), (1, 0, 3, 2)),
}


def _laid_out_writes():
    # Three U3 WRITEs in one group, in the identity layout, transposed,
    # and transposed with duplicated slots (scatter); a lone CRZ whose
    # layout permutes four axes; and a parameter-free CX laid out in
    # the constant section.
    program = Program(
        num_params=9,
        radices=(2, 2),
        expressions=[gates.u3().matrix, gates.crz().matrix, gates.cx().matrix],
        buffers=[
            BufferSpec(0, 4, (0, 1, 2), False),
            BufferSpec(1, 4, (3, 4, 5), False),
            BufferSpec(2, 4, (6, 7), False),
            BufferSpec(3, 16, (8,), False),
            BufferSpec(4, 16, (), True),
            BufferSpec(5, 4, (0, 1, 2, 3, 4, 5), False),
            BufferSpec(6, 16, (0, 1, 2, 3, 4, 5, 6, 7), False),
            BufferSpec(7, 16, tuple(range(9)), False),
            BufferSpec(8, 16, tuple(range(9)), False),
        ],
        const_section=[
            Instruction(
                "WRITE", out_buf=4, expr_id=2,
                shape=LAYOUTS[4][0], perm=LAYOUTS[4][1],
            ),
        ],
        dynamic_section=[
            Instruction(
                "WRITE", out_buf=0, expr_id=0, slots=(0, 1, 2),
                params=(0, 1, 2),
            ),
            Instruction(
                "WRITE", out_buf=1, expr_id=0, slots=(3, 4, 5),
                shape=LAYOUTS[1][0], perm=LAYOUTS[1][1], params=(3, 4, 5),
            ),
            Instruction(
                "WRITE", out_buf=2, expr_id=0, slots=(6, 6, 7),
                shape=LAYOUTS[2][0], perm=LAYOUTS[2][1], params=(6, 7),
            ),
            Instruction(
                "WRITE", out_buf=3, expr_id=1, slots=(8,),
                shape=LAYOUTS[3][0], perm=LAYOUTS[3][1], params=(8,),
            ),
            Instruction(
                "MATMUL", out_buf=5, a_buf=0, b_buf=1, a_shape=(2, 2),
                b_shape=(2, 2), params=(0, 1, 2, 3, 4, 5),
            ),
            Instruction(
                "KRON", out_buf=6, a_buf=5, b_buf=2, a_shape=(2, 2),
                b_shape=(2, 2), params=(0, 1, 2, 3, 4, 5, 6, 7),
            ),
            Instruction(
                "MATMUL", out_buf=7, a_buf=6, b_buf=3, a_shape=(4, 4),
                b_shape=(4, 4), params=tuple(range(9)),
            ),
            Instruction(
                "MATMUL", out_buf=8, a_buf=7, b_buf=4, a_shape=(4, 4),
                b_shape=(4, 4), params=tuple(range(9)),
            ),
        ],
        output_buffer=8,
        output_shape=(4, 4),
    )
    program.validate()
    return program


def _laid_out_reference(params: np.ndarray) -> np.ndarray:
    """``_laid_out_writes``'s output from the gates' numeric matrices,
    each laid out by numpy's reshape-transpose-reshape."""
    def lay(matrix, buf):
        shape, perm = LAYOUTS[buf]
        return matrix.reshape(shape).transpose(perm).reshape(matrix.shape)

    p = params
    u3 = gates.u3().matrix
    a = u3.evaluate(p[0:3]) @ lay(u3.evaluate(p[3:6]), 1)
    b = np.kron(a, lay(u3.evaluate([p[6], p[6], p[7]]), 2))
    crz = lay(gates.crz().matrix.evaluate(p[8:9]), 3)
    return b @ crz @ lay(gates.cx().matrix.evaluate([]), 4)


PROGRAMS = {
    "single-gate": _single_gate,
    "qsearch-2q": _qsearch_2q,
    "qsearch-3q": _qsearch_3q,
    "kron-product-rule": _kron_product_rule,
    "matmul-overlap": _matmul_overlap,
    "scatter-write": _scatter_write,
    "hadamard-disjoint": _hadamard_disjoint,
    "hadamard-overlap": _hadamard_overlap,
    "unsorted-write": _unsorted_write,
    "matmul-gather": _matmul_gather,
    "constant": _constant_circuit,
    "laid-out-writes": _laid_out_writes,
}


@pytest.fixture(scope="module")
def programs():
    return {name: build() for name, build in PROGRAMS.items()}


def _params_for(program, seed=0):
    return np.random.default_rng(seed).uniform(
        -2 * np.pi, 2 * np.pi, program.num_params
    )


def _shipped_cache(vm) -> ExpressionCache:
    """A fresh expression cache holding ``vm``'s compiled expressions
    after a pickle round trip, as a rehydrating worker holds them."""
    cache = ExpressionCache()
    for compiled in pickle.loads(pickle.dumps(vm.compiled)):
        cache.put(compiled)
    return cache


def _scalar_twin(vm: TNVM) -> TNVM:
    """``vm`` rebuilt from shipped artifacts: program bytes and pickled
    compiled expressions.  The twin generates its own megakernel, which
    must be the original's source byte for byte."""
    clone = Program.from_bytes(vm.program.to_bytes())
    twin = TNVM(
        clone, precision=vm.precision, diff=vm.diff,
        cache=_shipped_cache(vm),
    )
    assert twin.fused_kernel is not vm.fused_kernel  # regenerated
    assert twin.fused_kernel == vm.fused_kernel  # same source
    return twin


def _batched_twin(vm: BatchedTNVM) -> BatchedTNVM:
    """``vm`` rebuilt from program bytes and pickled expressions (the
    batched writers regenerate from the shipped entries)."""
    clone = Program.from_bytes(vm.program.to_bytes())
    return BatchedTNVM(
        clone, vm.batch, precision=vm.precision, diff=vm.diff,
        cache=_shipped_cache(vm),
    )


class TestOpcodeCoverage:
    def test_zoo_spans_all_five_opcodes(self, programs):
        seen = {
            instr.opcode
            for program in programs.values()
            for instr in program.dynamic_section
        }
        assert seen == {"WRITE", "MATMUL", "KRON", "HADAMARD", "TRANSPOSE"}


class TestScalarEquivalence:
    """A scalar VM rebuilt from shipped artifacts is bit-identical."""

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_grad_bit_identical(self, programs, name, precision):
        program = programs[name]
        vm = TNVM(program, precision=precision)
        twin = _scalar_twin(vm)
        for seed in range(3):
            p = _params_for(program, seed)
            u1, g1 = vm.evaluate_with_grad(p)
            u2, g2 = twin.evaluate_with_grad(p)
            assert np.array_equal(u1, u2)
            assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_no_grad_bit_identical(self, programs, name, precision):
        program = programs[name]
        vm = TNVM(program, precision=precision, diff=Differentiation.NONE)
        p = _params_for(program, 7)
        assert np.array_equal(vm.evaluate(p), _scalar_twin(vm).evaluate(p))


class TestBatchedEquivalence:
    """A batched VM rebuilt from shipped artifacts is bit-identical."""

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_grad_bit_identical(self, programs, name, precision):
        program = programs[name]
        rows = np.random.default_rng(11).uniform(
            -2 * np.pi, 2 * np.pi, (5, program.num_params)
        )
        vm = BatchedTNVM(program, 5, precision=precision)
        u1, g1 = vm.evaluate_with_grad(rows)
        u2, g2 = _batched_twin(vm).evaluate_with_grad(rows)
        assert np.array_equal(u1, u2)
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_no_grad_bit_identical(self, programs, name):
        program = programs[name]
        rows = np.random.default_rng(13).uniform(
            -2 * np.pi, 2 * np.pi, (3, program.num_params)
        )
        vm = BatchedTNVM(program, 3, diff=Differentiation.NONE)
        twin = _batched_twin(vm)
        assert np.array_equal(vm.evaluate(rows), twin.evaluate(rows))

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_batched_matches_scalar_rows(self, programs, name, precision):
        # Cross-check through the one batched WRITE path (grouped,
        # lone direct and lone scatter gates alike): each row of a
        # batch of 4 is close to the scalar megakernel, and bitwise
        # equal to the same row run alone at batch 1.
        program = programs[name]
        rows = np.random.default_rng(17).uniform(
            -np.pi, np.pi, (4, program.num_params)
        )
        atol = 1e-12 if precision == "f64" else 1e-5
        scalar = TNVM(program, precision=precision)
        batched = BatchedTNVM(program, 4, precision=precision)
        alone = BatchedTNVM(program, 1, precision=precision)
        ub, gb = batched.evaluate_with_grad(rows)
        for s in range(4):
            us, gs = scalar.evaluate_with_grad(rows[s])
            assert np.allclose(ub[s], us, atol=atol)
            assert np.allclose(gb[s], gs, atol=atol)
            u1, g1 = alone.evaluate_with_grad(rows[s : s + 1])
            assert np.array_equal(ub[s], u1[0])
            assert np.array_equal(gb[s], g1[0])


class TestWriteLayouts:
    """A laid-out WRITE stores its gate's canonical entries at their
    permuted positions, in both VMs."""

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_laid_out_values_match_numpy(self, programs, precision):
        program = programs["laid-out-writes"]
        rows = np.random.default_rng(29).uniform(
            -np.pi, np.pi, (3, program.num_params)
        )
        atol = 1e-12 if precision == "f64" else 1e-5
        scalar = TNVM(program, precision=precision)
        batched = BatchedTNVM(program, 3, precision=precision)
        values, _ = batched.evaluate_with_grad(rows)
        for s, row in enumerate(rows):
            want = _laid_out_reference(row)
            np.testing.assert_allclose(
                scalar.evaluate_with_grad(row)[0], want, atol=atol, rtol=0
            )
            np.testing.assert_allclose(values[s], want, atol=atol, rtol=0)

    @pytest.mark.parametrize("name", [
        "2-qubit shallow", "3-qubit shallow", "3-qubit deep",
        "2-qutrit shallow", "3-qutrit shallow",
    ])
    def test_one_batched_writer_per_gate(self, name):
        # Laid-out and identity-layout WRITEs of one gate run as one
        # grouped writer call: a Figure 5 program has one
        # parameterized gate, so its batched VM has one writer.
        program = fig5_circuit(name).compile()
        assert len(BatchedTNVM(program, 8)._writes) == 1


class TestGradientRows:
    """Every zoo program's gradient against central differences of a
    values-only VM: a reference outside the AD path, so a row-order
    bug shared by the scalar and batched VMs cannot pass."""

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_grad_matches_central_differences(self, programs, name):
        program = programs[name]
        rows = np.random.default_rng(19).uniform(
            -np.pi, np.pi, (3, program.num_params)
        )
        plain = TNVM(program, diff=Differentiation.NONE)
        h = 1e-6
        want = []
        for row in rows:
            partials = []
            for p in range(program.num_params):
                step = np.zeros(program.num_params)
                step[p] = h
                up = plain.evaluate(row + step).copy()
                partials.append((up - plain.evaluate(row - step)) / (2 * h))
            want.append(partials)
        scalar = TNVM(program)
        _, batched = BatchedTNVM(program, 3).evaluate_with_grad(rows)
        for s, row in enumerate(rows):
            _, got = scalar.evaluate_with_grad(row)
            expected = np.reshape(want[s], got.shape)
            np.testing.assert_allclose(got, expected, atol=1e-8, rtol=0)
            np.testing.assert_allclose(
                batched[s], expected, atol=1e-8, rtol=0
            )


#: numpy calls and BLAS calls per scalar sweep on the Figure 5
#: programs, counted from ``contraction_calls``: one copy per
#: TRANSPOSE and at most two calls per product (the value with the
#: A-side rows, then the B-only rows).  A matmul makes one BLAS call per
#: element of its leading (broadcast) dimensions; ``COLUMN(0)`` puts the
#: many-parameter state on the B side, where every row is its own call.
FIG5_CALLS = {
    ("2-qubit shallow", "full"): (19, 34),
    ("3-qubit shallow", "full"): (38, 83),
    ("3-qubit deep", "full"): (68, 161),
    ("2-qutrit shallow", "full"): (19, 25),
    ("3-qutrit shallow", "full"): (38, 60),
    ("2-qubit shallow", "column"): (18, 70),
    ("3-qubit shallow", "column"): (36, 209),
    ("3-qubit deep", "column"): (68, 737),
    ("2-qutrit shallow", "column"): (18, 49),
    ("3-qutrit shallow", "column"): (36, 144),
}


@pytest.fixture(scope="module")
def fig5_programs():
    return {
        (name, contract): fig5_circuit(name).compile(
            contract=OutputContract.column(0) if contract == "column" else None
        )
        for name, contract in FIG5_CALLS
    }


class TestCallStructure:
    """The megakernel's numpy calls follow the stack layout: one copy
    per TRANSPOSE, at most two calls per product whose operands share
    no parameter, and no fancy-index assignment; and both VMs make the
    calls the lowering counts."""

    @pytest.mark.parametrize("name, contract", list(FIG5_CALLS))
    def test_calls_per_instruction(self, fig5_programs, name, contract):
        program = fig5_programs[(name, contract)]
        kernel = TNVM(program).fused_kernel
        # No fancy-index assignment: every out= is a row span.
        fancy_store = re.compile(r"^ +i\d+_\w+\[i\d+_\w+\] = ", re.MULTILINE)
        assert "] = np.matmul(" not in kernel.source
        assert not fancy_store.search(kernel.source)
        hot = kernel.source.split("def fused_run(params):\n", 1)[1]
        calls: dict[int, int] = {}
        for line in hot.splitlines():
            stripped = line.strip()
            if (
                stripped.startswith("np.")
                or " += " in stripped
                or stripped.endswith("[:] = 0")
            ):
                n = int(re.match(r"\D*i(\d+)_", stripped).group(1))
                calls[n] = calls.get(n, 0) + 1
        assert sum(calls.values()) == kernel.num_numpy_calls
        for n, instr in enumerate(program.dynamic_section):
            if instr.opcode == "TRANSPOSE":
                assert calls.get(n) == 1, instr.render()
            elif instr.opcode != "WRITE":
                a = program.buffers[instr.a_buf].params
                b = program.buffers[instr.b_buf].params
                if not set(a) & set(b):
                    assert 1 <= calls.get(n, 0) <= 2, instr.render()

    @pytest.mark.parametrize("name, contract", list(FIG5_CALLS))
    def test_both_vms_make_the_lowered_calls(
        self, fig5_programs, name, contract
    ):
        program = fig5_programs[(name, contract)]
        rows = gradient_rows(program)
        calls = [
            call
            for instr in program.dynamic_section
            if instr.opcode != "WRITE"
            for call in contraction_calls(instr, rows)
        ]
        blas = sum(
            math.prod(call.out.shape[:-2])
            for call in calls
            if call.op == "matmul"
        )
        assert (len(calls), blas) == FIG5_CALLS[(name, contract)]
        assert TNVM(program).fused_kernel.num_numpy_calls == len(calls)
        assert len(BatchedTNVM(program, 2)._calls) == len(calls)


class TestBackendKnob:
    """No backend knob: the scalar VM always runs the megakernel, the
    batched VM always runs grouped closures."""

    def test_batched_auto_stays_on_closures(self, programs):
        program = programs["qsearch-2q"]
        vm = BatchedTNVM(program, 4)
        assert vm.fused_kernel is None
        # Same-expression WRITEs share one grouped writer call.
        writes = [i for i in program.dynamic_section if i.opcode == "WRITE"]
        assert len(vm._writes) < len(writes)

    def test_vm_rejects_unknown_backend(self, programs):
        with pytest.raises(TypeError):
            TNVM(programs["single-gate"], backend="fused")
        with pytest.raises(TypeError):
            BatchedTNVM(programs["single-gate"], 2, backend="closures")

    def test_auto_picks_fused_for_small_dims(self, programs):
        # No dimension threshold: every scalar VM fuses.
        for name in ("single-gate", "qsearch-3q"):
            kernel = TNVM(programs[name]).fused_kernel
            assert kernel is not None and kernel.grad

    def test_closures_vm_has_no_kernel(self):
        program = PROGRAMS["qsearch-2q"]()
        BatchedTNVM(program, 3)
        assert "_fused_kernels" not in program.__dict__

    def test_fused_vm_single_dispatch(self, programs):
        program = programs["qsearch-2q"]
        kernel = TNVM(program).fused_kernel
        assert kernel.num_write_stores > 0
        assert kernel.source.count("def fused_run(params):") == 1


class TestKernelCachingAndSerialization:
    def test_kernel_cached_per_program(self, programs):
        program = PROGRAMS["qsearch-2q"]()
        vm1 = TNVM(program)
        vm2 = TNVM(program)
        assert vm1.fused_kernel is vm2.fused_kernel  # one generation
        plain = TNVM(program, diff=Differentiation.NONE)
        assert plain.fused_kernel is not vm1.fused_kernel
        assert not plain.fused_kernel.grad

    def test_kernel_pickle_round_trip_rebinds(self, programs):
        program = programs["qsearch-2q"]
        vm = TNVM(program)
        clone_kernel = pickle.loads(pickle.dumps(vm.fused_kernel))
        assert clone_kernel.source == vm.fused_kernel.source
        run = bind_fused_kernel(clone_kernel, vm.plan)
        p = _params_for(program, 3)
        reference_u, reference_g = map(
            np.copy, vm.evaluate_with_grad(p)
        )
        run(tuple(p))  # re-executes the dynamic section on vm's arena
        u, g = vm.evaluate_with_grad(p)
        assert np.array_equal(u, reference_u)
        assert np.array_equal(g, reference_g)

    def test_program_bytes_stay_lean(self):
        # Kernel caches must never leak into Program.to_bytes: a
        # rehydrated program regenerates its kernels.
        program = PROGRAMS["qsearch-2q"]()
        bare = len(program.to_bytes())
        vm = TNVM(program)
        fused_kernel_for(program, vm.compiled, grad=False)
        assert len(program.to_bytes()) == bare
        clone = Program.from_bytes(program.to_bytes())
        assert "_fused_kernels" not in clone.__dict__
