"""Forward-mode AD instruction specialization (paper section IV-B).

At initialization the batched TNVM turns each bytecode instruction
into a specialized closure (the scalar TNVM emits the same calculus as
one generated megakernel instead, see :mod:`repro.tnvm.fused`).  The
AOT compiler annotated every instruction with the circuit parameters
it depends on; the builders here use those sets to apply the correct
calculus — operations whose operands depend on *independent* partials
propagate each side separately, while operands with *overlapping*
parameters get the product rule.

Every WRITE with parameter slots runs through
:func:`build_batched_write_group`: one batched writer call per JIT'd
expression, covering every gate that uses it (a lone gate included).

All views are precomputed, so the contraction closures perform no
allocation except one reused scratch matrix per product-rule
instruction.
"""

from __future__ import annotations

import numpy as np

from ..jit.compiled import CompiledExpression
from ..tensornet.bytecode import Instruction, Program
from .buffers import MemoryPlan

__all__ = [
    "build_batched_closure",
    "build_batched_write_group",
]


def build_batched_closure(
    instr: Instruction,
    program: Program,
    plan: MemoryPlan,
    compiled: list[CompiledExpression],
    grad: bool,
):
    """Create the batch-vectorized callable for one instruction.

    The returned closure has signature ``run(param_rows)`` where
    ``param_rows`` is a ``(num_params, batch)`` float array — row ``k``
    holds parameter ``k`` for every batch element, so ``params[k]``
    picks one parameter across the whole batch.  ``plan`` is a batched
    :class:`~repro.tnvm.buffers.MemoryPlan`.  A WRITE here must be
    parameter-free; every WRITE with parameter slots runs through
    :func:`build_batched_write_group`.
    """
    if instr.opcode == "WRITE":
        return _build_batched_write(instr, plan, compiled)
    if instr.opcode == "MATMUL":
        return _build_batched_matmul(instr, program, plan, grad)
    if instr.opcode == "KRON":
        return _build_batched_kron(instr, program, plan, grad)
    if instr.opcode == "HADAMARD":
        return _build_batched_hadamard(instr, program, plan, grad)
    if instr.opcode == "TRANSPOSE":
        return _build_batched_transpose(instr, program, plan, grad)
    raise ValueError(f"unknown opcode {instr.opcode}")


def _param_positions(
    out_params: tuple[int, ...], side_params: tuple[int, ...]
) -> list[int]:
    """For each output parameter, its row in the side's gradient stack
    (or -1 when the side does not depend on it)."""
    index = {p: i for i, p in enumerate(side_params)}
    return [index.get(p, -1) for p in out_params]


def _grouped_rows(maps):
    """Split the per-row (a-position, b-position) maps into the three
    product-rule cases: a-side only, b-side only, and overlapping."""
    a_rows, a_idx, b_rows, b_idx, both = [], [], [], [], []
    for row, (x, y) in enumerate(maps):
        if x >= 0 and y >= 0:
            both.append((row, x, y))
        elif x >= 0:
            a_rows.append(row)
            a_idx.append(x)
        else:
            b_rows.append(row)
            b_idx.append(y)
    return a_rows, a_idx, b_rows, b_idx, both


def _index(ix: list[int]):
    """A slice when the indices are consecutive (zero-copy view, valid
    ``out=`` target), else a fancy-index array."""
    if ix and ix == list(range(ix[0], ix[-1] + 1)):
        return slice(ix[0], ix[-1] + 1)
    return np.asarray(ix, dtype=np.intp)


# ----------------------------------------------------------------------
# Batched builders
#
# Every view carries a leading batch axis.  Contractions
# (MATMUL/KRON/HADAMARD/TRANSPOSE) broadcast over that axis in a
# single numpy call, so the per-
# instruction Python dispatch cost is amortized across all S starts.
# A WRITE with parameter slots instead hands the JIT'd *batched*
# expression writer views with a trailing batch axis (see
# build_batched_write_group): the generated ``out[i, j] = ...`` stores
# then assign length-S vectors.
# ----------------------------------------------------------------------

def _build_batched_write(instr, plan, compiled):
    # Parameter-free: the scalar writers assign complex scalars, which
    # broadcast over the trailing batch axis of ``val_t``.
    expr = compiled[instr.expr_id]
    val_t = np.moveaxis(plan.value_view(instr.out_buf, expr.shape), 0, -1)
    write_constants = expr.write_constants
    write = expr.write

    def run_const(params):
        write_constants(val_t)
        write((), val_t)

    return run_const


def _build_batched_matmul(instr, program, plan, grad):
    m, k = instr.a_shape
    k2, n = instr.b_shape
    assert k == k2
    A = plan.value_view(instr.a_buf, (m, k))
    B = plan.value_view(instr.b_buf, (k, n))
    C = plan.value_view(instr.out_buf, (m, n))

    if not grad or not instr.params:

        def run(params):
            np.matmul(A, B, out=C)

        return run

    GA = plan.grad_view(instr.a_buf, (m, k))
    GB = plan.grad_view(instr.b_buf, (k, n))
    GC = plan.grad_view(instr.out_buf, (m, n))
    a_params = program.buffers[instr.a_buf].params
    b_params = program.buffers[instr.b_buf].params
    maps = list(
        zip(
            _param_positions(instr.params, a_params),
            _param_positions(instr.params, b_params),
        )
    )
    # Row-stacked gradient contraction: all rows of each product-rule
    # case run as ONE broadcasted matmul over a (batch, rows, m, n)
    # stack, instead of one gufunc dispatch per row.  Consecutive row
    # ranges (the common case: sorted circuit params split cleanly
    # between the two operands) use zero-copy slice views as ``out=``.
    a_rows, a_idx, b_rows, b_idx, both = _grouped_rows(maps)
    ra, ia = _index(a_rows), _index(a_idx)
    rb, ib = _index(b_rows), _index(b_idx)
    a_direct = isinstance(ra, slice)
    b_direct = isinstance(rb, slice)
    A_b = A[:, None]  # (batch, 1, m, k) broadcast view
    B_b = B[:, None]
    scratch = (
        np.zeros((plan.batch, m, n), dtype=plan.dtype) if both else None
    )

    def run(params):
        np.matmul(A, B, out=C)
        if a_rows:
            if a_direct:
                np.matmul(GA[:, ia], B_b, out=GC[:, ra])
            else:
                GC[:, ra] = np.matmul(GA[:, ia], B_b)
        if b_rows:
            if b_direct:
                np.matmul(A_b, GB[:, ib], out=GC[:, rb])
            else:
                GC[:, rb] = np.matmul(A_b, GB[:, ib])
        for row, x, y in both:
            # Overlapping parameters: product rule.
            np.matmul(GA[:, x], B, out=GC[:, row])
            np.matmul(A, GB[:, y], out=scratch)
            GC[:, row] += scratch

    return run


def _build_batched_elementwise(instr, program, plan, grad, a_shape, b_shape):
    """Shared KRON/HADAMARD batched builder: the two opcodes differ
    only in how their operands are viewed (kron interleaves singleton
    axes so the same broadcast multiply performs the outer product)."""
    A = plan.value_view(instr.a_buf, a_shape)
    B = plan.value_view(instr.b_buf, b_shape)
    out_shape = np.broadcast_shapes(a_shape, b_shape)
    C = plan.value_view(instr.out_buf, out_shape)

    if not grad or not instr.params:

        def run(params):
            np.multiply(A, B, out=C)

        return run

    GA = plan.grad_view(instr.a_buf, a_shape)
    GB = plan.grad_view(instr.b_buf, b_shape)
    GC = plan.grad_view(instr.out_buf, out_shape)
    a_params = program.buffers[instr.a_buf].params
    b_params = program.buffers[instr.b_buf].params
    maps = list(
        zip(
            _param_positions(instr.params, a_params),
            _param_positions(instr.params, b_params),
        )
    )
    rows_a, idx_a, rows_b, idx_b, both = _grouped_rows(maps)
    sa, xa = _index(rows_a), _index(idx_a)
    sb, xb = _index(rows_b), _index(idx_b)
    a_direct = isinstance(sa, slice)
    b_direct = isinstance(sb, slice)
    A_b = A[:, None]
    B_b = B[:, None]
    scratch = (
        np.zeros((plan.batch,) + tuple(out_shape), dtype=plan.dtype)
        if both
        else None
    )

    def run(params):
        np.multiply(A, B, out=C)
        if rows_a:
            if a_direct:
                np.multiply(GA[:, xa], B_b, out=GC[:, sa])
            else:
                GC[:, sa] = GA[:, xa] * B_b
        if rows_b:
            if b_direct:
                np.multiply(A_b, GB[:, xb], out=GC[:, sb])
            else:
                GC[:, sb] = A_b * GB[:, xb]
        for row, x, y in both:
            np.multiply(GA[:, x], B, out=GC[:, row])
            np.multiply(A, GB[:, y], out=scratch)
            GC[:, row] += scratch

    return run


def _build_batched_kron(instr, program, plan, grad):
    ra, ca = instr.a_shape
    rb, cb = instr.b_shape
    return _build_batched_elementwise(
        instr, program, plan, grad, (ra, 1, ca, 1), (1, rb, 1, cb)
    )


def _build_batched_hadamard(instr, program, plan, grad):
    shape = tuple(instr.a_shape)
    return _build_batched_elementwise(
        instr, program, plan, grad, shape, shape
    )


def _build_batched_transpose(instr, program, plan, grad):
    shape = instr.shape
    perm = instr.perm
    src = plan.value_view(instr.a_buf, shape).transpose(
        (0,) + tuple(p + 1 for p in perm)
    )
    dst = plan.value_view(instr.out_buf, src.shape[1:])

    if not grad or not instr.params:

        def run(params):
            np.copyto(dst, src)

        return run

    gsrc_base = plan.grad_view(instr.a_buf, shape)
    gperm = (0, 1) + tuple(p + 2 for p in perm)
    gsrc = gsrc_base.transpose(gperm)
    gdst = plan.grad_view(instr.out_buf, src.shape[1:])

    def run(params):
        np.copyto(dst, src)
        np.copyto(gdst, gsrc)

    return run


# ----------------------------------------------------------------------
# Grouped batched WRITE
# ----------------------------------------------------------------------

def build_batched_write_group(
    instrs: list[Instruction],
    program: Program,
    plan: MemoryPlan,
    compiled: list[CompiledExpression],
    grad: bool,
):
    """One closure evaluating every WRITE instruction that shares one
    JIT'd expression as a *single* batched writer call.

    All ``instrs`` reference the same ``expr_id`` (hence the same
    compiled writer) and carry parameter slots.  The writer runs once
    with an effective batch of ``G * S`` — gate axis times multi-start
    axis — and the result is scattered into each instruction's arena
    views.  That trades two cheap contiguous copies per instruction for
    a G-fold reduction in ufunc dispatch count, which dominates the
    batched WRITE cost at small batch sizes.  A lone gate (``G == 1``)
    whose slots are in sorted order skips the scratch: the writer
    stores straight into its arena views.

    Reordering is safe: WRITE instructions read no buffers and every
    buffer is written exactly once, so hoisting the group to the start
    of the dynamic section cannot change any consumer's input.
    """
    expr = compiled[instrs[0].expr_id]
    S = plan.batch
    assert S is not None, "WRITE groups run on a batched plan"
    G = len(instrs)
    k = expr.num_params
    shape = expr.shape
    write = expr.write_batched

    #: circuit-parameter row per (expression-parameter, gate): fancy-
    #: indexing ``param_rows`` with this yields a (k*G, S) gather that
    #: reshapes for free into the writer's (k, G*S) layout
    gather = np.array(
        [list(i.slots) for i in instrs], dtype=np.intp
    ).T.ravel()

    copies = []  # (group-scratch view, instruction arena view) pairs
    scatters = []  # (per-slot grad views, gview_t, row map) triples
    lone = instrs[0]
    if G == 1 and (
        not grad
        or tuple(lone.slots) == tuple(program.buffers[lone.out_buf].params)
    ):
        # The writer stores straight into the lone gate's arena views
        # (batch axis moved last): no scratch, no copy.
        out_s = np.moveaxis(plan.value_view(lone.out_buf, shape), 0, -1)
        grad_s = (
            np.moveaxis(plan.grad_view(lone.out_buf, shape), [0, 1], [-1, 0])
            if grad
            else None
        )
    else:
        out_s = np.zeros(shape + (G * S,), dtype=plan.dtype)
        grad_s = (
            np.zeros((k,) + shape + (G * S,), dtype=plan.dtype)
            if grad
            else None
        )
        for g, instr in enumerate(instrs):
            sl = slice(g * S, (g + 1) * S)
            val_t = np.moveaxis(plan.value_view(instr.out_buf, shape), 0, -1)
            copies.append((out_s[..., sl], val_t))
            if not grad:
                continue
            gview_t = np.moveaxis(
                plan.grad_view(instr.out_buf, shape), [0, 1], [-1, 0]
            )
            sorted_params = program.buffers[instr.out_buf].params
            if tuple(instr.slots) == tuple(sorted_params):
                copies.append((grad_s[..., sl], gview_t))
            else:
                row_of = {p: i for i, p in enumerate(sorted_params)}
                rows = [row_of[j] for j in instr.slots]
                scatters.append((grad_s[..., sl], gview_t, rows))
    # The batched writer fetched above carries the constants functions
    # too, so no scalar writer is compiled for this expression.
    expr.write_constants(out_s, grad_s)

    def run(params):
        write(params[gather].reshape(k, G * S), out_s, grad_s)
        for src, dst in copies:
            np.copyto(dst, src)
        for src, gview_t, rows in scatters:
            gview_t[:] = 0
            for s, row in enumerate(rows):
                gview_t[row] += src[s]

    if grad_s is None:

        def run_nograd(params):
            write(params[gather].reshape(k, G * S), out_s)
            for src, dst in copies:
                np.copyto(dst, src)

        return run_nograd
    return run
