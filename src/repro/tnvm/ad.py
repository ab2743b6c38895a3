"""Forward-mode AD instruction specialization (paper section IV-B).

At initialization the batched TNVM turns each bytecode instruction
into a specialized closure (the scalar TNVM emits the same calculus as
one generated megakernel instead, see :mod:`repro.tnvm.fused`).  Every
buffer is one stack of its value row and its gradient rows, in the row
order :func:`~repro.tnvm.buffers.gradient_rows` derives from the
instructions' parameter sets, and the builders apply the calculus to
row spans of those stacks:

* a product's value and every row of its first operand A come out of
  one call (``A[0..Ra] * B[0]``), and the rows of the parameters only
  B depends on out of a second (``A[0] * B[rows]``);
* a parameter both operands depend on gets the product rule: its row
  adds ``A[0] * B[y]`` to the ``A[x] * B[0]`` the first call wrote;
* a ``TRANSPOSE`` copies the whole permuted stack at once.

Every WRITE with parameter slots runs through
:func:`build_batched_write_group`: one batched writer call per JIT'd
expression, covering every gate that uses it (a lone gate included).

All views are precomputed, so the contraction closures perform no
allocation except in products whose operands share a parameter: one
reused scratch matrix, and a gather of the B-only rows when a shared
row interleaves them.
"""

from __future__ import annotations

import numpy as np

from ..jit.compiled import CompiledExpression
from ..tensornet.bytecode import Instruction
from .buffers import MemoryPlan, product_rows

__all__ = [
    "build_batched_closure",
    "build_batched_write_group",
]


def build_batched_closure(
    instr: Instruction,
    plan: MemoryPlan,
    compiled: list[CompiledExpression],
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
        (m, k), (_, n) = instr.a_shape, instr.b_shape
        return _build_batched_product(
            instr, plan, np.matmul, (m, k), (k, n), (m, n)
        )
    if instr.opcode == "KRON":
        (ra, ca), (rb, cb) = instr.a_shape, instr.b_shape
        return _build_batched_product(
            instr, plan, np.multiply,
            (ra, 1, ca, 1), (1, rb, 1, cb), (ra, rb, ca, cb),
        )
    if instr.opcode == "HADAMARD":
        shape = tuple(instr.a_shape)
        return _build_batched_product(
            instr, plan, np.multiply, shape, shape, shape
        )
    if instr.opcode == "TRANSPOSE":
        return _build_batched_transpose(instr, plan)
    raise ValueError(f"unknown opcode {instr.opcode}")


# ----------------------------------------------------------------------
# Batched builders
#
# Every view carries a leading batch axis, and every buffer is one
# (batch, 1 + R, size) stack of its value row and gradient rows (see
# repro.tnvm.buffers).  Contractions (MATMUL/KRON/HADAMARD/TRANSPOSE)
# broadcast over the batch axis in a single numpy call, so the per-
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


def _build_batched_product(instr, plan, ufunc, a_shape, b_shape, out_shape):
    """Shared MATMUL/KRON/HADAMARD batched builder.

    The output's rows are A's rows, then B's parameters that A lacks
    (:func:`~repro.tnvm.buffers.gradient_rows`).  So one call computes
    the value and every A-side row (``A[0..Ra] * B[0]``: one gemm per
    batch element for MATMUL, one broadcast multiply otherwise), one
    stacked call the B-only rows (``A[0] * B[rows]``), and a parameter
    on both sides adds its product-rule addend ``A[0] * B[y]``.
    """
    A, B, C = instr.a_buf, instr.b_buf, instr.out_buf
    a_rows, b_rows = plan.rows[A], plan.rows[B]
    na = 1 + len(a_rows)
    if ufunc is np.matmul and a_shape[0] > 1:
        (m, k), (_, n) = a_shape, b_shape
        lead_a = plan.view(A, 0, na, (na * m, k))
        lead_c = plan.view(C, 0, na, (na * m, n))
        b_val = plan.value_view(B, b_shape)
    else:
        # A broadcast over the stack axis.  A row-vector A (m == 1)
        # takes it too: one gemv per row, as a lone row runs (see the
        # megakernel's emit_product), where stacking would make a gemm.
        lead_a = plan.view(A, 0, na, (na,) + a_shape)
        lead_c = plan.view(C, 0, na, (na,) + out_shape)
        b_val = plan.value_view(B, b_shape)[:, None]

    b_only, shared = product_rows(a_rows, b_rows)
    if not b_only and not shared:

        def run(params):
            ufunc(lead_a, b_val, out=lead_c)

        return run

    a_val = plan.value_view(A, a_shape)
    b_stack = plan.stack_view(B, b_shape)
    c_stack = plan.stack_view(C, out_shape)
    # B-only rows are a span unless a shared parameter interleaves
    # them; then they are gathered (on an input).
    lo = b_only[0] if b_only else 0
    gather = bool(b_only) and b_only[-1] - lo >= len(b_only)
    rows_b = np.asarray(b_only, dtype=np.intp) if gather else None
    span_b = b_stack[:, lo: lo + len(b_only)]
    out_b = c_stack[:, na: na + len(b_only)]
    a_b = a_val[:, None]  # (batch, 1, ...) broadcast over B's rows
    scratch = (
        np.zeros((plan.batch,) + tuple(out_shape), dtype=plan.dtype)
        if shared
        else None
    )

    def run(params):
        ufunc(lead_a, b_val, out=lead_c)
        if b_only:
            src = b_stack[:, rows_b] if gather else span_b
            ufunc(a_b, src, out=out_b)
        for x, y in shared:
            # Product rule: the row already holds A[x] * B[0].
            ufunc(a_val, b_stack[:, y], out=scratch)
            c_stack[:, x] += scratch

    return run


def _build_batched_transpose(instr, plan):
    """One copy of the permuted stack: the output's rows are its
    input's rows."""
    perm = (0, 1) + tuple(p + 2 for p in instr.perm)
    src = plan.stack_view(instr.a_buf, instr.shape).transpose(perm)
    dst = plan.stack_view(instr.out_buf, src.shape[2:])

    def run(params):
        np.copyto(dst, src)

    return run


# ----------------------------------------------------------------------
# Grouped batched WRITE
# ----------------------------------------------------------------------

def build_batched_write_group(
    instrs: list[Instruction],
    plan: MemoryPlan,
    compiled: list[CompiledExpression],
    grad: bool,
):
    """One closure evaluating every WRITE instruction that shares one
    JIT'd expression as a *single* batched writer call.

    All ``instrs`` reference the same ``expr_id`` (hence the same
    compiled writer) and carry parameter slots.  The writer runs once
    with an effective batch of ``G * S`` — gate axis times multi-start
    axis — into one ``(1 + k, ..., G * S)`` scratch stack, and each
    instruction's slice is copied into its arena stack.  That trades
    one cheap copy per instruction for a G-fold reduction in ufunc
    dispatch count, which dominates the batched WRITE cost at small
    batch sizes.  A gate's gradient rows follow its slots
    (:func:`~repro.tnvm.buffers.gradient_rows`), so a gate with unique
    slots takes its whole stack in that one copy, and a lone gate
    (``G == 1``) with unique slots skips the scratch: the writer stores
    straight into its arena stack.  Only duplicated slots accumulate
    their rows one by one.

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
    n = 1 + k if grad else 1  # stack rows the writer fills

    #: circuit-parameter row per (expression-parameter, gate): fancy-
    #: indexing ``param_rows`` with this yields a (k*G, S) gather that
    #: reshapes for free into the writer's (k, G*S) layout
    gather = np.array(
        [list(i.slots) for i in instrs], dtype=np.intp
    ).T.ravel()

    def stack_t(instr, rows):
        """An instruction's leading ``rows`` stack rows, batch axis
        moved last: ``(rows,) + shape + (S,)``."""
        view = plan.view(instr.out_buf, 0, rows, (rows,) + shape)
        return np.moveaxis(view, 0, -1)

    def direct(instr):
        return not grad or len(plan.rows[instr.out_buf]) == k

    copies = []  # (group-scratch view, instruction arena view) pairs
    scatters = []  # (per-slot scratch rows, arena grad rows, row map)
    if G == 1 and direct(instrs[0]):
        stack_s = stack_t(instrs[0], n)
    else:
        stack_s = np.zeros((n,) + shape + (G * S,), dtype=plan.dtype)
        for g, instr in enumerate(instrs):
            sl = slice(g * S, (g + 1) * S)
            if direct(instr):
                copies.append((stack_s[..., sl], stack_t(instr, n)))
                continue
            rows = plan.rows[instr.out_buf]
            arena = stack_t(instr, 1 + len(rows))
            copies.append((stack_s[0, ..., sl], arena[0]))
            scatters.append((
                stack_s[1:, ..., sl],
                arena[1:],
                [rows.index(j) for j in instr.slots],
            ))
    out_s = stack_s[0]
    grad_s = stack_s[1:] if grad else None
    # The batched writer fetched above carries the constants functions
    # too, so no scalar writer is compiled for this expression.
    expr.write_constants(out_s, grad_s)

    def run(params):
        write(params[gather].reshape(k, G * S), out_s, grad_s)
        for src, dst in copies:
            np.copyto(dst, src)
        for src, dst, rows in scatters:
            dst[:] = 0
            for s, row in enumerate(rows):
                dst[row] += src[s]

    if grad_s is None:

        def run_nograd(params):
            write(params[gather].reshape(k, G * S), out_s)
            for src, dst in copies:
                np.copyto(dst, src)

        return run_nograd
    return run
