"""Forward-mode AD instruction specialization (paper section IV-B).

At initialization the batched TNVM turns each bytecode instruction
into batch-vectorized closures over views precomputed on
:meth:`~repro.tnvm.buffers.MemoryPlan.view`: one closure per numpy
call :func:`~repro.tnvm.buffers.contraction_calls` lowers a
contraction to (the scalar TNVM prints the same calls into its
megakernel, see :mod:`repro.tnvm.fused`), and one batched writer call
per JIT'd expression for every WRITE with parameter slots
(:func:`build_batched_write_group`).  The closures allocate nothing
but a gather of B-only rows that a shared parameter interleaves.
"""

from __future__ import annotations

import numpy as np

from ..jit.compiled import CompiledExpression
from ..tensornet.bytecode import Instruction
from .buffers import MemoryPlan, StackView, contraction_calls, write_layout

__all__ = [
    "build_batched_calls",
    "build_batched_write_group",
]


def build_batched_calls(
    instr: Instruction,
    plan: MemoryPlan,
    compiled: list[CompiledExpression],
):
    """The argument-free batch-vectorized closures that run one
    instruction, in order, on a batched
    :class:`~repro.tnvm.buffers.MemoryPlan`: one per call of
    :func:`~repro.tnvm.buffers.contraction_calls` for a contraction.
    A WRITE here must be parameter-free; every WRITE with parameter
    slots runs through :func:`build_batched_write_group`.
    """
    if instr.opcode == "WRITE":
        return [_build_batched_write(instr, plan, compiled)]
    arrays: dict[StackView, np.ndarray] = {}

    def bind(v: StackView, ndim: int = 0) -> np.ndarray:
        # Batch axis first, then singleton axes up to ``ndim`` (the
        # output's), so the operand broadcasts as in the scalar call.
        key = v._replace(pick=None)
        arr = arrays.get(key)
        if arr is None:
            if v.buffer is None:
                arr = np.zeros((plan.batch,) + v.shape, dtype=plan.dtype)
            else:
                arr = plan.view(v.buffer, v.lo, v.hi, v.shape)
                if v.perm:
                    arr = arr.transpose((0,) + tuple(p + 1 for p in v.perm))
            arrays[key] = arr
        if isinstance(v.pick, int):
            arr = arr[:, v.pick]
        return arr[(slice(None),) + (None,) * (ndim - arr.ndim)]

    runs = []
    for call in contraction_calls(instr, plan.rows):
        out = bind(call.out)
        args = [bind(v, out.ndim) for v in call.args]
        if call.op == "copyto":
            runs.append(_copy(out, args[0]))
        elif call.op == "add":
            runs.append(_product(np.add, out, args[0], out))
        elif isinstance(call.args[1].pick, tuple):
            rows = np.asarray(call.args[1].pick, dtype=np.intp)
            runs.append(_gathered(getattr(np, call.op), *args, rows, out))
        else:
            runs.append(_product(getattr(np, call.op), *args, out))
    return runs


def _product(ufunc, a, b, out):
    def run():
        ufunc(a, b, out=out)

    return run


def _gathered(ufunc, a, stack, rows, out):
    def run():
        ufunc(a, stack[:, rows], out=out)

    return run


def _copy(out, src):
    def run():
        np.copyto(out, src)

    return run


def _laid_out(plan: MemoryPlan, instr: Instruction, rows: int, shape):
    """A WRITE's leading ``rows`` stack rows in its gate's entry order,
    batch axis moved last: ``(rows,) + dims + (S,)``, where ``dims``
    is ``shape`` for the identity layout, else the layout's tensor
    shape (:func:`~repro.tnvm.buffers.write_layout`).  A canonical
    array reshaped to this view's shape copies straight in."""
    dims, axes = write_layout(instr, shape)
    view = plan.view(instr.out_buf, 0, rows, (rows,) + dims)
    return view.transpose((1,) + tuple(a + 2 for a in axes) + (0,))


def _build_batched_write(instr, plan, compiled):
    # Parameter-free: the scalar writers fill one canonical temporary
    # once, and every run copies it, laid out, into each batch element.
    expr = compiled[instr.expr_id]
    dst = _laid_out(plan, instr, 1, expr.shape)
    value = np.zeros(expr.shape, dtype=plan.dtype)
    expr.write_constants(value)
    expr.write((), value)
    src = value.reshape(dst.shape[:-1] + (1,))

    def run_const():
        np.copyto(dst, src)

    return run_const


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

    The closure has signature ``run(param_rows)``, where
    ``param_rows`` is a ``(num_params, batch)`` float array: row ``k``
    holds parameter ``k`` for every batch element.
    All ``instrs`` reference the same ``expr_id`` (hence the same
    compiled writer) and carry parameter slots.  The writer runs once
    with an effective batch of ``G * S`` — gate axis times multi-start
    axis — into one ``(1 + k, ..., G * S)`` scratch stack, and each
    instruction's slice is copied into its arena stack.  That trades
    one cheap copy per instruction for a G-fold reduction in ufunc
    dispatch count, which dominates the batched WRITE cost at small
    batch sizes.  The copy also applies the gate's WRITE layout
    (:func:`~repro.tnvm.buffers.write_layout`): the scratch holds the
    canonical entries, so the gates of one expression group together
    whatever layouts their consumers read.  A gate's gradient rows
    follow its slots (:func:`~repro.tnvm.buffers.gradient_rows`), so a
    gate with unique slots takes its whole stack in that one copy, and
    a lone gate (``G == 1``) with unique slots and the identity layout
    skips the scratch: the writer stores straight into its arena
    stack.  Only duplicated slots accumulate their rows one by one.

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

    def direct(instr):
        return not grad or len(plan.rows[instr.out_buf]) == k

    copies = []  # (group-scratch view, instruction arena view) pairs
    scatters = []  # (per-slot scratch rows, arena grad rows, row map)
    if G == 1 and direct(instrs[0]) and not instrs[0].perm:
        stack_s = _laid_out(plan, instrs[0], n, shape)
    else:
        stack_s = np.zeros((n,) + shape + (G * S,), dtype=plan.dtype)
        for g, instr in enumerate(instrs):
            rows = plan.rows[instr.out_buf]
            arena = _laid_out(
                plan, instr, n if direct(instr) else 1 + len(rows), shape
            )
            # The scratch is contiguous, so this reshape is a view.
            dims = arena.shape[1:-1]
            scratch = stack_s.reshape((n,) + dims + (G * S,))
            scratch = scratch[..., g * S:(g + 1) * S]
            if direct(instr):
                copies.append((scratch, arena))
                continue
            copies.append((scratch[0], arena[0]))
            scatters.append((
                scratch[1:],
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
