"""Memory planning and contraction lowering for the TNVM.

The TNVM allocates a single contiguous complex arena for every tensor
the program touches (paper section IV-B: "a single, contiguous memory
region to house all intermediate tensors, eliminating dynamic
allocation overhead during execution").  Each abstract buffer from the
bytecode owns one contiguous *stack* in it: row 0 holds the buffer's
value and rows ``1..R`` its forward-mode gradient rows, one per circuit
parameter the buffer depends on (``R = 0`` for constant buffers and
without differentiation).  Views are materialized once at
initialization.

This module makes the decisions both VMs share.
:func:`gradient_rows` fixes every buffer's row order,
:func:`write_layout` fixes where a ``WRITE`` stores each of its gate's
entries, and :func:`contraction_calls` lowers each ``MATMUL``/``KRON``
/``HADAMARD``/``TRANSPOSE`` to the numpy calls that apply the
forward-mode calculus to row spans of those stacks:

* a product's value and every row of its first operand A come out of
  one call, ``A[0..Ra] * B[0]``: one row-stacked gemm for ``MATMUL``,
  one broadcast multiply over the stack axis otherwise.  A row-vector
  A (``m == 1``) keeps one product per row, because numpy runs it as a
  gemv, and stacking would make it a gemm with different complex64
  rounding;
* the rows of the parameters only B depends on come out of a second,
  ``A[0] * B[rows]``, over a span of B's stack, or a gather when a
  shared parameter interleaves them;
* a parameter on both operands adds its product-rule addend
  ``A[0] * B[y]``, through a scratch array, to the ``A[x] * B[0]`` the
  first call wrote;
* a ``TRANSPOSE`` copies the whole permuted stack at once.

The scalar megakernel (:mod:`repro.tnvm.fused`) prints these calls,
and the batched VM (:mod:`repro.tnvm.ad`) binds them on
:meth:`MemoryPlan.view` behind its batch axis, so both VMs make the
same calls on the same rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..tensornet.bytecode import Instruction, Program

__all__ = [
    "Call",
    "MemoryPlan",
    "StackView",
    "contraction_calls",
    "gradient_rows",
    "write_layout",
]


def gradient_rows(program: Program) -> list[tuple[int, ...]]:
    """Each buffer's gradient-row order: the circuit parameter held by
    stack row 1, 2, ... of the buffer, derived from the instruction
    that writes it.

    * ``WRITE``: the instruction's slots in slot order, each duplicate
      once, so a gate with unique slots writes each partial straight
      into its row;
    * ``MATMUL``/``KRON``/``HADAMARD``: the A operand's rows, then B's
      parameters that A lacks, in B's order, so the value and every
      A-side row are one product of A's leading rows with B's value;
    * ``TRANSPOSE``: its input's rows, so the stack permutes in one
      copy;
    * constant buffers: none.
    """
    rows: list[tuple[int, ...]] = [()] * len(program.buffers)
    for instr in program.dynamic_section:
        if instr.opcode == "WRITE":
            order = tuple(dict.fromkeys(instr.slots))
        elif instr.opcode == "TRANSPOSE":
            order = rows[instr.a_buf]
        else:
            a_rows = rows[instr.a_buf]
            seen = set(a_rows)
            order = a_rows + tuple(
                p for p in rows[instr.b_buf] if p not in seen
            )
        rows[instr.out_buf] = order
    return rows


def write_layout(
    instr: Instruction, shape: tuple[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where a ``WRITE`` of an expression of matrix ``shape`` stores
    its entries, as a relabelling: ``(dims, axes)`` such that the output
    buffer viewed as ``dims`` with its axes transposed by ``axes`` holds
    the expression's entries in their canonical order (that view,
    reshaped to ``shape``, is the gate's matrix).

    A WRITE's ``shape``/``perm`` layout is the reshape-permute a
    ``TRANSPOSE`` would apply to the gate's matrix, so its buffer is
    viewed as the permuted ``shape`` and transposed back by the
    inverse of ``perm``.  The identity layout (both empty) gives
    ``(shape, (0, 1))``.  Both VMs relabel through this: the
    megakernel stores entry ``(i, j)`` at its permuted position, and
    the batched VM copies its canonical group scratch through the
    view.
    """
    if not instr.perm:
        return tuple(shape), (0, 1)
    dims = tuple(instr.shape[p] for p in instr.perm)
    axes = tuple(int(a) for a in np.argsort(instr.perm))
    return dims, axes


class StackView(NamedTuple):
    """One operand of a :class:`Call`: stack rows ``lo..hi`` of
    ``buffer`` viewed as ``shape``, with its axes then permuted by
    ``perm``.  ``pick`` takes stack rows along the first axis: one row
    (an int, still a view) or several (a tuple, a gather).  A
    ``buffer`` of None is the instruction's scratch array."""

    buffer: int | None
    lo: int
    hi: int
    shape: tuple[int, ...]
    perm: tuple[int, ...] = ()
    pick: int | tuple[int, ...] | None = None


class Call(NamedTuple):
    """One numpy call: ``np.<op>(*args, out=out)`` for ``matmul`` and
    ``multiply``; ``copyto`` copies ``args[0]`` into ``out`` and
    ``add`` adds it there."""

    op: str
    out: StackView
    args: tuple[StackView, ...]


def contraction_calls(
    instr: Instruction, rows: list[tuple[int, ...]]
) -> list[Call]:
    """The numpy calls that run one ``MATMUL``/``KRON``/``HADAMARD``/
    ``TRANSPOSE``, given every buffer's gradient rows
    (:func:`gradient_rows`, or all empty without differentiation).

    KRON views its operands with interleaved singleton axes, so a
    broadcast multiply is the outer product.  A batched VM puts its
    batch axis in front of every view and pads an operand with
    singleton axes after it up to the output's rank, so every operand
    broadcasts as it does here.
    """
    A, C = instr.a_buf, instr.out_buf
    na = 1 + len(rows[A])
    if instr.opcode == "TRANSPOSE":
        shape = tuple(instr.shape)
        out_shape = tuple(shape[p] for p in instr.perm)
        perm = (0,) + tuple(p + 1 for p in instr.perm)
        src = StackView(A, 0, na, (na,) + shape, perm)
        return [Call("copyto", StackView(C, 0, na, (na,) + out_shape), (src,))]
    if instr.opcode == "MATMUL":
        (m, k), (_, n) = instr.a_shape, instr.b_shape
        op, a_shape, b_shape, out_shape = "matmul", (m, k), (k, n), (m, n)
    elif instr.opcode == "KRON":
        (ra, ca), (rb, cb) = instr.a_shape, instr.b_shape
        op, out_shape = "multiply", (ra, rb, ca, cb)
        a_shape, b_shape = (ra, 1, ca, 1), (1, rb, 1, cb)
    elif instr.opcode == "HADAMARD":
        op = "multiply"
        a_shape = b_shape = out_shape = tuple(instr.a_shape)
    else:
        raise ValueError(f"{instr.opcode} is not a contraction")
    B = instr.b_buf
    if op == "matmul" and m > 1:
        lead_a, lead_c = (na * m, k), (na * m, n)
    else:
        lead_a, lead_c = (na,) + a_shape, (na,) + out_shape
    lead = (StackView(A, 0, na, lead_a), StackView(B, 0, 1, b_shape))
    calls = [Call(op, StackView(C, 0, na, lead_c), lead)]
    a_row = {p: x for x, p in enumerate(rows[A], 1)}
    b_rows = rows[B]
    b_only = [y for y, p in enumerate(b_rows, 1) if p not in a_row]
    a_val = StackView(A, 0, 1, a_shape)
    nb = 1 + len(b_rows)
    b_stack = StackView(B, 0, nb, (nb,) + b_shape)
    if b_only:
        r, lo = len(b_only), b_only[0]
        if b_only[-1] - lo >= r:  # a shared row interleaves them
            src = b_stack._replace(pick=tuple(b_only))
        else:
            src = StackView(B, lo, lo + r, (r,) + b_shape)
        out = StackView(C, na, na + r, (r,) + out_shape)
        calls.append(Call(op, out, (a_val, src)))
    nc = na + len(b_only)
    c_stack = StackView(C, 0, nc, (nc,) + out_shape)
    scratch = StackView(None, 0, 1, out_shape)
    for y, p in enumerate(b_rows, 1):
        if p in a_row:
            calls.append(Call(op, scratch, (a_val, b_stack._replace(pick=y))))
            row = c_stack._replace(pick=a_row[p])
            calls.append(Call("add", row, (scratch,)))
    return calls


class MemoryPlan:
    """Arena layout and per-buffer stack views for one TNVM instance.

    With ``batch`` set (the batched TNVM), the arena holds one copy of
    every stack per batch element, so ``batch`` multi-start parameter
    sets evaluate as one vectorized sweep, and every view gains a
    leading batch axis.  The layout is buffer-major: each buffer's
    ``(batch, 1 + R, size)`` block is contiguous, and every row span
    of one batch element is dense, so each batched contraction runs
    one BLAS call (or one broadcast multiply) per batch element.
    """

    def __init__(
        self,
        program: Program,
        dtype: np.dtype,
        grad: bool,
        batch: int | None = None,
    ):
        if batch is not None and batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.dtype = np.dtype(dtype)
        self.batch = batch
        #: per buffer, the circuit parameter of each gradient row
        #: (:func:`gradient_rows`); empty without differentiation
        self.rows: list[tuple[int, ...]] = (
            gradient_rows(program) if grad else [()] * len(program.buffers)
        )
        self.sizes = [spec.size for spec in program.buffers]
        copies = 1 if batch is None else batch
        spans = [
            copies * (1 + len(rows)) * size
            for rows, size in zip(self.rows, self.sizes)
        ]
        offsets = np.concatenate(([0], np.cumsum(spans, dtype=np.intp)))
        self.arena = np.zeros(int(offsets[-1]), dtype=self.dtype)
        lead = () if batch is None else (batch,)
        #: per buffer, its whole stack flattened: ``((1 + R) * size,)``,
        #: or ``(batch, (1 + R) * size)`` with a batch
        self.stacks: list[np.ndarray] = [
            self.arena[offsets[i]: offsets[i + 1]].reshape(lead + (-1,))
            for i in range(len(spans))
        ]
        self.memory_bytes = self.arena.nbytes

    def view(
        self, buffer_id: int, lo: int, hi: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Stack rows ``lo..hi`` of a buffer as one array of ``shape``
        (after the batch axis when there is one).

        A row span is dense, so any ``shape`` with its element count
        is a view, never a copy.
        """
        size = self.sizes[buffer_id]
        span = self.stacks[buffer_id][..., lo * size: hi * size]
        return span.reshape(span.shape[:-1] + tuple(shape))
