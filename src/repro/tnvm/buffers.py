"""Memory planning for the TNVM.

The TNVM allocates a single contiguous complex arena for every tensor
the program touches (paper section IV-B: "a single, contiguous memory
region to house all intermediate tensors, eliminating dynamic
allocation overhead during execution").  Each abstract buffer from the
bytecode owns one contiguous *stack* in it: row 0 holds the buffer's
value and rows ``1..R`` its forward-mode gradient rows, one per circuit
parameter the buffer depends on (``R = 0`` for constant buffers and
without differentiation).  Views are materialized once at
initialization.

:func:`gradient_rows` is the one owner of the row order.  It chooses
the order so that every instruction reads and writes row spans: a
product's value and all its first-operand rows come out of one
row-stacked call, the second operand's remaining rows out of one
stacked call, and a ``TRANSPOSE`` is one copy of the whole stack.
"""

from __future__ import annotations

import numpy as np

from ..tensornet.bytecode import Program

__all__ = ["MemoryPlan", "gradient_rows", "product_rows"]


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


def product_rows(
    a_rows: tuple[int, ...], b_rows: tuple[int, ...]
) -> tuple[list[int], list[tuple[int, int]]]:
    """Where a product's B-side gradient rows land, under
    :func:`gradient_rows`.

    The output's leading ``1 + len(a_rows)`` stack rows hold the value
    and A's rows; the B-only rows follow them.  Returns the B stack
    rows of the parameters A lacks, in B's order, and an
    ``(output stack row, B stack row)`` pair per parameter on both
    sides (its row needs the product-rule addend).
    """
    a_row = {p: 1 + x for x, p in enumerate(a_rows)}
    b_only = [1 + y for y, p in enumerate(b_rows) if p not in a_row]
    shared = [(a_row[p], 1 + y) for y, p in enumerate(b_rows) if p in a_row]
    return b_only, shared


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

    def stack_view(
        self, buffer_id: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        """A buffer's whole stack, ``(1 + R,) + shape``."""
        n = 1 + len(self.rows[buffer_id])
        return self.view(buffer_id, 0, n, (n,) + tuple(shape))

    def value_view(
        self, buffer_id: int, shape: tuple[int, ...]
    ) -> np.ndarray:
        """A buffer's value row, viewed as ``shape``."""
        return self.view(buffer_id, 0, 1, shape)

    def grad_view(
        self, buffer_id: int, shape: tuple[int, ...]
    ) -> np.ndarray | None:
        """A buffer's gradient rows, ``(R,) + shape`` in
        :attr:`rows` order; None for a buffer without gradient rows."""
        n = len(self.rows[buffer_id])
        if not n:
            return None
        return self.view(buffer_id, 1, 1 + n, (n,) + tuple(shape))
