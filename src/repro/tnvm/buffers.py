"""Memory planning for the TNVM.

The TNVM allocates a single contiguous complex arena for all tensor
values and a second arena for all forward-mode gradient stacks (paper
section IV-B: "a single, contiguous memory region to house all
intermediate tensors, eliminating dynamic allocation overhead during
execution").  Each abstract buffer from the bytecode maps to an offset
slice; views are materialized once at initialization.
"""

from __future__ import annotations

import numpy as np

from ..tensornet.bytecode import Program

__all__ = ["MemoryPlan"]


class MemoryPlan:
    """Arena layout and per-buffer views for one TNVM instance.

    With ``batch`` set (the batched TNVM), the arenas hold one copy of
    every buffer per batch element, so ``batch`` multi-start parameter
    sets evaluate as one vectorized sweep, and every view gains a
    leading batch axis.  The layout is buffer-major: each buffer's
    ``(batch, size)`` block is contiguous, which keeps every batched
    contraction (``np.matmul`` over a leading batch axis, broadcast
    multiplies) on dense memory.
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
        lead = () if batch is None else (batch,)
        copies = 1 if batch is None else batch
        value_sizes = [copies * spec.size for spec in program.buffers]
        value_offsets = np.concatenate(([0], np.cumsum(value_sizes)))
        self.value_arena = np.zeros(int(value_offsets[-1]), dtype=self.dtype)
        #: value storage per buffer id: flat ``(size,)``, or
        #: ``(batch, size)`` with a batch
        self.values: list[np.ndarray] = [
            self.value_arena[
                value_offsets[i]: value_offsets[i + 1]
            ].reshape(lead + (-1,))
            for i in range(len(value_sizes))
        ]

        #: gradient stack per buffer id: ``(n_params, size)``, or
        #: ``(batch, n_params, size)`` with a batch; None for
        #: constant/no-gradient buffers
        self.grads: list[np.ndarray | None] = [None] * len(value_sizes)
        grad_bytes = 0
        if grad:
            grad_sizes = [
                copies * len(spec.params) * spec.size if spec.params else 0
                for spec in program.buffers
            ]
            grad_offsets = np.concatenate(([0], np.cumsum(grad_sizes)))
            self.grad_arena = np.zeros(
                int(grad_offsets[-1]), dtype=self.dtype
            )
            for i, spec in enumerate(program.buffers):
                if spec.params:
                    flat = self.grad_arena[
                        grad_offsets[i]: grad_offsets[i + 1]
                    ]
                    self.grads[i] = flat.reshape(
                        lead + (len(spec.params), spec.size)
                    )
            grad_bytes = self.grad_arena.nbytes
        else:
            self.grad_arena = np.zeros(0, dtype=self.dtype)

        self.memory_bytes = self.value_arena.nbytes + grad_bytes

    def value_view(self, buffer_id: int, shape: tuple[int, ...]) -> np.ndarray:
        """A reshaped view of a buffer's value storage (``shape``, after
        the batch axis when there is one)."""
        v = self.values[buffer_id]
        return v.reshape(v.shape[:-1] + tuple(shape))

    def grad_view(
        self, buffer_id: int, shape: tuple[int, ...]
    ) -> np.ndarray | None:
        """A reshaped view of a buffer's gradient stack.

        The parameter axis (after the batch axis, when there is one)
        runs over the buffer's parameter set (sorted circuit-parameter
        order from the bytecode annotation).
        """
        g = self.grads[buffer_id]
        if g is None:
            return None
        return g.reshape(g.shape[:-1] + tuple(shape))
