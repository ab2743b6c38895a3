"""The Tensor Network Virtual Machine (paper section IV-B).

A TNVM executes the two-section bytecode produced by the AOT compiler.
Both VMs share the one-time preparatory steps:

1. allocate one contiguous memory region for all intermediate tensors
   (:class:`~repro.tnvm.buffers.MemoryPlan`): each buffer is one stack
   of its value row and its gradient rows, in the row order
   :func:`~repro.tnvm.buffers.gradient_rows` derives from the program,
   and the batched VM's views carry a leading batch axis;
2. fetch every unique QGL expression referenced by the ``WRITE``
   instructions through the shared ``ExpressionCache``;
3. specialize every instruction for the requested precision and
   differentiation level, and execute the constant section once.

Each VM then has exactly one execution path.  The scalar :class:`TNVM`
runs the whole program as one generated megakernel
(:mod:`repro.tnvm.fused`): binding it runs the constant section, and
every sweep is a single call.  The :class:`BatchedTNVM` sweeps a list
of pre-bound batch-vectorized closures (:mod:`repro.tnvm.ad`): the
WRITEs of each JIT'd expression run as one grouped writer call, and a
lone gate with unique slots writes in place.  Both make the numpy
calls :func:`~repro.tnvm.buffers.contraction_calls` lowers each
contraction to.  Either way a sweep does no dispatch on opcodes and no
compilation, and allocates only to gather B-only gradient rows around
a parameter both operands of a product depend on.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from .. import telemetry
from ..jit.cache import ExpressionCache, global_cache
from ..jit.compiled import CompiledExpression
from ..tensornet.bytecode import Instruction, Program
from ..tensornet.contract import OutputContract
from .ad import build_batched_calls, build_batched_write_group
from .buffers import MemoryPlan
from .fused import bind_fused_kernel, fused_kernel_for

__all__ = ["Differentiation", "TNVM", "BatchedTNVM", "fetch_compiled"]


class Differentiation(enum.Enum):
    """Requested differentiation level: values only, or values plus
    the forward-mode gradient."""

    NONE = 0
    GRADIENT = 1


_DTYPES = {
    "f32": np.complex64,
    "f64": np.complex128,
    np.complex64: np.complex64,
    np.complex128: np.complex128,
}


def fetch_compiled(
    program: Program, cache: ExpressionCache | None, grad: bool
) -> list[CompiledExpression]:
    """The compiled form of every entry of ``program``'s expression
    table, fetched through ``cache`` (default: the process-wide cache),
    with gradients when ``grad`` and the expression takes parameters.

    VM set-up and engine serialization both fetch here, so a payload
    ships exactly the entries the VMs run.
    """
    # (`is None`, not truthiness: an empty cache is falsy via its
    # __len__ but must still be used.)
    if cache is None:
        cache = global_cache()
    return [
        cache.get(expr, grad=grad and expr.num_params > 0)
        for expr in program.expressions
    ]


class _VM:
    """Set-up and introspection shared by :class:`TNVM` and
    :class:`BatchedTNVM`.  Each VM defines ``__init__``, ``evaluate``
    and ``evaluate_with_grad`` in its own class body."""

    def _setup(
        self,
        program: Program,
        precision: str,
        diff: Differentiation,
        cache: ExpressionCache | None,
        batch: int | None = None,
    ) -> bool:
        """Allocate the arena (one copy per batch element with
        ``batch``), fetch every expression the WRITEs reference
        (:func:`fetch_compiled`), and bind the contract-shaped output
        views and the full-gradient buffer.  Returns whether the VM
        computes gradients."""
        try:
            dtype = _DTYPES[precision]
        except KeyError:
            raise ValueError(
                f"precision must be 'f32' or 'f64', got {precision!r}"
            ) from None
        self.program = program
        self.contract = OutputContract.from_program_key(program.contract)
        self.precision = "f32" if dtype == np.complex64 else "f64"
        self.diff = diff
        self.num_params = program.num_params
        want_grad = diff is Differentiation.GRADIENT

        self.plan = MemoryPlan(program, dtype, want_grad, batch)
        self.compiled = fetch_compiled(program, cache, want_grad)

        dim = program.output_shape[0]
        # Contract-shaped output: column programs propagate a (D,)
        # vector through the dynamic section; full programs a (D, D)
        # matrix.
        out_shape = (dim,) if self.contract.column_based else (dim, dim)
        out, rows = program.output_buffer, self.plan.rows[program.output_buffer]
        self._out_view = self.plan.view(out, 0, 1, out_shape)
        #: the circuit parameter of each output gradient row, in the
        #: plan's row order: one vectorized scatter per sweep
        self._out_rows_idx = np.asarray(rows, dtype=np.intp)
        self._out_grad_view = self.plan.view(
            out, 1, 1 + len(rows), (len(rows),) + out_shape
        )
        lead = () if batch is None else (batch,)
        self._full_grad = (
            np.zeros(lead + (self.num_params,) + out_shape, dtype=dtype)
            if want_grad
            else None
        )
        return want_grad

    @property
    def memory_bytes(self) -> int:
        """Size of the preallocated arena (the paper's 211KB metric)."""
        return self.plan.memory_bytes

    @property
    def dim(self) -> int:
        return self.program.output_shape[0]


class TNVM(_VM):
    """A virtual machine bound to one bytecode program.

    Parameters
    ----------
    program:
        Output of :func:`repro.tensornet.compile_network`.
    precision:
        ``"f32"`` or ``"f64"`` (the generic precision parameter the
        paper highlights in section VI-C).
    diff:
        ``Differentiation.NONE`` or ``Differentiation.GRADIENT``.
    cache:
        Expression cache to pull JIT'd expressions from; defaults to
        the process-wide shared cache.

    The program runs as one generated megakernel
    (:mod:`repro.tnvm.fused`), cached on ``program`` and exposed as
    :attr:`fused_kernel`.

    :attr:`contract` is the program's compiled
    :class:`~repro.tensornet.contract.OutputContract`; it fixes the
    output shapes (the one evaluate surface):

    ==============  =====================  ============================
    contract        ``evaluate``           ``evaluate_with_grad``
    ==============  =====================  ============================
    FULL_UNITARY    ``(D, D)``             ``(D, D)``, ``(P, D, D)``
    COLUMN(j)       ``(D,)``               ``(D,)``, ``(P, D)``
    ==============  =====================  ============================
    """

    def __init__(
        self,
        program: Program,
        precision: str = "f64",
        diff: Differentiation = Differentiation.GRADIENT,
        cache: ExpressionCache | None = None,
    ):
        want_grad = self._setup(program, precision, diff, cache)
        # The whole program as ONE generated function; binding it runs
        # the constant section into this VM's arena.  Sweep counters
        # are bound here so the hot path below pays one attribute add
        # per sweep, no registry lookup or lock.
        registry = telemetry.metrics()
        self._sweeps = registry.counter("vm.sweeps")
        self._grad_sweeps = registry.counter("vm.grad_sweeps")
        self.fused_kernel = fused_kernel_for(program, self.compiled, want_grad)
        self._run = bind_fused_kernel(self.fused_kernel, self.plan)

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def evaluate(self, params: Sequence[float] = ()):
        """Compute the program output under the VM's contract.

        Full-unitary contracts return the ``(D, D)`` unitary, column
        contracts the ``(D,)`` column vector — both as *views* into
        the VM's arena, valid until the next ``evaluate`` call (copy to
        retain).
        """
        self._check(params)
        self._sweeps.add()
        self._run(params)
        return self._out_view

    def evaluate_with_grad(self, params: Sequence[float] = ()):
        """Compute the contract output and its gradient.

        Shapes per contract: full ``((D, D), (P, D, D))``, column
        ``((D,), (P, D))`` — with zero gradient rows for parameters
        the output does not depend on.  Returns are views/buffers
        reused across calls.
        """
        if self.diff is not Differentiation.GRADIENT:
            raise RuntimeError(
                "TNVM was instantiated with Differentiation.NONE"
            )
        self._check(params)
        self._grad_sweeps.add()
        self._run(params)
        self._full_grad[self._out_rows_idx] = self._out_grad_view
        return self._out_view, self._full_grad

    def _check(self, params: Sequence[float]) -> None:
        if len(params) != self.num_params:
            raise ValueError(
                f"program expects {self.num_params} parameters, "
                f"got {len(params)}"
            )

    def __repr__(self) -> str:
        return (
            f"<TNVM {self.precision} diff={self.diff.name} "
            f"contract={self.contract.describe()} "
            f"params={self.num_params} dim={self.dim} "
            f"mem={self.memory_bytes}B>"
        )


class BatchedTNVM(_VM):
    """A TNVM that evaluates ``batch`` parameter sets per sweep.

    Semantically equivalent to ``batch`` independent :class:`TNVM`
    instances, but every instruction executes once per sweep as a
    vectorized numpy operation over a leading batch axis, so the
    Python dispatch and kernel-launch overhead of the bytecode loop is
    amortized across all batch elements.  This is the engine behind
    batched multi-start instantiation: all ``S`` LM starts advance
    through one shared arena.

    Parameters match :class:`TNVM` plus ``batch``, the fixed number of
    parameter sets per evaluation.  :attr:`contract` is again the
    program's compiled contract; its output shapes carry a leading
    batch axis:

    ==============  =====================  ============================
    contract        ``evaluate``           ``evaluate_with_grad``
    ==============  =====================  ============================
    FULL_UNITARY    ``(B, D, D)``          ``(B, D, D)``, ``(B, P, D, D)``
    COLUMN(j)       ``(B, D)``             ``(B, D)``, ``(B, P, D)``
    ==============  =====================  ============================
    """

    #: the batched VM sweeps per-instruction closures, never a
    #: megakernel (the attribute mirrors :attr:`TNVM.fused_kernel`)
    fused_kernel = None

    def __init__(
        self,
        program: Program,
        batch: int,
        precision: str = "f64",
        diff: Differentiation = Differentiation.GRADIENT,
        cache: ExpressionCache | None = None,
    ):
        self.batch = int(batch)
        want_grad = self._setup(program, precision, diff, cache, self.batch)
        for instr in program.const_section:
            for call in build_batched_calls(instr, self.plan, self.compiled):
                call()

        registry = telemetry.metrics()
        self._sweeps = registry.counter("vm.batched_sweeps")
        self._grad_sweeps = registry.counter("vm.batched_grad_sweeps")
        self._build_dynamic(program, want_grad)

    def _build_dynamic(self, program: Program, want_grad: bool):
        # Every parameterized WRITE runs in one batched writer call per
        # JIT'd expression (effective batch G*S, a lone gate included),
        # hoisted to the front — safe, since WRITEs read no buffers and
        # every buffer is written exactly once.  Grouping collapses the
        # ufunc dispatch overhead that otherwise dominates batched
        # WRITE cost.
        groups: dict[int, list[Instruction]] = {}
        rest = []
        for instr in program.dynamic_section:
            if instr.opcode == "WRITE" and instr.slots:
                groups.setdefault(instr.expr_id, []).append(instr)
            else:
                rest.append(instr)
        self._writes = [
            build_batched_write_group(
                members, self.plan, self.compiled, grad=want_grad
            )
            for members in groups.values()
        ]
        #: every other instruction's calls, in program order
        self._calls = [
            call
            for instr in rest
            for call in build_batched_calls(instr, self.plan, self.compiled)
        ]

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def evaluate(self, params: np.ndarray) -> np.ndarray:
        """Compute every batch element's contract output.

        ``params`` has shape ``(batch, num_params)``.  Full contracts
        return a ``(batch, dim, dim)`` view, column contracts a
        ``(batch, dim)`` view — valid until the next ``evaluate``
        call; copy to retain.
        """
        rows = self._check(params)
        self._sweeps.add()
        for write in self._writes:
            write(rows)
        for call in self._calls:
            call()
        return self._out_view

    def evaluate_with_grad(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compute every batch element's contract output and gradient.

        Shapes per contract: full ``((B, D, D), (B, P, D, D))``,
        column ``((B, D), (B, P, D))``; gradient rows for parameters
        the output does not depend on are zero.  Returns are reused
        across calls.
        """
        if self.diff is not Differentiation.GRADIENT:
            raise RuntimeError(
                "BatchedTNVM was instantiated with Differentiation.NONE"
            )
        rows = self._check(params)
        self._grad_sweeps.add()
        for write in self._writes:
            write(rows)
        for call in self._calls:
            call()
        self._full_grad[:, self._out_rows_idx] = self._out_grad_view
        return self._out_view, self._full_grad

    def _check(self, params: np.ndarray) -> np.ndarray:
        """Validate shape; return the ``(num_params, batch)`` row form
        the batched WRITE closures index by parameter."""
        arr = np.asarray(params, dtype=np.float64)
        if arr.shape != (self.batch, self.num_params):
            raise ValueError(
                f"program expects ({self.batch}, {self.num_params}) "
                f"parameters, got {arr.shape}"
            )
        return np.ascontiguousarray(arr.T)

    def __repr__(self) -> str:
        return (
            f"<BatchedTNVM batch={self.batch} {self.precision} "
            f"diff={self.diff.name} "
            f"params={self.num_params} dim={self.dim} "
            f"mem={self.memory_bytes}B>"
        )
