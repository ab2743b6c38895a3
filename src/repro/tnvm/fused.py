"""Whole-program fused codegen: the scalar TNVM's megakernel.

At the 2-27 dimensional matrices synthesis templates use, executing a
program one instruction at a time — closure call, parameter pick, view
indirection per instruction — is dominated by dispatch, not
arithmetic.  This module extends the expression JIT from per-gate to
per-program: :func:`generate_fused_kernel` lowers a compiled
:class:`~repro.tensornet.bytecode.Program` to ONE specialized Python
function (the operator-fusion move of XLA-style compilers, standing in
for the paper's whole-pipeline LLVM emission):

* the constant section runs once, in the kernel's bind-time prologue;
* dynamic ``WRITE`` instructions are inlined as CSE'd expression
  bodies, emitted from each gate's simplified entries by
  :func:`~repro.jit.codegen.generate_inline_write` (the one emitter
  the standalone writers also wrap) — no per-gate function call, with
  the gate's local parameters renamed onto one shared
  circuit-parameter unpack, and each entry stored at the position the
  WRITE's layout gives it (:func:`~repro.tnvm.buffers.write_layout`);
* ``MATMUL``/``KRON``/``HADAMARD``/``TRANSPOSE`` become the numpy
  calls :func:`~repro.tnvm.buffers.contraction_calls` lowers them to,
  printed on views pre-bound in the prologue, with ``out=`` targets
  into the VM's arena.

The batched VM binds the same calls as closures instead, because its
grouped WRITE writers evaluate every same-expression gate as one
``G*S``-stacked ufunc call, which per-gate inlined stores cannot beat.

Kernels are plain source text (:class:`FusedKernel`), generated once
per process and cached on the ``Program`` they were generated from.
They never cross a process boundary: a serialized engine ships the
program and its simplified entries, and a worker regenerates the same
source from them on its first scalar fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..jit.codegen import generate_inline_write, writer_globals
from ..jit.compiled import CompiledExpression
from ..tensornet.bytecode import Instruction, Program
from .buffers import (
    Call,
    MemoryPlan,
    StackView,
    contraction_calls,
    gradient_rows,
    write_layout,
)

__all__ = [
    "FusedKernel",
    "generate_fused_kernel",
    "bind_fused_kernel",
    "fused_kernel_for",
]

_P = "    "  # prologue indent (inside make_fused)
_H = "        "  # hot-body indent (inside fused_run)


@dataclass(frozen=True)
class FusedKernel:
    """One generated megakernel: source text plus codegen metadata.

    The source defines ``make_fused(stacks, dtype)`` — a factory that
    binds views of the plan's buffer stacks, runs the constant section
    once, and returns the hot ``fused_run(params)`` function;
    :func:`bind_fused_kernel` compiles and binds it.
    """

    source: str
    grad: bool
    #: numpy-call dispatches per sweep (contractions + scatter stores)
    num_numpy_calls: int
    #: inlined scalar store statements per sweep (WRITE bodies)
    num_write_stores: int


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


class _FusedEmitter:
    """Accumulates the prologue/body statement streams for one section.

    ``rows`` is each buffer's gradient-row order
    (:func:`~repro.tnvm.buffers.gradient_rows`; all empty without
    differentiation), which fixes where every stack view starts and
    ends.  ``prefix`` keeps each section's local names unique;
    ``indent`` is where the section's per-run statements live (the hot
    function for the dynamic section, the prologue for the constant
    section).
    """

    def __init__(
        self,
        program: Program,
        rows: list[tuple[int, ...]],
        prefix: str,
        indent: str,
    ):
        self.program = program
        self.rows = rows
        self.prefix = prefix
        self.indent = indent
        self.pro: list[str] = []
        self.body: list[str] = []
        self.used_atoms: set[str] = set()
        self.num_numpy_calls = 0
        self.num_write_stores = 0

    def emit(self, n: int, instr: Instruction, compiled) -> None:
        name = f"{self.prefix}{n}"
        if instr.opcode == "WRITE":
            self.emit_write(name, instr, compiled[instr.expr_id])
        else:
            self.emit_calls(name, contraction_calls(instr, self.rows))

    # -- view-binding helpers ------------------------------------------
    def bind(self, name: str, expr: str) -> None:
        self.pro.append(f"{_P}{name} = {expr}")

    def view(self, buf: int, lo: int, hi: int, shape) -> str:
        """Stack rows ``lo..hi`` of ``buf`` viewed as ``shape``."""
        size = self.program.buffers[buf].size
        n = 1 + len(self.rows[buf])
        ref = f"stacks[{buf}]"
        if (lo, hi) != (0, n):
            start = str(lo * size) if lo else ""
            stop = str(hi * size) if hi != n else ""
            ref += f"[{start}:{stop}]"
        dims = ", ".join(str(s) for s in shape)
        return f"{ref}.reshape({dims})"

    def np_call(self, line: str) -> None:
        self.body.append(f"{self.indent}{line}")
        self.num_numpy_calls += 1

    # -- WRITE ---------------------------------------------------------
    def emit_write(
        self, name: str, instr: Instruction, expr: CompiledExpression
    ) -> None:
        shape = expr.shape
        # Each canonical entry (i, j) is stored at its position in the
        # WRITE's layout, in the same (rows, cols) view of the buffer.
        dims, axes = write_layout(instr, shape)
        pos = np.arange(shape[0] * shape[1]).reshape(dims)
        pos = pos.transpose(axes).reshape(shape)

        def at(i: int, j: int) -> tuple[int, int]:
            return divmod(int(pos[i, j]), shape[1])

        u_entries = [
            (at(i, j), re, im) for (i, j), re, im in expr.entries[0]
        ]
        g_entries = [
            ((k, *at(i, j)), re, im) for (k, i, j), re, im in expr.entries[1]
        ]
        rows = self.rows[instr.out_buf]
        use_grad = bool(rows) and bool(g_entries)
        vname = f"{name}_v"
        self.bind(vname, self.view(instr.out_buf, 0, 1, shape))

        scatter = None
        gname = None
        if use_grad:
            gview = f"{name}_g"
            self.bind(
                gview,
                self.view(
                    instr.out_buf, 1, 1 + len(rows), (len(rows),) + shape
                ),
            )
            if len(rows) == len(instr.slots):
                # Unique slots: the rows follow the slots, so every
                # partial is stored straight into its row.
                gname = gview
            else:
                # Duplicated slots: per-slot rows land in a scratch
                # stack, then accumulate into their parameter's row.
                gname = f"{name}_s"
                dims = ", ".join(str(s) for s in shape)
                self.bind(
                    gname,
                    f"np.zeros(({len(instr.slots)}, {dims}), dtype=dtype)",
                )
                scatter = (gview, [rows.index(j) for j in instr.slots])

        var_atoms = {
            param: f"p{instr.slots[k]}"
            for k, param in enumerate(expr.matrix.params)
        }
        inline = generate_inline_write(
            u_entries,
            g_entries if use_grad else [],
            var_atoms,
            vname,
            gname,
            temp_prefix=f"{name}_t",
            indent=self.indent,
        )
        self.pro.extend(f"{_P}{line}" for line in inline.const_value_lines)
        self.pro.extend(f"{_P}{line}" for line in inline.const_grad_lines)
        self.body.extend(inline.hot_lines)
        self.used_atoms |= inline.used_atoms
        self.num_write_stores += inline.num_dynamic
        if scatter is not None:
            gview, targets = scatter
            self.np_call(f"{gview}[:] = 0")
            for s, row in enumerate(targets):
                self.np_call(f"{gview}[{row}] += {gname}[{s}]")

    # -- MATMUL / KRON / HADAMARD / TRANSPOSE ---------------------------
    def emit_calls(self, name: str, calls: list[Call]) -> None:
        """Print one contraction's calls
        (:func:`~repro.tnvm.buffers.contraction_calls`), binding each
        distinct view once in the prologue."""
        names: dict[tuple, str] = {}

        def bound(key: tuple, expr: str) -> str:
            if key not in names:
                names[key] = f"{name}_{len(names)}"
                self.bind(names[key], expr)
            return names[key]

        def ref(v: StackView) -> str:
            if v.buffer is None:
                dims = ", ".join(str(s) for s in v.shape)
                expr = f"np.zeros(({dims}), dtype=dtype)"
            else:
                expr = self.view(v.buffer, v.lo, v.hi, v.shape)
                if v.perm:
                    expr += f".transpose({v.perm!r})"
            base = bound(v._replace(pick=None), expr)
            if isinstance(v.pick, tuple):
                vals = ", ".join(str(r) for r in v.pick)
                rows = bound(v.pick, f"np.asarray([{vals}], dtype=np.intp)")
                return f"{base}[{rows}]"
            return base if v.pick is None else f"{base}[{v.pick}]"

        for call in calls:
            args = [ref(v) for v in call.args]
            out = ref(call.out)
            if call.op == "copyto":
                self.np_call(f"np.copyto({out}, {args[0]})")
            elif call.op == "add":
                self.np_call(f"{out} += {args[0]}")
            else:
                self.np_call(f"np.{call.op}({args[0]}, {args[1]}, out={out})")


def generate_fused_kernel(
    program: Program,
    compiled: list[CompiledExpression],
    grad: bool,
) -> FusedKernel:
    """Lower ``program`` to one megakernel source.

    ``compiled`` is the VM's expression list (one entry per
    ``program.expressions``, with gradients exactly when the VM wants
    them) — the inlined WRITE bodies are emitted from the same
    simplified entry triples, by the same emitter, as the standalone
    writers, so they compute the same values the writers would.  The
    stack views follow :func:`~repro.tnvm.buffers.gradient_rows`, the
    row order every ``grad`` :class:`MemoryPlan` of the program has.
    """
    rows = (
        gradient_rows(program) if grad else [()] * len(program.buffers)
    )
    const = _FusedEmitter(program, rows, prefix="c", indent=_P)
    for n, instr in enumerate(program.const_section):
        const.emit(n, instr, compiled)
    hot = _FusedEmitter(program, rows, prefix="i", indent=_H)
    for n, instr in enumerate(program.dynamic_section):
        hot.emit(n, instr, compiled)

    lines = ["def make_fused(stacks, dtype):"]
    # Bind the constant section's views, then run it once: every sweep
    # reads its outputs but none rewrites them.
    lines.extend(const.pro)
    lines.extend(const.body)
    lines.extend(hot.pro)
    lines.append(f"{_P}def fused_run(params):")
    unpack = sorted(
        (int(atom[1:]) for atom in hot.used_atoms if atom[1:].isdigit()),
    )
    lines.extend(f"{_H}p{k} = params[{k}]" for k in unpack)
    if hot.body:
        lines.extend(hot.body)
    elif not unpack:
        lines.append(f"{_H}pass")
    lines.append(f"{_P}return fused_run")
    return FusedKernel(
        source="\n".join(lines) + "\n",
        grad=grad,
        num_numpy_calls=hot.num_numpy_calls,
        num_write_stores=hot.num_write_stores,
    )


# ----------------------------------------------------------------------
# Binding and kernel caching
# ----------------------------------------------------------------------


def bind_fused_kernel(kernel: FusedKernel, plan: MemoryPlan):
    """Compile ``kernel``'s source and bind it to a memory plan.

    Every VM on one program binds the one cached kernel here, under a
    ``fuse.bind`` span.  ``compile()`` of the source is most of a
    first scalar VM build; binding then runs the constant section into
    ``plan``'s arena and returns the hot ``fused_run(params)``.

    Under ``REPRO_VERIFY=1`` the kernel source is linted by
    :mod:`repro.analysis` before it is ``exec``-ed — this is the trust
    boundary where generated source becomes running code.
    """
    from ..analysis import maybe_lint_kernel

    maybe_lint_kernel(kernel, subject="fused kernel (bind)")
    with telemetry.tracer().span(
        "fuse.bind", category="fuse",
        grad=kernel.grad, source_bytes=len(kernel.source),
    ):
        namespace = writer_globals()
        namespace["np"] = np
        exec(compile(kernel.source, "<fused>", "exec"), namespace)
        return namespace["make_fused"](plan.stacks, plan.dtype)


def fused_kernel_for(
    program: Program,
    compiled: list[CompiledExpression],
    grad: bool,
) -> FusedKernel:
    """The ``grad`` kernel for ``program``, generated once.

    Kernels are cached on the program instance, so every VM bound to
    one compiled program shares a single generation pass.  A
    rehydrated engine's program arrives without a kernel and generates
    it here, on its first scalar VM, exactly as the parent did.
    """
    cache = program.__dict__.setdefault("_fused_kernels", {})
    kernel = cache.get(bool(grad))
    if kernel is None:
        with telemetry.tracer().span(
            "fuse.codegen", category="fuse",
            dim=program.dim, grad=bool(grad),
        ):
            kernel = generate_fused_kernel(program, compiled, grad)
        telemetry.metrics().counter("fuse.kernels_generated").add()
        cache[bool(grad)] = kernel
    return kernel
