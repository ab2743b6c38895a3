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
  circuit-parameter unpack;
* ``MATMUL``/``KRON``/``HADAMARD``/``TRANSPOSE`` become direct numpy
  calls on views pre-bound in the prologue, with ``out=`` targets into
  the VM's arena.  Every buffer is one stack of value and gradient
  rows (:mod:`repro.tnvm.buffers`), so a product computes its value
  and all of its A-side gradient rows in one row-stacked call, its
  B-only rows in a second, and a ``TRANSPOSE`` copies the whole stack
  at once.  Only a parameter on both operands costs more: its
  product-rule addend, two calls per parameter.

The batched VM keeps its per-instruction closures instead: their
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
from .buffers import MemoryPlan, gradient_rows, product_rows

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
        elif instr.opcode in ("MATMUL", "KRON", "HADAMARD"):
            self.emit_product(name, instr)
        elif instr.opcode == "TRANSPOSE":
            self.emit_transpose(name, instr)
        else:
            raise ValueError(f"unknown opcode {instr.opcode}")

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
        u_entries, g_entries = expr.entries
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

    # -- MATMUL / KRON / HADAMARD --------------------------------------
    def emit_product(self, name: str, instr: Instruction) -> None:
        """Shared contraction emitter; the three opcodes differ only in
        the ufunc and how their operands are viewed (KRON interleaves
        singleton axes so a broadcast multiply is the outer product).

        The output's rows are A's rows followed by B's parameters that
        A lacks (:func:`~repro.tnvm.buffers.gradient_rows`), so one call
        computes the value and every A-side row, ``A[0..Ra] * B[0]``,
        and one stacked call the B-only rows, ``A[0] * B[rows]``.  A
        parameter on both sides adds ``A[0] * B[y]`` to its row.
        """
        if instr.opcode == "MATMUL":
            m, k = instr.a_shape
            _, n2 = instr.b_shape
            a_shape, b_shape, out_shape = (m, k), (k, n2), (m, n2)
            ufunc = "np.matmul"
        elif instr.opcode == "KRON":
            ra, ca = instr.a_shape
            rb, cb = instr.b_shape
            a_shape, b_shape = (ra, 1, ca, 1), (1, rb, 1, cb)
            out_shape = (ra, rb, ca, cb)
            ufunc = "np.multiply"
        else:  # HADAMARD
            a_shape = b_shape = out_shape = tuple(instr.a_shape)
            ufunc = "np.multiply"
        A, B, C = instr.a_buf, instr.b_buf, instr.out_buf
        a_rows, b_rows = self.rows[A], self.rows[B]
        na = 1 + len(a_rows)

        # Value plus A-side rows: a row-stacked 2-D product for MATMUL,
        # a broadcast over the leading stack axis otherwise.  A row
        # vector A (m == 1) keeps one product per row: numpy runs it
        # as a gemv (a dot when n == 1), which stacking would turn
        # into a gemm of different complex64 rounding.
        if ufunc == "np.matmul" and a_shape[0] > 1:
            lead_a, lead_c = (na * m, k), (na * m, n2)
        else:
            lead_a, lead_c = (na,) + a_shape, (na,) + out_shape
        a, b, c = f"{name}_a", f"{name}_b", f"{name}_c"
        self.bind(a, self.view(A, 0, na, lead_a))
        self.bind(b, self.view(B, 0, 1, b_shape))
        self.bind(c, self.view(C, 0, na, lead_c))
        self.np_call(f"{ufunc}({a}, {b}, out={c})")

        b_only, shared = product_rows(a_rows, b_rows)
        if not b_only and not shared:
            return
        av = f"{name}_av"
        self.bind(av, self.view(A, 0, 1, a_shape))
        # B-only rows interleave with shared ones only when a parameter
        # sits on both sides; they are then gathered (on an input).
        gather = bool(b_only) and b_only[-1] - b_only[0] >= len(b_only)
        nb = 1 + len(b_rows)
        bs = f"{name}_bs"
        if shared or gather:
            self.bind(bs, self.view(B, 0, nb, (nb,) + b_shape))
        if b_only:
            r = len(b_only)
            gb, gc = f"{name}_gb", f"{name}_gc"
            self.bind(gc, self.view(C, na, na + r, (r,) + out_shape))
            if gather:
                vals = ", ".join(str(v) for v in b_only)
                self.bind(gb, f"np.asarray([{vals}], dtype=np.intp)")
                gb = f"{bs}[{gb}]"
            else:
                lo = b_only[0]
                self.bind(gb, self.view(B, lo, lo + r, (r,) + b_shape))
            self.np_call(f"{ufunc}({av}, {gb}, out={gc})")
        if shared:
            cs, scr = f"{name}_cs", f"{name}_scr"
            nc = 1 + len(self.rows[C])
            self.bind(cs, self.view(C, 0, nc, (nc,) + out_shape))
            dims = ", ".join(str(s) for s in out_shape)
            self.bind(scr, f"np.zeros(({dims}), dtype=dtype)")
            for x, y in shared:
                # Product rule: the row already holds A[x] * B[0].
                self.np_call(f"{ufunc}({av}, {bs}[{y}], out={scr})")
                self.np_call(f"{cs}[{x}] += {scr}")

    # -- TRANSPOSE -----------------------------------------------------
    def emit_transpose(self, name: str, instr: Instruction) -> None:
        """One copy of the permuted stack: the output's rows are its
        input's rows."""
        shape = tuple(instr.shape)
        perm = tuple(instr.perm)
        out_shape = tuple(shape[p] for p in perm)
        n = 1 + len(self.rows[instr.a_buf])
        src, dst = f"{name}_src", f"{name}_dst"
        stack_perm = (0,) + tuple(p + 1 for p in perm)
        self.bind(
            src,
            f"{self.view(instr.a_buf, 0, n, (n,) + shape)}"
            f".transpose({stack_perm!r})",
        )
        self.bind(dst, self.view(instr.out_buf, 0, n, (n,) + out_shape))
        self.np_call(f"np.copyto({dst}, {src})")


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
