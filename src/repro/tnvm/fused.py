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
  the VM's arena;
* the forward-mode product-rule cases (a-only / b-only / overlap, see
  :mod:`repro.tnvm.ad`) run as one row-stacked numpy call per case.

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
from .ad import _grouped_rows, _index, _param_positions
from .buffers import MemoryPlan

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

    The source defines ``make_fused(values, grads, dtype)`` — a factory
    that binds arena views, runs the constant section once, and returns
    the hot ``fused_run(params)`` function; :func:`bind_fused_kernel`
    compiles and binds it.
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

    ``prefix`` keeps each section's local names unique; ``indent`` is
    where the section's per-run statements live (the hot function for
    the dynamic section, the prologue for the constant section).
    """

    def __init__(self, program: Program, grad: bool, prefix: str, indent: str):
        self.program = program
        self.grad = grad
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
    def value(self, buf: int, shape) -> str:
        dims = ", ".join(str(s) for s in shape)
        return f"values[{buf}].reshape({dims})"

    def gradstack(self, buf: int, shape) -> str:
        n = len(self.program.buffers[buf].params)
        dims = ", ".join(str(s) for s in shape)
        return f"grads[{buf}].reshape({n}, {dims})"

    def np_call(self, line: str) -> None:
        self.body.append(f"{self.indent}{line}")
        self.num_numpy_calls += 1

    # -- WRITE ---------------------------------------------------------
    def emit_write(
        self, name: str, instr: Instruction, expr: CompiledExpression
    ) -> None:
        shape = expr.shape
        u_entries, g_entries = expr.entries
        use_grad = self.grad and bool(g_entries) and bool(instr.slots)
        vname = f"{name}_v"
        self.pro.append(f"{_P}{vname} = {self.value(instr.out_buf, shape)}")

        scatter = None
        gname = None
        if use_grad:
            sorted_params = self.program.buffers[instr.out_buf].params
            gview = f"{name}_g"
            self.pro.append(
                f"{_P}{gview} = {self.gradstack(instr.out_buf, shape)}"
            )
            if tuple(instr.slots) == tuple(sorted_params):
                gname = gview
            else:
                # Scatter/accumulate path (duplicated or unordered
                # slots): per-slot rows land in a scratch stack, then
                # accumulate into the sorted-parameter rows.
                gname = f"{name}_s"
                dims = ", ".join(str(s) for s in shape)
                self.pro.append(
                    f"{_P}{gname} = np.zeros(({len(instr.slots)}, "
                    f"{dims}), dtype=dtype)"
                )
                row_of = {p: i for i, p in enumerate(sorted_params)}
                scatter = (gview, [row_of[j] for j in instr.slots])

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
            gview, rows = scatter
            self.np_call(f"{gview}[:] = 0")
            for s, row in enumerate(rows):
                self.np_call(f"{gview}[{row}] += {gname}[{s}]")

    # -- MATMUL / KRON / HADAMARD --------------------------------------
    def emit_product(self, name: str, instr: Instruction) -> None:
        """Shared contraction emitter; the three opcodes differ only in
        the ufunc and how their operands are viewed (KRON interleaves
        singleton axes so a broadcast multiply is the outer product)."""
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

        a, b, c = f"{name}_a", f"{name}_b", f"{name}_c"
        self.pro.append(f"{_P}{a} = {self.value(instr.a_buf, a_shape)}")
        self.pro.append(f"{_P}{b} = {self.value(instr.b_buf, b_shape)}")
        self.pro.append(f"{_P}{c} = {self.value(instr.out_buf, out_shape)}")
        self.np_call(f"{ufunc}({a}, {b}, out={c})")

        if not self.grad or not instr.params:
            return
        a_params = self.program.buffers[instr.a_buf].params
        b_params = self.program.buffers[instr.b_buf].params
        maps = list(
            zip(
                _param_positions(instr.params, a_params),
                _param_positions(instr.params, b_params),
            )
        )
        GA, GB, GC = f"{name}_GA", f"{name}_GB", f"{name}_GC"
        if any(x >= 0 for x, _ in maps):
            self.pro.append(
                f"{_P}{GA} = {self.gradstack(instr.a_buf, a_shape)}"
            )
        if any(y >= 0 for _, y in maps):
            self.pro.append(
                f"{_P}{GB} = {self.gradstack(instr.b_buf, b_shape)}"
            )
        self.pro.append(
            f"{_P}{GC} = {self.gradstack(instr.out_buf, out_shape)}"
        )
        scr = f"{name}_scr"
        if any(x >= 0 and y >= 0 for x, y in maps):
            dims = ", ".join(str(s) for s in out_shape)
            self.pro.append(f"{_P}{scr} = np.zeros(({dims}), dtype=dtype)")
        # Row-stacked gradient contraction: all rows of each product-
        # rule case run as ONE call over a (rows, ...) stack.  Stacked
        # and per-row contractions are bit-identical: the gufunc
        # applies the same 2-D kernel to each slice, and every gradient
        # row reads only operand buffers (never other rows), so case
        # order is free.
        a_rows, a_idx, b_rows, b_idx, both = _grouped_rows(maps)
        if a_rows:
            ra, a_direct = self._idx(name, "ra", a_rows)
            ia, _ = self._idx(name, "ia", a_idx)
            if a_direct:
                self.np_call(f"{ufunc}({GA}[{ia}], {b}, out={GC}[{ra}])")
            elif ufunc == "np.matmul":
                self.np_call(f"{GC}[{ra}] = np.matmul({GA}[{ia}], {b})")
            else:
                self.np_call(f"{GC}[{ra}] = {GA}[{ia}] * {b}")
        if b_rows:
            rb, b_direct = self._idx(name, "rb", b_rows)
            ib, _ = self._idx(name, "ib", b_idx)
            if b_direct:
                self.np_call(f"{ufunc}({a}, {GB}[{ib}], out={GC}[{rb}])")
            elif ufunc == "np.matmul":
                self.np_call(f"{GC}[{rb}] = np.matmul({a}, {GB}[{ib}])")
            else:
                self.np_call(f"{GC}[{rb}] = {a} * {GB}[{ib}]")
        for row, x, y in both:
            # Overlapping parameters: product rule, via the scratch.
            self.np_call(f"{ufunc}({GA}[{x}], {b}, out={GC}[{row}])")
            self.np_call(f"{ufunc}({a}, {GB}[{y}], out={scr})")
            self.np_call(f"{GC}[{row}] += {scr}")

    def _idx(self, name: str, label: str, ix: list[int]):
        """An index expression for a row list: ``start:stop`` when
        consecutive (zero-copy view, valid ``out=`` target), else a
        prologue-bound fancy-index array."""
        sl = _index(ix)
        if isinstance(sl, slice):
            return f"{sl.start}:{sl.stop}", True
        arr = f"{name}_{label}"
        vals = ", ".join(str(v) for v in ix)
        self.pro.append(f"{_P}{arr} = np.asarray([{vals}], dtype=np.intp)")
        return arr, False

    # -- TRANSPOSE -----------------------------------------------------
    def emit_transpose(self, name: str, instr: Instruction) -> None:
        shape = tuple(instr.shape)
        perm = tuple(instr.perm)
        out_shape = tuple(shape[p] for p in perm)
        src, dst = f"{name}_src", f"{name}_dst"
        self.pro.append(
            f"{_P}{src} = {self.value(instr.a_buf, shape)}"
            f".transpose({perm!r})"
        )
        self.pro.append(f"{_P}{dst} = {self.value(instr.out_buf, out_shape)}")
        self.np_call(f"np.copyto({dst}, {src})")
        if not self.grad or not instr.params:
            return
        # Input and output parameter sets are identical for a transpose.
        gsrc, gdst = f"{name}_gsrc", f"{name}_gdst"
        gperm = (0,) + tuple(p + 1 for p in perm)
        self.pro.append(
            f"{_P}{gsrc} = {self.gradstack(instr.a_buf, shape)}"
            f".transpose({gperm!r})"
        )
        self.pro.append(
            f"{_P}{gdst} = {self.gradstack(instr.out_buf, out_shape)}"
        )
        self.np_call(f"np.copyto({gdst}, {gsrc})")


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
    writers, so they compute the same values the writers would.
    """
    const = _FusedEmitter(program, grad=False, prefix="c", indent=_P)
    for n, instr in enumerate(program.const_section):
        const.emit(n, instr, compiled)
    hot = _FusedEmitter(program, grad, prefix="i", indent=_H)
    for n, instr in enumerate(program.dynamic_section):
        hot.emit(n, instr, compiled)

    lines = ["def make_fused(values, grads, dtype):"]
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

    This is the cheap half of fusion: every VM on one program binds
    the one cached kernel here.  Binding runs the constant section
    into ``plan``'s arena and returns the hot ``fused_run(params)``.

    Under ``REPRO_VERIFY=1`` the kernel source is linted by
    :mod:`repro.analysis` before it is ``exec``-ed — this is the trust
    boundary where generated source becomes running code.
    """
    from ..analysis import maybe_lint_kernel

    maybe_lint_kernel(kernel, subject="fused kernel (bind)")
    namespace = writer_globals()
    namespace["np"] = np
    exec(compile(kernel.source, "<fused>", "exec"), namespace)
    return namespace["make_fused"](plan.values, plan.grads, plan.dtype)


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
