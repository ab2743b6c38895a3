"""Expression JIT: compile symbolic matrices to specialized Python code.

This is the reproduction's stand-in for OpenQudit's LLVM backend.
The architecture is identical — a gate's simplified unitary
and gradient expressions are lowered to straight-line code with explicit
common-subexpression elimination, compiled once, and the resulting
"function pointer" is cached and called millions of times from the TNVM
evaluation loop — only the final code generator targets CPython bytecode
instead of native machine code.

A gate's writer body comes from one emitter,
:func:`generate_inline_write`: it splits the simplified entries into
parameter-independent constants and parameter-dependent entries, and
emits the CSE'd statement chain and stores of the latter.  The TNVM
megakernel inlines that body directly; :func:`generate_source` wraps
the same body into three standalone functions:

``write(params, out, grad)``
    The hot function: unpacks parameters, evaluates the CSE'd temporary
    chain with ``math.sin``/``math.cos``/... scalar calls, and stores the
    parameter-dependent complex entries.

``write_constants_out(out)`` / ``write_constants_grad(grad)``
    Write every entry whose value does not depend on any parameter
    (zeros, fixed phases...).  The TNVM calls these once at
    initialization, so the hot path only touches parameter-dependent
    entries.

A *batched* variant of ``write`` can also be generated: the same
straight-line CSE chain, but evaluated with numpy ufuncs over a
trailing batch axis.  ``params[k]`` is then a length-``S`` vector (one
entry per batch element) and every ``out[i, j]`` store assigns a
length-``S`` slice, so a single call evaluates the expression for all
``S`` multi-start parameter sets at once.
"""

from __future__ import annotations

import math

import numpy as np

from ..egraph.cost import expression_cost
from ..symbolic import expr as E
from ..symbolic.expr import Expr

__all__ = [
    "generate_source",
    "generate_inline_write",
    "compile_writer",
    "writer_globals",
    "CodegenResult",
    "InlineWrite",
]

_GLOBALS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "pi": math.pi,
}

#: Globals for the batched writer: identical names bound to numpy
#: ufuncs so the generated code vectorizes over the batch axis.
_BATCHED_GLOBALS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "pi": math.pi,
}


def writer_globals() -> dict:
    """The execution namespace scalar writer code expects: the QGL
    math names bound to ``math`` functions.  The TNVM megakernel runs
    its inlined expression bodies in this same namespace, so they
    compute exactly what the per-gate writers compute."""
    return dict(_GLOBALS)


class CodegenResult:
    """The compiled writer pair plus introspection data."""

    __slots__ = (
        "write",
        "write_constants",
        "source",
        "num_dynamic_entries",
        "num_constant_entries",
        "total_cost",
    )

    def __init__(
        self,
        write,
        write_constants,
        source: str,
        num_dynamic_entries: int,
        num_constant_entries: int,
        total_cost: float,
    ):
        self.write = write
        self.write_constants = write_constants
        self.source = source
        self.num_dynamic_entries = num_dynamic_entries
        self.num_constant_entries = num_constant_entries
        self.total_cost = total_cost


class _Emitter:
    """Shared-subexpression-aware statement emitter.

    ``var_atoms`` names each parameter leaf: ``p{k}`` for a standalone
    writer, the megakernel's global circuit-parameter unpack names for
    an inlined WRITE.  ``temp_prefix`` and ``indent`` let the same
    emitter produce uniquely-named statements inside a larger
    generated function.
    """

    def __init__(self, var_atoms: dict[str, str], temp_prefix: str, indent: str):
        self.var_atoms = var_atoms
        self.temp_prefix = temp_prefix
        self.indent = indent
        self.lines: list[str] = []
        self.names: dict[int, str] = {}
        self.counter = 0
        self.used_atoms: set[str] = set()

    def atom(self, node: Expr) -> str:
        """Inline representation for leaves; temp name for composites."""
        if node.op == "const":
            return _literal(node.value)
        if node.op == "pi":
            return "pi"
        if node.op == "var":
            atom = self.var_atoms[node.name]
            self.used_atoms.add(atom)
            return atom
        return self.names[id(node)]

    def emit(self, root: Expr) -> str:
        """Emit statements computing ``root``; returns its atom string."""
        for node in E.postorder(root):
            if id(node) in self.names or node.op in ("const", "var", "pi"):
                continue
            args = [self.atom(c) for c in node.children]
            op = node.op
            if op == "+":
                rhs = f"{args[0]} + {args[1]}"
            elif op == "-":
                rhs = f"{args[0]} - {args[1]}"
            elif op == "~":
                rhs = f"-{args[0]}"
            elif op == "*":
                rhs = f"{args[0]} * {args[1]}"
            elif op == "/":
                rhs = f"{args[0]} / {args[1]}"
            elif op == "pow":
                rhs = f"{args[0]} ** {args[1]}"
            else:  # sin, cos, exp, ln, sqrt
                rhs = f"{op}({args[0]})"
            name = f"{self.temp_prefix}{self.counter}"
            self.counter += 1
            self.names[id(node)] = name
            self.lines.append(f"{self.indent}{name} = {rhs}")
        return self.atom(root)


def _literal(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return repr(int(value))
    return repr(value)


class InlineWrite:
    """The emitted form of one gate expression's writer body."""

    __slots__ = (
        "hot_lines",
        "const_value_lines",
        "const_grad_lines",
        "used_atoms",
        "num_dynamic",
    )

    def __init__(
        self,
        hot_lines: list[str],
        const_value_lines: list[str],
        const_grad_lines: list[str],
        used_atoms: set[str],
        num_dynamic: int,
    ):
        self.hot_lines = hot_lines
        self.const_value_lines = const_value_lines
        self.const_grad_lines = const_grad_lines
        self.used_atoms = used_atoms
        self.num_dynamic = num_dynamic


def generate_inline_write(
    unitary_entries: list[tuple[tuple[int, int], Expr, Expr]],
    grad_entries: list[tuple[tuple[int, int, int], Expr, Expr]],
    var_atoms: dict[str, str],
    out_name: str,
    grad_name: str | None,
    temp_prefix: str,
    indent: str,
    batched: bool = False,
) -> InlineWrite:
    """Emit one gate expression's writer body.

    This is the only emitter of a gate body.  The TNVM megakernel
    inlines it with instruction-local temp names (``temp_prefix``),
    caller-chosen store targets (``out_name``/``grad_name``), and the
    gate's parameters mapped onto the megakernel's global parameter
    atoms (``var_atoms``); :func:`generate_source` wraps it into the
    standalone writers.  A megakernel therefore computes bit-identical
    values to calling the standalone writer.

    ``hot_lines`` are indented with ``indent``; the constant store
    lines are returned unindented (they run once, in a setup prologue
    or a constants function).  ``batched`` is for atoms that are
    vectors over a trailing batch axis (``complex()`` only accepts
    scalars): the body binds each target's ``.real`` and ``.imag``
    views once and stores the two parts separately, which allocates no
    complex temporaries.  An entry whose imaginary part is zero stores
    only its real part and keeps the zero its target starts with (the
    batched VM's arena and group scratch are zero-filled and each
    entry has one writer).  When ``grad_name`` is None the gradient
    entries must be empty (the instruction was compiled without
    differentiation).
    """
    if grad_name is None and grad_entries:
        raise ValueError("gradient entries present but no gradient target")

    #: (store target, its index, real part, imaginary part)
    dynamic: list[tuple[str, str, Expr, Expr]] = []
    const_value_lines: list[str] = []
    const_grad_lines: list[str] = []
    for (i, j), re_e, im_e in unitary_entries:
        index = f"[{i}, {j}]"
        if _is_const(re_e, im_e):
            value = complex(_const_value(re_e), _const_value(im_e))
            const_value_lines.append(f"{out_name}{index} = {value!r}")
        else:
            dynamic.append((out_name, index, re_e, im_e))
    for (k, i, j), re_e, im_e in grad_entries:
        index = f"[{k}, {i}, {j}]"
        if _is_const(re_e, im_e):
            value = complex(_const_value(re_e), _const_value(im_e))
            const_grad_lines.append(f"{grad_name}{index} = {value!r}")
        else:
            dynamic.append((grad_name, index, re_e, im_e))

    emitter = _Emitter(var_atoms, temp_prefix=temp_prefix, indent=indent)
    stores: list[str] = []
    for name, index, re_e, im_e in dynamic:
        re_atom = emitter.emit(re_e)
        im_atom = emitter.emit(im_e)
        if batched:
            stores.append(f"{indent}{name}_re{index} = {re_atom}")
            if not im_e.is_zero:
                stores.append(f"{indent}{name}_im{index} = {im_atom}")
        elif im_e.is_zero:
            stores.append(f"{indent}{name}{index} = {re_atom}")
        else:
            stores.append(
                f"{indent}{name}{index} = complex({re_atom}, {im_atom})"
            )
    views = [
        f"{indent}{name}_{part} = {name}.{attr}"
        for name in dict.fromkeys(name for name, *_ in dynamic)
        for part, attr in (("re", "real"), ("im", "imag"))
    ] if batched else []
    return InlineWrite(
        hot_lines=emitter.lines + views + stores,
        const_value_lines=const_value_lines,
        const_grad_lines=const_grad_lines,
        used_atoms=emitter.used_atoms,
        num_dynamic=len(dynamic),
    )


def generate_source(
    unitary_entries: list[tuple[tuple[int, int], Expr, Expr]],
    grad_entries: list[tuple[tuple[int, int, int], Expr, Expr]],
    param_names: tuple[str, ...],
    func_name: str = "qgl_write",
    batched: bool = False,
) -> tuple[str, int, int, float]:
    """Generate the standalone writer source.

    Parameters
    ----------
    unitary_entries:
        ``((row, col), re_expr, im_expr)`` triples for the unitary.
    grad_entries:
        ``((param, row, col), re_expr, im_expr)`` triples for the
        gradient; empty when differentiation is not requested.
    param_names:
        Parameter order defining ``params[k]``.
    batched:
        Emit the batch-vectorized variant: ``params[k]`` is a vector,
        so the caller passes views with a trailing batch axis.

    Returns ``(source, n_dynamic, n_constant, total_cost)``.
    """
    atoms = {name: f"p{k}" for k, name in enumerate(param_names)}
    body = generate_inline_write(
        unitary_entries, grad_entries, atoms, "out", "grad",
        temp_prefix="t", indent="    ", batched=batched,
    )
    lines = [f"def {func_name}(params, out, grad=None):"]
    lines += [
        f"    p{k} = params[{k}]"
        for k, name in enumerate(param_names)
        if atoms[name] in body.used_atoms
    ]
    lines += body.hot_lines
    if len(lines) == 1:
        lines.append("    pass")
    for arg, stores in (
        ("out", body.const_value_lines),
        ("grad", body.const_grad_lines),
    ):
        lines.append("")
        lines.append(f"def {func_name}_constants_{arg}({arg}):")
        lines += [f"    {store}" for store in stores] or ["    pass"]
    source = "\n".join(lines) + "\n"

    # Table I cost of the emitted code: every distinct node of the
    # parameter-dependent entries once, shared subexpressions across
    # *all* entries counted a single time (this is exactly what the
    # CSE'd straight-line code executes).
    seen: set[int] = set()
    total_cost = sum(
        (
            expression_cost(root, seen)
            for _, re_e, im_e in (*unitary_entries, *grad_entries)
            if not _is_const(re_e, im_e)
            for root in (re_e, im_e)
        ),
        0.0,
    )
    n_constant = len(body.const_value_lines) + len(body.const_grad_lines)
    return source, body.num_dynamic, n_constant, total_cost


def compile_writer(
    unitary_entries: list[tuple[tuple[int, int], Expr, Expr]],
    grad_entries: list[tuple[tuple[int, int, int], Expr, Expr]],
    param_names: tuple[str, ...],
    func_name: str = "qgl_write",
    batched: bool = False,
) -> CodegenResult:
    """Generate, compile, and return the writer pair."""
    source, n_dyn, n_const, cost = generate_source(
        unitary_entries, grad_entries, param_names, func_name, batched
    )
    namespace = dict(_BATCHED_GLOBALS if batched else _GLOBALS)
    code = compile(source, f"<qgl-jit:{func_name}>", "exec")
    exec(code, namespace)
    constants_out = namespace[f"{func_name}_constants_out"]
    constants_grad = namespace[f"{func_name}_constants_grad"]

    def write_constants(out, grad=None):
        constants_out(out)
        if grad is not None:
            constants_grad(grad)

    return CodegenResult(
        write=namespace[func_name],
        write_constants=write_constants,
        source=source,
        num_dynamic_entries=n_dyn,
        num_constant_entries=n_const,
        total_cost=cost,
    )


def _is_const(re_e: Expr, im_e: Expr) -> bool:
    return re_e.constant_value() is not None and (
        im_e.constant_value() is not None
    )


def _const_value(e: Expr) -> float:
    v = e.constant_value()
    assert v is not None
    return v
