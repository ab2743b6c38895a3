"""AST-level lint for generated fused megakernel source.

The scalar TNVM (:mod:`repro.tnvm.fused`) generates each megakernel
as plain source text and runs it with ``compile()`` + ``exec()`` — a
trust boundary where a corrupted
:class:`~repro.tnvm.fused.FusedKernel` would otherwise execute
arbitrary statements against the arena.  :func:`lint_kernel_source`
walks the source AST (never executing it) and checks the invariants
the code generator guarantees:

* the module defines exactly one top-level ``make_fused`` factory with
  the expected signature, containing one inner ``fused_run(params)``
  hot function that the factory returns;
* **single assignment** — every plain-name binding (CSE temps, arena
  views, parameter unpacks) is assigned exactly once, in
  define-before-use order;
* **closed name environment** — every free name resolves to a factory
  argument, a previously bound local, or a whitelisted callable
  (``np`` plus the QGL scalar math names), and every attribute called
  on ``np`` or an array view is whitelisted (``np.matmul`` yes,
  ``np.frombuffer`` no);
* **no aliased ``out=`` targets** — a contraction's ``out=`` view (or
  ``np.copyto``'s destination) must not share an arena root with any
  input of the same statement, since the BLAS kernels do not tolerate
  overlapping operands.  The roots are the buffer stacks
  (``stacks[k]``): a buffer's value and gradient rows are one stack
  (:mod:`repro.tnvm.buffers`), so any two views of one buffer alias;
* only sanctioned statement forms appear (assignments into names or
  arena subscripts, whitelisted calls, ``pass``, ``return fused_run``).
"""

from __future__ import annotations

import ast

from .report import VerificationReport

__all__ = [
    "lint_kernel_source",
    "verify_kernel",
    "NUMPY_WHITELIST",
    "ARRAY_METHOD_WHITELIST",
    "SCALAR_GLOBALS",
]

#: ``np.<attr>`` names generated kernels may call or reference.
NUMPY_WHITELIST = frozenset(
    {"matmul", "multiply", "copyto", "zeros", "asarray", "intp"}
)

#: methods generated kernels may call on array views.
ARRAY_METHOD_WHITELIST = frozenset({"reshape", "transpose"})

#: bare names bound by :func:`repro.jit.codegen.writer_globals`.
SCALAR_GLOBALS = frozenset(
    {"sin", "cos", "exp", "ln", "sqrt", "pi", "complex", "np"}
)

#: codes emitted by this module
KERNEL_VIOLATION_CODES = (
    "kernel-syntax",
    "kernel-structure",
    "kernel-multi-assign",
    "kernel-unbound-name",
    "kernel-rogue-callable",
    "kernel-out-aliasing",
    "kernel-statement",
)


#: sources that already linted clean.  Bind-time linting re-runs on
#: every TNVM construction while the generated source for a given
#: template is byte-identical, so the clean verdict is a pure function
#: of the source — caching it keeps the steady-state verification cost
#: off the hot engine-compilation path (any corruption changes the
#: source text and misses the cache).
_CLEAN_CACHE: set[str] = set()
_CLEAN_CACHE_MAX = 256


def lint_kernel_source(
    source: str, subject: str = "fused kernel"
) -> VerificationReport:
    """Lint one megakernel's source text; returns the full report."""
    report = VerificationReport(subject=subject)
    if source in _CLEAN_CACHE:
        return report
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.add(
            "kernel-syntax",
            f"source does not parse: {exc.msg}",
            where=f"line {exc.lineno}",
        )
        return report
    _KernelChecker(report).check_module(tree)
    if report.ok:
        if len(_CLEAN_CACHE) >= _CLEAN_CACHE_MAX:
            _CLEAN_CACHE.clear()
        _CLEAN_CACHE.add(source)
    return report


def verify_kernel(kernel: object, subject: str = "") -> VerificationReport:
    """Lint a :class:`~repro.tnvm.fused.FusedKernel` (duck-typed)."""
    grad = bool(getattr(kernel, "grad", False))
    name = subject or f"fused kernel (grad={grad})"
    source = getattr(kernel, "source", None)
    if not isinstance(source, str):
        report = VerificationReport(subject=name)
        report.add(
            "kernel-structure",
            f"kernel source is {type(source).__name__}, not str",
        )
        return report
    return lint_kernel_source(source, subject=name)


class _KernelChecker:
    def __init__(self, report: VerificationReport) -> None:
        self.report = report
        #: every bound local name -> its arena root (see _root_of)
        self.roots: dict[str, tuple[str, object]] = {}
        self.defined: set[str] = set()
        self.assigned_once: set[str] = set()

    def _where(self, node: ast.AST) -> str:
        return f"line {getattr(node, 'lineno', '?')}"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def check_module(self, tree: ast.Module) -> None:
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        if len(tree.body) != 1 or len(funcs) != 1:
            self.report.add(
                "kernel-structure",
                "kernel module must contain exactly one function "
                f"definition, found {len(tree.body)} statement(s)",
            )
            return
        make = funcs[0]
        if make.name != "make_fused":
            self.report.add(
                "kernel-structure",
                f"factory is named {make.name!r}, expected 'make_fused'",
                self._where(make),
            )
        args = [a.arg for a in make.args.args]
        if args != ["stacks", "dtype"]:
            self.report.add(
                "kernel-structure",
                f"factory signature make_fused({', '.join(args)}) is "
                "not make_fused(stacks, dtype)",
                self._where(make),
            )
        self.defined |= set(args)
        for arg in args:
            self.roots[arg] = ("arg", arg)
        # The stack table itself is a root.
        self.roots["stacks"] = ("stacks", None)

        inner: ast.FunctionDef | None = None
        returned = False
        for stmt in make.body:
            if isinstance(stmt, ast.FunctionDef):
                if inner is not None:
                    self.report.add(
                        "kernel-structure",
                        "more than one inner function in make_fused",
                        self._where(stmt),
                    )
                inner = stmt
                continue
            if isinstance(stmt, ast.Return):
                returned = True
                if not (
                    isinstance(stmt.value, ast.Name)
                    and inner is not None
                    and stmt.value.id == inner.name
                ):
                    self.report.add(
                        "kernel-structure",
                        "make_fused must return its inner hot function",
                        self._where(stmt),
                    )
                continue
            self.check_statement(stmt, hot=False)
        if inner is None or not returned:
            self.report.add(
                "kernel-structure",
                "make_fused must define and return a hot inner function",
                self._where(make),
            )
            return
        if [a.arg for a in inner.args.args] != ["params"]:
            self.report.add(
                "kernel-structure",
                f"hot function {inner.name} must take exactly (params)",
                self._where(inner),
            )
        self.defined.add("params")
        self.roots["params"] = ("arg", "params")
        for stmt in inner.body:
            self.check_statement(stmt, hot=True)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def check_statement(self, stmt: ast.stmt, hot: bool) -> None:
        if isinstance(stmt, ast.Pass):
            return
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                self.report.add(
                    "kernel-statement",
                    "chained assignment is not generated code",
                    self._where(stmt),
                )
                return
            self.check_expr(stmt.value)
            self._bind_target(stmt.targets[0], stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            # Scatter accumulate: `view[row] += scratch[s]`.  The target
            # must be a subscript of a bound view, never a fresh name.
            self.check_expr(stmt.value)
            if not isinstance(stmt.target, ast.Subscript):
                self.report.add(
                    "kernel-statement",
                    "augmented assignment to a bare name is not "
                    "generated code",
                    self._where(stmt),
                )
                return
            self.check_expr(stmt.target.value)
            self.check_expr(stmt.target.slice)
            return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            self.check_call(stmt.value)
            return
        self.report.add(
            "kernel-statement",
            f"unexpected statement {type(stmt).__name__}",
            self._where(stmt),
        )

    def _bind_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.assigned_once:
                self.report.add(
                    "kernel-multi-assign",
                    f"name {target.id!r} assigned more than once — CSE "
                    "temps and views must be single-assignment",
                    self._where(target),
                )
            self.assigned_once.add(target.id)
            self.defined.add(target.id)
            self.roots[target.id] = self._root_of(value)
            return
        if isinstance(target, ast.Subscript):
            # Stores like `i0_v[1, 1] = ...` or `i0_g[:] = 0`: the base
            # must be a bound arena view, not an unknown name.
            self.check_expr(target.value)
            self.check_expr(target.slice)
            return
        self.report.add(
            "kernel-statement",
            f"unexpected assignment target {type(target).__name__}",
            self._where(target),
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def check_expr(self, node: ast.expr) -> None:
        # Hand-rolled traversal: this runs over every expression of
        # every generated statement, and the generic ``ast.walk`` /
        # ``iter_child_nodes`` machinery dominates lint time.  The
        # common node kinds push their children directly; anything
        # else falls back to generic child iteration.
        stack: list[ast.AST] = [node]
        pop = stack.pop
        push = stack.append
        defined = self.defined
        while stack:
            sub = pop()
            if type(sub) is ast.Name:
                if (
                    sub.id not in defined
                    and sub.id not in SCALAR_GLOBALS
                    and type(sub.ctx) is ast.Load
                ):
                    self.report.add(
                        "kernel-unbound-name",
                        f"name {sub.id!r} is not bound by the factory "
                        "arguments, a prior assignment, or the writer "
                        "globals",
                        self._where(sub),
                    )
            elif type(sub) is ast.Constant:
                pass
            elif type(sub) is ast.Attribute:
                self._check_attribute(sub)
                push(sub.value)
            elif type(sub) is ast.Subscript:
                push(sub.value)
                push(sub.slice)
            elif type(sub) is ast.Call:
                self._check_callable(sub)
                push(sub.func)
                for arg in sub.args:
                    push(arg)
                for kw in sub.keywords:
                    if kw.value is not None:
                        push(kw.value)
            elif type(sub) is ast.Tuple:
                for elt in sub.elts:
                    push(elt)
            elif type(sub) is ast.List:
                for elt in sub.elts:
                    push(elt)
            elif type(sub) is ast.BinOp:
                push(sub.left)
                push(sub.right)
            elif type(sub) is ast.UnaryOp:
                push(sub.operand)
            elif type(sub) is ast.Slice:
                for part in (sub.lower, sub.upper, sub.step):
                    if part is not None:
                        push(part)
            else:
                for child in ast.iter_child_nodes(sub):
                    push(child)

    def check_call(self, call: ast.Call) -> None:
        self._check_callable(call)
        for arg in call.args:
            self.check_expr(arg)
        out_root: tuple[str, object] | None = None
        for kw in call.keywords:
            if kw.value is not None:
                self.check_expr(kw.value)
            if kw.arg == "out":
                out_root = self._root_of(kw.value)
        func_name = self._attr_chain(call.func)
        inputs = list(call.args)
        if func_name == "np.copyto" and call.args:
            # copyto(dst, src): the first positional arg is the target.
            out_root = self._root_of(call.args[0])
            inputs = call.args[1:]
        if out_root is not None and out_root[0] == "stacks":
            for arg in inputs:
                in_root = self._root_of(arg)
                if in_root == out_root:
                    self.report.add(
                        "kernel-out-aliasing",
                        f"{func_name or 'call'} writes "
                        f"{_render_root(out_root)} while reading an "
                        "input viewing the same arena buffer — out= "
                        "must never alias a live input",
                        self._where(call),
                    )

    def _check_callable(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id not in SCALAR_GLOBALS:
                self.report.add(
                    "kernel-rogue-callable",
                    f"call to non-whitelisted name {func.id!r}",
                    self._where(call),
                )
            return
        if isinstance(func, ast.Attribute):
            self._check_attribute(func, called=True)
            return
        self.report.add(
            "kernel-rogue-callable",
            f"call through a {type(func).__name__} expression",
            self._where(call),
        )

    def _check_attribute(
        self, node: ast.Attribute, called: bool = False
    ) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "np":
            if node.attr not in NUMPY_WHITELIST:
                self.report.add(
                    "kernel-rogue-callable",
                    f"np.{node.attr} is not a whitelisted numpy "
                    "callable",
                    self._where(node),
                )
            return
        if called and node.attr not in ARRAY_METHOD_WHITELIST:
            self.report.add(
                "kernel-rogue-callable",
                f"method .{node.attr}() is not a whitelisted array "
                "method",
                self._where(node),
            )

    # ------------------------------------------------------------------
    # Arena-root resolution (for out= aliasing)
    # ------------------------------------------------------------------
    def _root_of(self, node: ast.expr | None) -> tuple[str, object]:
        """Which storage a view expression ultimately aliases.

        ``stacks[3][16:].reshape(...)`` -> ``("stacks", 3)``;
        ``np.zeros(...)`` -> fresh scratch; a bound name inherits the
        root recorded at its single assignment.
        """
        while node is not None:
            if isinstance(node, ast.Name):
                return self.roots.get(node.id, ("unknown", node.id))
            if isinstance(node, ast.Subscript):
                base = node.value
                if isinstance(base, ast.Name) and base.id == "stacks":
                    idx = node.slice
                    if isinstance(idx, ast.Constant) and isinstance(
                        idx.value, int
                    ):
                        return (base.id, idx.value)
                    return (base.id, "?")
                node = base
                continue
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if (
                        isinstance(func.value, ast.Name)
                        and func.value.id == "np"
                    ):
                        return ("fresh", func.attr)
                    # array method chain: .reshape(...) / .transpose(...)
                    node = func.value
                    continue
                return ("unknown", None)
            if isinstance(node, ast.Attribute):
                node = node.value
                continue
            return ("literal", None)
        return ("literal", None)

    def _attr_chain(self, node: ast.expr) -> str:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return ".".join(reversed(parts))


def _render_root(root: tuple[str, object]) -> str:
    kind, idx = root
    return f"{kind}[{idx}]" if idx is not None else kind
