"""CompiledExpression: the JIT'd form of a QGL unitary expression."""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..egraph.runner import RunnerLimits, simplify_all
from ..symbolic.matrix import ExpressionMatrix
from .codegen import CodegenResult, compile_writer

__all__ = ["CompiledExpression"]


class CompiledExpression:
    """A gate expression compiled to fast native-Python writers.

    Construction performs the expensive half of the expression
    pipeline from paper sections III-C and IV-B:

    1. symbolic differentiation of the unitary (if ``grad=True``),
    2. a joint e-graph simplification pass over every real/imaginary
       component of the unitary and gradient (if ``simplify=True``).

    The simplified entries are all an instance keeps.  Code generation
    runs on first use: the scalar writer pair on the first ``write``,
    ``source``, cost or count access, the batched writer on the first
    ``write_batched``; ``write_constants`` takes either, compiling the
    scalar pair only when neither exists.  The scalar TNVM needs
    neither, since its megakernel inlines :attr:`entries` directly.

    The object is safe to share: the TNVM of every circuit referencing
    the same gate reuses one instance through the
    :class:`~repro.jit.cache.ExpressionCache`.
    """

    __slots__ = (
        "matrix",
        "shape",
        "radices",
        "num_params",
        "name",
        "simplified",
        "_has_grad",
        "_entries",
        "_writers",
    )

    def __init__(
        self,
        matrix: ExpressionMatrix,
        grad: bool = True,
        simplify: bool = True,
        limits: RunnerLimits | None = None,
    ):
        self._bind_matrix(matrix)
        grads = matrix.gradient() if grad else []
        self._has_grad = bool(grads)

        # Collect every scalar component in deterministic order; the
        # greedy extractor's zero-cost CSE works across this whole batch.
        roots = []
        u_slots = []
        for (i, j), elem in matrix.elements():
            u_slots.append(((i, j), len(roots)))
            roots.append(elem.re)
            roots.append(elem.im)
        g_slots = []
        for k, gmat in enumerate(grads):
            for (i, j), elem in gmat.elements():
                g_slots.append(((k, i, j), len(roots)))
                roots.append(elem.re)
                roots.append(elem.im)

        if simplify:
            with telemetry.tracer().span(
                "egraph.simplify", category="compile",
                expr=matrix.name, roots=len(roots),
            ):
                roots = simplify_all(roots, limits=limits)
            telemetry.metrics().counter("compile.egraph_runs").add()
        self.simplified = simplify

        self._entries = (
            [(slot, roots[base], roots[base + 1]) for slot, base in u_slots],
            [(slot, roots[base], roots[base + 1]) for slot, base in g_slots],
        )

    def _bind_matrix(self, matrix: ExpressionMatrix) -> None:
        self.matrix = matrix
        self.shape = matrix.shape
        self.radices = tuple(matrix.radices)
        self.num_params = matrix.num_params
        self.name = matrix.name
        #: generated writers, keyed by ``batched``; filled on first use
        self._writers: dict[bool, CodegenResult] = {}

    # ------------------------------------------------------------------
    # Serialization (cross-process engine sharing)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the *products* of the expensive pipeline: the
        simplified entry triples.  No generated code ships; a
        rehydrated instance regenerates each writer on first use, and
        never re-runs differentiation or e-graph simplification."""
        return {
            "matrix": self.matrix,
            "simplified": self.simplified,
            "has_grad": self._has_grad,
            "entries": self._entries,
        }

    def __setstate__(self, state):
        self._bind_matrix(state["matrix"])
        self.simplified = state["simplified"]
        self._has_grad = state["has_grad"]
        self._entries = state["entries"]

    def _writer(self, batched: bool) -> CodegenResult:
        """The scalar or batched writer, generated on first use and
        memoized on the (shared) instance.  Generation is idempotent,
        so a benign race at worst compiles twice."""
        result = self._writers.get(batched)
        if result is None:
            func_name = _sanitize(self.name) or "expr"
            result = compile_writer(
                *self._entries,
                self.matrix.params,
                func_name + "_batched" if batched else func_name,
                batched=batched,
            )
            self._writers[batched] = result
        return result

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    @property
    def write(self):
        """``write(params, out, grad=None)`` — the JIT'd hot function."""
        return self._writer(False).write

    @property
    def write_constants(self):
        """One-time writer for parameter-independent entries.

        Constant entries are written as complex scalars, so the same
        function also initializes batched views (the scalar assignment
        broadcasts over the trailing batch axis).  Both writers carry
        the same constants functions, so this takes whichever is
        already compiled.
        """
        writer = self._writers.get(False) or self._writers.get(True)
        return (writer or self._writer(False)).write_constants

    @property
    def write_batched(self):
        """``write(param_rows, out, grad=None)`` vectorized over a batch.

        ``param_rows[k]`` is a length-``S`` vector and ``out``/``grad``
        carry a trailing batch axis of length ``S``.
        """
        return self._writer(True).write

    @property
    def entries(self):
        """The simplified ``(unitary_entries, grad_entries)`` triples.

        These are the exact post-simplification expression trees every
        writer is generated from: the standalone writers and the TNVM
        megakernel all emit them through
        :func:`~repro.jit.codegen.generate_inline_write`, so they
        compute bit-identical values.
        """
        return self._entries

    # ------------------------------------------------------------------
    # Convenience (allocating) entry points
    # ------------------------------------------------------------------
    def unitary(self, params=(), dtype=np.complex128) -> np.ndarray:
        self._check(params)
        out = np.zeros(self.shape, dtype=dtype)
        writer = self._writer(False)
        if self._has_grad:
            # The hot writer was specialized for gradient output; feed
            # it a throwaway stack on this (cold) convenience path.
            grad = np.zeros((self.num_params,) + self.shape, dtype=dtype)
            writer.write(params, out, grad)
        else:
            writer.write(params, out)
        writer.write_constants(out)
        return out

    def unitary_and_grad(
        self, params=(), dtype=np.complex128
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check(params)
        out = np.zeros(self.shape, dtype=dtype)
        grad = np.zeros((self.num_params,) + self.shape, dtype=dtype)
        writer = self._writer(False)
        writer.write_constants(out, grad)
        writer.write(params, out, grad)
        return out, grad

    def _check(self, params) -> None:
        if len(params) != self.num_params:
            raise ValueError(
                f"{self.name or 'expression'} expects {self.num_params} "
                f"parameters, got {len(params)}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def source(self) -> str:
        """The generated Python source (the JIT 'assembly listing')."""
        return self._writer(False).source

    @property
    def total_cost(self) -> float:
        """Table I cost of the compiled dynamic entries."""
        return self._writer(False).total_cost

    @property
    def num_dynamic_entries(self) -> int:
        """Entries rewritten on every call (parameter-dependent)."""
        return self._writer(False).num_dynamic_entries

    @property
    def num_constant_entries(self) -> int:
        """Entries written once at initialization."""
        return self._writer(False).num_constant_entries

    def __repr__(self) -> str:
        return (
            f"<CompiledExpression {self.name or '?'} {self.shape} "
            f"params={self.num_params} cost={self.total_cost:.1f}>"
        )


def _sanitize(name: str | None) -> str:
    if not name:
        return ""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)
