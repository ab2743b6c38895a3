"""CompiledExpression: the JIT'd form of a QGL unitary expression."""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..egraph.runner import RunnerLimits, simplify_all
from ..symbolic.matrix import ExpressionMatrix
from .codegen import CodegenResult, compile_source, compile_writer

__all__ = ["CompiledExpression"]


class CompiledExpression:
    """A gate expression compiled to fast native-Python writers.

    Construction performs the full expression pipeline from paper
    sections III-C and IV-B:

    1. symbolic differentiation of the unitary (if ``grad=True``),
    2. a joint e-graph simplification pass over every real/imaginary
       component of the unitary and gradient (if ``simplify=True``),
    3. code generation and compilation of the specialized writers.

    The compiled object is immutable and safe to share: the TNVM of
    every circuit referencing the same gate reuses one instance through
    the :class:`~repro.jit.cache.ExpressionCache`.
    """

    __slots__ = (
        "matrix",
        "shape",
        "radices",
        "num_params",
        "name",
        "_result",
        "simplified",
        "_has_grad",
        "_entries",
        "_batched_result",
    )

    def __init__(
        self,
        matrix: ExpressionMatrix,
        grad: bool = True,
        simplify: bool = True,
        limits: RunnerLimits | None = None,
    ):
        self.matrix = matrix
        self.shape = matrix.shape
        self.radices = tuple(matrix.radices)
        self.num_params = matrix.num_params
        self.name = matrix.name

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

        unitary_entries = [
            (slot, roots[base], roots[base + 1]) for slot, base in u_slots
        ]
        grad_entries = [
            (slot, roots[base], roots[base + 1]) for slot, base in g_slots
        ]
        func_name = _sanitize(matrix.name) or "expr"
        self._result: CodegenResult = compile_writer(
            unitary_entries, grad_entries, matrix.params, func_name
        )
        # Retained so the batched writer variant can be generated on
        # demand (the batched TNVM is the only consumer; compiling it
        # eagerly would double JIT latency for every scalar user).
        self._entries = (unitary_entries, grad_entries, func_name)
        self._batched_result: CodegenResult | None = None

    # ------------------------------------------------------------------
    # Serialization (cross-process engine sharing)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the *products* of the expensive pipeline.

        The generated source (plus its codegen metadata) stands in for
        the unpicklable compiled functions; the simplified entry triples
        are kept so the batched writer variant can still be generated
        on demand after rehydration.  Differentiation and e-graph
        simplification are never re-run on load.
        """
        result = self._result
        batched = self._batched_result
        return {
            "matrix": self.matrix,
            "simplified": self.simplified,
            "has_grad": self._has_grad,
            "entries": self._entries,
            "source": result.source,
            "num_dynamic": result.num_dynamic_entries,
            "num_constant": result.num_constant_entries,
            "total_cost": result.total_cost,
            "batched_source": batched.source if batched is not None else None,
        }

    def __setstate__(self, state):
        matrix = state["matrix"]
        self.matrix = matrix
        self.shape = matrix.shape
        self.radices = tuple(matrix.radices)
        self.num_params = matrix.num_params
        self.name = matrix.name
        self.simplified = state["simplified"]
        self._has_grad = state["has_grad"]
        self._entries = state["entries"]
        func_name = self._entries[2]
        self._result = compile_source(
            state["source"],
            func_name,
            False,
            state["num_dynamic"],
            state["num_constant"],
            state["total_cost"],
        )
        batched_source = state["batched_source"]
        self._batched_result = (
            compile_source(
                batched_source,
                func_name + "_batched",
                True,
                state["num_dynamic"],
                state["num_constant"],
                state["total_cost"],
            )
            if batched_source is not None
            else None
        )

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    @property
    def write(self):
        """``write(params, out, grad=None)`` — the JIT'd hot function."""
        return self._result.write

    @property
    def write_constants(self):
        """One-time writer for parameter-independent entries.

        Constant entries are written as complex scalars, so the same
        function also initializes batched views (the scalar assignment
        broadcasts over the trailing batch axis).
        """
        return self._result.write_constants

    @property
    def write_batched(self):
        """``write(param_rows, out, grad=None)`` vectorized over a batch.

        ``param_rows[k]`` is a length-``S`` vector and ``out``/``grad``
        carry a trailing batch axis of length ``S``.  Compiled lazily on
        first access and cached on the (shared) instance; compilation is
        idempotent, so a benign race at worst compiles twice.
        """
        result = self._batched_result
        if result is None:
            unitary_entries, grad_entries, func_name = self._entries
            result = compile_writer(
                unitary_entries,
                grad_entries,
                self.matrix.params,
                func_name + "_batched",
                batched=True,
            )
            self._batched_result = result
        return result.write

    @property
    def entries(self):
        """The simplified ``(unitary_entries, grad_entries)`` triples.

        These are the exact post-simplification expression trees the
        writers were generated from; the TNVM megakernel re-emits
        them inline (via :func:`~repro.jit.codegen.generate_inline_write`)
        so a megakernel computes bit-identical values to the standalone
        writers.
        """
        return self._entries[0], self._entries[1]

    # ------------------------------------------------------------------
    # Convenience (allocating) entry points
    # ------------------------------------------------------------------
    def unitary(self, params=(), dtype=np.complex128) -> np.ndarray:
        self._check(params)
        out = np.zeros(self.shape, dtype=dtype)
        if self._has_grad:
            # The hot writer was specialized for gradient output; feed
            # it a throwaway stack on this (cold) convenience path.
            grad = np.zeros((self.num_params,) + self.shape, dtype=dtype)
            self._result.write(params, out, grad)
        else:
            self._result.write(params, out)
        self._result.write_constants(out)
        return out

    def unitary_and_grad(
        self, params=(), dtype=np.complex128
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check(params)
        out = np.zeros(self.shape, dtype=dtype)
        grad = np.zeros((self.num_params,) + self.shape, dtype=dtype)
        self._result.write_constants(out, grad)
        self._result.write(params, out, grad)
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
        return self._result.source

    @property
    def total_cost(self) -> float:
        """Table I cost of the compiled dynamic entries."""
        return self._result.total_cost

    @property
    def num_dynamic_entries(self) -> int:
        """Entries rewritten on every call (parameter-dependent)."""
        return self._result.num_dynamic_entries

    @property
    def num_constant_entries(self) -> int:
        """Entries written once at initialization."""
        return self._result.num_constant_entries

    def __repr__(self) -> str:
        return (
            f"<CompiledExpression {self.name or '?'} {self.shape} "
            f"params={self.num_params} cost={self.total_cost:.1f}>"
        )


def _sanitize(name: str | None) -> str:
    if not name:
        return ""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)
