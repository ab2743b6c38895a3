"""The ExpressionCache (paper section IV-B).

JIT compilation of a single QGL expression costs milliseconds while one
numerical evaluation costs microseconds; the cache amortizes that cost.
Expressions are keyed by their *alpha-renamed canonical form* — two
gates that differ only in parameter names (or object identity) share one
compiled artifact — so each unique QGL expression is compiled exactly
once per process, across all circuits and TNVM instantiations.
"""

from __future__ import annotations

import threading

from .. import telemetry
from ..egraph.runner import RunnerLimits
from ..symbolic.matrix import ExpressionMatrix
from .compiled import CompiledExpression

__all__ = ["ExpressionCache", "global_cache", "canonical_key"]


def canonical_key(matrix: ExpressionMatrix, grad: bool, simplify: bool) -> tuple:
    """A hashable alpha-invariant key for a gate expression.

    The element part is memoized on the matrix
    (:meth:`~repro.symbolic.matrix.ExpressionMatrix.alpha_parts`), so
    keying a shared library gate again is a lookup.
    """
    return (
        matrix.shape,
        tuple(matrix.radices),
        len(matrix.params),
        grad,
        simplify,
        matrix.alpha_parts(),
    )


class ExpressionCache:
    """Shared, thread-safe cache of :class:`CompiledExpression` objects.

    :attr:`hits` and :attr:`misses` count this cache's lookups; each
    also mirrors into the process-wide ``expression_cache.hits`` /
    ``expression_cache.misses`` registry counter, which aggregates over
    every cache in the process.
    """

    def __init__(self, limits: RunnerLimits | None = None):
        self._entries: dict[tuple, CompiledExpression] = {}
        self._lock = threading.Lock()
        self._limits = limits
        self._reset_counters()

    def _reset_counters(self) -> None:
        registry = telemetry.metrics()
        self._hits = registry.counter("expression_cache.hits").child()
        self._misses = registry.counter("expression_cache.misses").child()

    @property
    def hits(self) -> int:
        """Lookups this cache answered from an existing entry."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Lookups that compiled a new entry."""
        return self._misses.value

    def get(
        self,
        matrix: ExpressionMatrix,
        grad: bool = True,
        simplify: bool = True,
    ) -> CompiledExpression:
        """Fetch (or compile and insert) the JIT'd form of ``matrix``."""
        key = canonical_key(matrix, grad, simplify)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits.add()
                return entry
        # Compile outside the lock; duplicate compiles are harmless and
        # the second insert wins the race benignly.
        compiled = CompiledExpression(
            matrix, grad=grad, simplify=simplify, limits=self._limits
        )
        with self._lock:
            self._entries.setdefault(key, compiled)
            self._misses.add()
            return self._entries[key]

    def put(self, compiled: CompiledExpression) -> None:
        """Seed the cache with an already-compiled expression.

        Used when a serialized engine is rehydrated in another process:
        the shipped :class:`CompiledExpression` objects are inserted
        under the same alpha-invariant key :meth:`get` computes, so the
        TNVM setup that follows hits for every expression instead of
        re-paying differentiation + simplification + codegen.  An
        existing entry wins (it may already be in use by live VMs).
        """
        key = canonical_key(
            compiled.matrix, compiled._has_grad, compiled.simplified
        )
        with self._lock:
            self._entries.setdefault(key, compiled)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and restart this cache's counts (the
        registry counters keep their process-wide totals)."""
        with self._lock:
            self._entries.clear()
            self._reset_counters()


_GLOBAL = ExpressionCache()


def global_cache() -> ExpressionCache:
    """The process-wide default cache used by circuits and TNVMs."""
    return _GLOBAL
