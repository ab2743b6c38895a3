"""The OpenQudit matrix IR: a 2-D array of complex symbolic expressions.

After parsing, QGL definitions are lowered into this representation
(paper section III-B).  It supports the full composability suite —
matrix multiplication, Kronecker product, Hadamard product, substitution,
conjugation/transposition/dagger, controlled and inverse construction —
as well as symbolic differentiation and tensor axis selection (used by
the AOT compiler to slice first-layer gates for column contracts).

Elements are stored in a NumPy object array, which provides reshape and
axis permutation for free while each element remains a
:class:`~repro.symbolic.complexexpr.ComplexExpr`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from . import expr as E
from .complexexpr import CONE, CZERO, ComplexExpr
from .diff import differentiate_complex
from .expr import Expr

__all__ = ["ExpressionMatrix"]


class ExpressionMatrix:
    """A matrix of :class:`ComplexExpr` elements with named parameters.

    Parameters
    ----------
    elements:
        2-D nested sequence (or object ndarray) of ``ComplexExpr``.
    params:
        Ordered parameter names.  If omitted, the sorted free variables
        of all elements are used.
    radices:
        Qudit dimensions for the rows; the matrix must be square with
        dimension ``prod(radices)``.  If omitted the dimension must be a
        power of two and radices default to all-2 (paper section III-A).
    name:
        Optional display name (e.g. ``"U3"``).
    """

    __slots__ = ("_data", "params", "radices", "name", "_alpha_parts")

    def __init__(
        self,
        elements,
        params: Sequence[str] | None = None,
        radices: Sequence[int] | None = None,
        name: str | None = None,
    ):
        data = np.empty(
            (len(elements), len(elements[0])), dtype=object
        ) if not isinstance(elements, np.ndarray) else None
        if data is not None:
            for i, row in enumerate(elements):
                if len(row) != data.shape[1]:
                    raise ValueError("ragged matrix rows")
                for j, elem in enumerate(row):
                    data[i, j] = _coerce_elem(elem)
        else:
            if elements.ndim != 2:
                raise ValueError("ExpressionMatrix must be 2-D")
            data = elements.astype(object, copy=True)
            for idx in np.ndindex(data.shape):
                data[idx] = _coerce_elem(data[idx])
        object.__setattr__(self, "_data", data)

        free: set[str] = set()
        for idx in np.ndindex(data.shape):
            free.update(data[idx].free_variables())
        if params is None:
            params = tuple(sorted(free))
        else:
            params = tuple(params)
            missing = free.difference(params)
            if missing:
                raise ValueError(
                    f"elements use undeclared parameters: {sorted(missing)}"
                )
        object.__setattr__(self, "params", params)

        dim = data.shape[0]
        if radices is None:
            # Default to qubits when the dimension is a power of two
            # (paper section III-A); otherwise leave radices unknown.
            # The strict "must be a power of two if radices omitted"
            # rule for gate *definitions* is enforced by the QGL parser.
            n = _log2_exact(dim) if dim == data.shape[1] else None
            radices = (2,) * n if n is not None else ()
        else:
            radices = tuple(int(r) for r in radices)
            if any(r < 2 for r in radices):
                raise ValueError("every radix must be >= 2")
            if math.prod(radices) != dim:
                raise ValueError(
                    f"radices {radices} imply dimension "
                    f"{math.prod(radices)}, matrix has {dim} rows"
                )
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_alpha_parts", None)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("ExpressionMatrix is immutable")

    def __reduce__(self):
        # The immutability guard breaks default slot-state pickling;
        # rebuild through the constructor (elements as nested lists so
        # the object ndarray never hits pickle directly).
        rows = [
            [self._data[i, j] for j in range(self._data.shape[1])]
            for i in range(self._data.shape[0])
        ]
        return (
            ExpressionMatrix,
            (rows, self.params, self.radices or None, self.name),
        )

    # ------------------------------------------------------------------
    # Basic constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(
        dim: int, radices: Sequence[int] | None = None
    ) -> ExpressionMatrix:
        rows = [
            [CONE if i == j else CZERO for j in range(dim)]
            for i in range(dim)
        ]
        return ExpressionMatrix(rows, params=(), radices=radices, name="I")

    @staticmethod
    def from_numpy(
        array: np.ndarray,
        radices: Sequence[int] | None = None,
        name: str | None = None,
    ) -> ExpressionMatrix:
        """Lift a constant numeric matrix into the IR."""
        array = np.asarray(array)
        rows = [
            [ComplexExpr.from_complex(complex(array[i, j]))
             for j in range(array.shape[1])]
            for i in range(array.shape[0])
        ]
        return ExpressionMatrix(rows, params=(), radices=radices, name=name)

    # ------------------------------------------------------------------
    # Shape and access
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def num_params(self) -> int:
        return len(self.params)

    @property
    def num_qudits(self) -> int:
        return len(self.radices)

    def __getitem__(self, key) -> ComplexExpr:
        return self._data[key]

    def elements(self) -> Iterable[tuple[tuple[int, int], ComplexExpr]]:
        for idx in np.ndindex(self._data.shape):
            yield idx, self._data[idx]

    def node_count(self) -> int:
        """Total node count across all element expressions."""
        return sum(e.node_count() for _, e in self.elements())

    def alpha_parts(self) -> tuple[str, ...]:
        """Every element's real and imaginary s-expression, with the
        parameters renamed ``_p0, _p1, ...`` in declared order.

        This is the alpha-invariant body of the expression cache's key
        (:func:`~repro.jit.cache.canonical_key`).  It is computed once
        per instance: every circuit and program sharing a library gate
        then keys it by lookup.
        """
        parts = self._alpha_parts
        if parts is None:
            rename = {p: f"_p{k}" for k, p in enumerate(self.params)}
            parts = []
            for _, elem in self.elements():
                renamed = elem.rename_variables(rename)
                parts.append(E.to_sexpr(renamed.re))
                parts.append(E.to_sexpr(renamed.im))
            parts = tuple(parts)
            object.__setattr__(self, "_alpha_parts", parts)
        return parts

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other: ExpressionMatrix) -> ExpressionMatrix:
        if self.shape[1] != other.shape[0]:
            raise ValueError(
                f"matmul dimension mismatch: {self.shape} @ {other.shape}"
            )
        n, k = self.shape
        m = other.shape[1]
        out = np.empty((n, m), dtype=object)
        for i in range(n):
            for j in range(m):
                acc = CZERO
                for t in range(k):
                    a = self._data[i, t]
                    b = other._data[t, j]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a * b
                out[i, j] = acc
        return ExpressionMatrix(
            out,
            params=_merge_params(self.params, other.params),
            radices=self.radices if self.radices else None,
        )

    def kron(self, other: ExpressionMatrix) -> ExpressionMatrix:
        """Kronecker product (paper section III-B)."""
        n1, m1 = self.shape
        n2, m2 = other.shape
        out = np.empty((n1 * n2, m1 * m2), dtype=object)
        for i1 in range(n1):
            for j1 in range(m1):
                a = self._data[i1, j1]
                for i2 in range(n2):
                    for j2 in range(m2):
                        b = other._data[i2, j2]
                        if a.is_zero or b.is_zero:
                            out[i1 * n2 + i2, j1 * m2 + j2] = CZERO
                        else:
                            out[i1 * n2 + i2, j1 * m2 + j2] = a * b
        return ExpressionMatrix(
            out,
            params=_merge_params(self.params, other.params),
            radices=tuple(self.radices) + tuple(other.radices),
        )

    def hadamard(self, other: ExpressionMatrix) -> ExpressionMatrix:
        """Element-wise product."""
        if self.shape != other.shape:
            raise ValueError("hadamard requires identical shapes")
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self._data[idx] * other._data[idx]
        return ExpressionMatrix(
            out,
            params=_merge_params(self.params, other.params),
            radices=self.radices if self.radices else None,
        )

    def __add__(self, other: ExpressionMatrix) -> ExpressionMatrix:
        if self.shape != other.shape:
            raise ValueError("addition requires identical shapes")
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self._data[idx] + other._data[idx]
        return ExpressionMatrix(
            out,
            params=_merge_params(self.params, other.params),
            radices=self.radices if self.radices else None,
        )

    def scale(self, factor: ComplexExpr | complex | float) -> ExpressionMatrix:
        if not isinstance(factor, ComplexExpr):
            factor = ComplexExpr.from_complex(complex(factor))
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self._data[idx] * factor
        return ExpressionMatrix(
            out,
            params=_merge_params(self.params, factor.free_variables()),
            radices=self.radices if self.radices else None,
        )

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------
    def transpose(self) -> ExpressionMatrix:
        return ExpressionMatrix(
            self._data.T.copy(),
            params=self.params,
            radices=self.radices if self.radices else None,
            name=_suffix(self.name, "T"),
        )

    def conjugate(self) -> ExpressionMatrix:
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self._data[idx].conjugate()
        return ExpressionMatrix(
            out,
            params=self.params,
            radices=self.radices if self.radices else None,
            name=_suffix(self.name, "conj"),
        )

    def dagger(self) -> ExpressionMatrix:
        """Conjugate transpose — the inverse of a unitary gate."""
        return self.conjugate().transpose()

    inverse = dagger

    def trace(self) -> ComplexExpr:
        if self.shape[0] != self.shape[1]:
            raise ValueError("trace of non-square matrix")
        acc = CZERO
        for i in range(self.shape[0]):
            acc = acc + self._data[i, i]
        return acc

    def substitute(self, mapping: Mapping[str, Expr]) -> ExpressionMatrix:
        """Substitute parameter expressions into every element.

        Surviving parameters keep their declared order; variables
        introduced by the substitution are appended in first-use order.
        """
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self._data[idx].substitute(mapping)
        params = [p for p in self.params if p not in mapping]
        seen = set(params)
        for p in self.params:
            if p in mapping:
                for name in E.free_variables(mapping[p]):
                    if name not in seen:
                        seen.add(name)
                        params.append(name)
        return ExpressionMatrix(
            out,
            params=tuple(params),
            radices=self.radices if self.radices else None,
            name=self.name,
        )

    def rename_params(self, mapping: Mapping[str, str]) -> ExpressionMatrix:
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = self._data[idx].rename_variables(mapping)
        params = tuple(mapping.get(p, p) for p in self.params)
        return ExpressionMatrix(
            out,
            params=params,
            radices=self.radices if self.radices else None,
            name=self.name,
        )

    def bind(self, values: Mapping[str, float]) -> ExpressionMatrix:
        """Fix some parameters to numeric constants."""
        mapping = {k: E.const(v) for k, v in values.items()}
        return self.substitute(mapping)

    def controlled(
        self, control_radix: int = 2, control_levels: Sequence[int] = (1,)
    ) -> ExpressionMatrix:
        """Add a control qudit in front of the gate.

        The gate applies when the control is in one of
        ``control_levels``; otherwise identity.  This is the on-the-fly
        composite-gate construction from paper section III-B.
        """
        levels = set(control_levels)
        if any(l < 0 or l >= control_radix for l in levels):
            raise ValueError("control level out of range for radix")
        dim = self.dim
        big = control_radix * dim
        out = np.empty((big, big), dtype=object)
        for idx in np.ndindex((big, big)):
            out[idx] = CZERO
        for c in range(control_radix):
            block = self._data if c in levels else None
            for i in range(dim):
                for j in range(dim):
                    if block is None:
                        out[c * dim + i, c * dim + j] = (
                            CONE if i == j else CZERO
                        )
                    else:
                        out[c * dim + i, c * dim + j] = block[i, j]
        return ExpressionMatrix(
            out,
            params=self.params,
            radices=(control_radix,) + tuple(self.radices),
            name=_suffix(self.name, "ctrl"),
        )

    def select_axes(
        self,
        shape: Sequence[int],
        fixed: Mapping[int, int],
        out_shape: tuple[int, int],
    ) -> ExpressionMatrix:
        """Fix tensor axes at basis values, symbolically.

        The elements are viewed as a tensor of ``shape``; each axis in
        ``fixed`` is indexed at its basis digit (dropping the axis) and
        the surviving elements are reshaped to the 2-D ``out_shape``.
        This is how the AOT compiler's output-contract specialization
        slices a first-layer gate at a fixed input column: the resulting
        expression keeps the full declared parameter list (some may no
        longer appear — e.g. a control branch sliced away), so WRITE
        slot arity is preserved and sliced gates stay interchangeable
        with their full forms in the bytecode.
        """
        tensor = self._data.reshape(tuple(shape))
        indexer = tuple(
            int(fixed[ax]) if ax in fixed else slice(None)
            for ax in range(len(shape))
        )
        out = tensor[indexer].reshape(out_shape).copy()
        return ExpressionMatrix(
            out, params=self.params, radices=None,
            name=_suffix(self.name, "sel"),
        )

    def partial_trace_expr(
        self, row_pairs: Sequence[tuple[int, int]]
    ) -> ExpressionMatrix:
        """Trace out paired (row-axis, col-axis) index pairs symbolically.

        ``row_pairs`` lists (output-qudit position, input-qudit position)
        pairs into the tensor view of shape ``radices + radices``; each
        pair is summed over.  Used when the contraction tree needs
        pre-traced leaf expressions (paper section IV-A).
        """
        import itertools

        rads = tuple(self.radices)
        n = len(rads)
        pairs = [(int(o), int(i)) for o, i in row_pairs]
        for o, i in pairs:
            if rads[o] != rads[i]:
                raise ValueError("traced qudit radices must match")
        traced_out = {o for o, _ in pairs}
        traced_in = {i for _, i in pairs}
        keep_out = [q for q in range(n) if q not in traced_out]
        keep_in = [q for q in range(n) if q not in traced_in]
        tensor = self._data.reshape(rads + rads)
        rows = math.prod(rads[q] for q in keep_out) if keep_out else 1
        cols = math.prod(rads[q] for q in keep_in) if keep_in else 1
        out = np.empty((rows, cols), dtype=object)
        out_ranges = [range(rads[q]) for q in keep_out]
        in_ranges = [range(rads[q]) for q in keep_in]
        trace_ranges = [range(rads[o]) for o, _ in pairs]
        for r, out_idx in enumerate(itertools.product(*out_ranges)):
            for c, in_idx in enumerate(itertools.product(*in_ranges)):
                acc = CZERO
                for tvals in itertools.product(*trace_ranges):
                    full = [0] * (2 * n)
                    for q, v in zip(keep_out, out_idx):
                        full[q] = v
                    for q, v in zip(keep_in, in_idx):
                        full[n + q] = v
                    for (o, i), v in zip(pairs, tvals):
                        full[o] = v
                        full[n + i] = v
                    acc = acc + tensor[tuple(full)]
                out[r, c] = acc
        return ExpressionMatrix(out, params=self.params, radices=None)

    # ------------------------------------------------------------------
    # Calculus
    # ------------------------------------------------------------------
    def differentiate(self, name: str) -> ExpressionMatrix:
        out = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            out[idx] = differentiate_complex(self._data[idx], name)
        return ExpressionMatrix(
            out,
            params=self.params,
            radices=self.radices if self.radices else None,
            name=_suffix(self.name, f"d/d{name}"),
        )

    def gradient(self) -> list["ExpressionMatrix"]:
        """Analytical gradient: one matrix per parameter, in order."""
        return [self.differentiate(p) for p in self.params]

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def evaluate(
        self, params: Sequence[float] | Mapping[str, float] = ()
    ) -> np.ndarray:
        """Numerically evaluate to a complex ndarray (reference path)."""
        env = self._env(params)
        out = np.empty(self.shape, dtype=np.complex128)
        for idx in np.ndindex(self.shape):
            out[idx] = self._data[idx].evaluate(env)
        return out

    def is_unitary(
        self, params: Sequence[float] | Mapping[str, float] = (),
        tol: float = 1e-9,
    ) -> bool:
        u = self.evaluate(params)
        return bool(
            np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=tol)
        )

    def _env(self, params) -> dict[str, float]:
        if isinstance(params, Mapping):
            return dict(params)
        params = list(params)
        if len(params) != len(self.params):
            raise ValueError(
                f"expected {len(self.params)} parameters "
                f"({self.params}), got {len(params)}"
            )
        return dict(zip(self.params, map(float, params)))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        nm = self.name or "ExpressionMatrix"
        return (
            f"<{nm} {self.shape[0]}x{self.shape[1]} "
            f"params={list(self.params)} radices={list(self.radices)}>"
        )


def _coerce_elem(elem) -> ComplexExpr:
    if isinstance(elem, ComplexExpr):
        return elem
    if isinstance(elem, Expr):
        return ComplexExpr(elem, E.ZERO)
    if isinstance(elem, (int, float)):
        return ComplexExpr(E.const(float(elem)), E.ZERO)
    if isinstance(elem, complex):
        return ComplexExpr.from_complex(elem)
    raise TypeError(f"invalid matrix element: {type(elem).__name__}")


def _merge_params(a: Sequence[str], b: Sequence[str]) -> tuple[str, ...]:
    seen = dict.fromkeys(a)
    seen.update(dict.fromkeys(b))
    return tuple(seen)


def _suffix(name: str | None, tag: str) -> str | None:
    return f"{name}.{tag}" if name else None


def _log2_exact(n: int) -> int | None:
    if n < 1 or n & (n - 1):
        return None
    return n.bit_length() - 1
