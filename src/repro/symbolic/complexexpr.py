"""Complex symbolic expressions as (real, imaginary) pairs of real trees.

The OpenQudit IR stores each matrix element as "a data structure
containing separate symbolic trees for its real and imaginary parts"
(paper section III-B).  :class:`ComplexExpr` is that data structure.

Complex arithmetic is lowered eagerly: ``e^(i*x)`` becomes
``(cos x, sin x)``, products use the usual (ac - bd, ad + bc) form, and
so on.  All trigonometric content is therefore canonicalized to ``sin``
and ``cos`` for uniform processing by the e-graph and the JIT.
"""

from __future__ import annotations

from collections.abc import Mapping

from . import expr as E
from .expr import Expr

__all__ = ["ComplexExpr", "CZERO", "CONE", "CI"]


class ComplexExpr:
    """An immutable complex-valued symbolic expression.

    Attributes
    ----------
    re, im:
        Real expression trees for the real and imaginary components.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Expr | float, im: Expr | float = 0.0):
        object.__setattr__(self, "re", E._coerce(re))
        object.__setattr__(self, "im", E._coerce(im))

    def __setattr__(self, *_args) -> None:
        raise AttributeError("ComplexExpr is immutable")

    def __reduce__(self):
        # The immutability guard breaks default slot-state pickling;
        # rebuild through the constructor instead.
        return (ComplexExpr, (self.re, self.im))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_complex(z: complex) -> ComplexExpr:
        """Lift a numeric complex literal."""
        return ComplexExpr(E.const(z.real), E.const(z.imag))

    @staticmethod
    def i() -> ComplexExpr:
        return CI

    @staticmethod
    def cis(angle: Expr) -> ComplexExpr:
        """``e^(i*angle)`` lowered to ``cos(angle) + i*sin(angle)``."""
        return ComplexExpr(E.cos(angle), E.sin(angle))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    @property
    def is_one(self) -> bool:
        return self.re.is_one and self.im.is_zero

    @property
    def is_real(self) -> bool:
        return self.im.is_zero

    @property
    def is_constant(self) -> bool:
        return not self.free_variables()

    def constant_value(self) -> complex | None:
        """Numeric value if both components are literals, else None."""
        rv = self.re.constant_value()
        iv = self.im.constant_value()
        if rv is None or iv is None:
            return None
        return complex(rv, iv)

    def free_variables(self) -> tuple[str, ...]:
        names = set(E.free_variables(self.re))
        names.update(E.free_variables(self.im))
        return tuple(sorted(names))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ComplexExpr) -> ComplexExpr:
        other = _coerce(other)
        return ComplexExpr(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ComplexExpr) -> ComplexExpr:
        other = _coerce(other)
        return ComplexExpr(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ComplexExpr) -> ComplexExpr:
        return _coerce(other).__sub__(self)

    def __neg__(self) -> ComplexExpr:
        return ComplexExpr(-self.re, -self.im)

    def __mul__(self, other: ComplexExpr) -> ComplexExpr:
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return ComplexExpr(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other: ComplexExpr) -> ComplexExpr:
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("complex symbolic division by zero")
        if other.im.is_zero:
            return ComplexExpr(self.re / other.re, self.im / other.re)
        a, b, c, d = self.re, self.im, other.re, other.im
        denom = c * c + d * d
        return ComplexExpr(
            (a * c + b * d) / denom, (b * c - a * d) / denom
        )

    def __rtruediv__(self, other: ComplexExpr) -> ComplexExpr:
        return _coerce(other).__truediv__(self)

    def conjugate(self) -> ComplexExpr:
        return ComplexExpr(self.re, -self.im)

    def scale(self, factor: Expr | float) -> ComplexExpr:
        factor = E._coerce(factor)
        return ComplexExpr(self.re * factor, self.im * factor)

    def exp(self) -> ComplexExpr:
        """``e^z`` for ``z = x + iy``: ``e^x * (cos y + i sin y)``."""
        if self.im.is_zero:
            return ComplexExpr(E.exp(self.re), E.ZERO)
        if self.re.is_zero:
            return ComplexExpr.cis(self.im)
        mag = E.exp(self.re)
        return ComplexExpr(mag * E.cos(self.im), mag * E.sin(self.im))

    def __pow__(self, n: int) -> ComplexExpr:
        """Integer powers by repeated multiplication."""
        if not isinstance(n, int):
            raise TypeError("ComplexExpr only supports integer powers")
        if n < 0:
            return CONE / (self ** (-n))
        result = CONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[str, Expr]) -> ComplexExpr:
        return ComplexExpr(
            E.substitute(self.re, mapping), E.substitute(self.im, mapping)
        )

    def rename_variables(self, mapping: Mapping[str, str]) -> ComplexExpr:
        return ComplexExpr(
            E.rename_variables(self.re, mapping),
            E.rename_variables(self.im, mapping),
        )

    def evaluate(self, env: Mapping[str, float]) -> complex:
        return complex(E.evaluate(self.re, env), E.evaluate(self.im, env))

    def node_count(self) -> int:
        return E.node_count(self.re) + E.node_count(self.im)

    # ------------------------------------------------------------------
    # Equality / hashing / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexExpr):
            z = _try_complex(other)
            if z is None:
                return NotImplemented
            return self.constant_value() == z
        return self.re is other.re and self.im is other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"ComplexExpr({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        if self.im.is_zero:
            return str(self.re)
        return f"({self.re}) + i*({self.im})"


def _coerce(x) -> ComplexExpr:
    if isinstance(x, ComplexExpr):
        return x
    if isinstance(x, Expr):
        return ComplexExpr(x, E.ZERO)
    if isinstance(x, complex):
        return ComplexExpr.from_complex(x)
    if isinstance(x, (int, float)):
        return ComplexExpr(E.const(float(x)), E.ZERO)
    raise TypeError(f"cannot coerce {type(x).__name__} to ComplexExpr")


def _try_complex(x) -> complex | None:
    if isinstance(x, (int, float, complex)):
        return complex(x)
    return None


CZERO = ComplexExpr(E.ZERO, E.ZERO)
CONE = ComplexExpr(E.ONE, E.ZERO)
CI = ComplexExpr(E.ZERO, E.ONE)
