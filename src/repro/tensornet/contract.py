"""Output contracts: what a compiled engine promises to produce.

PR 5's state-preparation residuals consumed only ``U(theta) e_0`` —
the first column of the evaluated unitary — yet every engine still
propagated full ``D x D`` matrices through the dynamic section and
sliced at the end.  An :class:`OutputContract` makes "what does the
caller actually need" an explicit part of the compiled-engine API:

``FULL_UNITARY``
    the default: the program evaluates the whole ``(D, D)`` unitary.
``COLUMN(j)``
    the program evaluates the single column ``U(theta) e_j`` as a
    ``(D,)`` vector.  Specialization happens at the *network* level
    (:func:`specialize_network`): the open input legs are fixed at
    column ``j``'s basis digits, so first-layer gate tensors become
    sliced vectors and every downstream contraction the pathfinder
    emits is a matrix-vector (or smaller) product — ``O(D)`` per gate
    instead of ``O(D^2)``.

A contract is decided once, where a program is compiled: the program
records :meth:`program_key` (``("full",)`` or ``("column", j)``), and
every VM, serialized engine and rehydrated engine built from that
program reads its contract back with :meth:`from_program_key`.  The
contract object itself is a frozen dataclass, so it is hashable and
picklable and serves directly as the contract half of
:class:`~repro.instantiation.EnginePool` keys.

Numerical note: a column program's output agrees with the full
program's corresponding column to machine precision, and bit-exactly
across worker counts and serialized rehydration.  Literal
bitwise identity *between* the two worlds is not promised: BLAS
matrix-matrix and matrix-vector kernels accumulate in different orders,
so even ``(A @ B)[:, 0]`` and ``A @ B[:, 0]`` differ in the last ulp
for ``D >= 3``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import Any

from .network import TensorNetwork, TNTensor

__all__ = [
    "OutputContract",
    "FULL_UNITARY",
    "column_digits",
    "specialize_network",
]

_KINDS = ("full", "column")


@dataclass(frozen=True)
class OutputContract:
    """One engine output contract (use the factory classmethods)."""

    kind: str = "full"
    column_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"contract kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.column_index < 0:
            raise ValueError("column index must be >= 0")

    # -- factories -----------------------------------------------------
    @classmethod
    def column(cls, index: int = 0) -> OutputContract:
        """The single column ``U(theta) e_index`` as a ``(D,)`` vector."""
        return cls("column", column_index=int(index))

    @classmethod
    def coerce(cls, value: object) -> OutputContract:
        """``None`` means full unitary; anything else must already be a
        contract (no implicit string forms — the engine API is typed)."""
        if value is None:
            return _FULL
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"expected an OutputContract or None, got {type(value).__name__}"
        )

    @classmethod
    def from_program_key(cls, program_key: Iterable[Any]) -> OutputContract:
        """The plain contract a compiled program was specialized for."""
        pk = tuple(program_key)
        if pk == ("full",):
            return _FULL
        if len(pk) == 2 and pk[0] == "column":
            return cls.column(pk[1])
        raise ValueError(f"unknown program contract key {pk!r}")

    # -- identities ----------------------------------------------------
    @property
    def column_based(self) -> bool:
        """True when the program propagates a vector, not a matrix."""
        return self.kind != "full"

    def program_key(self) -> tuple[str | int, ...]:
        """The bytecode identity: which compiled program serves this."""
        if self.kind == "full":
            return ("full",)
        return ("column", self.column_index)

    def output_shape(self, dim: int) -> tuple[int, int]:
        """The compiled program's 2-D output shape under this contract."""
        return (dim, dim) if self.kind == "full" else (dim, 1)

    def describe(self) -> str:
        if self.kind == "full":
            return "full"
        return f"col[{self.column_index}]"


_FULL = OutputContract("full")

#: The default contract: evaluate the whole unitary.
FULL_UNITARY = _FULL


def column_digits(radices: Iterable[int], index: int) -> tuple[int, ...]:
    """Column ``index``'s basis digits, one per wire.

    The first wire is most significant (row-major basis ordering, the
    same convention as ``Statevector`` and the circuit unitary).
    """
    radices = tuple(int(r) for r in radices)
    dim = math.prod(radices) if radices else 1
    if not 0 <= index < dim:
        raise ValueError(
            f"column index {index} out of range for dimension {dim}"
        )
    digits = [0] * len(radices)
    rem = index
    for w in range(len(radices) - 1, -1, -1):
        digits[w] = rem % radices[w]
        rem //= radices[w]
    return tuple(digits)


def specialize_network(
    network: TensorNetwork, contract: OutputContract | None
) -> TensorNetwork:
    """Specialize a circuit network for a column-based contract.

    The open *input* legs are fixed at the contract column's basis
    digits: every tensor carrying one (the circuit's first layer, plus
    the identity stitches of untouched wires) has those axes sliced
    symbolically (:meth:`ExpressionMatrix.select_axes`), the fixed
    indices disappear from the network, and ``open_in`` becomes empty.
    The existing pathfinder, tree builder, and code generator then
    work unchanged — on a network whose every contraction chain is
    vector-sized on the input side.

    Full-unitary contracts return the network untouched.
    """
    contract = OutputContract.coerce(contract)
    if not contract.column_based:
        return network
    if set(network.open_out) & set(network.open_in):
        raise ValueError(
            "cannot column-specialize a network whose open input and "
            "output legs share an index"
        )
    digits = column_digits(network.radices, contract.column_index)
    digit_of = {
        idx: digits[w] for w, idx in enumerate(network.open_in)
    }
    tensors: list[TNTensor] = []
    for t in network.tensors:
        fixed = {
            ax: digit_of[idx]
            for ax, idx in enumerate(t.indices)
            if idx in digit_of
        }
        if not fixed:
            tensors.append(replace(t))
            continue
        shape = tuple(network.index_dims[i] for i in t.indices)
        kept = tuple(
            idx for ax, idx in enumerate(t.indices) if ax not in fixed
        )
        size = math.prod(network.index_dims[i] for i in kept)
        tensors.append(
            replace(
                t,
                expression=t.expression.select_axes(
                    shape, fixed, (size, 1)
                ),
                indices=kept,
            )
        )
    return TensorNetwork(
        tensors=tensors,
        index_dims={
            i: d
            for i, d in network.index_dims.items()
            if i not in digit_of
        },
        open_out=network.open_out,
        open_in=(),
        num_params=network.num_params,
        radices=network.radices,
    )
