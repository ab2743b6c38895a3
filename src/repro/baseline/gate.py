"""Base classes for the baseline framework's gates.

This package reproduces the *traditional* numerical-compiler design the
paper contrasts against (Listing 1): every gate is a class with
``get_unitary`` and a separately hand-derived ``get_grad``, and the
circuit performs safety/equality checks on every append.  It serves as
the in-repo stand-in for BQSKit/Qiskit/Tket in all benchmarks (see the
README's "Benchmarks" section) and as the independent reference the
TNVM's differential tests compare against.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["Gate", "DifferentiableUnitary", "ConstantGate"]


class Gate:
    """A quantum gate with a hand-written unitary implementation."""

    _num_qudits: int = 1
    _num_params: int = 0
    _radices: tuple[int, ...] = (2,)
    _qasm_name: str = "gate"

    @property
    def num_qudits(self) -> int:
        return self._num_qudits

    @property
    def num_params(self) -> int:
        return self._num_params

    @property
    def radices(self) -> tuple[int, ...]:
        return self._radices

    @property
    def dim(self) -> int:
        d = 1
        for r in self._radices:
            d *= r
        return d

    @property
    def name(self) -> str:
        return self._qasm_name

    def get_unitary(self, params: Sequence[float] = ()) -> np.ndarray:
        """The gate's unitary matrix at the given parameters."""
        raise NotImplementedError

    def check_params(self, params: Sequence[float]) -> None:
        if len(params) != self._num_params:
            raise ValueError(
                f"{self.name} expects {self._num_params} parameters, "
                f"got {len(params)}"
            )

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DifferentiableUnitary:
    """Mixin marking a gate as having a hand-derived gradient."""

    def get_grad(self, params: Sequence[float] = ()) -> np.ndarray:
        """Gradient tensor of shape ``(num_params, dim, dim)``."""
        raise NotImplementedError


class ConstantGate(Gate, DifferentiableUnitary):
    """A parameterless gate defined by a fixed matrix."""

    _matrix: np.ndarray

    def get_unitary(self, params: Sequence[float] = ()) -> np.ndarray:
        self.check_params(params)
        return self._matrix.copy()

    def get_grad(self, params: Sequence[float] = ()) -> np.ndarray:
        self.check_params(params)
        return np.zeros((0,) + self._matrix.shape, dtype=np.complex128)
