"""Cost and residual functions for instantiation targets.

Two target types share one least-squares machinery:

**Unitary targets** (paper Eq. 1): the infidelity
``L(theta) = 1 - |Tr(U_target^dag U(theta))| / D`` is minimized in
least-squares form — the residual vector stacks the real and imaginary
parts of ``U(theta) - phase * U_target`` where ``phase`` is the optimal
global-phase alignment.  Then

    ``sum(r^2) = 2 * D * L(theta)``

so driving the residuals to zero is exactly minimizing Eq. (1).

**Statevector targets** (state preparation): fit ``U(theta)|0>`` to a
target state, the search-based synthesis workload the paper's engine
exists to serve.  The infidelity is ``1 - |<target|U(theta)|0>|^2``
and the residuals stack the real and imaginary parts of
``U(theta) e_0 - phase * target`` — only the *first column* of the
evaluated unitary, so the residual vector is ``O(D)`` where the
unitary fit's is ``O(D^2)``; state prep is the cheapest workload per
candidate the engine has.  With unit-norm states
``sum(r^2) = 2 * (1 - |overlap|)``, converted back to the infidelity
by :func:`state_infidelity_from_cost`.

All Jacobians use the TNVM's forward-mode gradient with the phase
treated as locally constant (the standard Gauss–Newton approximation,
as in BQSKit's CERES residual functions).

**The evaluate protocol.**  Residual classes read the VM's
:class:`~repro.tensornet.OutputContract` and consume
``evaluate``/``evaluate_with_grad`` output at its contract shape —
there is no implicit "evaluate the full unitary, then slice" step.
The one documented protocol, for scalar and batched VMs:

=========  =======================  ================================
contract   ``evaluate``             ``evaluate_with_grad`` gradient
=========  =======================  ================================
full       ``(D, D)`` / ``(B,D,D)`` ``(P, D, D)`` / ``(B, P, D, D)``
column     ``(D,)`` / ``(B, D)``    ``(P, D)`` / ``(B, P, D)``
=========  =======================  ================================

The state-prep classes accept full-unitary VMs (column extracted by
slicing, the pre-contract behaviour) or ``COLUMN(0)`` VMs (the vector
used directly — the fast path).

Each class has one public method, ``residuals_and_jacobian``: the LM
loops need nothing else, and the cost is ``sum(r^2)`` of its
residuals (converted by :func:`infidelity_from_cost` and
:func:`state_infidelity_from_cost`).  Each batched class subclasses
its scalar twin: it shares the twin's constructor (VM and target
validation) and keeps only its own ``residuals_and_jacobian``, the
same residuals for every row of a ``(S, P)`` parameter matrix.
"""

from __future__ import annotations

import math

import numpy as np

from ..tnvm.vm import TNVM, Differentiation
from ..utils.statevector import Statevector

__all__ = [
    "HilbertSchmidtResiduals",
    "BatchedHilbertSchmidtResiduals",
    "StateResiduals",
    "BatchedStateResiduals",
    "infidelity_from_cost",
    "state_infidelity_from_cost",
    "state_success_cost",
    "as_target_array",
    "is_state_target",
]


class HilbertSchmidtResiduals:
    """Residuals + Jacobian for instantiating a circuit to a target.

    Parameters
    ----------
    vm:
        A gradient-capable TNVM for the circuit.
    target:
        The target unitary, shape ``(D, D)``.
    """

    def __init__(self, vm: TNVM, target: np.ndarray):
        if vm.diff is not Differentiation.GRADIENT:
            raise ValueError(
                f"residuals require a GRADIENT {type(vm).__name__}"
            )
        dim = vm.dim
        target = np.asarray(target, dtype=np.complex128)
        if target.shape != (dim, dim):
            raise ValueError(
                f"target shape {target.shape} does not match circuit "
                f"dimension {dim}"
            )
        self.vm = vm
        self.target = target
        self.dim = dim
        self.num_params = vm.num_params
        self.num_residuals = 2 * dim * dim

    # ------------------------------------------------------------------
    # ``params`` passes straight through to the VM (the writers index
    # any sequence), and the alignment trace is the O(D^2) elementwise
    # form ``sum(conj(target) * u)`` — ``Tr(T^dag U)`` without the
    # O(D^3) matmul, mirroring the batched path's einsum.
    def residuals_and_jacobian(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual vector (2D^2,) and Jacobian (2D^2, P)."""
        u, grad = self.vm.evaluate_with_grad(params)
        trace = np.vdot(self.target, u)
        mag = abs(trace)
        phase = trace / mag if mag > 1e-300 else 1.0
        diff = u - phase * self.target
        r = np.concatenate([diff.real.ravel(), diff.imag.ravel()])
        # Explicit column count: reshape(0, -1) is invalid, and a
        # constant circuit's Jacobian is the empty (2D^2, 0) matrix.
        flat = grad.reshape(self.num_params, self.dim * self.dim)
        jac = np.concatenate([flat.real, flat.imag], axis=1).T
        return r, np.ascontiguousarray(jac)


class BatchedHilbertSchmidtResiduals(HilbertSchmidtResiduals):
    """Batched residuals + Jacobian: ``S`` starts per evaluation.

    The same set-up and Eq. (1) least-squares form as
    :class:`HilbertSchmidtResiduals`, computed for every row of a
    ``(S, P)`` parameter matrix in one vectorized
    :class:`~repro.tnvm.vm.BatchedTNVM` sweep.  Phase alignment is
    per-start.
    """

    def residuals_and_jacobian(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual matrix ``(S, 2D^2)`` and Jacobian ``(S, 2D^2, P)``."""
        u, grad = self.vm.evaluate_with_grad(params)
        trace = np.einsum("ij,bij->b", self.target.conj(), u)
        mag = np.abs(trace)
        safe = np.where(mag > 1e-300, mag, 1.0)
        phase = np.where(mag > 1e-300, trace / safe, 1.0)
        diff = u - phase[:, None, None] * self.target
        b = u.shape[0]
        r = np.concatenate(
            [diff.real.reshape(b, -1), diff.imag.reshape(b, -1)], axis=1
        )
        flat = grad.reshape(b, self.num_params, self.dim * self.dim)
        jac = np.concatenate([flat.real, flat.imag], axis=2).transpose(
            0, 2, 1
        )
        return r, np.ascontiguousarray(jac)


# ----------------------------------------------------------------------
# Statevector targets (state preparation)
# ----------------------------------------------------------------------


class StateResiduals:
    """Residuals + Jacobian for preparing a target state.

    Fits ``U(theta)|0>`` — the first column of the circuit unitary —
    to ``target`` up to global phase.  ``2D`` residuals instead of the
    unitary fit's ``2D^2``.

    Parameters
    ----------
    vm:
        A gradient-capable TNVM for the circuit: full-unitary contract
        (column sliced out) or ``COLUMN(0)`` contract (the evaluated
        vector used as-is — the engine never materializes the other
        ``D - 1`` columns).
    target:
        The target state: a :class:`~repro.utils.Statevector` or a
        unit-norm amplitude vector of shape ``(D,)``.
    """

    def __init__(self, vm: TNVM, target):
        if vm.diff is not Differentiation.GRADIENT:
            raise ValueError(
                f"residuals require a GRADIENT {type(vm).__name__}"
            )
        dim = vm.dim
        if isinstance(target, Statevector):
            target = target.amplitudes
        target = np.asarray(target, dtype=np.complex128)
        if target.shape != (dim,):
            raise ValueError(
                f"target state shape {target.shape} does not match "
                f"circuit dimension {dim}"
            )
        norm = np.linalg.norm(target)
        # Loose enough for f32-sourced amplitudes; states further off
        # unit norm should go through
        # Statevector.from_amplitudes(normalize=True).
        if not math.isclose(norm, 1.0, abs_tol=1e-6):
            raise ValueError(
                f"target state norm is {norm:.8g}, expected 1; renormalize "
                "with Statevector.from_amplitudes(..., normalize=True)"
            )
        # State prep fits U(theta) e_0: a column VM must deliver
        # column 0, and then its output is the column itself.
        contract = vm.contract
        if contract.column_based and contract.column_index != 0:
            raise ValueError(
                f"state preparation fits U(theta) e_0, not column "
                f"{contract.column_index}; use OutputContract.column(0)"
            )
        self.vm = vm
        self.dim = dim
        self.target = target
        self.num_params = vm.num_params
        self.num_residuals = 2 * dim
        self._column = contract.column_based

    # ------------------------------------------------------------------
    def residuals_and_jacobian(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual vector (2D,) and Jacobian (2D, P)."""
        u, grad = self.vm.evaluate_with_grad(params)
        col = u if self._column else u[:, 0]
        overlap = np.vdot(self.target, col)
        mag = abs(overlap)
        phase = overlap / mag if mag > 1e-300 else 1.0
        diff = col - phase * self.target
        r = np.concatenate([diff.real, diff.imag])
        # d(U e_0)/dtheta_k: a column VM's gradient rows *are* the
        # column derivatives; a full VM's get their first column sliced.
        flat = grad if self._column else grad[:, :, 0]
        jac = np.concatenate([flat.real, flat.imag], axis=1).T
        return r, np.ascontiguousarray(jac)


class BatchedStateResiduals(StateResiduals):
    """Batched state-prep residuals + Jacobian: ``S`` starts at once.

    The same set-up and column-only least-squares form as
    :class:`StateResiduals`, computed for every row of a ``(S, P)``
    parameter matrix in one vectorized
    :class:`~repro.tnvm.vm.BatchedTNVM` sweep.  Phase alignment is
    per-start.
    """

    def residuals_and_jacobian(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual matrix ``(S, 2D)`` and Jacobian ``(S, 2D, P)``."""
        u, grad = self.vm.evaluate_with_grad(params)
        cols = u if self._column else u[:, :, 0]
        overlap = cols @ self.target.conj()
        mag = np.abs(overlap)
        safe = np.where(mag > 1e-300, mag, 1.0)
        phase = np.where(mag > 1e-300, overlap / safe, 1.0)
        diff = cols - phase[:, None] * self.target
        r = np.concatenate([diff.real, diff.imag], axis=1)
        flat = grad if self._column else grad[:, :, :, 0]
        jac = np.concatenate([flat.real, flat.imag], axis=2).transpose(
            0, 2, 1
        )
        return r, np.ascontiguousarray(jac)


# ----------------------------------------------------------------------
# Cost <-> infidelity conversions and target dispatch
# ----------------------------------------------------------------------


def infidelity_from_cost(
    sum_sq_residuals: float | np.ndarray, dim: int
) -> float | np.ndarray:
    """Convert a least-squares cost ``sum(r^2)`` back to Eq. (1).

    Accepts a scalar or an array of costs (batched multi-start)."""
    return sum_sq_residuals / (2.0 * dim)


def state_infidelity_from_cost(
    sum_sq_residuals: float | np.ndarray,
) -> float | np.ndarray:
    """Convert a state-prep cost ``sum(r^2)`` to ``1 - |overlap|^2``.

    With unit-norm states ``sum(r^2) = 2 * (1 - |overlap|)``, so
    ``|overlap| = 1 - c/2`` and the infidelity is ``c - c^2/4``.
    Accepts a scalar or an array of costs (batched multi-start)."""
    c = sum_sq_residuals
    return c - 0.25 * c * c


def state_success_cost(success_threshold: float) -> float:
    """The ``sum(r^2)`` value at which the state-prep infidelity
    reaches ``success_threshold`` (inverse of
    :func:`state_infidelity_from_cost`)."""
    t = min(max(success_threshold, 0.0), 1.0)
    return 2.0 * (1.0 - math.sqrt(1.0 - t))


def is_state_target(target) -> bool:
    """True when ``target`` selects the state-preparation cost: a
    :class:`~repro.utils.Statevector` or a 1-D amplitude vector (2-D
    arrays are unitary-fit targets)."""
    if isinstance(target, Statevector):
        return True
    return np.asarray(target).ndim == 1


def as_target_array(target) -> np.ndarray:
    """Coerce an instantiation target into its complex128 array form:
    2-D for a unitary fit, 1-D for state preparation."""
    if isinstance(target, Statevector):
        target = target.amplitudes
    return np.asarray(target, dtype=np.complex128)
