"""Cost and residual functions for instantiation targets.

**Unitary targets** (paper Eq. 1): the infidelity
``L(theta) = 1 - |Tr(U_target^dag U(theta))| / D`` is minimized in
least-squares form over the residuals of ``U(theta) - phase *
U_target``, where ``phase`` is the optimal global-phase alignment.
Then ``sum(r^2) = 2 * D * L(theta)``, so driving the residuals to zero
is exactly minimizing Eq. (1).

**Statevector targets** (state preparation, the search-based
synthesis workload): fit ``U(theta)|0>``, the first column of the
unitary, to a target state.  The infidelity is
``1 - |<target|U(theta)|0>|^2`` and the residuals are those of
``U(theta) e_0 - phase * target``: ``O(D)`` where the unitary fit's
are ``O(D^2)``.  With unit-norm states
``sum(r^2) = 2 * (1 - |overlap|)``, converted back by
:func:`state_infidelity_from_cost`.

**One residual kernel for both kinds.**  The target is stored
flattened to the contract's output (``D^2`` entries for a unitary,
``D`` for a state), and the phase is the inner product of target and
output, per row for a batch.  With ``d = output - phase * target``
flattened to ``n`` entries, ``r`` is ``d`` viewed as float64, real and
imaginary parts interleaved (``r[2i] = Re d_i``,
``r[2i + 1] = Im d_i``).  ``J`` is the VM's full-gradient buffer
viewed as a real ``(P, 2n)`` array and transposed: its rows
interleave the same way, it keeps the VM's precision (float32 for an
f32 VM), and it reaches ``J^T J`` without a copy.  The one copy left
is a full-unitary VM serving a state target: its column-0 gradient
slice, ``O(P D)``.  The Jacobian treats the phase as locally constant
(the Gauss-Newton approximation, as in BQSKit's CERES residuals).

**Views, valid until the next call.**  Like TNVM outputs, ``r`` and
``J`` are overwritten by the next ``residuals_and_jacobian`` call;
both LM loops consume them before they evaluate again.  Copy to
retain.

The classes consume ``evaluate_with_grad`` at the VM's contract shape
(``(D, D)`` and ``(P, D, D)`` for the full unitary, ``(D,)`` and
``(P, D)`` for ``COLUMN(0)``, behind a batch axis on a
:class:`~repro.tnvm.vm.BatchedTNVM`).  Each class has one public
method, ``residuals_and_jacobian``; the cost is ``sum(r^2)``
(converted by :func:`infidelity_from_cost` and
:func:`state_infidelity_from_cost`).  The two scalar classes bind the
one scalar kernel and the two batched classes the one batched kernel,
whose rows never depend on the batch width.  Each batched class
subclasses its scalar twin and shares its constructor (VM and target
validation).
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


def _bind(res, vm: TNVM, target: np.ndarray, first_column: bool) -> None:
    """Attach the VM and the flattened target; ``first_column`` marks
    a full-unitary VM serving a state target."""
    if vm.diff is not Differentiation.GRADIENT:
        raise ValueError(f"residuals require a GRADIENT {type(vm).__name__}")
    res.vm = vm
    res.dim = vm.dim
    res.target = target.reshape(-1)
    #: the batched kernel's per-row overlap reads the conjugate
    res._target_conj = res.target.conj()
    res.num_params = vm.num_params
    res.num_residuals = 2 * res.target.size
    res._first_column = first_column
    res._real = np.float32 if vm.precision == "f32" else np.float64


def _residuals_and_jacobian(res, params):
    """Residuals ``(2n,)`` and Jacobian ``(2n, P)``, interleaved views
    valid until the next call."""
    out, grad = res.vm.evaluate_with_grad(params)
    if res._first_column:
        out, grad = out[:, 0], np.ascontiguousarray(grad[:, :, 0])
    overlap = np.vdot(res.target, out)
    mag = abs(overlap)
    phase = overlap / mag if mag > 1e-300 else 1.0
    r = (out.reshape(-1) - phase * res.target).view(np.float64)
    # Explicit sizes: reshape(0, -1) is invalid, and a constant
    # circuit's Jacobian is the empty (2n, 0) matrix.
    jac = grad.reshape(res.num_params, res.target.size).view(res._real)
    return r, jac.T


def _batched_residuals_and_jacobian(res, params):
    """Residuals ``(S, 2n)`` and Jacobian ``(S, 2n, P)`` for ``S``
    parameter rows, interleaved views valid until the next call."""
    out, grad = res.vm.evaluate_with_grad(params)
    if res._first_column:
        out, grad = out[:, :, 0], np.ascontiguousarray(grad[:, :, :, 0])
    rows, size = len(out), res.target.size
    out = out.reshape(rows, size)
    # A per-row einsum, not a gemv across rows: a row's overlap must
    # not depend on the batch width.
    overlap = np.einsum("i,bi->b", res._target_conj, out)
    mag = np.abs(overlap)
    safe = np.where(mag > 1e-300, mag, 1.0)
    phase = np.where(mag > 1e-300, overlap / safe, 1.0)
    r = (out - phase[:, None] * res.target).view(np.float64)
    jac = grad.reshape(rows, res.num_params, size).view(res._real)
    return r, jac.transpose(0, 2, 1)


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
        target = np.asarray(target, dtype=np.complex128)
        if target.shape != (vm.dim, vm.dim):
            raise ValueError(
                f"target shape {target.shape} does not match circuit "
                f"dimension {vm.dim}"
            )
        _bind(self, vm, target, first_column=False)

    residuals_and_jacobian = _residuals_and_jacobian


class BatchedHilbertSchmidtResiduals(HilbertSchmidtResiduals):
    """Batched residuals + Jacobian: ``S`` starts per evaluation.

    The same set-up and Eq. (1) least-squares form as
    :class:`HilbertSchmidtResiduals`, computed for every row of a
    ``(S, P)`` parameter matrix in one vectorized
    :class:`~repro.tnvm.vm.BatchedTNVM` sweep.  Phase alignment is
    per-start.
    """

    residuals_and_jacobian = _batched_residuals_and_jacobian


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
        if isinstance(target, Statevector):
            target = target.amplitudes
        target = np.asarray(target, dtype=np.complex128)
        if target.shape != (vm.dim,):
            raise ValueError(
                f"target state shape {target.shape} does not match "
                f"circuit dimension {vm.dim}"
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
        _bind(self, vm, target, first_column=not contract.column_based)

    residuals_and_jacobian = _residuals_and_jacobian


class BatchedStateResiduals(StateResiduals):
    """Batched state-prep residuals + Jacobian: ``S`` starts at once.

    The same set-up and column-only least-squares form as
    :class:`StateResiduals`, computed for every row of a ``(S, P)``
    parameter matrix in one vectorized
    :class:`~repro.tnvm.vm.BatchedTNVM` sweep.  Phase alignment is
    per-start.
    """

    residuals_and_jacobian = _batched_residuals_and_jacobian


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
