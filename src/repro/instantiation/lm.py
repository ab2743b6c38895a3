"""A naive Levenberg–Marquardt optimizer (paper sections V-C, VI-A).

The paper deliberately pairs the TNVM with a simple LM implementation to
isolate the evaluation pipeline's contribution; this module is that
optimizer.  It is also reused verbatim by the baseline framework so the
instantiation benchmarks measure evaluation speed, not optimizer
differences.

Implementation: classic Marquardt-damped normal equations — solve
``(J^T J + mu * diag(J^T J)) dx = -J^T r``, escalate ``mu`` (x10)
until a step reduces the cost, decay it (/10) on acceptance.  The
step-size convergence test fires only on *accepted* steps: a tiny step
under heavy damping means the damping is winning, not that the
optimizer converged.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LMOptions",
    "LMResult",
    "levenberg_marquardt",
    "batched_levenberg_marquardt",
]


@dataclass(frozen=True)
class LMOptions:
    """Stopping and damping knobs for the LM loop."""

    max_iterations: int = 150
    #: initial damping, relative to the Marquardt diag(J^T J) scaling
    initial_mu: float = 1e-3
    #: rejection escalation factor
    mu_up: float = 10.0
    #: acceptance decay factor
    mu_down: float = 10.0
    max_mu: float = 1e16
    gradient_tolerance: float = 1e-12
    #: relative step tolerance, tested on accepted steps only; near
    #: machine epsilon so quadratic convergence polishes past tight
    #: success thresholds before declaring a stationary point
    step_tolerance: float = 3e-16
    #: stop immediately once sum(r^2) falls below this (short-circuit)
    success_cost: float | None = None


@dataclass
class LMResult:
    """Outcome of one LM run."""

    params: np.ndarray
    cost: float  # final sum of squared residuals
    iterations: int
    num_evaluations: int
    converged: bool
    stop_reason: str


def levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    options: LMOptions | None = None,
) -> LMResult:
    """Minimize ``sum(residual_fn(x)[0]**2)`` from ``x0``.

    ``residual_fn`` returns ``(r, J)`` with ``J[i, k] = dr_i / dx_k``.
    """
    opts = options or LMOptions()
    x = np.asarray(x0, dtype=np.float64).copy()
    r, jac = residual_fn(x)
    cost = float(r @ r)
    n_eval = 1

    if x.size == 0:
        return LMResult(
            params=x,
            cost=cost if np.isfinite(cost) else float("inf"),
            iterations=0, num_evaluations=1,
            converged=opts.success_cost is not None
            and cost <= opts.success_cost,
            stop_reason="no-parameters",
        )

    if not np.isfinite(cost):
        # A start whose very first evaluation is NaN/Inf (pathological
        # target or start point) has no usable normal equations; fail
        # it with an infinite cost so the multi-start scan can never
        # pick it and the infidelity stays well-defined.
        return LMResult(
            params=x, cost=float("inf"), iterations=0, num_evaluations=1,
            converged=False, stop_reason="non-finite",
        )

    jtj = jac.T @ jac
    jtr = jac.T @ r
    mu = opts.initial_mu
    nu = opts.mu_up

    stop_reason = "max-iterations"
    iteration = 0
    for iteration in range(1, opts.max_iterations + 1):
        if opts.success_cost is not None and cost <= opts.success_cost:
            stop_reason = "success-threshold"
            break
        if float(np.max(np.abs(jtr), initial=0.0)) < opts.gradient_tolerance:
            stop_reason = "gradient-tolerance"
            break
        # Marquardt scaling: damp proportionally to diag(J^T J) so the
        # trust region respects per-parameter curvature.
        diag = np.clip(jtj.diagonal(), 1e-8, None)

        # Inner damping escalation: climb mu until a step is accepted.
        accepted = False
        while mu <= opts.max_mu:
            try:
                step = np.linalg.solve(jtj + mu * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                mu *= nu
                continue
            candidate = x + step
            r_new, jac_new = residual_fn(candidate)
            n_eval += 1
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x, r, jac, cost = candidate, r_new, jac_new, cost_new
                jtj = jac.T @ jac
                jtr = jac.T @ r
                mu = max(mu / opts.mu_down, 1e-15)
                accepted = True
                break
            mu *= nu
        if not accepted:
            stop_reason = "damping-limit"
            break
        if not (np.all(np.isfinite(jtr)) and np.all(np.isfinite(jtj))):
            # The accepted point lowered the cost but its Jacobian
            # carries NaN/Inf — no further step can be trusted; stop
            # at the last finite-cost point instead of spinning the
            # damping loop on garbage normal equations.
            stop_reason = "non-finite"
            break
        # Convergence by step size only counts for *accepted* steps; a
        # tiny step under heavy damping means the damping is winning,
        # not that the optimizer converged.
        if float(np.linalg.norm(step)) < opts.step_tolerance * (
            float(np.linalg.norm(x)) + opts.step_tolerance
        ):
            stop_reason = "step-tolerance"
            break
    else:
        iteration = opts.max_iterations

    if opts.success_cost is not None and cost <= opts.success_cost:
        stop_reason = "success-threshold"

    return LMResult(
        params=x,
        cost=cost,
        iterations=iteration,
        num_evaluations=n_eval,
        converged=stop_reason in ("success-threshold", "gradient-tolerance"),
        stop_reason=stop_reason,
    )


def batched_levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    options: LMOptions | None = None,
    should_abandon: Callable[[np.ndarray, np.ndarray], bool] | None = None,
) -> list[LMResult]:
    """Run ``S`` independent LM minimizations as one vectorized loop.

    ``residual_fn`` maps an ``(S, P)`` parameter matrix to ``(R, J)``
    with shapes ``(S, n_res)`` and ``(S, n_res, P)`` — typically
    :meth:`BatchedHilbertSchmidtResiduals.residuals_and_jacobian` over
    a :class:`~repro.tnvm.vm.BatchedTNVM`.

    Each start runs the exact :func:`levenberg_marquardt` decision
    sequence, but the ``S`` state machines advance in *lockstep
    rounds*: every round performs one batched normal-equation solve
    and one batched residual evaluation covering every live start's
    next candidate — whether that start is proposing a fresh iteration
    step or retrying the same iteration under escalated damping.  One
    round therefore costs one vectorized sweep regardless of how many
    starts are mid-escalation, and starts retire individually
    (success / gradient / step tolerance / damping limit / iteration
    budget) without stalling the rest.

    ``should_abandon(live, cost)`` is consulted once per round after
    per-start retirement; returning ``True`` stops all still-live
    starts with ``stop_reason='abandoned'``.  The caller uses this to
    reproduce the sequential engine's multi-start short-circuit (once
    every start a sequential run *would* have executed is finished,
    the rest are moot).

    Returns one :class:`LMResult` per start, in start order.
    """
    opts = options or LMOptions()
    X = np.array(x0, dtype=np.float64, copy=True)
    if X.ndim != 2:
        raise ValueError(f"x0 must be (starts, params), got {X.shape}")
    S, P = X.shape

    R, J = residual_fn(X)
    cost = np.einsum("sr,sr->s", R, R)
    n_eval = np.ones(S, dtype=int)

    if P == 0:
        success = (
            cost <= opts.success_cost
            if opts.success_cost is not None
            else np.zeros(S, dtype=bool)
        )
        return [
            LMResult(
                params=X[s],
                cost=float(cost[s]),
                iterations=0,
                num_evaluations=1,
                converged=bool(success[s]),
                stop_reason="no-parameters",
            )
            for s in range(S)
        ]

    JtJ = J.transpose(0, 2, 1) @ J  # (S, P, P)
    Jtr = np.einsum("srp,sr->sp", J, R)  # (S, P)
    mu = np.full(S, opts.initial_mu)
    nu = opts.mu_up
    live = np.ones(S, dtype=bool)
    #: a "fresh" start is at the top of a new LM iteration; a stale one
    #: is retrying the same iteration with escalated damping
    fresh = np.ones(S, dtype=bool)
    iters = np.zeros(S, dtype=int)
    diag = np.empty((S, P))
    stop = np.array(["max-iterations"] * S, dtype=object)
    ar = np.arange(P)

    while live.any():
        # --- iteration-top bookkeeping for fresh starts -------------
        # (the scalar loop's success / gradient / budget tests)
        top = live & fresh
        if top.any():
            # Budget first: the scalar loop simply never enters
            # iteration max+1, so no top-of-loop test fires there.
            spent = top & (iters >= opts.max_iterations)
            # stop array already says "max-iterations"
            live &= ~spent
            top &= ~spent
            iters[top] += 1
            if opts.success_cost is not None:
                done = top & (cost <= opts.success_cost)
                stop[done] = "success-threshold"
                live &= ~done
                top &= ~done
            flat = top & (
                np.max(np.abs(Jtr), axis=1, initial=0.0)
                < opts.gradient_tolerance
            )
            stop[flat] = "gradient-tolerance"
            live &= ~flat
            top &= ~flat
            # Non-finite guard: a start whose cost or normal equations
            # went NaN/Inf cannot produce a trustworthy step (and its
            # NaN would silently fail every comparison below); retire
            # it here, at its last finite-cost point if it has one.
            bad = top & (
                ~np.isfinite(cost) | ~np.isfinite(Jtr).all(axis=1)
            )
            if bad.any():
                stop[bad] = "non-finite"
                cost[bad] = np.where(
                    np.isfinite(cost[bad]), cost[bad], np.inf
                )
                live &= ~bad
                top &= ~bad
            # Marquardt scaling, as in the scalar loop: damp
            # proportionally to diag(J^T J) so the trust region
            # respects per-parameter curvature.
            diag[top] = np.clip(JtJ[top][:, ar, ar], 1e-8, None)
            fresh &= ~top

        if should_abandon is not None and should_abandon(live, cost):
            stop[live] = "abandoned"
            live[:] = False
            break
        if not live.any():
            break

        # --- one batched solve round for every live start -----------
        idx = np.where(live)[0]
        A = JtJ[idx].copy()
        A[:, ar, ar] += mu[idx, None] * diag[idx]
        rhs = -Jtr[idx]
        ok = np.ones(len(idx), dtype=bool)
        steps = np.zeros((len(idx), P))
        try:
            # Explicit trailing vector axis: 2-D ``b`` would be read
            # as one matrix, not a stack of vectors.
            steps = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for t in range(len(idx)):
                try:
                    steps[t] = np.linalg.solve(A[t], rhs[t])
                except np.linalg.LinAlgError:
                    ok[t] = False
        solved = idx[ok]
        mu[idx[~ok]] *= nu

        # --- one batched evaluation round ---------------------------
        if solved.size:
            candidates = X.copy()
            candidates[solved] += steps[ok]
            R_new, J_new = residual_fn(candidates)
            cost_new = np.einsum("sr,sr->s", R_new, R_new)
            n_eval[solved] += 1

            improved = np.zeros(S, dtype=bool)
            improved[solved] = cost_new[solved] < cost[solved]
            if improved.any():
                w = np.where(improved)[0]
                X[w] = candidates[w]
                R[w] = R_new[w]
                J[w] = J_new[w]
                cost[w] = cost_new[w]
                JtJ[w] = J_new[w].transpose(0, 2, 1) @ J_new[w]
                Jtr[w] = np.einsum("srp,sr->sp", J_new[w], R_new[w])
                mu[w] = np.maximum(mu[w] / opts.mu_down, 1e-15)
                fresh[w] = True
                # Step-size convergence, accepted steps only (as in
                # the scalar loop: a tiny rejected step just means the
                # damping is winning).
                # ``solved`` is ascending, so the mask picks the rows
                # of ``w`` in ``w``'s order.
                sw = steps[ok][improved[solved]]
                norm_step = np.linalg.norm(sw, axis=1)
                norm_x = np.linalg.norm(X[w], axis=1)
                tiny = norm_step < opts.step_tolerance * (
                    norm_x + opts.step_tolerance
                )
                small = w[tiny]
                stop[small] = "step-tolerance"
                live[small] = False
            rejected = np.zeros(S, dtype=bool)
            rejected[solved] = ~improved[solved]
            mu[rejected] *= nu

        # A start whose damping just overflowed stops exactly where
        # the scalar inner loop would have given up.
        over = live & ~fresh & (mu > opts.max_mu)
        stop[over] = "damping-limit"
        live &= ~over

    if opts.success_cost is not None:
        final = cost <= opts.success_cost
        stop[final] = "success-threshold"

    return [
        LMResult(
            params=X[s],
            cost=float(cost[s]),
            iterations=int(iters[s]),
            num_evaluations=int(n_eval[s]),
            converged=stop[s] in ("success-threshold", "gradient-tolerance"),
            stop_reason=str(stop[s]),
        )
        for s in range(S)
    ]
