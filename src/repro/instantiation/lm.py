"""The Levenberg–Marquardt optimizer (paper sections V-C, VI-A).

The paper deliberately pairs the TNVM with a naive LM implementation to
isolate the evaluation pipeline's contribution.  This module is that
optimizer plus one stopping rule, MINPACK's relative-reduction test
(below).  It is also reused verbatim by the baseline framework so the
instantiation benchmarks measure evaluation speed, not optimizer
differences.

Implementation: classic Marquardt-damped normal equations — solve
``(J^T J + mu * diag(J^T J)) dx = -J^T r``, escalate ``mu`` (x10)
until a step reduces the cost, decay it (/10) on acceptance.  The
step-size convergence test fires only on *accepted* steps: a tiny step
under heavy damping means the damping is winning, not that the
optimizer converged.

The relative-reduction stop (MINPACK's ``ftol``; Moré 1978, "The
Levenberg–Marquardt algorithm: implementation and theory"): once a
start's try at its current point has failed (its step was rejected, or
its damped system did not solve), each further try first computes its
step's predicted reduction, ``-(2 dx^T J^T r + dx^T J^T J dx)``, which
through the damped system is ``-dx^T J^T r + mu * sum(diag * dx^2)``.
Below ``REDUCTION_TOLERANCE`` times the cost, the start stops with
``reduction-tolerance`` before paying for the evaluation.  The first
try at each point always runs: next to a saddle the first step can be
predicted to gain almost nothing and still lead away from it.  Without
the rule, a start at a point no step can improve climbs the damping to
``max_mu``, one evaluation per try; ``max_mu`` (``damping-limit``)
stays as the stop for a damped system that keeps failing to solve.

Both loops use a residual function's ``(r, J)`` for three things
only: the cost ``r^T r``, ``J^T J`` and ``J^T r``.  They consume each
pair before the next evaluation, so ``(r, J)`` may be views the next
call overwrites — the engine's residuals are views of the VM's
gradient buffer (:mod:`repro.instantiation.cost`), and ``J`` reaches
``J^T J`` without a copy.  The batched loop's state per start is its
cost and its normal equations; it keeps no residuals or Jacobians and
forms ``J^T J`` and ``J^T r`` once per accepted start, so a start's
numbers never depend on the batch width.

What a lockstep round costs: between two sweeps the batched loop makes
the same handful of numpy calls at any width.  Per-start state lives
in Python lists; one reduction gives every start's ``max|J^T r|`` and
finiteness test; the damped systems are formed and solved as whole
stacks when every start is live; the accepted starts' ``J^T J`` and
``J^T r`` are one stacked ``np.matmul`` pair, which BLAS still runs as
one product per row.  What is left is linear algebra: on a stub
residual at P = 18 (``benchmarks/run_instantiation.py --lm``), a
round of 8 starts costs about 80 us, a third of it the stacked solve
of 8 18x18 systems, and a round of 1 start about as much as a scalar
iteration.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .. import telemetry

__all__ = [
    "LMOptions",
    "LMResult",
    "levenberg_marquardt",
    "batched_levenberg_marquardt",
]


#: A start whose try at its point has failed stops with
#: ``reduction-tolerance`` once a further damped step is predicted to
#: lower the cost by less than this fraction of it (MINPACK's relative
#: reduction test, ``ftol``; see the module docstring).
REDUCTION_TOLERANCE = 1e-13


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
    """Outcome of one LM run.

    ``stop_reason`` is one of ``success-threshold``,
    ``gradient-tolerance``, ``step-tolerance``, ``reduction-tolerance``,
    ``damping-limit``, ``max-iterations``, ``non-finite`` or
    ``no-parameters``; the batched loop adds ``abandoned`` for starts
    its ``should_abandon`` hook stops.  ``reduction-tolerance`` stops a
    start whose retry at a point (any try after the first) has a step
    predicted to lower the cost by less than ``REDUCTION_TOLERANCE`` of
    it; ``damping-limit`` one whose damping passed ``max_mu``, which in
    practice means its damped system kept failing to solve.
    """

    params: np.ndarray
    cost: float  # final sum of squared residuals
    iterations: int
    num_evaluations: int
    converged: bool
    stop_reason: str


def _predicted_reduction(step, mu, diag, jtr):
    """The cost reduction the linear model predicts for the damped step
    ``(J^T J + mu diag) step = -J^T r``.

    ``-(2 step^T J^T r + step^T J^T J step)`` is, through the damped
    system, ``-step^T J^T r + mu sum(diag step^2)``: two non-negative
    terms and no P x P product.  One reduction over the last axis, so
    a stack of steps (``mu`` a column) gets each row's value exactly
    as that row alone would.
    """
    return np.add.reduce(step * (mu * diag * step - jtr), axis=-1)


def levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    options: LMOptions | None = None,
) -> LMResult:
    """Minimize ``sum(residual_fn(x)[0]**2)`` from ``x0``.

    ``residual_fn`` returns ``(r, J)`` with ``J[i, k] = dr_i / dx_k``;
    both may be views the next call overwrites.
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

        # Inner damping escalation: climb mu until a step is accepted,
        # or until a retry's step is predicted to lower the cost by
        # less than REDUCTION_TOLERANCE of it (the loop then leaves
        # with mu <= max_mu).  The first try at a point always runs.
        accepted = False
        retry = False
        while mu <= opts.max_mu:
            try:
                step = np.linalg.solve(jtj + mu * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                mu *= nu
                retry = True
                continue
            if retry:
                pred = float(_predicted_reduction(step, mu, diag, jtr))
                if pred < REDUCTION_TOLERANCE * cost:
                    break
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
            retry = True
        if not accepted:
            stop_reason = (
                "damping-limit" if mu > opts.max_mu else "reduction-tolerance"
            )
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


#: A subset of starts stacks its normal equations on a copy of its rows
#: of ``J`` when it has at least ``STACK_ROWS_MIN`` rows of at most
#: ``STACK_COPY_MAX`` entries each.  Below the first, the copy and the
#: scatter back cost more than the per-row calls they save; past the
#: second, so does the copy (among the Figure 5 shapes, the
#: full-unitary Jacobians from D = 8 up, 2n * P >= 4,224).
STACK_ROWS_MIN = 4
STACK_COPY_MAX = 2048


def _normal_equations(R, J, rows, JtJ, Jtr) -> None:
    """Write ``J^T J`` and ``J^T r`` of each start in ``rows`` (ascending
    slot indices) into its row of ``JtJ`` and ``Jtr``.

    A product never spans starts, so a row's numbers do not depend on
    the batch: ``np.matmul`` over a stack makes one BLAS call per
    matrix with the strides a per-row call passes (fancy indexing
    keeps them), so the stacked and per-row products are bitwise
    equal.  Every row stacks on ``J`` itself; a subset stacks on a copy
    of its rows unless it is small or its rows are large.
    """
    if len(rows) == len(JtJ):
        Jt = J.transpose(0, 2, 1)
        np.matmul(Jt, J, out=JtJ)
        np.matmul(Jt, R[:, :, None], out=Jtr[:, :, None])
    elif len(rows) >= STACK_ROWS_MIN and J[0].size <= STACK_COPY_MAX:
        Jw = J[rows]
        Jwt = Jw.transpose(0, 2, 1)
        JtJ[rows] = np.matmul(Jwt, Jw)
        Jtr[rows] = np.matmul(Jwt, R[rows][:, :, None])[:, :, 0]
    else:
        for s in rows:
            np.matmul(J[s].T, J[s], out=JtJ[s])
            np.matmul(J[s].T, R[s], out=Jtr[s])


def _row_norms_squared(a: np.ndarray) -> list[float]:
    """``np.linalg.norm(a, axis=1) ** 2`` before its square root: the
    same per-row reduction, without the wrapper."""
    return np.add.reduce(a * a, axis=1).tolist()


def _count_occupancy(
    width: int, rounds: int, live_rows: int, abandoned_evaluations: int
) -> None:
    """Add one lockstep call's slot occupancy to the registry."""
    registry = telemetry.metrics()
    registry.counter("instantiate.lockstep_rounds").add(rounds)
    registry.counter("instantiate.lockstep_rows").add(rounds * width)
    registry.counter("instantiate.lockstep_live_rows").add(live_rows)
    registry.counter("instantiate.abandoned_evaluations").add(
        abandoned_evaluations
    )


def batched_levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    options: LMOptions | None = None,
    should_abandon: Callable[[list[bool], list[float]], bool] | None = None,
) -> list[LMResult]:
    """Run ``S`` independent LM minimizations as one vectorized loop.

    ``residual_fn`` maps an ``(S, P)`` parameter matrix to ``(R, J)``
    with shapes ``(S, n_res)`` and ``(S, n_res, P)`` — typically
    :meth:`BatchedHilbertSchmidtResiduals.residuals_and_jacobian` over
    a :class:`~repro.tnvm.vm.BatchedTNVM`.  Both may be views the next
    call overwrites: each round reads its starts' costs and forms the
    accepted starts' ``J^T J`` and ``J^T r`` before evaluating again.

    Each start runs the exact :func:`levenberg_marquardt` decision
    sequence, but the ``S`` state machines advance in *lockstep
    rounds*: every round performs one batched normal-equation solve
    and one batched residual evaluation covering every live start's
    next candidate — whether that start is proposing a fresh iteration
    step or retrying the same iteration under escalated damping.  One
    round therefore costs one vectorized sweep regardless of how many
    starts are mid-escalation, and starts retire individually
    (success / gradient / step / reduction tolerance / damping limit /
    iteration budget) without stalling the rest.  The reduction test
    runs once per round over the retrying starts, before the sweep;
    a round whose every solved start stops there makes no sweep.

    A start's state between rounds (cost, damping, iteration, stop
    reason, live, fresh) is a Python scalar per slot; what a round
    computes on arrays it computes once for the whole batch, each row
    with its own arithmetic (see the module docstring).

    ``should_abandon(live, cost)`` is consulted once per round after
    per-start retirement, with the per-slot live flags and costs;
    returning ``True`` stops all still-live starts with
    ``stop_reason='abandoned'``.  The caller uses this to reproduce
    the sequential engine's multi-start short-circuit (once every
    start a sequential run *would* have executed is finished, the rest
    are moot).

    Every call adds its slot occupancy to the telemetry registry:
    ``instantiate.lockstep_rounds`` (batched evaluations, the first
    included), ``instantiate.lockstep_rows`` (``S`` per round),
    ``instantiate.lockstep_live_rows`` (rows carrying a live start's
    candidate) and ``instantiate.abandoned_evaluations`` (evaluations
    the abandoned starts had made).

    Returns one :class:`LMResult` per start, in start order.
    """
    opts = options or LMOptions()
    X = np.array(x0, dtype=np.float64, copy=True)
    if X.ndim != 2:
        raise ValueError(f"x0 must be (starts, params), got {X.shape}")
    S, P = X.shape
    success_cost = opts.success_cost

    R, J = residual_fn(X)
    cost = np.einsum("sr,sr->s", R, R).tolist()

    if P == 0:
        _count_occupancy(S, 1, S, 0)
        return [
            LMResult(
                params=X[s],
                cost=cost[s],
                iterations=0,
                num_evaluations=1,
                converged=success_cost is not None and cost[s] <= success_cost,
                stop_reason="no-parameters",
            )
            for s in range(S)
        ]

    everyone = list(range(S))
    JtJ = np.empty((S, P, P), dtype=J.dtype)
    Jtr = np.empty((S, P), dtype=np.result_type(J, R))
    _normal_equations(R, J, everyone, JtJ, Jtr)
    nu = opts.mu_up
    step_tol = opts.step_tolerance
    mu = [opts.initial_mu] * S
    iters = [0] * S
    n_eval = [1] * S
    stop = ["max-iterations"] * S
    live = [True] * S
    #: a "fresh" start is at the top of a new LM iteration; a stale one
    #: is retrying the same iteration with escalated damping
    fresh = [True] * S
    diag = np.empty((S, P), dtype=JtJ.dtype)
    #: the damped systems of a round where every start is live
    damped = np.empty_like(JtJ)
    damped_diag = damped.reshape(S, P * P)[:, :: P + 1]
    rounds, live_rows, abandoned_evaluations = 1, S, 0

    while True:
        # --- iteration-top bookkeeping for fresh starts -------------
        # (the scalar loop's budget / success / gradient tests)
        top = [s for s in everyone if live[s] and fresh[s]]
        #: the starts making their first try at a new point this round
        kept = []
        if top:
            # max|J^T r| per row is also non-finite exactly when a
            # J^T r entry is: one reduction serves both tests.
            gmax = np.maximum.reduce(
                np.abs(Jtr), axis=1, initial=0.0
            ).tolist()
            for s in top:
                fresh[s] = False
                if iters[s] >= opts.max_iterations:
                    # The scalar loop simply never enters iteration
                    # max+1, so no top-of-loop test fires there; the
                    # stop reason already says "max-iterations".
                    live[s] = False
                    continue
                iters[s] += 1
                if success_cost is not None and cost[s] <= success_cost:
                    stop[s] = "success-threshold"
                elif gmax[s] < opts.gradient_tolerance:
                    stop[s] = "gradient-tolerance"
                elif not (math.isfinite(cost[s]) and math.isfinite(gmax[s])):
                    # Non-finite guard: a start whose cost or normal
                    # equations went NaN/Inf cannot produce a
                    # trustworthy step (and its NaN would silently
                    # fail every comparison below); retire it at its
                    # last finite-cost point if it has one.
                    stop[s] = "non-finite"
                    if not math.isfinite(cost[s]):
                        cost[s] = math.inf
                else:
                    kept.append(s)
                    continue
                live[s] = False
            if kept:
                # Marquardt scaling, as in the scalar loop: damp
                # proportionally to diag(J^T J) so the trust region
                # respects per-parameter curvature.  (``np.clip`` with
                # no upper bound is this ``np.maximum``.)
                clipped = np.maximum(JtJ.diagonal(0, 1, 2), 1e-8)
                if len(kept) == S:
                    diag = clipped
                else:
                    diag[kept] = clipped[kept]

        if should_abandon is not None and should_abandon(live, cost):
            for s in everyone:
                if live[s]:
                    stop[s] = "abandoned"
                    live[s] = False
                    abandoned_evaluations += n_eval[s]
            break
        idx = [s for s in everyone if live[s]]
        if not idx:
            break

        # --- one batched solve round for every live start -----------
        if len(idx) == S:
            np.copyto(damped, JtJ)
            damped_diag += np.array(mu)[:, None] * diag
            A = damped
            rhs = np.negative(Jtr)[:, :, None]
        else:
            A = JtJ[idx]
            A.reshape(len(idx), P * P)[:, :: P + 1] += (
                np.array([mu[s] for s in idx])[:, None] * diag[idx]
            )
            rhs = np.negative(Jtr[idx])[:, :, None]
        solved = idx
        try:
            # Explicit trailing vector axis: 2-D ``b`` would be read
            # as one matrix, not a stack of vectors.
            steps = np.linalg.solve(A, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            steps = np.zeros((len(idx), P))
            ok = []
            for t, s in enumerate(idx):
                try:
                    steps[t] = np.linalg.solve(A[t], rhs[t, :, 0])
                    ok.append(t)
                except np.linalg.LinAlgError:
                    mu[s] *= nu
            solved = [idx[t] for t in ok]
            steps = steps[ok]

        # --- the reduction test, on retries only --------------------
        # (as in the scalar loop: a retry whose step cannot lower the
        # cost by REDUCTION_TOLERANCE of it stops before its sweep)
        retrying = [t for t, s in enumerate(solved) if s not in kept]
        if retrying:
            rows = [solved[t] for t in retrying]
            pred = _predicted_reduction(
                steps[retrying],
                np.array([mu[s] for s in rows])[:, None],
                diag[rows],
                Jtr[rows],
            ).tolist()
            flat = [
                s for s, p in zip(rows, pred)
                if p < REDUCTION_TOLERANCE * cost[s]
            ]
            for s in flat:
                stop[s] = "reduction-tolerance"
                live[s] = False
            if flat:
                go = [t for t, s in enumerate(solved) if live[s]]
                solved = [solved[t] for t in go]
                steps = steps[go]

        # --- one batched evaluation round ---------------------------
        if solved:
            if len(solved) == S:
                candidates = X + steps
            else:
                candidates = X.copy()
                candidates[solved] += steps
            R_new, J_new = residual_fn(candidates)
            rounds += 1
            live_rows += len(solved)
            cost_new = np.einsum("sr,sr->s", R_new, R_new).tolist()
            accepted = []
            for t, s in enumerate(solved):
                n_eval[s] += 1
                if cost_new[s] < cost[s]:
                    cost[s] = cost_new[s]
                    mu[s] = max(mu[s] / opts.mu_down, 1e-15)
                    fresh[s] = True
                    accepted.append((t, s))
                else:
                    mu[s] *= nu
            if accepted:
                w = [s for _, s in accepted]
                if len(w) == S:
                    X = candidates
                else:
                    X[w] = candidates[w]
                _normal_equations(R_new, J_new, w, JtJ, Jtr)
                # Step-size convergence, accepted steps only (as in
                # the scalar loop: a tiny rejected step just means the
                # damping is winning).
                step_sq = _row_norms_squared(steps)
                x_sq = _row_norms_squared(X)
                for t, s in accepted:
                    if math.sqrt(step_sq[t]) < step_tol * (
                        math.sqrt(x_sq[s]) + step_tol
                    ):
                        stop[s] = "step-tolerance"
                        live[s] = False

        # A start whose damping just overflowed stops exactly where
        # the scalar inner loop would have given up.
        for s in idx:
            if live[s] and not fresh[s] and mu[s] > opts.max_mu:
                stop[s] = "damping-limit"
                live[s] = False

    if success_cost is not None:
        for s in everyone:
            if cost[s] <= success_cost:
                stop[s] = "success-threshold"

    _count_occupancy(S, rounds, live_rows, abandoned_evaluations)
    return [
        LMResult(
            params=X[s],
            cost=cost[s],
            iterations=iters[s],
            num_evaluations=n_eval[s],
            converged=stop[s] in ("success-threshold", "gradient-tolerance"),
            stop_reason=stop[s],
        )
        for s in everyone
    ]
