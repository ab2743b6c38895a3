"""The lockstep LM loop against the loop it replaced.

``reference_batched_lm`` is ``batched_levenberg_marquardt`` as it was
before its round kept per-slot state in Python scalars and stacked its
normal equations: seven boolean masks, fancy-indexed damping, one
``J^T J`` and ``J^T r`` product per accepted row.  The
relative-reduction stop on retries went into both loops together, each
in its own style.  On seeded stub problems that reach every stop
reason, at several widths, in float32 and float64, with and without an
abandon hook, the rewrite must return bitwise the same
:class:`LMResult` for every start.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.instantiation import lm
from repro.instantiation.lm import (
    REDUCTION_TOLERANCE,
    LMOptions,
    LMResult,
    batched_levenberg_marquardt,
)
from repro.telemetry import delta


def _reference_normal_equations(R, J, starts, JtJ, Jtr) -> None:
    for s in starts:
        np.matmul(J[s].T, J[s], out=JtJ[s])
        np.matmul(J[s].T, R[s], out=Jtr[s])


def reference_batched_lm(residual_fn, x0, options=None, should_abandon=None):
    """The mask-chain lockstep loop, verbatim but for its docstring and
    the relative-reduction stop."""
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

    JtJ = np.empty((S, P, P), dtype=J.dtype)
    Jtr = np.empty((S, P), dtype=np.result_type(J, R))
    _reference_normal_equations(R, J, range(S), JtJ, Jtr)
    mu = np.full(S, opts.initial_mu)
    nu = opts.mu_up
    live = np.ones(S, dtype=bool)
    fresh = np.ones(S, dtype=bool)
    iters = np.zeros(S, dtype=int)
    diag = np.empty((S, P))
    stop = np.array(["max-iterations"] * S, dtype=object)
    ar = np.arange(P)

    while live.any():
        top = live & fresh
        if top.any():
            spent = top & (iters >= opts.max_iterations)
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
            diag[top] = np.clip(JtJ[top][:, ar, ar], 1e-8, None)
            fresh &= ~top

        if should_abandon is not None and should_abandon(live, cost):
            stop[live] = "abandoned"
            live[:] = False
            break
        if not live.any():
            break

        idx = np.where(live)[0]
        A = JtJ[idx].copy()
        A[:, ar, ar] += mu[idx, None] * diag[idx]
        rhs = -Jtr[idx]
        ok = np.ones(len(idx), dtype=bool)
        steps = np.zeros((len(idx), P))
        try:
            steps = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for t in range(len(idx)):
                try:
                    steps[t] = np.linalg.solve(A[t], rhs[t])
                except np.linalg.LinAlgError:
                    ok[t] = False
        solved = idx[ok]
        mu[idx[~ok]] *= nu

        # A retry (a start not making its first try at its point)
        # whose step is predicted to lower the cost by less than
        # REDUCTION_TOLERANCE of it stops before its evaluation.
        retry = ~top[solved]
        if retry.any():
            rows = solved[retry]
            st = steps[ok][retry]
            pred = np.add.reduce(
                st * (mu[rows, None] * diag[rows] * st - Jtr[rows]), axis=1
            )
            small = rows[pred < REDUCTION_TOLERANCE * cost[rows]]
            stop[small] = "reduction-tolerance"
            live[small] = False
            ok &= ~np.isin(idx, small)
            solved = idx[ok]

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
                cost[w] = cost_new[w]
                _reference_normal_equations(R_new, J_new, w, JtJ, Jtr)
                mu[w] = np.maximum(mu[w] / opts.mu_down, 1e-15)
                fresh[w] = True
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


# ----------------------------------------------------------------------
# Seeded stubs, one problem kind per slot
# ----------------------------------------------------------------------

NUM_PARAMS = 4
NUM_RESIDUALS = 6

#: One slot problem per kind; at width 8 one batch holds them all.
KINDS = (
    "exact",       # starts at its solution
    "linear",      # consistent least squares
    "scaled",      # inconsistent and large: steps vanish, J^T r does not
    "rosenbrock",  # curved valley: rejected steps between accepted ones
    "constant",    # no step lowers the cost: the predicted
                   # reduction of its retries falls below tolerance
    "singular",    # every damped system it forms is singular:
                   # damping overflows with no step evaluated
    "nan-start",   # non-finite first evaluation
    "nan-mid",     # finite cost, non-finite Jacobian after one step
    "rank-one",    # every step accepted, the damped system turns
                   # singular, and the iterations run out
    "creep",       # the cost falls on every call, but a step moves x
                   # by less than the step tolerance
)


class SlotStub:
    """A batched residual function whose row ``s`` is problem
    ``kinds[s]``, returning ``(R, J)`` laid out as the engine's (``J`` a
    transposed view of a ``(S, P, 2n)`` block) and overwritten on each
    call."""

    def __init__(self, kinds, dtype, seed=0):
        rng = np.random.default_rng(seed)
        S, P, m = len(kinds), NUM_PARAMS, NUM_RESIDUALS
        self.kinds = kinds
        self.a = rng.normal(size=(S, m, P))
        self.x_true = rng.normal(size=(S, P))
        self.b = np.einsum("smp,sp->sm", self.a, self.x_true)
        self.offset = rng.normal(size=(S, m))
        self.c = rng.normal(size=(S, m))
        self.calls = 0
        self.R = np.empty((S, m))
        self.block = np.empty((S, P, m), dtype=dtype)

    def x0(self, seed=1):
        x = np.random.default_rng(seed).uniform(
            -2.0, 2.0, (len(self.kinds), NUM_PARAMS)
        )
        for s, kind in enumerate(self.kinds):
            if kind == "exact":
                x[s] = self.x_true[s]
        return x

    def _row(self, s, kind, x):
        a, P, m = self.a[s], NUM_PARAMS, NUM_RESIDUALS
        if kind in ("exact", "linear"):
            return a @ x - self.b[s], a
        if kind == "scaled":
            return 1e6 * (a @ x - self.b[s] - self.offset[s]), 1e6 * a
        if kind == "rosenbrock":
            r = np.zeros(m)
            jac = np.zeros((m, P))
            r[0], jac[0, 0] = 1.0 - x[0], -1.0
            r[1] = 10.0 * (x[1] - x[0] ** 2)
            jac[1, 0], jac[1, 1] = -20.0 * x[0], 10.0
            r[2:P] = x[2:] - 1.0
            jac[range(2, P), range(2, P)] = 1.0
            return r, jac
        if kind == "constant":
            return self.c[s], a
        if kind == "singular":
            jac = a.copy()
            jac[:, 0] = 0.0
            return self.c[s], jac
        if kind == "nan-start":
            return np.full(m, np.nan), a
        if kind == "nan-mid":
            return a @ x - self.b[s], a if self.calls == 0 else a * np.nan
        if kind == "rank-one":
            return 0.5 ** self.calls * self.c[s], np.ones((m, P))
        if kind == "creep":
            return 0.5 ** self.calls * self.c[s], 1e18 * a
        raise AssertionError(kind)

    def __call__(self, X):
        for s, kind in enumerate(self.kinds):
            r, jac = self._row(s, kind, X[s])
            self.R[s] = r
            self.block[s] = jac.T
        self.calls += 1
        return self.R, self.block.transpose(0, 2, 1)


def declare_singular(solve):
    """``np.linalg.solve``, except that it raises ``LinAlgError`` for a
    system whose first row is zero off the diagonal (the ``singular``
    kind's, whose first parameter is idle) and for a float64 system
    whose first two entries are within 1e-6 of each other.

    A rank-one ``J^T J`` loses its damping to rounding (and LAPACK
    finds an exact zero pivot) only in float32; the second rule makes
    the float64 fits take the same per-row fallback."""

    def strict(a, b):
        if np.any(np.all(a[..., 0, 1:] == 0, axis=-1)):
            raise np.linalg.LinAlgError("singular")
        if a.dtype == np.float64:
            first, second = a[..., 0, 0], a[..., 0, 1]
            if np.any(np.abs(first - second) <= 1e-6 * np.abs(first)):
                raise np.linalg.LinAlgError("singular")
        return solve(a, b)

    return strict


def sequential_prefix_abandon(success_cost):
    """The engine's lockstep hook: stop once the sequential scan's
    winner is decided."""

    def should_abandon(live, cost):
        best = np.inf
        for s in range(len(live)):
            if live[s]:
                return False
            best = min(best, cost[s])
            if best <= success_cost:
                return True
        return False

    return should_abandon


def batches(width):
    """Every kind once, in slot groups of ``width`` (the last group
    wraps around), from two slot orders: with ``linear`` in slot 0, an
    abandon hook stops the others mid-run."""
    groups = []
    for first in (0, 1):
        order = KINDS[first:] + KINDS[:first]
        cycle = order + order
        groups += [
            cycle[lo: lo + width] for lo in range(0, len(KINDS), width)
        ]
    return groups


#: (options, abandon hook) per mode
MODES = {
    "success": (LMOptions(max_iterations=20, success_cost=1e-12), False),
    "success-abandon": (
        LMOptions(max_iterations=20, success_cost=1e-12), True
    ),
    "no-success": (LMOptions(max_iterations=20), False),
}


def assert_bitwise_equal(ours, ref):
    assert len(ours) == len(ref)
    for got, want in zip(ours, ref):
        assert got.params.tobytes() == want.params.tobytes()
        assert repr(got.cost) == repr(want.cost)
        assert got.iterations == want.iterations
        assert got.num_evaluations == want.num_evaluations
        assert got.stop_reason == want.stop_reason
        assert got.converged == want.converged


def run_both(kinds, dtype, mode, monkeypatch):
    options, abandon = MODES[mode]
    monkeypatch.setattr(
        np.linalg, "solve", declare_singular(np.linalg.solve)
    )
    hook = (
        sequential_prefix_abandon(options.success_cost) if abandon else None
    )
    runs = []
    for loop in (batched_levenberg_marquardt, reference_batched_lm):
        stub = SlotStub(kinds, dtype)
        runs.append(loop(stub, stub.x0(), options, should_abandon=hook))
    return runs


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_bitwise_equal_to_reference(width, dtype, mode, monkeypatch):
    for kinds in batches(width):
        ours, ref = run_both(kinds, dtype, mode, monkeypatch)
        assert_bitwise_equal(ours, ref)


def test_stubs_reach_every_stop_reason(monkeypatch):
    reasons = set()
    for mode in MODES:
        for dtype in (np.float64, np.float32):
            ours, _ = run_both(KINDS, dtype, mode, monkeypatch)
            reasons |= {run.stop_reason for run in ours}
    assert reasons == {
        "success-threshold",
        "gradient-tolerance",
        "step-tolerance",
        "reduction-tolerance",
        "damping-limit",
        "max-iterations",
        "non-finite",
        "abandoned",
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_finite_at_start_and_mid_run(dtype, monkeypatch):
    ours, _ = run_both(KINDS, dtype, "no-success", monkeypatch)
    by_kind = dict(zip(KINDS, ours))
    assert by_kind["nan-start"].stop_reason == "non-finite"
    assert by_kind["nan-start"].cost == np.inf
    assert by_kind["nan-mid"].stop_reason == "non-finite"
    assert np.isfinite(by_kind["nan-mid"].cost)
    assert by_kind["nan-mid"].num_evaluations > 1


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_singular_stacked_solve_falls_back_per_row(dtype, monkeypatch):
    """The rank-one slot's damped system turns singular mid-run: the
    stacked solve raises, the other rows still solve one by one, and
    the rank-one row escalates its damping instead."""
    calls = []
    real = np.linalg.solve

    def spy(a, b):
        calls.append(a.ndim)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    ours, ref = run_both(KINDS, dtype, "no-success", monkeypatch)
    assert_bitwise_equal(ours, ref)
    assert 2 in calls  # the per-row fallback ran
    assert ours[KINDS.index("linear")].stop_reason != "non-finite"


def test_no_parameters():
    def fn(X):
        return np.ones((len(X), 3)), np.zeros((len(X), 3, 0))

    x0 = np.zeros((4, 0))
    for options in (LMOptions(), LMOptions(success_cost=5.0)):
        ours = batched_levenberg_marquardt(fn, x0, options)
        assert_bitwise_equal(ours, reference_batched_lm(fn, x0, options))
        assert {run.stop_reason for run in ours} == {"no-parameters"}


class TestNormalEquations:
    """The stacked products against one product per row, at every
    Figure 5 shape (P, 2n) for the full unitary and ``COLUMN(0)``."""

    SHAPES = [
        (18, 32), (18, 8),        # 2-qubit shallow
        (33, 128), (33, 16),      # 3-qubit shallow
        (57, 128), (57, 16),      # 3-qubit deep
        (12, 162), (12, 18),      # 2-qutrit shallow
        (22, 1458), (22, 54),     # 3-qutrit shallow
    ]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_equal_to_per_row(self, shape, dtype):
        P, m = shape
        rng = np.random.default_rng(P * m)
        S = 8
        J = rng.normal(size=(S, P, m)).astype(dtype).transpose(0, 2, 1)
        R = rng.normal(size=(S, m))
        want_jtj = np.empty((S, P, P), dtype=dtype)
        want_jtr = np.empty((S, P))
        _reference_normal_equations(R, J, range(S), want_jtj, want_jtr)
        # every row, a stacked subset (or per-row where rows are
        # large), and a small subset
        for rows in (list(range(S)), [0, 2, 3, 5, 6], [1, 4, 6], [7]):
            jtj = np.zeros_like(want_jtj)
            jtr = np.zeros_like(want_jtr)
            lm._normal_equations(R, J, rows, jtj, jtr)
            assert np.array_equal(jtj[rows], want_jtj[rows])
            assert np.array_equal(jtr[rows], want_jtr[rows])
            others = [s for s in range(S) if s not in rows]
            assert not jtj[others].any() and not jtr[others].any()


def test_occupancy_counters_add_up(monkeypatch):
    """Every lockstep call counts its rounds, its rows (``S`` per
    round), the rows that carried a live start, and the evaluations of
    the starts it abandoned."""
    options, _ = MODES["success-abandon"]
    stub = SlotStub(KINDS, np.float64)
    before = telemetry.metrics().snapshot()
    runs = batched_levenberg_marquardt(
        stub, stub.x0(), options,
        should_abandon=sequential_prefix_abandon(options.success_cost),
    )
    counts = delta(before, telemetry.metrics().snapshot())
    assert counts["instantiate.lockstep_rounds"] == stub.calls
    assert counts["instantiate.lockstep_rows"] == stub.calls * len(KINDS)
    assert counts["instantiate.lockstep_live_rows"] == sum(
        run.num_evaluations for run in runs
    )
    abandoned = [run for run in runs if run.stop_reason == "abandoned"]
    assert abandoned
    assert counts["instantiate.abandoned_evaluations"] == sum(
        run.num_evaluations for run in abandoned
    )
