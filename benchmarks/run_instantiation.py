#!/usr/bin/env python
"""Regenerate the Figure 6/7 data: instantiation time and success rate.

Usage::

    python benchmarks/run_instantiation.py               # single-start
    python benchmarks/run_instantiation.py --starts 8    # multi-start
    python benchmarks/run_instantiation.py --trials 10
    python benchmarks/run_instantiation.py --starts 8 \
        --json BENCH_multistart.json                     # emit artifact
    python benchmarks/run_instantiation.py --verify-overhead \
        --json BENCH_verify.json                         # verifier cost
    python benchmarks/run_instantiation.py --sweeps \
        --json BENCH_sweeps.json                         # TNVM sweep table
    python benchmarks/run_instantiation.py --lm \
        --json BENCH_lm.json                             # LM round table
    python benchmarks/run_instantiation.py --fits \
        --json BENCH_fits.json                           # identity drive

For every Figure 5 benchmark circuit this prints the mean wall-clock
instantiation time for OpenQudit (AOT included) and the baseline
framework, the speedup, and both success rates — the two panels of the
paper's Figures 6 and 7.  For multi-start runs (``--starts > 1``) the
OpenQudit engine is measured under *both* execution strategies —
``sequential`` (one scalar TNVM pass per start) and ``batched`` (all
starts in one vectorized BatchedTNVM sweep) — and the comparison can
be written to a JSON artifact for CI tracking.

``--sweeps`` prints the TNVM sweep table instead: the minimum
microseconds per ``evaluate_with_grad`` of the scalar VM and of a
batch-8 VM, the megakernel's numpy calls per sweep, the program's
expression-table size and the batched VM's grouped writer calls per
sweep, for every Figure 5 circuit compiled for the full unitary and
for ``COLUMN(0)``, with BLAS on one thread.  Its least-squares columns time what one LM
evaluation adds on top: ``residuals_and_jacobian`` (sweep included)
plus ``J^T J`` and ``J^T r`` as the LM loops form them, with unitary
residuals on the full programs and state residuals on ``COLUMN(0)``.

``--lm`` prints the LM loop table: the minimum microseconds per
scalar LM iteration and per lockstep round at 1 and 8 starts, for
every Figure 5 shape (``P`` parameters, ``2n = 2D^2`` residuals for
the full unitary, ``2n = 2D`` for ``COLUMN(0)``), BLAS on one thread.
The residual function is a stub that returns the same ``(r, J)``
views every call and shrinks ``r`` a little, so every step is
accepted and no TNVM sweep runs: the table is the loop's own cost,
its linear algebra included.

``--fits`` runs the 270-fit identity drive: every Figure 5 circuit,
f64 and f32, a unitary target on the full-unitary engine and a state
target on it and on the ``COLUMN(0)`` engine, each schedule, 1, 3
and 8 starts.  It prints one SHA-256 digest over every fit's result
(params, infidelity, success, starts used, totals, and each start's
params, cost, iterations, evaluations and stop reason), the starts
and evaluations per LM stop reason, and the ``success`` and
``starts_used`` totals, with BLAS on one thread.  A change that keeps
every fit bitwise equal keeps the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

if {"--sweeps", "--lm", "--fits"} & set(sys.argv):
    # BLAS reads its thread count when numpy loads; one thread also
    # keeps the --fits digest independent of the host's core count.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from repro.baseline import (  # noqa: E402
    BaselineInstantiater,
    build_qsearch_ansatz_baseline,
)
from repro.checkpoint import atomic_write_json  # noqa: E402
from repro.circuit import FIG5_BENCHMARKS, fig5_circuit  # noqa: E402
from repro.instantiation import (  # noqa: E402
    Instantiater,
    LMOptions,
    batched_levenberg_marquardt,
    levenberg_marquardt,
)

#: parameter sets per batched sweep in the ``--sweeps`` table
SWEEP_BATCH = 8

#: lockstep widths timed by the ``--lm`` table
LM_WIDTHS = (1, 8)


def run_one(
    name: str,
    starts: int,
    trials: int,
    seed_base: int = 1000,
    with_batched: bool = False,
    with_baseline: bool = True,
) -> dict:
    qudits, depth, radix = FIG5_BENCHMARKS[name]
    fast_times, batched_times, slow_times = [], [], []
    fast_successes = batched_successes = slow_successes = 0

    for trial in range(trials):
        circ = fig5_circuit(name)
        p_true = np.random.default_rng(seed_base + trial).uniform(
            -np.pi, np.pi, circ.num_params
        )
        target = circ.get_unitary(p_true)

        t0 = time.perf_counter()
        engine = Instantiater(circ)  # AOT compile, counted
        result = engine.instantiate(target, starts=starts, rng=trial)
        fast_times.append(time.perf_counter() - t0)
        fast_successes += result.success

        if with_batched:
            # Same timing envelope as the sequential row: circuit
            # construction outside, AOT compile + optimize inside.
            t0 = time.perf_counter()
            engine = Instantiater(circ, strategy="batched")
            result = engine.instantiate(target, starts=starts, rng=trial)
            batched_times.append(time.perf_counter() - t0)
            batched_successes += result.success

        if with_baseline:
            base = build_qsearch_ansatz_baseline(qudits, depth, radix)
            t0 = time.perf_counter()
            result = BaselineInstantiater(base).instantiate(
                target, starts=starts, rng=trial
            )
            slow_times.append(time.perf_counter() - t0)
            slow_successes += result.success

    row = {
        "name": name,
        "sequential_seconds": float(np.mean(fast_times)),
        "sequential_rate": fast_successes / trials,
    }
    if with_batched:
        row["batched_seconds"] = float(np.mean(batched_times))
        row["batched_rate"] = batched_successes / trials
    if with_baseline:
        row["baseline_seconds"] = float(np.mean(slow_times))
        row["baseline_rate"] = slow_successes / trials
    return row


def verify_overhead_suite(trials: int, json_path: str) -> None:
    """Cost of static verification on the engine-compilation path.

    Builds every Figure 5 engine ``trials`` times with the
    ``repro.analysis`` verifier off and again with it on
    (``REPRO_VERIFY=1``), recording the per-build ``aot_seconds`` each
    engine reports into two telemetry histograms.  The timed region is
    the steady state synthesis lives in — the process-wide caches (QGL
    expression JIT, kernel-lint clean-source memo) are warmed outside
    the timer, exactly like the figure suite warms the
    ExpressionCache — and the one-time cold cost of verifying each
    unique program/kernel is measured directly and reported as its own
    histogram.  The artifact carries all three histograms, the
    steady-state overhead fraction (acceptance bar: < 5%), and the
    ``analysis.*`` counters the verified pass accumulated.
    """
    import os

    from repro import telemetry
    from repro.analysis import verify_kernel, verify_program

    registry = telemetry.metrics()
    hists = {
        "off": registry.histogram("bench.aot_seconds.verify_off"),
        "on": registry.histogram("bench.aot_seconds.verify_on"),
    }
    cold = registry.histogram("bench.analysis_cold_seconds")
    names = list(FIG5_BENCHMARKS)

    # Warm the process-wide ExpressionCache so neither mode pays the
    # one-time JIT of the QGL expressions inside its timed region.
    engines = {name: Instantiater(fig5_circuit(name)) for name in names}

    # One-time cost: verify each unique program and lint each unique
    # kernel once, cold.  This doubles as the warm-up of the lint's
    # clean-source memo for the steady-state pass below.
    for name, engine in engines.items():
        program = engine.program
        t0 = time.perf_counter()
        verify_program(program).raise_if_failed()
        cold.observe(time.perf_counter() - t0)
        t0 = time.perf_counter()
        verify_kernel(engine.vm.fused_kernel).raise_if_failed()
        cold.observe(time.perf_counter() - t0)

    samples: dict[tuple[str, str], list[float]] = {}
    saved = os.environ.get("REPRO_VERIFY")
    try:
        # Interleave the two modes within each trial so slow drift
        # (cache pressure, CPU frequency) cancels out of the ratio.
        for _ in range(trials):
            for mode, env in (("off", "0"), ("on", "1")):
                os.environ["REPRO_VERIFY"] = env
                for name in names:
                    circ = fig5_circuit(name)
                    engine = Instantiater(circ)
                    # The scalar VM is built on first use; build it
                    # here so aot_seconds covers the kernel bind (and
                    # its lint) as well as the compile.
                    _ = engine.vm
                    hists[mode].observe(engine.aot_seconds)
                    samples.setdefault((mode, name), []).append(
                        engine.aot_seconds
                    )
    finally:
        if saved is None:
            os.environ.pop("REPRO_VERIFY", None)
        else:
            os.environ["REPRO_VERIFY"] = saved

    off = hists["off"].state()
    on = hists["on"].state()
    # Headline overhead from per-circuit medians (the circuits span an
    # order of magnitude in build time, so a pooled median is
    # multimodal, and single-build timings have heavy outlier tails):
    # median over trials for each (circuit, mode), then compare the
    # suite totals.
    med = {
        mode: sum(
            float(np.median(samples[(mode, name)])) for name in names
        )
        for mode in ("off", "on")
    }
    overhead = med["on"] / med["off"] - 1.0
    overhead_mean = on["mean"] / off["mean"] - 1.0
    counters = {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("analysis.")
    }

    print(f"verify-overhead: {trials} builds x {len(names)} circuits "
          f"per mode\n")
    print(f"{'mode':<10} {'builds':>7} {'suite med(ms)':>14} "
          f"{'mean(ms)':>10} {'min(ms)':>9} {'max(ms)':>9}")
    for mode, state in (("off", off), ("on", on)):
        print(f"{mode:<10} {state['count']:>7} "
              f"{med[mode] * 1e3:>14.2f} {state['mean'] * 1e3:>10.2f} "
              f"{state['min'] * 1e3:>9.2f} {state['max'] * 1e3:>9.2f}")
    print(f"\nsteady-state verification overhead: {overhead:+.2%} of "
          f"the suite's median aot_seconds (acceptance bar < 5%; "
          f"mean-based {overhead_mean:+.2%})")
    print(f"one-time cold verify/lint: {cold.count} subjects, "
          f"mean {cold.mean * 1e3:.2f}ms, max {cold.max * 1e3:.2f}ms")
    for name in sorted(counters):
        print(f"  {name} = {counters[name]}")

    report = {
        "mode": "verify-overhead",
        "trials": trials,
        "circuits": names,
        "aot_seconds": {
            "verify_off": off,
            "verify_on": on,
            "verify_off_suite_median": med["off"],
            "verify_on_suite_median": med["on"],
        },
        "overhead_fraction": overhead,
        "overhead_fraction_mean": overhead_mean,
        "cold_verify_seconds": cold.state(),
        "telemetry_metrics": counters,
    }
    if json_path:
        atomic_write_json(json_path, report)
        print(f"wrote {json_path}")


def _min_sweep_us(sweep, params, calls: int) -> float:
    """Minimum wall time of one ``sweep(params)`` over ``calls`` timed
    calls (after a short warm-up), in microseconds."""
    for _ in range(10):
        sweep(params)
    best = float("inf")
    clock = time.perf_counter
    for _ in range(calls):
        t0 = clock()
        sweep(params)
        best = min(best, clock() - t0)
    return best * 1e6


def _least_squares(residuals, batch: int | None = None):
    """One LM evaluation of ``residuals``: ``residuals_and_jacobian``
    plus ``J^T J`` and ``J^T r``, formed as the LM loops form them (for
    a ``batch``-row evaluation, one stacked product pair over every
    row, as the lockstep loop does when every start's step is
    accepted)."""
    fn = residuals.residuals_and_jacobian
    if batch is None:

        def evaluate(params):
            r, jac = fn(params)
            return jac.T @ jac, jac.T @ r

        return evaluate
    num = residuals.num_params
    jtj, jtr = np.empty((batch, num, num)), np.empty((batch, num))

    def evaluate(params):
        r, jac = fn(params)
        jt = jac.transpose(0, 2, 1)
        np.matmul(jt, jac, out=jtj)
        np.matmul(jt, r[:, :, None], out=jtr[:, :, None])

    return evaluate


def sweep_suite(trials: int, json_path: str) -> None:
    """The TNVM sweep table: min-of-N µs per ``evaluate_with_grad``.

    Each Figure 5 circuit is compiled for the full unitary and for
    ``COLUMN(0)``; the scalar VM (one megakernel call per sweep) and a
    ``SWEEP_BATCH``-wide batched VM each run ``100 * trials`` timed
    sweeps at fixed random parameters, and the table keeps the fastest
    one.  ``num_numpy_calls`` is the megakernel's numpy dispatches per
    sweep (contractions, copies and scatter stores); ``num_expressions``
    is the program's expression-table size and ``num_writers`` the
    batched VM's grouped writer calls per sweep (``len(vm._writes)``,
    one per parameterized gate expression).  The ``lsq``
    columns time one least-squares evaluation the same way
    (:func:`_least_squares`): unitary residuals against a random
    unitary on the full programs, state residuals against a random
    state on ``COLUMN(0)``.
    """
    from repro.instantiation import (
        BatchedHilbertSchmidtResiduals,
        BatchedStateResiduals,
        HilbertSchmidtResiduals,
        StateResiduals,
    )
    from repro.tensornet import OutputContract
    from repro.tnvm import TNVM, BatchedTNVM
    from repro.utils import random_unitary

    calls = 100 * trials
    rows = []
    print(f"TNVM sweeps: min of {calls} evaluate_with_grad calls, "
          f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS', '?')}\n")
    print(f"{'benchmark':<18} {'contract':<9} {'D':>3} {'P':>3} "
          f"{'scalar(us)':>11} {f'batch{SWEEP_BATCH}(us)':>12} "
          f"{'numpy calls':>12} {'exprs':>6} {'writers':>8} "
          f"{'lsq(us)':>9} {f'lsq{SWEEP_BATCH}(us)':>10}")
    for name in FIG5_BENCHMARKS:
        circ = fig5_circuit(name)
        params = np.random.default_rng(0).uniform(
            -np.pi, np.pi, (SWEEP_BATCH, circ.num_params)
        )
        unitary = random_unitary(circ.dim, rng=1)
        for contract in ("full", "column"):
            program = circ.compile(
                contract=OutputContract.column(0)
                if contract == "column"
                else None
            )
            scalar = TNVM(program)
            batched = BatchedTNVM(program, SWEEP_BATCH)
            if contract == "column":
                target = np.ascontiguousarray(unitary[:, 0])
                lsq = StateResiduals(scalar, target)
                lsq_batched = BatchedStateResiduals(batched, target)
            else:
                lsq = HilbertSchmidtResiduals(scalar, unitary)
                lsq_batched = BatchedHilbertSchmidtResiduals(batched, unitary)
            row = {
                "name": name,
                "contract": contract,
                "dim": program.dim,
                "num_params": program.num_params,
                "scalar_us": _min_sweep_us(
                    scalar.evaluate_with_grad, params[0], calls
                ),
                "batched_us": _min_sweep_us(
                    batched.evaluate_with_grad, params, calls
                ),
                "num_numpy_calls": scalar.fused_kernel.num_numpy_calls,
                "num_expressions": len(program.expressions),
                "num_writers": len(batched._writes),
                "lsq_scalar_us": _min_sweep_us(
                    _least_squares(lsq), params[0], calls
                ),
                "lsq_batched_us": _min_sweep_us(
                    _least_squares(lsq_batched, SWEEP_BATCH), params, calls
                ),
            }
            rows.append(row)
            print(f"{name:<18} {contract:<9} {row['dim']:>3} "
                  f"{row['num_params']:>3} {row['scalar_us']:>11.1f} "
                  f"{row['batched_us']:>12.1f} "
                  f"{row['num_numpy_calls']:>12} "
                  f"{row['num_expressions']:>6} {row['num_writers']:>8} "
                  f"{row['lsq_scalar_us']:>9.1f} "
                  f"{row['lsq_batched_us']:>10.1f}")
    report = {
        "mode": "sweeps",
        "batch": SWEEP_BATCH,
        "calls": calls,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rows": rows,
    }
    if json_path:
        atomic_write_json(json_path, report)
        print(f"wrote {json_path}")


def _lm_stub(num_params: int, num_residuals: int, width: int | None):
    """A residual function that returns the same ``(r, J)`` views on
    every call, ``J`` laid out as the engine's (a transposed view of a
    ``(P, 2n)`` block per row), and shrinks ``r`` by 0.1% per call so
    every step lowers the cost and is accepted."""
    rng = np.random.default_rng(0)
    lead = () if width is None else (width,)
    block = rng.normal(size=lead + (num_params, num_residuals))
    jac = block.T if width is None else block.transpose(0, 2, 1)
    r0 = rng.normal(size=lead + (num_residuals,))
    r = np.empty_like(r0)
    scale = [1.0]

    def fn(x):
        scale[0] *= 0.999
        np.multiply(r0, scale[0], out=r)
        return r, jac

    return fn


def _min_round_us(run, rounds: int, trials: int) -> float:
    """Minimum wall time per LM iteration or round over ``trials`` runs
    of ``rounds`` iterations each, in microseconds."""
    run()
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        run()
        best = min(best, (time.perf_counter() - t0) / rounds)
    return best * 1e6


def lm_suite(trials: int, json_path: str, rounds: int = 100) -> None:
    """The LM loop table: min-of-N µs per scalar iteration and per
    lockstep round on a stub residual (:func:`_lm_stub`).

    Every Figure 5 shape runs twice, with ``2n = 2D^2`` residuals (the
    full unitary) and ``2n = 2D`` (``COLUMN(0)``).  Each run makes
    ``rounds`` iterations with no stopping test able to fire before
    the budget; the table keeps the fastest of ``trials`` runs.
    """
    options = LMOptions(
        max_iterations=rounds, gradient_tolerance=0.0, step_tolerance=0.0
    )
    rows = []
    print(f"LM loop: min of {trials} runs of {rounds} iterations, stub "
          f"residuals (every step accepted, no sweep), BLAS threads "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', '?')}\n")
    widths = "".join(f" {f'round W={w}(us)':>15}" for w in LM_WIDTHS)
    print(f"{'benchmark':<18} {'contract':<9} {'D':>3} {'P':>3} "
          f"{'2n':>5} {'scalar(us)':>11}{widths}")
    for name in FIG5_BENCHMARKS:
        circ = fig5_circuit(name)
        dim, num = circ.dim, circ.num_params
        for contract, size in (("full", 2 * dim * dim), ("column", 2 * dim)):
            x0 = np.random.default_rng(1).uniform(
                -np.pi, np.pi, (max(LM_WIDTHS), num)
            )

            def scalar():
                fn = _lm_stub(num, size, None)
                levenberg_marquardt(fn, x0[0], options)

            row = {
                "name": name,
                "contract": contract,
                "dim": dim,
                "num_params": num,
                "num_residuals": size,
                "scalar_us": _min_round_us(scalar, rounds, trials),
            }
            for width in LM_WIDTHS:

                def lockstep(width=width):
                    fn = _lm_stub(num, size, width)
                    batched_levenberg_marquardt(fn, x0[:width], options)

                row[f"round_w{width}_us"] = _min_round_us(
                    lockstep, rounds, trials
                )
            rows.append(row)
            cells = "".join(
                f" {row[f'round_w{w}_us']:>15.1f}" for w in LM_WIDTHS
            )
            print(f"{name:<18} {contract:<9} {dim:>3} {num:>3} {size:>5} "
                  f"{row['scalar_us']:>11.1f}{cells}")
    report = {
        "mode": "lm",
        "rounds": rounds,
        "trials": trials,
        "widths": list(LM_WIDTHS),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rows": rows,
    }
    if json_path:
        atomic_write_json(json_path, report)
        print(f"wrote {json_path}")


#: the identity drive's grid, in drive order (5 circuits x 2 x 3 x 3
#: x 3 = 270 fits)
FIT_PRECISIONS = ("f64", "f32")
FIT_TARGETS = ("unitary on full", "state on full", "state on column")
FIT_STRATEGIES = ("sequential", "batched", "auto")
FIT_STARTS = (1, 3, 8)


def fit_drive():
    """Yield ``(key, result)`` for every fit of the identity drive.

    Per Figure 5 circuit, the target is the ansatz at ``theta =
    default_rng(17).uniform(-pi, pi, P)``: its unitary, or its column
    0 as a state.  Unitary fits and the first state fits run on the
    full-unitary engine, the others on the ``COLUMN(0)`` engine, each
    compiled per precision; every fit draws its starts from ``rng=5``.
    """
    from repro.tensornet import OutputContract

    for name in FIG5_BENCHMARKS:
        circ = fig5_circuit(name)
        theta = np.random.default_rng(17).uniform(
            -np.pi, np.pi, circ.num_params
        )
        unitary = circ.get_unitary(theta)
        for precision in FIT_PRECISIONS:
            full = Instantiater(circ, precision=precision)
            column = Instantiater(
                circ, precision=precision, contract=OutputContract.column(0)
            )
            cases = zip(
                FIT_TARGETS,
                (full, full, column),
                (unitary, unitary[:, 0], unitary[:, 0]),
            )
            for kind, engine, target in cases:
                for strategy in FIT_STRATEGIES:
                    for starts in FIT_STARTS:
                        result = engine.instantiate(
                            target, starts=starts, rng=5, strategy=strategy
                        )
                        yield (name, precision, kind, strategy, starts), result


def _hash_fit(digest, result) -> None:
    """Feed every field of an ``InstantiationResult`` but its timings
    to ``digest``, one update per value."""
    digest.update(result.params.tobytes())
    for value in (
        result.infidelity,
        result.success,
        result.starts_used,
        result.total_iterations,
        result.total_evaluations,
    ):
        digest.update(repr(value).encode())
    for run in result.runs:
        digest.update(run.params.tobytes())
        for value in (run.cost, run.iterations, run.num_evaluations):
            digest.update(repr(value).encode())
        digest.update(run.stop_reason.encode())


def fits_suite(json_path: str) -> None:
    """The 270-fit identity drive (:func:`fit_drive`): one digest over
    every fit's result, the starts and evaluations per LM stop reason,
    and the ``success`` and ``starts_used`` totals.

    A change that must keep every fit bitwise equal keeps the digest;
    to compare with a parent, run this script in a copy of the
    parent's tree.
    """
    digest = hashlib.sha256()
    rows = []
    stops: dict[str, dict[str, int]] = {}
    t0 = time.perf_counter()
    for (name, precision, kind, strategy, starts), result in fit_drive():
        _hash_fit(digest, result)
        for run in result.runs:
            tally = stops.setdefault(
                run.stop_reason, {"starts": 0, "evaluations": 0}
            )
            tally["starts"] += 1
            tally["evaluations"] += run.num_evaluations
        rows.append({
            "circuit": name,
            "precision": precision,
            "target": kind,
            "strategy": strategy,
            "starts": starts,
            "success": bool(result.success),
            "starts_used": result.starts_used,
            "evaluations": result.total_evaluations,
        })
    seconds = time.perf_counter() - t0
    success = sum(row["success"] for row in rows)
    starts_used = sum(row["starts_used"] for row in rows)
    print(f"{len(rows)} fits in {seconds:.1f}s: {success} succeed, "
          f"{starts_used} starts used, BLAS threads "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', '?')}")
    print(f"digest {digest.hexdigest()}\n")
    print(f"{'stop reason':<20} {'starts':>7} {'evaluations':>12}")
    order = sorted(stops, key=lambda reason: -stops[reason]["evaluations"])
    for reason in order:
        print(f"{reason:<20} {stops[reason]['starts']:>7} "
              f"{stops[reason]['evaluations']:>12}")
    report = {
        "mode": "fits",
        "digest": digest.hexdigest(),
        "fits": len(rows),
        "success": success,
        "starts_used": starts_used,
        "evaluations": sum(row["evaluations"] for row in rows),
        "stops": {reason: stops[reason] for reason in order},
        "seconds": seconds,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rows": rows,
    }
    if json_path:
        atomic_write_json(json_path, report)
        print(f"wrote {json_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--starts", type=int, default=1)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument(
        "--circuits",
        default="",
        help="comma-separated subset of Figure 5 benchmark names",
    )
    parser.add_argument(
        "--skip-baseline",
        action="store_true",
        help="measure only the OpenQudit engines (fast CI smoke)",
    )
    parser.add_argument(
        "--verify-overhead",
        action="store_true",
        help="measure the repro.analysis verifier's cost on engine "
        "compilation: aot_seconds histograms with verification off "
        "vs on (emits BENCH_verify.json with --json)",
    )
    parser.add_argument(
        "--sweeps",
        action="store_true",
        help="print the TNVM sweep table (min-of-N us per "
        "evaluate_with_grad, scalar and batch 8, full and COLUMN(0), "
        "BLAS on one thread; emits BENCH_sweeps.json with --json)",
    )
    parser.add_argument(
        "--lm",
        action="store_true",
        help="print the LM loop table (min-of-N us per scalar iteration "
        "and per lockstep round at 1 and 8 starts, stub residuals, "
        "BLAS on one thread; emits BENCH_lm.json with --json)",
    )
    parser.add_argument(
        "--fits",
        action="store_true",
        help="run the 270-fit identity drive (Figure 5 circuits x "
        "f64/f32 x unitary/state/COLUMN(0) targets x strategies x 1/3/8 "
        "starts) and print its digest, the starts and evaluations per "
        "LM stop reason, and the success/starts_used totals; emits "
        "BENCH_fits.json with --json",
    )
    parser.add_argument(
        "--json",
        default="",
        metavar="PATH",
        help="write the results (e.g. BENCH_multistart.json)",
    )
    args = parser.parse_args()

    if args.sweeps or args.lm or args.fits:
        # Each table runs a fixed Figure 5 set; --trials scales the
        # number of timed calls, --json names the artifact.
        flag = "--sweeps" if args.sweeps else "--lm" if args.lm else "--fits"
        if (
            args.sweeps + args.lm + args.fits > 1
            or args.circuits
            or args.skip_baseline
            or args.verify_overhead
            or args.starts != parser.get_default("starts")
        ):
            parser.error(
                f"{flag} is exclusive with --starts/--circuits/"
                "--skip-baseline/--verify-overhead and the other tables "
                "(use --trials)"
            )
        if args.trials < 1:
            parser.error("--trials must be >= 1")
        if args.fits:
            fits_suite(args.json)
        else:
            (sweep_suite if args.sweeps else lm_suite)(args.trials, args.json)
        return

    if args.verify_overhead:
        # Builds the fixed Figure 5 engine set twice; only --trials
        # (builds per mode) and --json carry over from the figure suite.
        if (
            args.circuits
            or args.skip_baseline
            or args.starts != parser.get_default("starts")
        ):
            parser.error(
                "--verify-overhead is exclusive with --starts/--circuits/"
                "--skip-baseline (use --trials)"
            )
        if args.trials < 1:
            parser.error("--trials must be >= 1")
        verify_overhead_suite(args.trials, args.json)
        return

    names = list(FIG5_BENCHMARKS)
    if args.circuits:
        wanted = [n.strip() for n in args.circuits.split(",") if n.strip()]
        unknown = [n for n in wanted if n not in FIG5_BENCHMARKS]
        if unknown:
            parser.error(f"unknown circuits: {unknown}; known: {names}")
        names = wanted

    # Warm the process-wide ExpressionCache first: each unique QGL
    # expression is simplified and JIT-compiled once per process (paper
    # section IV-B), so measured AOT time covers lowering, pathfinding,
    # bytecode generation and TNVM initialization — not expression
    # compilation.  An engine compiles its expressions on first use, so
    # warming takes one fit per circuit; seeding start 0 with the exact
    # solution makes it a single evaluation, not a full optimization.
    with_batched = args.starts > 1
    with_baseline = not args.skip_baseline

    for name in names:
        circ = fig5_circuit(name)
        engine = Instantiater(
            circ, strategy="batched" if with_batched else "sequential"
        )
        p = np.zeros(circ.num_params)
        engine.instantiate(
            circ.get_unitary(p), starts=2 if with_batched else 1, x0=p
        )

    figure = "Figure 7" if args.starts > 1 else "Figure 6"
    print(f"{figure}: {args.starts}-start instantiation, "
          f"{args.trials} targets per benchmark\n")
    header = f"{'benchmark':<18} {'sequential(s)':>14}"
    if with_batched:
        header += f" {'batched(s)':>11}"
    if with_baseline:
        header += f" {'baseline(s)':>12} {'speedup':>8}"
    header += f" {'seq rate':>9}"
    if with_batched:
        header += f" {'bat rate':>9}"
    print(header)

    rows = []
    for name in names:
        row = run_one(
            name,
            args.starts,
            args.trials,
            with_batched=with_batched,
            with_baseline=with_baseline,
        )
        rows.append(row)
        line = f"{row['name']:<18} {row['sequential_seconds']:>14.3f}"
        if with_batched:
            line += f" {row['batched_seconds']:>11.3f}"
        if with_baseline:
            speedup = row["baseline_seconds"] / row["sequential_seconds"]
            line += f" {row['baseline_seconds']:>12.3f} {speedup:>7.1f}x"
        line += f" {row['sequential_rate']:>8.0%}"
        if with_batched:
            line += f" {row['batched_rate']:>8.0%}"
        print(line)

    report = {
        "starts": args.starts,
        "trials": args.trials,
        "circuits": rows,
    }
    if with_batched:
        seq_total = sum(r["sequential_seconds"] for r in rows)
        bat_total = sum(r["batched_seconds"] for r in rows)
        report["sequential_total_seconds"] = seq_total
        report["batched_total_seconds"] = bat_total
        report["batched_speedup"] = seq_total / bat_total
        print(
            f"\nsuite total: sequential {seq_total:.3f}s, "
            f"batched {bat_total:.3f}s "
            f"({seq_total / bat_total:.2f}x batched speedup)"
        )

    if args.json:
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
