"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, measured with tracing off; with
``--trace 1`` the per-layer metrics of a traced run, which also writes
its layer table and a Chrome trace under ``perfbench/artifacts/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 — the clock above starts set-up time
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "perfbench" / "artifacts"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Operation kinds whose calls are the targets of ``target_s_geomean``.
TARGET_KINDS = ("fit", "synthesize", "resynthesize")

#: Counters reported per pass in the traced run's layer metrics.
COUNT_METRICS = {
    "instantiation.lm_iterations": "instantiate.lm_iterations",
    "instantiation.evaluations": "instantiate.evaluations",
    "synthesis.instantiation_calls": "synthesis.instantiation_calls",
    "synthesis.nodes_expanded": "synthesis.nodes_expanded",
}


def _pin_blas_threads() -> int:
    """Run BLAS on one thread (before numpy loads): the matrices here
    are at most 27x27, so a second thread only adds contention with the
    host's other tenants.  Returns the CPUs this process may use."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _source_digest() -> str:
    """Hash of the program and benchmark sources: fingerprints stored by
    earlier runs are comparable only under the same code."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _run_passes(workload, seconds: float, clock=None):
    """Passes while the next one is expected to end within ``seconds``
    (at least two).  With ``clock``, every untraced pass is followed by
    a traced one, so host drift hits both sides of the overhead ratio
    alike.  Returns ``(untraced, traced, spans)``."""
    from repro import telemetry

    untraced, traced, spans = [], [], []
    t0 = time.perf_counter()
    step = 0.0
    while len(untraced) < 2 or time.perf_counter() - t0 + step <= seconds:
        t1 = time.perf_counter()
        untraced.append(workload.run_pass())
        if clock is not None:
            undo = clock.install()
            telemetry.enable()
            try:
                traced.append(workload.run_pass(clock))
            finally:
                spans += telemetry.disable()
                undo()
        step = time.perf_counter() - t1
    return untraced, traced, spans


def _per_op(walls, refs, normalize: bool = True):
    """Median over passes, column by column, of rows of walls (one row
    per pass).  With ``normalize``, each wall is first divided by the
    reference time measured just before it and scaled to the nominal
    host speed (:data:`~perfbench.workloads.REFERENCE_S`): the hosts
    this benchmark was sized on run stretches of seconds to minutes up
    to 2x slower (process CPU time slows alike, so it is contention from
    other tenants, not steal), and the reference slows with them."""
    import numpy as np

    from perfbench.workloads import REFERENCE_S

    walls = np.asarray(walls, dtype=float)
    if normalize:
        walls = walls / np.asarray(refs, dtype=float) * REFERENCE_S
    return np.median(walls, axis=0)


def _per_cell_geomean(fits, values) -> float:
    """Geometric mean over cells of each cell's geometric mean: a cell's
    value moves smoothly with the share of its fits that converge, where
    a median would jump between the converged and the failed cluster."""
    import numpy as np

    cells: dict = {}
    for fit, value in zip(fits, values):
        cells.setdefault(fit.cell, []).append(np.log(value))
    return float(np.exp(np.mean([np.mean(v) for v in cells.values()])))


def _end_to_end(passes, setup_s: float, normalize: bool = True) -> dict:
    import numpy as np

    first = passes[0]
    op_s = _per_op(
        [[op.wall for op in p.ops] for p in passes],
        [[op.ref for op in p.ops] for p in passes],
        normalize,
    )
    fit_s = _per_op(
        [[fit.seconds for fit in p.fits] for p in passes],
        [[fit.ref for fit in p.fits] for p in passes],
        normalize,
    )
    targets = [t for op, t in zip(first.ops, op_s) if op.kind in TARGET_KINDS]
    iterated = [(f, t) for f, t in zip(first.fits, fit_s) if f.iterations]
    attempted = sum(op.check.attempted for p in passes for op in p.ops)
    successes = sum(op.check.successes for p in passes for op in p.ops)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "pass_s": (float(np.sum(op_s)), "s"),
        "target_s_geomean": (float(np.exp(np.mean(np.log(targets)))), "s"),
        "fit_ms_geomean": (_per_cell_geomean(first.fits, fit_s * 1e3), "ms"),
        "lm_iter_us": (
            _per_cell_geomean(
                [f for f, _ in iterated],
                [t * 1e6 / f.iterations for f, t in iterated],
            ),
            "us",
        ),
        "success_rate": (successes / attempted, "ratio"),
        "cx_total": (sum(op.check.entanglers for op in first.ops), "count"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _per_layer(clock, untraced, traced) -> dict:
    import numpy as np

    n = len(traced)
    wall = sum(p.wall for p in traced)
    layers = clock.report(n)
    counts = traced[0].counts
    for metric, counter in COUNT_METRICS.items():
        layers[metric] = counts.get(counter, 0)
    requested = sum(fit.starts for fit in traced[0].fits)
    layers["instantiation.starts_used_ratio"] = (
        counts.get("instantiate.starts_used", 0) / requested
        if requested else 1.0
    )
    layers["bench.unattributed_s"] = (wall - clock.attributed_s()) / n
    layers["bench.trace_overhead"] = (
        np.median([p.wall for p in traced])
        / np.median([p.wall for p in untraced]) - 1.0
    )
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}


def _layer_unit(name: str) -> str:
    if ".sweep_us." in name:
        return "us"
    if ".fit_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_overhead")):
        return "ratio"
    return "count"


def _check_store(key: str, fingerprint: str) -> str | None:
    """Record this run's fingerprint; report a mismatch with an earlier
    run of the same workload, seed and code."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    path = ARTIFACTS / "fingerprints.json"
    try:
        store = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    previous = store.get(key)
    if previous is not None and previous != fingerprint:
        return (f"fingerprint {fingerprint[:12]} differs from an earlier "
                f"run's {previous[:12]}")
    store[key] = fingerprint
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from perfbench.layers import LayerClock
    from perfbench.workloads import (
        DEFAULT_SIZES,
        REFERENCE_S,
        WORKLOADS,
        reference_seconds,
    )
    from repro import telemetry

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "source_digest": _source_digest(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))

    reference_seconds()  # the first call pays LAPACK's lazy set-up
    import_ref = reference_seconds(5)
    cls = WORKLOADS[args.workload]
    reps, refs = [], []
    for _ in range(DEFAULT_SIZES.setup_reps):
        refs.append(reference_seconds(5))
        workload = cls(args.seed)
        t0 = time.perf_counter()
        workload.setup()
        reps.append(time.perf_counter() - t0)
    raw_setup_s = import_s + float(np.median(reps))
    setup_s = REFERENCE_S * (
        import_s / import_ref + float(np.median(np.divide(reps, refs)))
    )

    problems = []
    clock = LayerClock() if args.trace else None
    passes, traced, spans = _run_passes(workload, args.seconds, clock)
    # The exact work one pass did, so per-seed work can be compared.
    print("work " + json.dumps(passes[0].counts, sort_keys=True))
    if args.trace:
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        telemetry.write_chrome_trace(ARTIFACTS / f"{stem}-trace.json", spans)

    fingerprints = {p.fingerprint() for p in passes + traced}
    if len(fingerprints) != 1:
        problems.append(f"passes disagree: {len(fingerprints)} fingerprints")
    if workload.warmup is not None and workload.warmup.digests != passes[0].digests:
        problems.append("warm-up results differ from timed results")
    key = f"{args.workload}:{args.seed}:{meta['source_digest']}"
    mismatch = _check_store(key, passes[0].fingerprint())
    if mismatch:
        problems.append(mismatch)

    checked = passes + traced + ([workload.warmup] if workload.warmup else [])
    attempted = sum(op.check.attempted for p in checked for op in p.ops)
    failures = [
        f"{op.name}: {why}" for p in checked for op in p.ops
        for why in op.check.failures
    ]
    for line in failures + problems:
        print(f"FAIL {line}", file=sys.stderr)

    if args.trace:
        metrics = _per_layer(clock, passes, traced)
        self_s = {k: v / len(traced) for k, v in sorted(clock.self_s.items())}
        for layer, seconds in self_s.items():
            print(f"self time per pass  {layer:20s} {seconds:10.4f} s")
        (ARTIFACTS / f"{stem}-layers.json").write_text(json.dumps(
            {"meta": meta, "passes": len(traced), "layer_self_s": self_s,
             "metrics": metrics},
            indent=1,
        ))
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = _end_to_end(passes, setup_s)
        raw = _end_to_end(passes, raw_setup_s, normalize=False)
        host = np.median([op.ref for p in passes for op in p.ops])
        print(f"host reference {host * 1e3:.3f} ms (nominal "
              f"{REFERENCE_S * 1e3:g} ms); metrics at nominal speed, raw")
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:14.6g} {m['unit']:6s} "
                  f"{raw[name]['value']:14.6g}")
    print(f"passes {len(passes)}+{len(traced)} traced, fingerprint "
          f"{passes[0].fingerprint()[:16]}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
