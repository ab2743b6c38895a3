#!/usr/bin/env python
"""Run the synthesis workload suite and emit a CI-trackable report.

Usage::

    python benchmarks/run_synthesis.py                       # full console run
    python benchmarks/run_synthesis.py --random-targets 2 \
        --json BENCH_synthesis.json                          # CI smoke artifact
    python benchmarks/run_synthesis.py --compare-workers 1,4 \
        --random-targets 1 --json BENCH_parallel_synthesis.json
    python benchmarks/run_synthesis.py --state-prep \
        --json BENCH_state_prep.json

Default mode synthesizes the 2-qubit QFT plus ``--random-targets``
seeded Haar-random 2-qubit unitaries with
:class:`repro.synthesis.SynthesisSearch` (U3+CNOT gate set, one shared
engine pool), then compresses a deliberately deep ansatz with
:class:`repro.synthesis.Resynthesizer`.  The JSON report records, per
target: solved or not, infidelity, entangling-gate count,
instantiation calls, engine-cache hits/misses, and wall time — the
figures of merit for the paper's section II-B workload.

``--compare-workers`` switches to the serial-vs-parallel comparison:
3-qubit targets (QFT-3 plus seeded *reachable* random unitaries, whose
expansions branch three ways and therefore batch multiple candidates
per round) are synthesized once per worker count, a deep ansatz is
compressed with full scan waves, and the report records per-config
wall time, parallel efficiency, the speedup over the serial run, and
whether the results were bit-identical (they must be: candidate seeds
derive from structure keys, not draw order).  It also records
``payload_kb``, the pickled engine snapshot a worker receives for each
Figure 5 full-unitary engine.

``--compare-workers`` and ``--state-prep`` exit non-zero when results
differ between worker counts (``identical_across_workers`` false),
after writing the report.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro import telemetry
from repro.checkpoint import atomic_write_json, snapshot_count
from repro.circuit import (
    FIG5_BENCHMARKS,
    build_qft_circuit,
    build_qsearch_ansatz,
    fig5_circuit,
)
from repro.instantiation import EnginePool, Instantiater
from repro.synthesis import Resynthesizer, SynthesisSearch
from repro.utils import Statevector, random_unitary


def default_suite(args) -> None:
    search = SynthesisSearch(
        starts=args.starts,
        workers=args.workers,
        expansion_width=args.expansion_width or 1,
    )
    targets = [("qft2", build_qft_circuit(2).get_unitary(()))]
    targets += [
        (f"random-{k}", random_unitary(4, rng=args.seed_base + k))
        for k in range(args.random_targets)
    ]

    print(f"synthesis: {len(targets)} 2-qubit targets, U3+CNOT gate set, "
          f"{args.starts} starts per candidate, {args.workers} worker(s)\n")
    print(f"{'target':<12} {'solved':>6} {'CX':>3} {'infidelity':>11} "
          f"{'calls':>6} {'hits':>5} {'seconds':>8}")

    rows = []
    for k, (name, target) in enumerate(targets):
        # Per-target checkpoint directories: snapshots carry a target
        # fingerprint, so two targets can never share one store.
        ckpt = (
            os.path.join(args.checkpoint_dir, name)
            if args.checkpoint_dir
            else None
        )
        if ckpt and args.resume and snapshot_count(ckpt):
            result = search.synthesize(target, resume_from=ckpt)
            if result.resumed_from_round is not None:
                print(f"{name}: resumed from round "
                      f"{result.resumed_from_round}")
        else:
            result = search.synthesize(target, rng=k, checkpoint_dir=ckpt)
        rows.append({
            "target": name,
            "solved": result.success,
            "infidelity": result.infidelity,
            "cx_count": result.count("CX"),
            "operations": result.circuit.num_operations,
            "instantiation_calls": result.instantiation_calls,
            "engine_cache_hits": result.engine_cache_hits,
            "engine_cache_misses": result.engine_cache_misses,
            "nodes_expanded": result.nodes_expanded,
            "wall_seconds": result.wall_seconds,
            "workers": result.workers,
            "parallel_efficiency": result.parallel_efficiency,
            "resumed_from_round": result.resumed_from_round,
        })
        print(f"{name:<12} {str(result.success):>6} "
              f"{result.count('CX'):>3} {result.infidelity:>11.2e} "
              f"{result.instantiation_calls:>6} "
              f"{result.engine_cache_hits:>5} "
              f"{result.wall_seconds:>8.2f}")

    # Compression: fit a deliberately deep ansatz to a 1-block target,
    # then strip the redundancy (the Section II-B gate-deletion loop).
    deep = build_qsearch_ansatz(2, 3, 2)
    shallow = build_qsearch_ansatz(2, 1, 2)
    compress_target = shallow.get_unitary(
        np.random.default_rng(42).uniform(-np.pi, np.pi, shallow.num_params)
    )
    resynth_ckpt = (
        os.path.join(args.checkpoint_dir, "resynthesis")
        if args.checkpoint_dir
        else None
    )
    resynth = Resynthesizer(
        starts=args.starts, pool=search.pool, executor=search.executor,
        checkpoint_dir=resynth_ckpt,
    )
    if resynth_ckpt and args.resume and snapshot_count(resynth_ckpt):
        compressed = resynth.resynthesize(
            deep, target=compress_target, resume_from=resynth_ckpt
        )
    else:
        compressed = resynth.resynthesize(
            deep, target=compress_target, rng=5
        )
    search.close()
    print(f"\nresynthesis: {deep.num_operations} -> "
          f"{compressed.circuit.num_operations} gates "
          f"({deep.gate_counts().get('CX', 0)} -> "
          f"{compressed.count('CX')} CX), "
          f"{compressed.instantiation_calls} instantiation calls, "
          f"{compressed.wall_seconds:.2f}s")

    solved = sum(r["solved"] for r in rows)
    report = {
        "starts": args.starts,
        "workers": args.workers,
        "targets_total": len(rows),
        "targets_solved": solved,
        "instantiation_calls_total": sum(
            r["instantiation_calls"] for r in rows
        ),
        "wall_seconds_total": sum(r["wall_seconds"] for r in rows),
        "targets": rows,
        "resynthesis": {
            "operations_before": deep.num_operations,
            "operations_after": compressed.circuit.num_operations,
            "cx_before": deep.gate_counts().get("CX", 0),
            "cx_after": compressed.count("CX"),
            "solved": compressed.success,
            "instantiation_calls": compressed.instantiation_calls,
            "wall_seconds": compressed.wall_seconds,
        },
    }
    print(f"\nsuite: {solved}/{len(rows)} targets solved, "
          f"{report['instantiation_calls_total']} instantiation calls, "
          f"{report['wall_seconds_total']:.2f}s synthesis wall time")

    if args.json:
        # Atomic write-then-rename: a kill mid-dump must not leave a
        # truncated artifact for the CI upload to collect.
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")


def reachable_3q_target(seed: int) -> np.ndarray:
    """A random unitary a depth-3 3-qubit search can actually reach."""
    ansatz = build_qsearch_ansatz(3, 3, 2)
    params = np.random.default_rng(seed).uniform(
        -np.pi, np.pi, ansatz.num_params
    )
    return ansatz.get_unitary(params)


def fig5_payload_kb() -> dict[str, float]:
    """Pickled engine snapshot size (KB, 1000 bytes) of each Figure 5
    full-unitary engine: the bytes every task on that shape carries to
    a worker."""
    pool = EnginePool()
    return {
        name: len(pool.serialized_bytes(fig5_circuit(name))) / 1000
        for name in FIG5_BENCHMARKS
    }


def compare_over_workers(name, worker_counts, run, extra_fields):
    """Run one workload once per worker count and compare the results.

    ``run(workers) -> SynthesisResult`` executes the workload;
    ``extra_fields(result) -> dict`` contributes workload-specific JSON
    columns.  Returns ``(runs, identical)`` where ``identical`` holds
    iff every run returned the serial run's circuit, params,
    infidelity, and instantiation-call count — the bit-identical
    contract of the candidate executors.  Prints one table row per run.
    """
    runs = []
    reference = None
    identical = True
    for workers in worker_counts:
        t0 = time.perf_counter()
        result = run(workers)
        wall = time.perf_counter() - t0
        if reference is None:
            reference = result
        else:
            identical = identical and (
                reference.circuit.structure_key()
                == result.circuit.structure_key()
                and np.array_equal(reference.params, result.params)
                and reference.infidelity == result.infidelity
                and reference.instantiation_calls
                == result.instantiation_calls
            )
        speedup = runs[0]["wall_seconds"] / wall if runs else 1.0
        row = {
            "workers": workers,
            "solved": result.success,
            "instantiation_calls": result.instantiation_calls,
            "parallel_efficiency": result.parallel_efficiency,
            "wall_seconds": wall,
            "speedup_vs_serial": speedup,
        }
        row.update(extra_fields(result))
        runs.append(row)
        print(f"{name:<12} {workers:>7} {str(result.success):>6} "
              f"{result.instantiation_calls:>6} "
              f"{(result.parallel_efficiency or 0.0):>5.2f} "
              f"{wall:>8.2f} {speedup:>8.2f} {str(identical):>9}")
    return runs, identical


def compare_workers_suite(args, worker_counts: list[int]) -> bool:
    """The serial-vs-parallel comparison; returns whether every
    workload gave identical results across the worker counts."""
    width = args.expansion_width or 2
    targets = [("qft3", build_qft_circuit(3).get_unitary(()))]
    targets += [
        (f"random3q-{k}", reachable_3q_target(args.seed_base + k))
        for k in range(args.random_targets)
    ]

    # One persistent search per worker count, reused across every
    # target (mirroring the default suite's shared pool), with an
    # untimed warm-up synthesize that pays expression JIT, common AOT
    # compiles, and — for parallel configs — process-pool boot and
    # worker imports *before* the timers start.  Without this, the
    # parallel measurements would carry pool cold-start the serial
    # runs never pay, biasing the comparison against parallelism.
    warm_target = build_qsearch_ansatz(3, 1, 2).get_unitary(
        np.zeros(build_qsearch_ansatz(3, 1, 2).num_params)
    )
    searches = {}
    for workers in worker_counts:
        search = SynthesisSearch(
            starts=args.starts, workers=workers, expansion_width=width
        )
        search.synthesize(warm_target, rng=0)
        searches[workers] = search

    print(f"parallel synthesis comparison: {len(targets)} 3-qubit targets, "
          f"workers {worker_counts}, expansion_width={width}, "
          f"{args.starts} starts, {os.cpu_count()} CPU core(s)\n")
    print(f"{'target':<12} {'workers':>7} {'solved':>6} {'calls':>6} "
          f"{'eff':>5} {'seconds':>8} {'speedup':>8} {'identical':>9}")

    target_rows = []
    totals = {w: 0.0 for w in worker_counts}
    all_identical = True
    for name, target in targets:

        def run_search(workers, target=target):
            return searches[workers].synthesize(target, rng=7)

        runs, identical = compare_over_workers(
            name,
            worker_counts,
            run_search,
            lambda r: {
                "infidelity": r.infidelity,
                "nodes_expanded": r.nodes_expanded,
            },
        )
        for row in runs:
            totals[row["workers"]] += row["wall_seconds"]
        all_identical = all_identical and identical
        target_rows.append({
            "target": name,
            "identical_across_workers": identical,
            "runs": runs,
        })

    # Compression comparison: the default suite's over-deep 2-qubit
    # ansatz, but with full scan waves, so every wave batches
    # (operations) concurrent candidate fits.
    deep = build_qsearch_ansatz(2, 3, 2)
    shallow = build_qsearch_ansatz(2, 1, 2)
    compress_target = shallow.get_unitary(
        np.random.default_rng(42).uniform(-np.pi, np.pi, shallow.num_params)
    )

    def run_resynth(workers):
        # Ride the worker count's warm search: same pool (AOT already
        # paid for shared shapes) and same booted process pool.
        search = searches[workers]
        resynth = Resynthesizer(
            starts=args.starts,
            scan_batch=None,
            pool=search.pool,
            executor=search.executor,
        )
        return resynth.resynthesize(deep, target=compress_target, rng=5)

    resynth_runs, resynth_identical = compare_over_workers(
        "resynth2q",
        worker_counts,
        run_resynth,
        lambda r: {
            "operations_before": deep.num_operations,
            "operations_after": r.circuit.num_operations,
        },
    )
    all_identical = all_identical and resynth_identical
    for search in searches.values():
        search.close()

    serial = worker_counts[0]
    speedups = {
        str(w): totals[serial] / totals[w] for w in worker_counts[1:]
    }
    report = {
        "mode": "parallel-comparison",
        "cpu_count": os.cpu_count(),
        "starts": args.starts,
        "expansion_width": width,
        "worker_counts": worker_counts,
        "identical_across_workers": all_identical,
        "targets": target_rows,
        "resynthesis": {
            "operations_before": deep.num_operations,
            "identical_across_workers": resynth_identical,
            "runs": resynth_runs,
        },
        "synthesis_wall_seconds": {str(w): totals[w] for w in worker_counts},
        "synthesis_speedup_vs_serial": speedups,
        "payload_kb": fig5_payload_kb(),
    }
    print(f"\ncomparison: identical={all_identical}, "
          + ", ".join(
              f"{w} workers -> {speedups[str(w)]:.2f}x"
              for w in worker_counts[1:]
          ))
    if os.cpu_count() is not None and os.cpu_count() < max(worker_counts):
        print(f"note: only {os.cpu_count()} CPU core(s) available; "
              "wall-clock speedup needs at least as many cores as workers")
    print("engine payloads (KB): " + ", ".join(
        f"{name} {kb:.1f}" for name, kb in report["payload_kb"].items()
    ))

    if args.json:
        # Atomic write-then-rename: a kill mid-dump must not leave a
        # truncated artifact for the CI upload to collect.
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")
    return all_identical


def random_state(dim: int, seed: int) -> np.ndarray:
    """A Haar-ish random pure state (normalized complex Gaussian)."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def state_prep_suite(args) -> bool:
    """State-preparation synthesis: GHZ + random states, 2-3 qubits.

    Four measurements feed ``BENCH_state_prep.json``:

    1. each target synthesized once;
    2. GHZ-3 synthesized serially and with 2 workers, bit-identity
       checked (state-prep rounds ride the same process-pool payload
       plumbing as unitary rounds);
    3. a per-candidate cost micro: the *same* compiled engine fits a
       reachable unitary target and its own first column as a state
       target — the O(D) state residual stack vs the O(D^2) unitary
       one, per LM evaluation;
    4. a column-vs-full engine micro at D=8/16/27: one batched
       ``evaluate_with_grad`` (batch = the multistart width, exactly
       the per-candidate engine configuration a fit runs) through a
       ``COLUMN(0)``-contract program vs the full-unitary program —
       the output-contract speedup every state-prep candidate fit
       now rides.

    Returns whether GHZ-3 gave identical results on 1 and 2 workers.
    """
    targets = [
        ("ghz2", Statevector.ghz(2)),
        ("ghz3", Statevector.ghz(3)),
        ("random2q", random_state(4, args.seed_base)),
        ("random3q", random_state(8, args.seed_base + 1)),
    ]

    print(f"state-preparation synthesis: {len(targets)} targets, "
          f"U3+CNOT gate set, {args.starts} starts\n")
    print(f"{'target':<10} {'solved':>6} {'CX':>3} "
          f"{'infidelity':>11} {'calls':>6} {'seconds':>8}")

    target_rows = []
    with SynthesisSearch(starts=args.starts) as search:
        for k, (name, target) in enumerate(targets):
            r = search.synthesize(target, rng=k)
            target_rows.append({
                "target": name,
                "solved": r.success,
                "infidelity": r.infidelity,
                "cx_count": r.count("CX"),
                "operations": r.circuit.num_operations,
                "instantiation_calls": r.instantiation_calls,
                "wall_seconds": r.wall_seconds,
            })
            print(f"{name:<10} {str(r.success):>6} "
                  f"{r.count('CX'):>3} {r.infidelity:>11.2e} "
                  f"{r.instantiation_calls:>6} {r.wall_seconds:>8.2f}")

    # Serial vs 2-worker GHZ-3: state-prep rounds on the process pool.
    ghz3 = Statevector.ghz(3)
    worker_runs = []
    w_reference = None
    identical_workers = True
    for workers in (1, 2):
        with SynthesisSearch(
            starts=args.starts, workers=workers, expansion_width=2
        ) as search:
            t0 = time.perf_counter()
            result = search.synthesize(ghz3, rng=7)
            wall = time.perf_counter() - t0
        if w_reference is None:
            w_reference = result
        else:
            identical_workers = (
                w_reference.circuit.structure_key()
                == result.circuit.structure_key()
                and np.array_equal(w_reference.params, result.params)
                and w_reference.infidelity == result.infidelity
                and w_reference.instantiation_calls
                == result.instantiation_calls
            )
        worker_runs.append({
            "workers": workers,
            "solved": result.success,
            "infidelity": result.infidelity,
            "instantiation_calls": result.instantiation_calls,
            "wall_seconds": wall,
        })
    print(f"\nghz3 workers 1 vs 2: identical={identical_workers}")

    # Per-candidate evaluation cost: the same batched VM evaluates one
    # residual+Jacobian call against a unitary target and against its
    # own first column as a state target.  Both share the VM gradient
    # sweep; the unitary fit then assembles 2D^2 residual rows and a
    # (S, 2D^2, P) Jacobian where state prep assembles 2D and
    # (S, 2D, P) — an O(D) vs O(D^2) gap that widens with dimension.
    from repro.instantiation import (
        BatchedHilbertSchmidtResiduals,
        BatchedStateResiduals,
    )
    from repro.tnvm import BatchedTNVM, Differentiation

    def best_of(fn, arg, reps=200, rounds=3):
        """Median-free best-of-N microtiming (1-core CI jitter)."""
        fn(arg)  # warm
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn(arg)
            best = min(best, (time.perf_counter() - t0) / reps)
        return best

    eval_rows = []
    for num_qudits in (3, 4):
        ansatz = build_qsearch_ansatz(num_qudits, 2, 2)
        dim = 2**num_qudits
        ref_params = np.random.default_rng(args.seed_base + 7).uniform(
            -np.pi, np.pi, ansatz.num_params
        )
        target_u = ansatz.get_unitary(ref_params)
        target_s = np.ascontiguousarray(target_u[:, 0])
        vm = BatchedTNVM(
            ansatz.compile(), args.starts, diff=Differentiation.GRADIENT
        )
        rows = np.tile(ref_params, (args.starts, 1))
        res_u = BatchedHilbertSchmidtResiduals(vm, target_u)
        res_s = BatchedStateResiduals(vm, target_s)
        us_u = best_of(res_u.residuals_and_jacobian, rows) * 1e6
        us_s = best_of(res_s.residuals_and_jacobian, rows) * 1e6
        eval_rows.append({
            "dim": dim,
            "num_params": ansatz.num_params,
            "batch": args.starts,
            "residual_rows_unitary": 2 * dim * dim,
            "residual_rows_state": 2 * dim,
            "unitary_us_per_call": us_u,
            "state_us_per_call": us_s,
            "state_speedup": us_u / us_s,
        })
        print(f"per-candidate eval D={dim:<3} ({ansatz.num_params} params, "
              f"batch {args.starts}): unitary {us_u:7.1f} us/call, "
              f"state {us_s:7.1f} us/call -> "
              f"{us_u / us_s:.2f}x cheaper")
    state_speedup = eval_rows[-1]["state_speedup"]

    # Column-vs-full engine micro: the tentpole measurement.  Batched
    # VMs at the multistart width — exactly the per-candidate engine
    # configuration a fit runs — so the number is
    # the real per-candidate evaluate_with_grad speedup, not a
    # single-start abstraction.  One row per radix family — qubits
    # (D=8), ququarts (D=16), qutrits (D=27) — the contract machinery
    # is radix-generic.  The two sides run in interleaved rounds
    # (full, column, full, ...) so slow machine drift lands on both
    # equally instead of biasing whichever side happened to run later.
    from repro.tensornet import OutputContract

    def best_of_pair(fn_a, fn_b, arg, reps=150, rounds=6):
        fn_a(arg)
        fn_b(arg)  # warm both before the first timed round
        best_a = best_b = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn_a(arg)
            best_a = min(best_a, (time.perf_counter() - t0) / reps)
            t0 = time.perf_counter()
            for _ in range(reps):
                fn_b(arg)
            best_b = min(best_b, (time.perf_counter() - t0) / reps)
        return best_a, best_b

    column_rows = []
    for label, ansatz in (
        ("3 qubits", build_qsearch_ansatz(3, 2, 2)),
        ("2 ququarts", build_qsearch_ansatz(2, 2, 4)),
        ("3 qutrits", build_qsearch_ansatz(3, 2, 3)),
    ):
        dim = ansatz.compile().dim
        xs = np.random.default_rng(args.seed_base + 13).uniform(
            -np.pi, np.pi, (args.starts, ansatz.num_params)
        )
        vm_full = BatchedTNVM(
            ansatz.compile(), args.starts, diff=Differentiation.GRADIENT
        )
        vm_col = BatchedTNVM(
            ansatz.compile(contract=OutputContract.column(0)),
            args.starts,
            diff=Differentiation.GRADIENT,
        )
        t_full, t_col = best_of_pair(
            vm_full.evaluate_with_grad, vm_col.evaluate_with_grad, xs
        )
        us_full, us_col = t_full * 1e6, t_col * 1e6
        column_rows.append({
            "system": label,
            "dim": dim,
            "num_params": ansatz.num_params,
            "batch": args.starts,
            "full_us_per_call": us_full,
            "column_us_per_call": us_col,
            "column_speedup": us_full / us_col,
        })
        print(f"column vs full D={dim:<3} ({label}, "
              f"{ansatz.num_params} params, batch {args.starts}): "
              f"full {us_full:7.1f} us/call, "
              f"column {us_col:7.1f} us/call -> "
              f"{us_full / us_col:.2f}x")
    column_speedup_d16 = next(
        r["column_speedup"] for r in column_rows if r["dim"] == 16
    )

    # Whole-fit context at D=8: same engine, both target types (the
    # state landscape is flatter — rank-deficient Jacobian — so it
    # spends more LM iterations even though each one is cheaper).
    ansatz = build_qsearch_ansatz(3, 2, 2)
    ref_params = np.random.default_rng(args.seed_base + 7).uniform(
        -np.pi, np.pi, ansatz.num_params
    )
    target_u = ansatz.get_unitary(ref_params)
    target_s = np.ascontiguousarray(target_u[:, 0])
    engine = Instantiater(ansatz, strategy="batched")
    engine.instantiate(target_u, starts=args.starts, rng=0)  # warm-up
    engine.instantiate(target_s, starts=args.starts, rng=0)
    trials = 3
    fit = {"unitary": {"seconds": 0.0, "evaluations": 0},
           "state": {"seconds": 0.0, "evaluations": 0}}
    for s in range(trials):
        for kind, target in (("unitary", target_u), ("state", target_s)):
            r = engine.instantiate(target, starts=args.starts, rng=100 + s)
            fit[kind]["seconds"] += r.optimize_seconds
            fit[kind]["evaluations"] += r.total_evaluations
    for kind in fit:
        fit[kind]["seconds_per_evaluation"] = (
            fit[kind]["seconds"] / max(1, fit[kind]["evaluations"])
        )

    solved = sum(r["solved"] for r in target_rows)
    report = {
        "mode": "state-prep",
        "starts": args.starts,
        "targets_total": len(target_rows),
        "targets_solved": solved,
        "identical_across_workers": identical_workers,
        "targets": target_rows,
        "ghz3_workers": worker_runs,
        "per_candidate_evaluation": eval_rows,
        "state_speedup_per_evaluation": state_speedup,
        "column_vs_full": column_rows,
        "column_speedup_d16": column_speedup_d16,
        "whole_fit_d8": {
            "num_params": ansatz.num_params,
            "starts": args.starts,
            "trials": trials,
            "unitary": fit["unitary"],
            "state": fit["state"],
        },
    }
    print(f"\nstate-prep suite: {solved}/{len(target_rows)} targets solved, "
          f"identical across workers={identical_workers}")
    if args.json:
        # Atomic write-then-rename: a kill mid-dump must not leave a
        # truncated artifact for the CI upload to collect.
        atomic_write_json(args.json, report)
        print(f"wrote {args.json}")
    return identical_workers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random-targets", type=int, default=5)
    parser.add_argument("--starts", type=int, default=8)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="candidate-evaluation workers for the default suite",
    )
    parser.add_argument(
        "--expansion-width",
        type=int,
        default=None,
        metavar="W",
        help="frontier expansions per round (default: 1; comparison "
        "mode: 2)",
    )
    parser.add_argument(
        "--compare-workers",
        default="",
        metavar="N,M,...",
        help="run the serial-vs-parallel comparison over these worker "
        "counts (e.g. 1,4) instead of the default suite",
    )
    parser.add_argument(
        "--state-prep",
        action="store_true",
        help="run the state-preparation suite (GHZ + random states, "
        "1 vs 2 workers, per-candidate cost micro) "
        "instead of the default suite",
    )
    parser.add_argument(
        "--json",
        default="",
        metavar="PATH",
        help="write the report (e.g. BENCH_synthesis.json or "
        "BENCH_parallel_synthesis.json)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default="",
        metavar="DIR",
        help="durable checkpoint/resume for the default suite: each "
        "target snapshots its round-boundary state into DIR/<target> "
        "(and the compression leg into DIR/resynthesis)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint-dir: resume each pass from its latest "
        "valid snapshot (bit-identical to an uninterrupted run; "
        "already-finished passes return their stored result)",
    )
    parser.add_argument(
        "--trace",
        default="",
        metavar="PATH",
        help="enable the telemetry tracer for the whole run and write "
        "a Chrome-trace JSON (e.g. TRACE_synthesis.json; open in "
        "Perfetto / chrome://tracing); with --json the flat metrics "
        "snapshot is merged into the report as 'telemetry_metrics'",
    )
    args = parser.parse_args()

    exclusive = [bool(args.compare_workers), args.state_prep]
    if sum(exclusive) > 1:
        parser.error("--compare-workers and --state-prep are exclusive")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    if args.checkpoint_dir and any(exclusive):
        parser.error(
            "--checkpoint-dir applies to the default suite only (the "
            "comparison suites re-run passes on purpose)"
        )
    if args.trace:
        telemetry.enable()
        metrics_before = telemetry.metrics().snapshot()

    identical = True
    if args.state_prep:
        identical = state_prep_suite(args)
    elif args.compare_workers:
        worker_counts = [
            int(tok) for tok in args.compare_workers.split(",") if tok
        ]
        if len(worker_counts) < 2:
            parser.error("--compare-workers needs at least two counts")
        identical = compare_workers_suite(args, worker_counts)
    else:
        default_suite(args)

    if args.trace:
        telemetry.write_chrome_trace(args.trace)
        spans = telemetry.disable()
        print(f"wrote {args.trace} ({len(spans)} spans)")
        if args.json and os.path.exists(args.json):
            metrics = telemetry.delta(
                metrics_before, telemetry.metrics().snapshot()
            )
            with open(args.json) as fh:
                report = json.load(fh)
            report["telemetry_metrics"] = metrics
            atomic_write_json(args.json, report)
            print(f"merged {len(metrics)} telemetry metrics "
                  f"into {args.json}")

    if not identical:
        # Worker counts must never change results: fail the run (the
        # report is already written, for the post-mortem).
        raise SystemExit(
            "identical_across_workers is false: results differ between "
            "worker counts"
        )


if __name__ == "__main__":
    main()
