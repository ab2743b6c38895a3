"""The benchmark workloads and the pass machinery they share.

A workload generates every input from its seed, then runs *passes*:
each pass is a fixed list of timed operations over the same inputs, so
the work a pass does — and the result each operation returns — repeats
exactly from pass to pass and run to run.  Between operations, outside
the timer, the benchmark collects garbage, times the host-speed
reference, snapshots the always-on telemetry registry, and checks the
result with the independent oracle.

* ``cold-compile`` — every pass starts from a fresh expression cache
  and engine pool: Figure 5 engine builds, QFT-2 and GHZ-3 synthesis
  and a gate-deletion compression, dominated by e-graph, JIT and
  codegen.
* ``fit-fig67`` — Figures 6/7: prebuilt Figure 5 engines fit seeded
  reachable targets with 1 start (sequential path) and 8 (batched).
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.circuit import (
    FIG5_BENCHMARKS,
    build_qft_circuit,
    build_qsearch_ansatz,
    fig5_circuit,
)
from repro.instantiation import EnginePool
from repro.jit import ExpressionCache
from repro.synthesis import Resynthesizer, SynthesisSearch
from repro.synthesis.executor import SerialCandidateExecutor
from repro.utils import Statevector

from . import oracle

__all__ = [
    "WORKLOADS",
    "DEFAULT_SIZES",
    "REFERENCE_S",
    "Sizes",
    "Fit",
    "OpRecord",
    "PassRecord",
    "Workload",
    "reference_seconds",
]

#: Registry counters that make up a pass's work fingerprint: every one
#: is a deterministic function of the inputs, so two passes over the
#: same inputs must agree on all of them.
FINGERPRINT_COUNTERS = (
    "compile.egraph_runs",
    "compile.networks",
    "engine_pool.hits",
    "engine_pool.misses",
    "fuse.kernels_generated",
    "instantiate.fits",
    "instantiate.lm_iterations",
    "instantiate.evaluations",
    "synthesis.instantiation_calls",
    "synthesis.nodes_expanded",
    "vm.sweeps",
    "vm.grad_sweeps",
    "vm.batched_sweeps",
    "vm.batched_grad_sweeps",
)

#: Two-qudit entangling gates counted by ``cx_total``.
ENTANGLERS = ("CX", "CSUM3")


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; :data:`DEFAULT_SIZES` is the
    benchmark, smaller values are for the smoke tests."""

    #: set-up repetitions whose median is reported as ``setup_s``
    setup_reps: int = 3
    #: fit-fig67: targets per Figure 5 circuit, by circuit name.  How
    #: many LM iterations a fit takes varies widely from target to
    #: target; cheap circuits get many targets so that a seed's draw
    #: moves the per-fit times little.
    fits: tuple[tuple[str, int], ...] = (
        ("2-qubit shallow", 48),
        ("3-qubit shallow", 24),
        ("3-qubit deep", 4),
        ("2-qutrit shallow", 36),
        ("3-qutrit shallow", 2),
    )
    #: cold-compile: the Figure 5 engines each pass builds
    fig5_engines: tuple[str, ...] = tuple(FIG5_BENCHMARKS)


DEFAULT_SIZES = Sizes()


# ----------------------------------------------------------------------
# Host-speed reference
# ----------------------------------------------------------------------

#: What :func:`reference_seconds` takes on a quiet host (the 2 GHz
#: Xeon vCPUs the benchmark was sized on): timings are reported at the
#: host speed where the reference kernel takes this long.
REFERENCE_S = 0.005

_REF_RNG = np.random.default_rng(20261016)
_REF_A = _REF_RNG.standard_normal((16, 16)) + 1j * _REF_RNG.standard_normal(
    (16, 16)
)
_REF_B = _REF_RNG.standard_normal((40, 40)) + 40.0 * np.eye(40)
_REF_V = _REF_RNG.standard_normal(40)


def reference_seconds(samples: int = 1) -> float:
    """Median wall of ``samples`` runs of a fixed kernel mixing the
    kinds of work the program does (small complex products, a small
    solve, dict and tuple churn), with the collector off.  It calls no
    repro code, so no change to the program moves it; only the host's
    speed does."""
    walls = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            t0 = time.perf_counter()
            acc = 0.0
            for _ in range(150):
                acc += abs((_REF_A @ _REF_A)[0, 0])
                acc += np.linalg.solve(_REF_B, _REF_V)[0]
                table = {k: (k * 2, str(k)) for k in range(40)}
                acc += sum(x for x, _ in table.values())
            walls.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return float(np.median(walls))


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


@dataclass
class Check:
    """What the oracle made of one operation's outputs."""

    digest: str
    attempted: int = 1
    successes: int = 0
    failures: list[str] = field(default_factory=list)
    entanglers: int = 0
    starts_requested: int = 0


class Fit(NamedTuple):
    """One fit a pass ran; ``cell`` groups fits of one kind."""

    cell: str
    starts: int
    seconds: float
    iterations: int
    #: reference seconds measured just before the enclosing operation
    ref: float


@dataclass
class OpRecord:
    kind: str
    name: str
    wall: float
    #: reference seconds measured just before the operation
    ref: float
    check: Check
    counts: dict


@dataclass
class PassRecord:
    ops: list[OpRecord]
    #: every fit the pass ran, in order
    fits: list[Fit]

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def counts(self) -> dict:
        total: dict = defaultdict(int)
        for op in self.ops:
            for name, value in op.counts.items():
                total[name] += value
        return dict(total)

    @property
    def digests(self) -> list[str]:
        return [op.check.digest for op in self.ops]

    def fingerprint(self) -> str:
        """Hash of the pass's exact work counts and result digests."""
        counts = self.counts
        body = repr((
            [(name, counts.get(name, 0)) for name in FINGERPRINT_COUNTERS],
            self.digests,
        ))
        return hashlib.sha256(body.encode()).hexdigest()


def _counter_delta(before: dict, after: dict) -> dict:
    out = {}
    for name in (*FINGERPRINT_COUNTERS, "instantiate.starts_used"):
        now, was = after.get(name), before.get(name)
        if isinstance(now, dict):  # histogram: keep the sum
            now = now.get("sum", 0.0)
            was = was.get("sum", 0.0) if isinstance(was, dict) else 0.0
        if now is not None:
            out[name] = now - (was or 0)
    return out


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


class RecordingExecutor(SerialCandidateExecutor):
    """The serial executor a ``workers=1`` pass uses by default, also
    keeping the engine-side wall of every fit it already measures and
    the LM iterations the registry counts for it.  Jobs run one at a
    time, as the parent runs them; passes here set no round deadline."""

    def __init__(self, pool: EnginePool):
        super().__init__(pool)
        self.fits: list[Fit] = []
        #: reference seconds of the operation now running
        self.ref = REFERENCE_S

    def run(self, jobs, round_timeout=None):
        iterations = telemetry.metrics().counter("instantiate.lm_iterations")
        outcomes = []
        for job in jobs:
            before = iterations.value
            [outcome] = super().run([job], round_timeout=round_timeout)
            outcomes.append(outcome)
            if outcome.engine_call:
                kind = "state" if job.target.ndim == 1 else "unitary"
                self.fits.append(Fit(
                    f"d{job.circuit.dim}/{kind}/{job.starts}", job.starts,
                    outcome.busy_seconds, iterations.value - before,
                    self.ref,
                ))
        return outcomes


# ----------------------------------------------------------------------
# Oracle checks
# ----------------------------------------------------------------------


def _safely(check):
    """Turn an oracle exception into a failed check: the benchmark must
    report it, not die on it."""

    def guarded(result):
        try:
            return check(result)
        except Exception as exc:  # noqa: BLE001 — any crash is a failure
            return Check(digest=f"error:{exc!r}", failures=[repr(exc)])

    return guarded


def _check_synthesis(target):
    target_array = (
        target.amplitudes if isinstance(target, Statevector) else target
    )

    def check(result) -> Check:
        twin = oracle.baseline_twin(result.circuit, result.params)
        unitary = oracle.DenseEvaluator(twin).get_unitary(())
        truth = oracle.oracle_infidelity(target_array, unitary)
        reason = oracle.verdict(result.infidelity, truth, result.params)
        counts = result.circuit.gate_counts()
        return Check(
            digest=_digest(
                result.circuit.structure_key(), result.params,
                result.infidelity, result.instantiation_calls,
                result.nodes_expanded,
            ),
            successes=int(
                reason is None and result.success
                and truth <= oracle.SUCCESS_THRESHOLD
            ),
            failures=[] if reason is None else [reason],
            entanglers=sum(counts.get(g, 0) for g in ENTANGLERS),
        )

    return _safely(check)


def _check_fit(name: str, target, starts: int, entanglers: int):
    evaluator = oracle.fig5_baseline(name)

    def check(result) -> Check:
        unitary = evaluator.get_unitary(result.params)
        truth = oracle.oracle_infidelity(target, unitary)
        reason = oracle.verdict(result.infidelity, truth, result.params)
        return Check(
            digest=_digest(
                result.params, result.infidelity, result.starts_used,
                result.total_iterations, result.total_evaluations,
            ),
            successes=int(
                reason is None and result.success
                and truth <= oracle.SUCCESS_THRESHOLD
            ),
            failures=[] if reason is None else [reason],
            entanglers=entanglers,
            starts_requested=starts,
        )

    return _safely(check)


def _check_engines(names, probes):
    """An engine is correct when its compiled program evaluates to the
    baseline unitary of the same Figure 5 ansatz."""
    evaluators = {name: oracle.fig5_baseline(name) for name in names}

    def check(engines) -> Check:
        failures = []
        digests = []
        for name, engine in zip(names, engines):
            params = probes[name]
            got = np.array(engine.vm.evaluate(params))
            want = evaluators[name].get_unitary(params)
            err = float(np.max(np.abs(got - want)))
            if not np.isfinite(err) or err > 1e-9:
                failures.append(f"{name}: engine deviates by {err:.3e}")
            digests.append(
                (engine.num_params, engine.program.dim,
                 len(engine.program.const_section),
                 len(engine.program.dynamic_section))
            )
        return Check(
            digest=_digest(digests),
            attempted=len(names),
            successes=len(names) - len(failures),
            failures=failures,
        )

    return _safely(check)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Base: ``setup()`` is one set-up repetition (inputs, warm-up,
    prebuild); ``operations()`` lists one pass's timed operations."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes = DEFAULT_SIZES):
        self.seed = seed
        self.sizes = sizes
        self.executor: RecordingExecutor | None = None
        #: the set-up's untimed warm-up pass, if it runs one
        self.warmup: PassRecord | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    def run_pass(self, clock=None) -> PassRecord:
        """Time each ``(kind, name, fn, check)`` operation of one pass.

        ``fn()`` is the timed call; before it, outside the timer, the
        heap is collected and the host-speed reference timed; after it,
        ``check(result)`` returns a :class:`Check`.  ``clock`` (a
        :class:`~perfbench.layers.LayerClock`) records only inside the
        timed calls.  Fit times come from the workload's executor
        (synthesis passes) or from the operations themselves
        (``kind == "fit"``).
        """
        registry = telemetry.metrics()
        tracer = telemetry.tracer()
        ops: list[OpRecord] = []
        fits: list[Fit] = []
        for kind, name, fn, check in self.operations():
            gc.collect()
            ref = reference_seconds()
            executor = self.executor
            if executor is not None:
                executor.fits.clear()
                executor.ref = ref
            before = registry.snapshot()
            with tracer.span(name, category="bench"):
                if clock is not None:
                    clock.active = True
                t0 = time.perf_counter()
                try:
                    result = fn()
                finally:
                    wall = time.perf_counter() - t0
                    if clock is not None:
                        clock.active = False
            counts = _counter_delta(before, registry.snapshot())
            checked = check(result)
            ops.append(OpRecord(kind, name, wall, ref, checked, counts))
            if executor is not None:
                fits.extend(executor.fits)
            if kind == "fit":
                fits.append(Fit(
                    name.rsplit("/", 1)[0], checked.starts_requested, wall,
                    counts.get("instantiate.lm_iterations", 0), ref,
                ))
        return PassRecord(ops, fits)


def _reachable(circuit, rng, cache) -> np.ndarray:
    params = rng.uniform(-np.pi, np.pi, circuit.num_params)
    return circuit.get_unitary(params, cache=cache)


#: cold-compile's search and compression RNG seeds.  They are program
#: settings, fixed like ``starts``: the workload seed draws the inputs
#: (the compression target and the engine probes), so the fits inside
#: the QFT-2 and GHZ-3 searches, whose targets are fixed, repeat on
#: every seed.
SEARCH_SEEDS = (1, 2, 3)


class ColdCompile(Workload):
    name = "cold-compile"

    def setup(self) -> None:
        cache = ExpressionCache()
        rng = np.random.default_rng(self.seed)
        self.circuits = [fig5_circuit(n) for n in self.sizes.fig5_engines]
        self.probes = {
            n: rng.uniform(-np.pi, np.pi, c.num_params)
            for n, c in zip(self.sizes.fig5_engines, self.circuits)
        }
        self.qft = build_qft_circuit(2).get_unitary((), cache=cache)
        self.ghz = Statevector.ghz(3)
        self.deep = build_qsearch_ansatz(2, 3, 2)
        self.compress_target = _reachable(
            build_qsearch_ansatz(2, 1, 2), rng, cache
        )
        # One untimed pass pays the lazy imports and first-call costs
        # a long-running process pays once, so timed passes measure
        # compile work only.
        self.warmup = self.run_pass()

    def operations(self):
        pool = EnginePool(cache=ExpressionCache())
        self.executor = RecordingExecutor(pool)
        names = self.sizes.fig5_engines
        yield (
            "engines", "fig5-engines",
            lambda: [pool.engine_for(c) for c in self.circuits],
            _check_engines(names, self.probes),
        )
        yield (
            "synthesize", "qft2",
            lambda: SynthesisSearch(
                pool=pool, executor=self.executor
            ).synthesize(self.qft, rng=SEARCH_SEEDS[0]),
            _check_synthesis(self.qft),
        )
        yield (
            "synthesize", "ghz3",
            lambda: SynthesisSearch(
                pool=pool, executor=self.executor
            ).synthesize(self.ghz, rng=SEARCH_SEEDS[1]),
            _check_synthesis(self.ghz),
        )
        yield (
            "resynthesize", "compress-depth3",
            lambda: Resynthesizer(
                pool=pool, executor=self.executor
            ).resynthesize(
                self.deep, target=self.compress_target, rng=SEARCH_SEEDS[2]
            ),
            _check_synthesis(self.compress_target),
        )


class FitFig67(Workload):
    name = "fit-fig67"

    def setup(self) -> None:
        cache = ExpressionCache()
        rng = np.random.default_rng(self.seed)
        pool = EnginePool(cache=cache)
        self.cells = []
        for name, count in self.sizes.fits:
            circuit = fig5_circuit(name)
            engine = pool.engine_for(circuit)
            counts = circuit.gate_counts()
            entanglers = sum(counts.get(g, 0) for g in ENTANGLERS)
            targets = [_reachable(circuit, rng, cache) for _ in range(count)]
            # Warm the lazily built batched VM (and any other first-fit
            # set-up) on a fit that succeeds at its first start.
            zeros = np.zeros(circuit.num_params)
            identity_fit = circuit.get_unitary(zeros, cache=cache)
            for starts in (1, 8):
                engine.instantiate(identity_fit, starts=starts, x0=zeros)
                for k, target in enumerate(targets):
                    self.cells.append((
                        name, starts, k, engine, target,
                        int(rng.integers(2**31)), entanglers,
                    ))

    def operations(self):
        for name, starts, k, engine, target, seed, ent in self.cells:
            yield (
                "fit", f"{name}/{starts}/{k}",
                lambda e=engine, t=target, s=starts, r=seed: e.instantiate(
                    t, starts=s, rng=r
                ),
                _check_fit(name, target, starts, ent),
            )


WORKLOADS = {w.name: w for w in (ColdCompile, FitFig67)}
