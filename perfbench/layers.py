"""Per-layer attribution for the traced run.

:class:`LayerClock` wraps the public entry points of each repro layer
(``egraph``, ``jit``, ``tensornet``, ``tnvm``, ``instantiation``,
``synthesis``) from outside the program and keeps a stack of open
calls, so every wrapped call's *self* time — its wall minus the time
its wrapped callees took — is charged to its layer exactly once.  The
pass wall minus the sum of self times is what no layer claims.

Wrappers only time and count; they never touch arguments, RNG state
or numerics, so traced results stay bit-identical to untraced ones.
:meth:`LayerClock.install` returns an undo callable; calls are
recorded only while :attr:`LayerClock.active` is set.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from repro.circuit.circuit import QuditCircuit
from repro.instantiation import batched as batched_mod
from repro.instantiation import cost as cost_mod
from repro.instantiation import instantiater as inst_mod
from repro.instantiation.pool import EnginePool
from repro.jit import compiled as compiled_mod
from repro.jit.cache import ExpressionCache
from repro.synthesis.resynth import Resynthesizer
from repro.synthesis.search import SynthesisSearch
from repro.tnvm import fused as fused_mod
from repro.tnvm.vm import TNVM, BatchedTNVM

__all__ = ["SWEEP_DIMS", "LayerClock"]

#: Dimensions of the Figure 5 circuits: the per-dimension sweep medians
#: reproduce the engine-matrix table for every engine path.
SWEEP_DIMS = (4, 8, 9, 27)

_RESIDUAL_CLASSES = (
    cost_mod.HilbertSchmidtResiduals,
    cost_mod.BatchedHilbertSchmidtResiduals,
    cost_mod.StateResiduals,
    cost_mod.BatchedStateResiduals,
)


class LayerClock:
    """Self-time ledger over the wrapped layer entry points."""

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.egraph_runs = 0
        self.jit_hits = 0
        self.jit_misses = 0
        self.jit_hit_s = 0.0
        self.networks = 0
        self.tnvm_setup_s = 0.0
        self.sweep_s = 0.0
        self.sweep_us: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.generated: list = []  # strong refs keep the ids unique
        self.executed: set[int] = set()
        self.pool_hits = 0
        self.pool_misses = 0
        self.aot_s = 0.0
        self.fit_ms: list[float] = []
        self.residual_s = 0.0
        self.lm_self_s = 0.0

    # ------------------------------------------------------------------
    def _timed(self, layer: str, fn, before=None, after=None):
        """Wrap ``fn`` so its self time is charged to ``layer``; then
        ``after(args, result, token, wall, own)`` sees the call, with
        ``token = before(args)`` taken on entry."""
        clock = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not clock.active:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            stack = clock._stack
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                wall = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                own = wall - frame[0]
                clock.self_s[layer] += own
                if after is not None:
                    after(args, result, token, wall, own)

        return wrapper

    def install(self):
        """Patch every entry point; returns a callable that undoes it."""
        patches = []

        def patch(owner, name, layer, before=None, after=None):
            original = vars(owner)[name]
            patches.append((owner, name, original))
            setattr(owner, name, self._timed(layer, original, before, after))

        def egraph_after(args, result, token, wall, own):
            self.egraph_runs += 1

        def misses_before(args):
            return args[0].misses

        def jit_after(args, result, misses0, wall, own):
            if args[0].misses > misses0:
                self.jit_misses += 1
            else:
                self.jit_hits += 1
                self.jit_hit_s += own

        def compile_after(args, result, token, wall, own):
            self.networks += 1

        def setup_after(args, result, token, wall, own):
            self.tnvm_setup_s += own

        def fuse_after(args, result, token, wall, own):
            self.tnvm_setup_s += own
            self.generated.append(result)

        def sweep_after(kind):
            def after(args, result, token, wall, own):
                vm = args[0]
                self.sweep_s += wall
                self.sweep_us[(kind, vm.dim)].append(wall * 1e6)
                if vm.fused_kernel is not None:
                    self.executed.add(id(vm.fused_kernel))

            return after

        def pool_after(args, result, misses0, wall, own):
            if args[0].misses > misses0:
                self.pool_misses += 1
                self.aot_s += wall
            else:
                self.pool_hits += 1

        def fit_after(args, result, token, wall, own):
            self.fit_ms.append(wall * 1e3)

        def residual_after(args, result, token, wall, own):
            self.residual_s += own

        def lm_after(args, result, token, wall, own):
            self.lm_self_s += own

        patch(compiled_mod, "simplify_all", "egraph", after=egraph_after)
        patch(ExpressionCache, "get", "jit", misses_before, jit_after)
        patch(compiled_mod, "compile_writer", "jit")
        patch(QuditCircuit, "compile", "tensornet", after=compile_after)
        patch(TNVM, "__init__", "tnvm", after=setup_after)
        patch(BatchedTNVM, "__init__", "tnvm", after=setup_after)
        patch(fused_mod, "generate_fused_kernel", "tnvm", after=fuse_after)
        for vm_cls, kind in ((TNVM, "scalar"), (BatchedTNVM, "batched")):
            patch(vm_cls, "evaluate", "tnvm", after=sweep_after(kind))
            patch(vm_cls, "evaluate_with_grad", "tnvm",
                  after=sweep_after(kind))
        patch(EnginePool, "engine_for", "instantiation", misses_before,
              pool_after)
        patch(inst_mod.Instantiater, "__init__", "instantiation")
        patch(batched_mod.BatchedInstantiater, "__init__", "instantiation")
        # Every fit enters through Instantiater.instantiate; the batched
        # engine's instantiate only ever runs nested inside it.
        patch(inst_mod.Instantiater, "instantiate", "instantiation",
              after=fit_after)
        patch(batched_mod.BatchedInstantiater, "instantiate", "instantiation")
        for cls in _RESIDUAL_CLASSES:
            patch(cls, "residuals_and_jacobian", "instantiation",
                  after=residual_after)
        patch(inst_mod, "levenberg_marquardt", "instantiation",
              after=lm_after)
        patch(batched_mod, "batched_levenberg_marquardt", "instantiation",
              after=lm_after)
        patch(SynthesisSearch, "synthesize", "synthesis")
        patch(Resynthesizer, "resynthesize", "synthesis")

        def undo():
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

        return undo

    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        """Total self time charged to any layer."""
        return sum(self.self_s.values())

    def report(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics (definitions in README.md)."""
        per = 1.0 / passes
        lookups = self.jit_hits + self.jit_misses
        generated = len(self.generated)
        executed = sum(1 for k in self.generated if id(k) in self.executed)
        pool_total = self.pool_hits + self.pool_misses
        out = {
            "egraph.simplify_s": self.self_s["egraph"] * per,
            "egraph.runs": self.egraph_runs * per,
            "jit.compile_s": (self.self_s["jit"] - self.jit_hit_s) * per,
            "jit.cache_hit_ratio": self.jit_hits / lookups if lookups else 1.0,
            "tensornet.compile_s": self.self_s["tensornet"] * per,
            "tensornet.networks": self.networks * per,
            "tnvm.setup_s": self.tnvm_setup_s * per,
            "tnvm.kernels_generated": generated * per,
            "tnvm.kernels_executed_ratio": (
                executed / generated if generated else 1.0
            ),
            "tnvm.sweep_s": self.sweep_s * per,
            "tnvm.sweeps": sum(map(len, self.sweep_us.values())) * per,
        }
        for kind in ("scalar", "batched"):
            for dim in SWEEP_DIMS:
                samples = self.sweep_us.get((kind, dim))
                out[f"tnvm.sweep_us.{kind}.d{dim}"] = (
                    float(np.median(samples)) if samples else 0.0
                )
        out.update({
            "instantiation.aot_s": self.aot_s * per,
            "instantiation.pool_hit_ratio": (
                self.pool_hits / pool_total if pool_total else 1.0
            ),
            "instantiation.fit_s": sum(self.fit_ms) * 1e-3 * per,
            "instantiation.fit_ms_p50": (
                float(np.percentile(self.fit_ms, 50)) if self.fit_ms else 0.0
            ),
            "instantiation.fit_ms_p90": (
                float(np.percentile(self.fit_ms, 90)) if self.fit_ms else 0.0
            ),
            "instantiation.residual_s": self.residual_s * per,
            "instantiation.lm_self_s": self.lm_self_s * per,
            "synthesis.self_s": self.self_s["synthesis"] * per,
        })
        return out
