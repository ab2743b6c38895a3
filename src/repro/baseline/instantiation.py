"""Instantiation for the baseline framework.

Uses the *same* Levenberg–Marquardt optimizer and the same
phase-aligned Hilbert–Schmidt residual formulation as the OpenQudit
engine, so the instantiation benchmarks (Figures 6 and 7) compare
evaluation pipelines — dense per-iteration reconstruction versus the
AOT-compiled TNVM — rather than optimizers.
"""

from __future__ import annotations

import time

import numpy as np

from ..instantiation.instantiater import (
    SUCCESS_THRESHOLD,
    InstantiationResult,
)
from ..instantiation.lm import LMOptions, LMResult, levenberg_marquardt
from .circuit import BaselineCircuit
from .evaluator import DenseEvaluator

__all__ = ["BaselineResiduals", "BaselineInstantiater"]


class BaselineResiduals:
    """Phase-aligned HS residuals over the dense evaluator."""

    def __init__(self, evaluator: DenseEvaluator, target: np.ndarray):
        self.evaluator = evaluator
        self.target = np.asarray(target, dtype=np.complex128)
        self.dim = evaluator.dim

    def cost(self, params: np.ndarray) -> float:
        u = self.evaluator.get_unitary(params)
        trace = np.trace(self.target.conj().T @ u)
        return float(1.0 - abs(trace) / self.dim)

    def residuals_and_jacobian(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        u, grad = self.evaluator.get_unitary_and_grad(params)
        trace = np.trace(self.target.conj().T @ u)
        mag = abs(trace)
        phase = trace / mag if mag > 1e-300 else 1.0
        # The engine's residual layout (repro.instantiation.cost):
        # real and imaginary parts interleaved, and J a real view of
        # the gradient.
        r = (u - phase * self.target).reshape(-1).view(np.float64)
        flat = grad.reshape(len(grad), u.size)
        return r, flat.view(np.float64).T


class BaselineInstantiater:
    """Multi-start LM instantiation over the dense pipeline.

    API mirror of :class:`repro.instantiation.Instantiater`; note there
    is no AOT phase — the traditional pipeline pays per iteration
    instead.
    """

    def __init__(
        self,
        circuit: BaselineCircuit,
        success_threshold: float = SUCCESS_THRESHOLD,
        lm_options: LMOptions | None = None,
    ):
        self.circuit = circuit
        self.evaluator = DenseEvaluator(circuit)
        self.success_threshold = success_threshold
        base = lm_options or LMOptions()
        self.lm_options = LMOptions(
            max_iterations=base.max_iterations,
            initial_mu=base.initial_mu,
            mu_up=base.mu_up,
            mu_down=base.mu_down,
            max_mu=base.max_mu,
            gradient_tolerance=base.gradient_tolerance,
            step_tolerance=base.step_tolerance,
            success_cost=2.0 * circuit.dim * success_threshold,
        )

    def instantiate(
        self,
        target: np.ndarray,
        starts: int = 1,
        rng: np.random.Generator | int | None = None,
        x0: np.ndarray | None = None,
    ) -> InstantiationResult:
        rng = np.random.default_rng(rng)
        residuals = BaselineResiduals(self.evaluator, target)
        fn = residuals.residuals_and_jacobian
        dim = self.circuit.dim
        num_params = self.circuit.num_params

        t0 = time.perf_counter()
        best: LMResult | None = None
        runs: list[LMResult] = []
        used = 0
        for s in range(max(1, starts)):
            if s == 0 and x0 is not None:
                guess = np.asarray(x0, dtype=np.float64)
            else:
                guess = rng.uniform(-2 * np.pi, 2 * np.pi, num_params)
            run = levenberg_marquardt(fn, guess, self.lm_options)
            runs.append(run)
            used += 1
            if best is None or run.cost < best.cost:
                best = run
            if best.cost / (2.0 * dim) <= self.success_threshold:
                break
        optimize_seconds = time.perf_counter() - t0
        infidelity = best.cost / (2.0 * dim)
        return InstantiationResult(
            params=best.params,
            infidelity=infidelity,
            success=infidelity <= self.success_threshold,
            starts_used=used,
            total_iterations=sum(r.iterations for r in runs),
            total_evaluations=sum(r.num_evaluations for r in runs),
            aot_seconds=0.0,
            optimize_seconds=optimize_seconds,
            runs=runs,
        )
