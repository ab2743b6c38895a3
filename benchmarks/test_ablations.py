"""Ablation benchmarks for the paper's architectural design choices.

Each group isolates one architectural decision from the paper:

* ``ablate-simplify``  — e-graph simplification of expressions
  (section III-C) on/off: per-evaluation gradient cost of the JIT'd U3.
* ``ablate-fusion``    — transpose fusion (section IV-A) on/off:
  TNVM evaluation of a circuit full of reversed/nonadjacent gates.
* ``ablate-hoist``     — constant-section hoisting (section IV-A)
  on/off: evaluation of a DTC-like circuit that is mostly constant.
* ``ablate-path``      — contraction pathfinding (hybrid vs naive
  sequential folding) on a deep circuit.
* ``ablate-optimizer`` — naive LM vs Adam on the same TNVM
  (discussion VI-A: the engine is optimizer-agnostic).
"""

import numpy as np
import pytest

from repro.circuit import QuditCircuit, build_dtc_circuit, fig5_circuit, gates
from repro.instantiation import (
    AdamOptions,
    HilbertSchmidtResiduals,
    InfidelityFunction,
    LMOptions,
    adam_minimize,
    levenberg_marquardt,
)
from repro.jit import CompiledExpression
from repro.tnvm import TNVM, Differentiation

# ----------------------------------------------------------------------
# E-graph simplification
# ----------------------------------------------------------------------


@pytest.mark.parametrize("simplify", [True, False], ids=["on", "off"])
def test_ablate_simplification(benchmark, simplify):
    benchmark.group = "ablate-simplify"
    compiled = CompiledExpression(
        gates.u3().matrix, grad=True, simplify=simplify
    )
    out = np.zeros((2, 2), dtype=np.complex128)
    grad = np.zeros((3, 2, 2), dtype=np.complex128)
    compiled.write_constants(out, grad)
    benchmark(compiled.write, (0.7, 0.3, -1.1), out, grad)


# ----------------------------------------------------------------------
# Transpose fusion
# ----------------------------------------------------------------------


def _reversed_gate_circuit() -> QuditCircuit:
    """Every CX placed on a reversed/nonadjacent location, so an
    unfused compile is full of runtime TRANSPOSEs."""
    circ = QuditCircuit.pure([2, 2, 2])
    u3 = circ.cache_operation(gates.u3())
    cx = circ.cache_operation(gates.cx())
    for a, b in [(1, 0), (2, 0), (2, 1), (1, 0), (2, 0)]:
        circ.append_ref(u3, a)
        circ.append_ref(u3, b)
        circ.append_ref_constant(cx, (a, b))
    return circ


@pytest.mark.parametrize("fusion", [True, False], ids=["on", "off"])
def test_ablate_fusion(benchmark, fusion):
    benchmark.group = "ablate-fusion"
    circ = _reversed_gate_circuit()
    program = circ.compile(fusion=fusion)
    vm = TNVM(program, diff=Differentiation.GRADIENT)
    params = tuple(
        np.random.default_rng(0).uniform(-np.pi, np.pi, circ.num_params)
    )
    benchmark(vm.evaluate_with_grad, params)


def test_fusion_removes_transposes():
    circ = _reversed_gate_circuit()
    fused = circ.compile(fusion=True)
    unfused = circ.compile(fusion=False)

    def transposes(program):
        return sum(
            1
            for instr in program.const_section + program.dynamic_section
            if instr.opcode == "TRANSPOSE"
        )

    assert transposes(fused) < transposes(unfused)


# ----------------------------------------------------------------------
# Constant-section hoisting
# ----------------------------------------------------------------------


def _mostly_constant_circuit() -> QuditCircuit:
    """One free parameter in a sea of constant DTC-style gates."""
    circ = build_dtc_circuit(4, layers=2)
    rx = circ.cache_operation(gates.rx())
    circ.append_ref(rx, 0)
    return circ


@pytest.mark.parametrize("hoist", [True, False], ids=["on", "off"])
def test_ablate_constant_hoisting(benchmark, hoist):
    benchmark.group = "ablate-hoist"
    circ = _mostly_constant_circuit()
    program = circ.compile(hoist_constants=hoist)
    vm = TNVM(program, diff=Differentiation.GRADIENT)
    benchmark(vm.evaluate_with_grad, (0.5,))


def test_hoisting_preserves_semantics():
    circ = _mostly_constant_circuit()
    a = TNVM(circ.compile(hoist_constants=True),
             diff=Differentiation.NONE)
    b = TNVM(circ.compile(hoist_constants=False),
             diff=Differentiation.NONE)
    assert np.allclose(a.evaluate((0.5,)), b.evaluate((0.5,)), atol=1e-12)


# ----------------------------------------------------------------------
# Contraction pathfinding
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "strategy", ["auto", "sequential"], ids=["hybrid", "sequential"]
)
def test_ablate_pathfinding(benchmark, strategy):
    benchmark.group = "ablate-path"
    circ = fig5_circuit("3-qubit deep")
    program = circ.compile(path_strategy=strategy)
    vm = TNVM(program, diff=Differentiation.GRADIENT)
    params = tuple(
        np.random.default_rng(1).uniform(-np.pi, np.pi, circ.num_params)
    )
    benchmark(vm.evaluate_with_grad, params)


def test_path_strategies_agree():
    circ = fig5_circuit("3-qubit shallow")
    params = tuple(
        np.random.default_rng(2).uniform(-np.pi, np.pi, circ.num_params)
    )
    results = []
    for strategy in ("auto", "optimal", "greedy", "sequential"):
        vm = TNVM(
            circ.compile(path_strategy=strategy),
            diff=Differentiation.NONE,
        )
        results.append(vm.evaluate(params).copy())
    for other in results[1:]:
        assert np.allclose(results[0], other, atol=1e-10)


# ----------------------------------------------------------------------
# Optimizer choice (Discussion VI-A)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def optimizer_problem():
    circ = fig5_circuit("2-qubit shallow")
    vm = TNVM(circ.compile(), diff=Differentiation.GRADIENT)
    rng = np.random.default_rng(3)
    p_true = rng.uniform(-np.pi, np.pi, circ.num_params)
    target = circ.get_unitary(p_true)
    x0 = rng.uniform(-np.pi, np.pi, circ.num_params)
    return circ, vm, target, x0


def test_ablate_optimizer_lm(benchmark, optimizer_problem):
    benchmark.group = "ablate-optimizer"
    circ, vm, target, x0 = optimizer_problem
    residuals = HilbertSchmidtResiduals(vm, target)
    opts = LMOptions(success_cost=2 * circ.dim * 1e-8)

    def run():
        return levenberg_marquardt(
            residuals.residuals_and_jacobian, x0, opts
        ).cost

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_ablate_optimizer_adam(benchmark, optimizer_problem):
    benchmark.group = "ablate-optimizer"
    circ, vm, target, x0 = optimizer_problem
    fn = InfidelityFunction(vm, target)
    opts = AdamOptions(max_iterations=400, success_infidelity=1e-8)

    def run():
        return adam_minimize(fn, x0, opts).infidelity

    benchmark.pedantic(run, rounds=3, iterations=1)
