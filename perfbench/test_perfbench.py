"""Tests of the benchmark's own helpers, oracle and workloads.

    python3 -m pytest perfbench -q

The workload smoke runs use tiny sizes; the benchmark itself runs
through ``perfbench/run.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle  # noqa: E402
from perfbench import run as bench_run  # noqa: E402
from perfbench.layers import LayerClock  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_S,
    ColdCompile,
    Fit,
    FitFig67,
    Sizes,
)
from repro.circuit import (  # noqa: E402
    FIG5_BENCHMARKS,
    QuditCircuit,
    fig5_circuit,
    gates,
)
from repro.jit import compiled as compiled_mod  # noqa: E402
from repro.synthesis import QSearchLayerGenerator  # noqa: E402
from repro.tnvm.vm import TNVM  # noqa: E402


# ----------------------------------------------------------------------
# Reported statistics
# ----------------------------------------------------------------------


def test_host_normalization_cancels_a_uniform_slowdown():
    walls = [[1.0, 2.0], [2.0, 4.0], [1.5, 3.0]]
    refs = [[REFERENCE_S] * 2, [2 * REFERENCE_S] * 2, [1.5 * REFERENCE_S] * 2]
    np.testing.assert_allclose(bench_run._per_op(walls, refs), [1.0, 2.0])
    np.testing.assert_allclose(
        bench_run._per_op(walls, refs, normalize=False), [1.5, 3.0]
    )


def test_per_cell_geomean_weights_cells_equally():
    fits = [Fit("a", 1, 0.0, 1, REFERENCE_S)] * 3 + [
        Fit("b", 8, 0.0, 1, REFERENCE_S)
    ]
    value = bench_run._per_cell_geomean(fits, [2.0, 2.0, 2.0, 50.0])
    assert value == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def _random_search_circuit(rng, qubits: int, depth: int) -> QuditCircuit:
    generator = QSearchLayerGenerator()
    circuit = generator.initial((2,) * qubits)
    for _ in range(depth):
        children = list(generator.successors(circuit))
        circuit = children[rng.integers(len(children))]
    return circuit


@pytest.mark.parametrize("seed", range(6))
def test_baseline_twin_matches_get_unitary(seed):
    rng = np.random.default_rng(seed)
    circuit = _random_search_circuit(rng, 2 + seed % 2, 1 + seed % 3)
    if seed >= 3:  # deletion renumbers parameters, as resynthesis does
        circuit, _ = circuit.without_operation(int(rng.integers(len(circuit))))
    params = rng.uniform(-np.pi, np.pi, circuit.num_params)
    twin = oracle.DenseEvaluator(oracle.baseline_twin(circuit, params))
    np.testing.assert_allclose(
        twin.get_unitary(()), circuit.get_unitary(params), atol=1e-12
    )


def test_baseline_twin_binds_constant_slots():
    circuit = QuditCircuit([2, 2])
    u3 = circuit.cache_operation(gates.u3())
    circuit.append_ref_constant(u3, 0, (0.3, -1.2, 2.0))
    circuit.append(gates.cx(), (1, 0))
    circuit.append_ref(u3, 1)
    params = np.array([0.5, 0.25, -0.75])
    twin = oracle.DenseEvaluator(oracle.baseline_twin(circuit, params))
    np.testing.assert_allclose(
        twin.get_unitary(()), circuit.get_unitary(params), atol=1e-12
    )


def test_gate_without_twin_fails_loudly():
    circuit = QuditCircuit([2])
    circuit.append(gates.h(), 0)
    with pytest.raises(oracle.OracleError, match="no baseline twin"):
        oracle.baseline_twin(circuit, [])


@pytest.mark.parametrize("name", sorted(FIG5_BENCHMARKS))
def test_fig5_baseline_matches_engine_circuit(name):
    circuit = fig5_circuit(name)
    params = np.random.default_rng(3).uniform(-np.pi, np.pi, circuit.num_params)
    np.testing.assert_allclose(
        oracle.fig5_baseline(name).get_unitary(params),
        circuit.get_unitary(params),
        atol=1e-12,
    )


def test_oracle_infidelity_unitary_and_state():
    u = np.diag(np.exp(1j * np.array([0.1, 0.2])))
    assert oracle.oracle_infidelity(u * 1j, u) == pytest.approx(0.0, abs=1e-15)
    state = np.array([0.0, 1.0], dtype=complex)
    assert oracle.oracle_infidelity(state, np.eye(2)) == pytest.approx(1.0)
    assert np.isnan(oracle.oracle_infidelity(u, u * np.nan))


def test_verdict():
    assert oracle.verdict(1e-10, 1.0001e-10, [0.0]) is None
    assert "oracle finds" in oracle.verdict(1e-10, 1e-3, [0.0])
    assert "non-finite" in oracle.verdict(float("inf"), 0.5, [0.0])
    assert "non-finite" in oracle.verdict(0.5, 0.5, [np.nan])


# ----------------------------------------------------------------------
# Workload smoke runs (tiny sizes)
# ----------------------------------------------------------------------

TINY = Sizes(
    setup_reps=1,
    fits=(("2-qubit shallow", 1), ("2-qutrit shallow", 1)),
    fig5_engines=("2-qubit shallow",),
)


def _assert_clean(record):
    failures = [f for op in record.ops for f in op.check.failures]
    assert not failures
    assert sum(op.check.attempted for op in record.ops) >= len(record.ops)


@pytest.mark.parametrize("cls", [ColdCompile, FitFig67])
def test_workload_smoke(cls):
    workload = cls(5, TINY)
    workload.setup()
    first = workload.run_pass()
    second = workload.run_pass()
    _assert_clean(first)
    assert first.fingerprint() == second.fingerprint()
    assert first.fits and all(
        fit.seconds > 0 and fit.iterations > 0 for fit in first.fits
    )
    if workload.warmup is not None:
        assert workload.warmup.digests == first.digests


def test_traced_pass_is_bit_identical_and_fully_attributed():
    workload = ColdCompile(5, TINY)
    workload.setup()
    untraced = workload.run_pass()
    originals = (vars(TNVM)["evaluate"], vars(compiled_mod)["simplify_all"])
    clock = LayerClock()
    undo = clock.install()
    try:
        traced = workload.run_pass(clock)
    finally:
        undo()
    assert traced.fingerprint() == untraced.fingerprint()
    report = clock.report(1)
    assert report["egraph.runs"] > 0 and report["tensornet.networks"] > 0
    assert 0.0 <= traced.wall - clock.attributed_s() < 0.05 * traced.wall
    assert (vars(TNVM)["evaluate"], vars(compiled_mod)["simplify_all"]) == (
        originals
    )
