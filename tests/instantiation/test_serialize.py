"""Tests for compiled-engine serialization (cross-process sharing).

The contract: a compiled TNVM program / engine serialized in one
process and rehydrated in another produces bit-identical costs and
gradients to a freshly compiled one, without re-paying the AOT
pipeline (lowering, pathfinding, differentiation, e-graph).  The
program and the simplified expression entries cross the process
boundary, never generated code: the megakernel and the per-gate
writers are regenerated from the entries on first use, byte for byte
the parent's source.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import (
    FIG5_BENCHMARKS,
    build_qsearch_ansatz,
    fig5_circuit,
    gates,
)
from repro.instantiation import EnginePool, Instantiater, SerializedEngine
from repro.jit import compiled as compiled_mod
from repro.jit.cache import ExpressionCache
from repro.tensornet import FULL_UNITARY, OutputContract
from repro.tensornet.bytecode import Program
from repro.tnvm.vm import TNVM, BatchedTNVM, Differentiation


@pytest.fixture()
def circuit():
    return build_qsearch_ansatz(2, 2, 2)


@pytest.fixture()
def target(circuit):
    p = np.random.default_rng(3).uniform(-np.pi, np.pi, circuit.num_params)
    return circuit.get_unitary(p)


class TestProgramSerialization:
    def test_round_trip_validates(self, circuit):
        program = circuit.compile()
        clone = Program.from_bytes(program.to_bytes())
        clone.validate()
        assert clone.num_params == program.num_params
        assert clone.radices == program.radices
        assert clone.output_shape == program.output_shape
        assert len(clone.buffers) == len(program.buffers)
        assert clone.const_section == program.const_section
        assert clone.dynamic_section == program.dynamic_section

    def test_rehydrated_vm_bit_identical(self, circuit):
        program = circuit.compile()
        clone = Program.from_bytes(program.to_bytes())
        params = np.random.default_rng(0).uniform(
            -np.pi, np.pi, circuit.num_params
        )
        u1, g1 = TNVM(program).evaluate_with_grad(params)
        u2, g2 = TNVM(clone).evaluate_with_grad(params)
        assert np.array_equal(u1, u2)
        assert np.array_equal(g1, g2)

    def test_from_bytes_rejects_non_program(self):
        with pytest.raises(TypeError):
            Program.from_bytes(pickle.dumps([1, 2, 3]))


class TestCompiledExpressionSerialization:
    def test_round_trip_bit_identical(self):
        compiled = ExpressionCache().get(gates.u3().matrix)
        clone = pickle.loads(pickle.dumps(compiled))
        p = np.random.default_rng(1).uniform(-np.pi, np.pi, 3)
        u1, g1 = compiled.unitary_and_grad(p)
        u2, g2 = clone.unitary_and_grad(p)
        assert np.array_equal(u1, u2)
        assert np.array_equal(g1, g2)
        assert clone.source == compiled.source
        assert clone.total_cost == compiled.total_cost

    def test_batched_writer_survives(self):
        compiled = ExpressionCache().get(gates.u3().matrix)
        clone = pickle.loads(pickle.dumps(compiled))
        rows = np.random.default_rng(2).uniform(-np.pi, np.pi, (3, 4))
        written = []
        for c in (compiled, clone):
            out = np.zeros((2, 2, 4), dtype=np.complex128)
            grad = np.zeros((3, 2, 2, 4), dtype=np.complex128)
            c.write_batched(rows, out, grad)
            scalar = c.unitary(rows[:, 0])
            assert np.allclose(out[..., 0], scalar)
            written.append((out, grad))
        # The clone regenerated its batched writer from the shipped
        # entries: same code, so bitwise the same output.
        assert np.array_equal(written[0][0], written[1][0])
        assert np.array_equal(written[0][1], written[1][1])

    def test_pickled_state_is_entries_not_source(self):
        compiled = ExpressionCache().get(gates.u3().matrix)
        _ = compiled.source, compiled.write_batched  # both writers built
        state = compiled.__getstate__()
        assert set(state) == {"matrix", "simplified", "has_grad", "entries"}
        assert b"def " not in pickle.dumps(compiled)

    def test_cache_put_seeds_hits(self):
        compiled = pickle.loads(
            pickle.dumps(ExpressionCache().get(gates.u3().matrix))
        )
        cache = ExpressionCache()
        cache.put(compiled)
        assert cache.get(gates.u3().matrix) is compiled
        assert cache.hits == 1
        assert cache.misses == 0


class TestEngineSerialization:
    def test_round_trip_no_recompile(self, circuit, target):
        engine = Instantiater(circuit, strategy="auto")
        payload = pickle.loads(pickle.dumps(engine.serialize()))
        assert isinstance(payload, SerializedEngine)
        cache = ExpressionCache()
        clone = Instantiater.from_serialized(payload, cache=cache)
        _ = clone.vm  # VMs are built on first use
        # Every expression the TNVM needed was seeded: zero misses.
        assert cache.misses == 0
        assert cache.hits == len(engine.program.expressions)
        r1 = engine.instantiate(target, starts=8, rng=42)
        r2 = clone.instantiate(target, starts=8, rng=42)
        assert np.array_equal(r1.params, r2.params)
        assert r1.infidelity == r2.infidelity
        assert r1.starts_used == r2.starts_used

    def test_round_trip_sequential_strategy(self, circuit, target):
        engine = Instantiater(circuit, strategy="sequential")
        clone = Instantiater.from_serialized(
            pickle.loads(pickle.dumps(engine.serialize()))
        )
        r1 = engine.instantiate(target, starts=2, rng=5)
        r2 = clone.instantiate(target, starts=2, rng=5)
        assert np.array_equal(r1.params, r2.params)
        assert r1.infidelity == r2.infidelity

    def test_pool_payload_cached_per_shape(self, circuit):
        pool = EnginePool()
        first = pool.serialized_bytes(circuit)
        again = pool.serialized_bytes(circuit.copy())
        assert first is again  # one serialization per structure key
        assert pool.misses == 1
        assert pool.hits == 1  # the repeat resolved through the LRU

    def test_evicted_engine_rehydrates_from_payload(self, target):
        # Once a shape is serialized, LRU eviction must not force a
        # fresh AOT compile: the pool rehydrates from the snapshot.
        pool = EnginePool(capacity=1)
        circ_a = build_qsearch_ansatz(2, 2, 2)
        circ_b = build_qsearch_ansatz(2, 1, 2)
        before = pool.engine_for(circ_a).instantiate(target, starts=4, rng=1)
        pool.serialized_bytes(circ_a)
        pool.engine_for(circ_b)  # evicts circ_a's engine
        revived = pool.engine_for(circ_a)
        # Rehydrated engines are program-backed (no circuit attached) —
        # the observable marker that no recompile happened.
        assert revived.circuit is None
        assert pool.misses == 3
        after = revived.instantiate(target, starts=4, rng=1)
        assert np.array_equal(before.params, after.params)
        assert before.infidelity == after.infidelity

    def test_evicting_batched_only_engine_builds_no_kernel(self, target):
        # An engine that ran only batched fits never built its scalar
        # VM; snapshotting it on eviction must not build one either.
        pool = EnginePool(capacity=1, strategy="batched")
        circ_a = build_qsearch_ansatz(2, 2, 2)
        engine = pool.engine_for(circ_a)
        before = engine.instantiate(target, starts=4, rng=1)
        generated = telemetry.metrics().counter("fuse.kernels_generated")
        kernels_before = generated.value
        pool.engine_for(build_qsearch_ansatz(2, 1, 2))  # evicts circ_a
        assert engine._vm is None
        assert "_fused_kernels" not in engine.program.__dict__
        assert generated.value == kernels_before
        revived = pool.engine_for(circ_a)
        assert revived.circuit is None  # rehydrated, not recompiled
        after = revived.instantiate(target, starts=4, rng=1)
        assert np.array_equal(before.params, after.params)
        assert before.infidelity == after.infidelity
        assert before.starts_used == after.starts_used

    def test_program_only_engine_needs_no_circuit(self, circuit, target):
        program = circuit.compile()
        engine = Instantiater(program=program)
        result = engine.instantiate(target, starts=2, rng=0)
        assert result.params.shape == (circuit.num_params,)
        with pytest.raises(ValueError):
            Instantiater()


class TestWritersCompileOnFirstUse:
    """Per-gate writers are generated from the simplified entries on
    first use, never at expression-cache time or on rehydration."""

    @pytest.fixture()
    def compiles(self, monkeypatch):
        calls = []
        original = compiled_mod.compile_writer

        def counting(*args, **kwargs):
            calls.append(kwargs.get("batched", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(compiled_mod, "compile_writer", counting)
        return calls

    def test_scalar_vm_compiles_no_writer(self, circuit, compiles):
        vm = TNVM(circuit.compile(), cache=ExpressionCache())
        vm.evaluate_with_grad(np.zeros(circuit.num_params))
        assert compiles == []

    def test_rehydration_compiles_nothing_until_first_use(
        self, circuit, target, compiles
    ):
        payload = pickle.dumps(Instantiater(circuit).serialize())
        clone = Instantiater.from_serialized(pickle.loads(payload))
        clone.instantiate(target, starts=2, rng=0, strategy="sequential")
        assert compiles == []
        # A batched fit generates the batched writers it runs.
        clone.instantiate(target, starts=4, rng=0, strategy="batched")
        assert True in compiles

    def test_batched_vm_compiles_no_scalar_writer(self, monkeypatch):
        # The grouped WRITE builder takes each parameterized gate's
        # constants functions from the batched writer it compiles; a
        # scalar writer is compiled only for parameter-free gates.
        calls = []
        original = compiled_mod.compile_writer

        def counting(*args, **kwargs):
            calls.append((args[3], kwargs.get("batched", False), args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(compiled_mod, "compile_writer", counting)
        program = fig5_circuit("3-qubit shallow").compile()
        BatchedTNVM(program, 8, cache=ExpressionCache())
        scalar = [name for name, batched, params in calls
                  if params and not batched]
        assert scalar == []
        # Laid-out U3 WRITEs share the canonical U3's one writer.
        assert {name for name, batched, _ in calls if batched} == {
            "U3_batched",
        }


class TestFusedEngineSerialization:
    """Engines ship no generated code: the receiving process generates
    its scalar megakernel from the shipped program and entries on the
    first scalar fit, and gets the parent's source byte for byte."""

    def test_payload_carries_no_kernel(self):
        # Every Figure 5 engine under both contracts: serialize()
        # builds no VM and generates no kernel, and the pickled
        # payload holds no kernel and no generated code.
        cache = ExpressionCache()
        generated = telemetry.metrics().counter("fuse.kernels_generated")
        for name in FIG5_BENCHMARKS:
            for contract in (FULL_UNITARY, OutputContract.column(0)):
                engine = Instantiater(
                    fig5_circuit(name), cache=cache, contract=contract
                )
                before = generated.value
                data = pickle.dumps(engine.serialize())
                assert generated.value == before
                assert engine._vm is None
                assert engine._batched_engine is None
                assert "_fused_kernels" not in engine.program.__dict__
                assert b"FusedKernel" not in data
                assert b"def " not in data
                payload = pickle.loads(data)
                assert not hasattr(payload, "fused_kernel")
                assert payload.program.contract == engine.program.contract

    def test_rehydration_rebuilds_kernel(self, circuit, target):
        engine = Instantiater(circuit, strategy="auto")
        r1 = engine.instantiate(target, starts=2, rng=42,
                                strategy="sequential")
        payload = pickle.loads(pickle.dumps(engine.serialize()))
        clone = Instantiater.from_serialized(payload, cache=ExpressionCache())
        r2 = clone.instantiate(target, starts=2, rng=42,
                               strategy="sequential")
        # Generated in this process from the shipped program and
        # entries, not shipped: a new kernel with the parent's source.
        assert clone.vm.fused_kernel is not engine.vm.fused_kernel
        assert clone.vm.fused_kernel == engine.vm.fused_kernel
        assert np.array_equal(r1.params, r2.params)
        assert r1.infidelity == r2.infidelity
        assert r1.starts_used == r2.starts_used

    def test_shared_program_kernels_not_shipped_by_closures_engine(
        self, circuit
    ):
        # A gradient-free sibling caches its own kernel on the shared
        # Program; serializing an engine that runs the batched closures
        # neither ships that kernel nor generates a gradient one.
        program = circuit.compile()
        plain = TNVM(program, diff=Differentiation.NONE)
        batched = Instantiater(program=program, strategy="batched")
        data = pickle.dumps(batched.serialize())
        assert plain.fused_kernel.source.encode() not in data
        assert b"FusedKernel" not in data
        assert set(program._fused_kernels) == {False}
        assert batched._vm is None

    def test_fused_rehydrated_in_spawned_child(self, circuit, target):
        # The acceptance-bar scenario: serialize here, rehydrate in a
        # *spawned* interpreter (no inherited state), compare numbers.
        parent_engine = Instantiater(circuit)
        payload_bytes = pickle.dumps(parent_engine.serialize())
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(_child_instantiate, (payload_bytes, target))
        parent = parent_engine.instantiate(target, starts=4, rng=9)
        child_params, child_infidelity, child_source = child
        # A fresh interpreter (new hash seed, no inherited state)
        # rebuilds exactly the parent's kernel source.
        assert child_source == parent_engine.vm.fused_kernel.source
        assert np.array_equal(parent.params, child_params)
        assert parent.infidelity == child_infidelity


def _child_instantiate(payload_bytes, target):
    from repro.instantiation import Instantiater as ChildInstantiater

    engine = ChildInstantiater.from_serialized(pickle.loads(payload_bytes))
    result = engine.instantiate(target, starts=4, rng=9)
    return result.params, result.infidelity, engine.vm.fused_kernel.source
