"""Trust-boundary wiring: env switch, compile, rehydration, telemetry."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.analysis import (
    VerificationError,
    maybe_verify_program,
    verification_enabled,
)
from repro.circuit import build_qsearch_ansatz
from repro.instantiation import Instantiater
from repro.tnvm import TNVM, Differentiation
from repro.tnvm.fused import fused_kernel_for


def _corrupt(program):
    """A metadata-corrupt copy: dynamic tail truncated."""
    mutant = type(program).from_bytes(program.to_bytes())
    mutant.dynamic_section.pop()
    return mutant


class TestEnvSwitch:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not verification_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_env_turns_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY", value)
        assert verification_enabled()

    @pytest.mark.parametrize("value", ["", "0"])
    def test_env_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY", value)
        assert not verification_enabled()

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert not verification_enabled(False)
        monkeypatch.delenv("REPRO_VERIFY")
        assert verification_enabled(True)

    def test_maybe_verify_is_noop_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        # A wildly corrupt "program" never reaches the verifier.
        maybe_verify_program(object())


class TestCompileBoundary:
    def test_compile_verify_true_accepts_clean(self):
        program = build_qsearch_ansatz(2, 2, 2).compile(verify=True)
        assert program.dynamic_section

    def test_compile_under_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        before = telemetry.metrics().counter(
            "analysis.programs_verified"
        ).value
        build_qsearch_ansatz(2, 2, 2).compile()
        after = telemetry.metrics().counter(
            "analysis.programs_verified"
        ).value
        assert after == before + 1

    def test_corrupt_program_raises_pointed_error(self):
        program = build_qsearch_ansatz(2, 2, 2).compile()
        with pytest.raises(VerificationError) as info:
            maybe_verify_program(_corrupt(program), verify=True)
        message = str(info.value)
        assert "violation" in message
        assert info.value.report.violations  # structured access

    def test_violations_counter_bumps(self):
        program = build_qsearch_ansatz(2, 2, 2).compile()
        counter = telemetry.metrics().counter("analysis.violations")
        before = counter.value
        with pytest.raises(VerificationError):
            maybe_verify_program(_corrupt(program), verify=True)
        assert counter.value > before


class TestRehydrationBoundary:
    @pytest.fixture(scope="class")
    def payload(self):
        program = build_qsearch_ansatz(2, 2, 2).compile()
        engine = Instantiater(program=program)
        engine.instantiate(np.eye(4, dtype=complex), starts=1, rng=0)
        return engine.serialize()

    def test_clean_payload_rehydrates_under_verify(self, payload):
        engine = Instantiater.from_serialized(payload, verify=True)
        assert engine.program is payload.program

    def test_corrupt_program_in_payload_rejected(self, payload):
        bad = dataclasses.replace(
            payload, program=_corrupt(payload.program)
        )
        with pytest.raises(VerificationError) as info:
            Instantiater.from_serialized(bad, verify=True)
        assert "serialized engine" in str(info.value)

    def test_truncated_expression_table_rejected(self, payload):
        bad = dataclasses.replace(
            payload, compiled=payload.compiled[:-1]
        )
        with pytest.raises(VerificationError) as info:
            Instantiater.from_serialized(bad, verify=True)
        assert "compiled expressions" in str(info.value)

    def test_bad_precision_rejected(self, payload):
        bad = dataclasses.replace(payload, precision="f128")
        with pytest.raises(VerificationError) as info:
            Instantiater.from_serialized(bad, verify=True)
        assert "precision" in str(info.value)

    def test_regenerated_kernel_linted_at_bind(self, payload, monkeypatch):
        # Payloads ship no kernel: the rehydrated engine generates one
        # on its first scalar VM, and binding it is the lint boundary.
        monkeypatch.setenv("REPRO_VERIFY", "1")
        shipped = pickle.loads(pickle.dumps(payload))
        engine = Instantiater.from_serialized(shipped)
        counter = telemetry.metrics().counter("analysis.kernels_linted")
        before = counter.value
        assert "_fused_kernels" not in engine.program.__dict__
        assert engine.vm.fused_kernel is not None
        assert counter.value == before + 1

    def test_engines_counter_bumps(self, payload, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        counter = telemetry.metrics().counter(
            "analysis.engines_verified"
        )
        before = counter.value
        Instantiater.from_serialized(payload)
        assert counter.value == before + 1


class TestKernelBindBoundary:
    def test_corrupt_kernel_source_rejected_at_bind(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        program = build_qsearch_ansatz(2, 2, 2).compile()
        vm = TNVM(program, diff=Differentiation.NONE)
        kernel = fused_kernel_for(program, vm.compiled, grad=False)
        hacked = dataclasses.replace(
            kernel,
            source=kernel.source.replace("np.matmul", "np.dot", 1),
        )
        program.__dict__["_fused_kernels"][False] = hacked
        with pytest.raises(VerificationError) as info:
            TNVM(program, diff=Differentiation.NONE)
        assert "kernel-rogue-callable" in str(info.value)

    def test_clean_kernel_binds_under_verify(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        program = build_qsearch_ansatz(2, 2, 2).compile()
        counter = telemetry.metrics().counter("analysis.kernels_linted")
        before = counter.value
        vm = TNVM(program)
        assert counter.value > before
        params = np.random.default_rng(0).uniform(
            -np.pi, np.pi, program.num_params
        )
        u, _ = vm.evaluate_with_grad(params)
        assert u.shape == (4, 4)
