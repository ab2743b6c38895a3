"""Fused-kernel source lint: clean acceptance and rejection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    KERNEL_VIOLATION_CODES,
    lint_kernel_source,
    verify_kernel,
)
from repro.analysis.mutations import (
    _CONTRACT_CALL_RE,
    MUTATION_CLASSES,
    NotApplicable,
    mutate_kernel,
)

KERNEL_CLASSES = [c for c in MUTATION_CLASSES if c.kind == "kernel"]


class TestCleanAcceptance:
    def test_every_generated_kernel_lints(self, clean_kernels):
        for (name, grad), kernel in clean_kernels.items():
            report = lint_kernel_source(
                kernel.source, subject=f"{name} grad={grad}"
            )
            assert report.ok, report.render()

    def test_verify_kernel_duck_types(self, clean_kernels):
        kernel = clean_kernels[("ansatz-2q", True)]
        report = verify_kernel(kernel)
        assert report.ok
        assert "grad=True" in report.subject

    def test_verify_kernel_rejects_non_string_source(self):
        class Broken:
            source = b"def make_fused(): pass"
            grad = False

        report = verify_kernel(Broken())
        assert "kernel-structure" in report.codes()


class TestMutationRejection:
    @pytest.mark.parametrize(
        "cls", KERNEL_CLASSES, ids=[c.name for c in KERNEL_CLASSES]
    )
    def test_class_caught_on_every_applicable_kernel(
        self, clean_kernels, cls
    ):
        applicable = 0
        for i, (key, kernel) in enumerate(
            sorted(clean_kernels.items())
        ):
            rng = np.random.default_rng([13, i])
            try:
                mutated = mutate_kernel(cls.name, kernel.source, rng)
            except NotApplicable:
                continue
            applicable += 1
            report = lint_kernel_source(mutated)
            assert not report.ok, (cls.name, key)
            assert report.codes() & cls.expected_codes, (
                cls.name,
                key,
                report.render(),
            )
        assert applicable > 0, f"{cls.name} never applicable"

    def test_alias_mutation_sees_every_product_call(self, clean_kernels):
        # Sites are found by the call's form, so renaming the
        # generator's locals cannot make the class inapplicable.
        for key, kernel in clean_kernels.items():
            source = kernel.source
            products = source.count("np.matmul(")
            products += source.count("np.multiply(")
            sites = _CONTRACT_CALL_RE.findall(source)
            assert len(sites) == products, key

    def test_expected_codes_are_known(self):
        for cls in KERNEL_CLASSES:
            unknown = cls.expected_codes - set(KERNEL_VIOLATION_CODES)
            assert not unknown, (cls.name, unknown)


class TestStructuralChecks:
    def test_syntax_error_reported_not_raised(self):
        report = lint_kernel_source("def make_fused(:\n")
        assert "kernel-syntax" in report.codes()

    def test_rogue_module_level_statement(self):
        source = (
            "import os\n"
            "def make_fused(stacks, dtype):\n"
            "    def fused_run(params):\n"
            "        pass\n"
            "    return fused_run\n"
        )
        report = lint_kernel_source(source)
        assert "kernel-structure" in report.codes()

    def test_wrong_factory_arity_for_batched(self, clean_kernels):
        # Only the scalar factory exists: a batched-arity factory
        # (trailing batch size ``B``) is rejected.
        kernel = clean_kernels[("ansatz-2q", False)]
        source = kernel.source.replace(
            "def make_fused(stacks, dtype):",
            "def make_fused(stacks, dtype, B):",
        )
        assert source != kernel.source
        report = lint_kernel_source(source)
        assert "kernel-structure" in report.codes()

    def test_non_whitelisted_numpy_attribute(self):
        source = (
            "def make_fused(stacks, dtype):\n"
            "    i0_v = stacks[0].reshape(2, 2)\n"
            "    def fused_run(params):\n"
            "        np.frombuffer(i0_v)\n"
            "    return fused_run\n"
        )
        report = lint_kernel_source(source)
        assert "kernel-rogue-callable" in report.codes()

    def test_unbound_name_in_store(self):
        source = (
            "def make_fused(stacks, dtype):\n"
            "    def fused_run(params):\n"
            "        i9_v[0, 0] = 1.0\n"
            "    return fused_run\n"
        )
        report = lint_kernel_source(source)
        assert "kernel-unbound-name" in report.codes()

    def test_copyto_aliasing_destination(self):
        source = (
            "def make_fused(stacks, dtype):\n"
            "    i0_a = stacks[0].reshape(2, 2)\n"
            "    i0_b = stacks[0].reshape(2, 2)\n"
            "    def fused_run(params):\n"
            "        np.copyto(i0_a, i0_b)\n"
            "    return fused_run\n"
        )
        report = lint_kernel_source(source)
        assert "kernel-out-aliasing" in report.codes()

    def test_rows_of_one_stack_alias(self):
        # A buffer's value and gradient rows share one stack: an out=
        # on its value row aliases an input on its gradient rows.
        source = (
            "def make_fused(stacks, dtype):\n"
            "    i0_g = stacks[0][4:].reshape(2, 2)\n"
            "    i0_v = stacks[0][:4].reshape(2, 2)\n"
            "    i1_b = stacks[1].reshape(2, 2)\n"
            "    def fused_run(params):\n"
            "        np.matmul(i0_g, i1_b, out=i0_v)\n"
            "    return fused_run\n"
        )
        report = lint_kernel_source(source)
        assert "kernel-out-aliasing" in report.codes()

    def test_distinct_arena_slots_do_not_alias(self):
        source = (
            "def make_fused(stacks, dtype):\n"
            "    i0_a = stacks[0].reshape(2, 2)\n"
            "    i1_b = stacks[1].reshape(2, 2)\n"
            "    def fused_run(params):\n"
            "        np.copyto(i1_b, i0_a)\n"
            "    return fused_run\n"
        )
        report = lint_kernel_source(source)
        assert report.ok, report.render()
