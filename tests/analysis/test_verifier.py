"""Bytecode verifier: clean acceptance and per-class rejection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    PROGRAM_VIOLATION_CODES,
    verify_program,
)
from repro.analysis.mutations import (
    MUTATION_CLASSES,
    NotApplicable,
    mutate_program,
)

from .conftest import PROGRAM_BUILDERS

PROGRAM_CLASSES = [c for c in MUTATION_CLASSES if c.kind == "program"]


class TestCleanAcceptance:
    @pytest.mark.parametrize("name", sorted(PROGRAM_BUILDERS))
    def test_compiled_program_verifies(self, clean_programs, name):
        report = verify_program(clean_programs[name], subject=name)
        assert report.ok, report.render()

    def test_report_subject_defaults_to_shape(self, clean_programs):
        report = verify_program(clean_programs["ansatz-2q"])
        assert "program" in report.subject

    def test_expected_codes_are_known(self):
        for cls in PROGRAM_CLASSES:
            unknown = cls.expected_codes - set(PROGRAM_VIOLATION_CODES)
            assert not unknown, (cls.name, unknown)


class TestMutationRejection:
    """One test per program-mutation class: the verifier flags the
    mutant with the class's expected code, with a pointed location."""

    @pytest.mark.parametrize(
        "cls", PROGRAM_CLASSES, ids=[c.name for c in PROGRAM_CLASSES]
    )
    def test_class_caught_on_every_applicable_subject(
        self, clean_programs, cls
    ):
        applicable = 0
        for i, (name, program) in enumerate(
            sorted(clean_programs.items())
        ):
            rng = np.random.default_rng([7, i])
            try:
                mutant = mutate_program(cls.name, program, rng)
            except NotApplicable:
                continue
            applicable += 1
            report = verify_program(mutant, subject=name)
            assert not report.ok, (cls.name, name)
            assert report.codes() & cls.expected_codes, (
                cls.name,
                name,
                report.render(),
            )
        assert applicable > 0, f"{cls.name} never applicable"

    def test_mutation_does_not_touch_the_original(self, clean_programs):
        program = clean_programs["ansatz-2q"]
        before = program.to_bytes()
        rng = np.random.default_rng(3)
        mutate_program("truncate-dynamic", program, rng)
        assert program.to_bytes() == before

    def test_violation_points_at_instruction(self, clean_programs):
        program = clean_programs["ansatz-3q"]
        rng = np.random.default_rng(11)
        mutant = mutate_program("expr-out-of-range", program, rng)
        report = verify_program(mutant)
        bad = [v for v in report.violations if v.code == "bad-expr-ref"]
        assert bad and bad[0].where  # names const[i]/dynamic[i]
        assert "expr" in bad[0].message


class TestStructuralChecks:
    """Hand-built corruptions beyond the corpus classes."""

    def test_unknown_opcode(self, clean_programs):
        import dataclasses

        program = clean_programs["ansatz-2q"]
        mutant = type(program).from_bytes(program.to_bytes())
        instr = mutant.dynamic_section[0]
        mutant.dynamic_section[0] = dataclasses.replace(
            instr, opcode="EINSUM"
        )
        report = verify_program(mutant)
        assert "bad-opcode" in report.codes()

    def test_buffer_ref_out_of_range(self, clean_programs):
        import dataclasses

        program = clean_programs["ansatz-2q"]
        mutant = type(program).from_bytes(program.to_bytes())
        instr = mutant.dynamic_section[-1]
        mutant.dynamic_section[-1] = dataclasses.replace(
            instr, out_buf=len(mutant.buffers) + 5
        )
        report = verify_program(mutant)
        assert "bad-buffer-ref" in report.codes()

    @pytest.mark.parametrize(
        "bad",
        [
            {"perm": (1, 1)},  # not a permutation of shape's axes
            {"perm": ()},  # a shape with no perm
            {"shape": (2, 3)},  # 6 entries for a 2x2 gate
            {"shape": (), "perm": (0,)},  # a perm with no shape
            {"perm": (0, 1)},  # the identity, spelled out
        ],
        ids=["not-a-permutation", "no-perm", "wrong-size", "no-shape",
             "identity"],
    )
    def test_write_layout_rejected(self, clean_programs, bad):
        import dataclasses

        program = clean_programs["ansatz-2q"]
        mutant = type(program).from_bytes(program.to_bytes())
        section = mutant.dynamic_section
        pos = next(
            i for i, instr in enumerate(section)
            if instr.opcode == "WRITE" and instr.perm == (1, 0)
        )
        section[pos] = dataclasses.replace(section[pos], **bad)
        report = verify_program(mutant)
        assert report.codes() == {"write-layout"}, report.render()

    def test_double_write_flagged(self, clean_programs):
        program = clean_programs["ansatz-2q"]
        mutant = type(program).from_bytes(program.to_bytes())
        mutant.dynamic_section.append(mutant.dynamic_section[-1])
        report = verify_program(mutant)
        assert "double-write" in report.codes()

    def test_constant_instruction_in_dynamic_section(
        self, clean_programs
    ):
        # Moving a const-section instruction into the dynamic section
        # breaks section discipline: its output buffer is constant.
        program = clean_programs["dtc-3"]
        mutant = type(program).from_bytes(program.to_bytes())
        assert mutant.const_section, "dtc program hoists constants"
        instr = mutant.const_section.pop()
        mutant.dynamic_section.append(instr)
        report = verify_program(mutant)
        assert "section" in report.codes() or not report.ok

    def test_matmul_inner_dim_mismatch_message_names_shapes(
        self, clean_programs
    ):
        import dataclasses

        program = clean_programs["ansatz-3q"]
        mutant = type(program).from_bytes(program.to_bytes())
        sites = [
            (i, instr)
            for i, instr in enumerate(mutant.dynamic_section)
            if instr.opcode == "MATMUL"
        ]
        assert sites
        pos, instr = sites[0]
        m, k = instr.a_shape
        mutant.dynamic_section[pos] = dataclasses.replace(
            instr, a_shape=(k, m) if m != k else (m, k + 1)
        )
        report = verify_program(mutant)
        assert not report.ok
        assert {"operand-shape"} & report.codes()
