"""The seeded mutation corpus: the verifier is not vacuous."""

from __future__ import annotations

import pytest

from repro.analysis.mutations import (
    MUTATION_CLASSES,
    run_mutation_corpus,
)


def _subjects(clean_programs, clean_kernels):
    programs = [
        clean_programs[name]
        for name in (
            "ansatz-2q",
            "no-fusion",  # TRANSPOSE sites for corrupt-perm
            "column",
            "qft-3",
        )
    ]
    kernels = [
        kernel.source
        for (name, _), kernel in sorted(clean_kernels.items())
        if name in ("ansatz-2q", "column")
    ]
    return programs, kernels


def test_corpus_has_at_least_eight_classes():
    assert len(MUTATION_CLASSES) >= 8
    assert len({c.name for c in MUTATION_CLASSES}) == len(
        MUTATION_CLASSES
    )


@pytest.mark.parametrize("seed", [0, 1234, 99991])
def test_every_class_caught(clean_programs, clean_kernels, seed):
    programs, kernels = _subjects(clean_programs, clean_kernels)
    result = run_mutation_corpus(programs, kernels, seed=seed)
    assert result.all_caught, result.render()
    # Every class found at least one applicable subject...
    for cls in MUTATION_CLASSES:
        assert result.applied[cls.name] > 0, cls.name
        # ...and caught every mutant it produced.
        assert result.caught[cls.name] == result.applied[cls.name]


def test_corpus_is_deterministic(clean_programs, clean_kernels):
    programs, kernels = _subjects(clean_programs, clean_kernels)
    a = run_mutation_corpus(programs, kernels, seed=7)
    b = run_mutation_corpus(programs, kernels, seed=7)
    assert a.applied == b.applied
    assert a.caught == b.caught
    assert a.missed == b.missed


def test_corpus_rejects_unclean_subject(clean_programs):
    program = clean_programs["ansatz-2q"]
    mutant = type(program).from_bytes(program.to_bytes())
    mutant.dynamic_section.pop()
    with pytest.raises(ValueError, match="not clean"):
        run_mutation_corpus([mutant], [], seed=0)
