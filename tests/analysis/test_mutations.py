"""The seeded mutation corpus: the verifier is not vacuous."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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


#: Runs a small corpus and prints what it drew: the first integer each
#: class's generator yields on subject 0, and the applied/caught counts.
_CORPUS_DRAW = """
import json
from repro.analysis.mutations import MUTATION_CLASSES, corpus_rng, run_mutation_corpus
from repro.circuit import build_qsearch_ansatz
from repro.tnvm import TNVM, Differentiation
from repro.tnvm.fused import fused_kernel_for

program = build_qsearch_ansatz(2, 2, 2).compile()
unfused = build_qsearch_ansatz(2, 2, 2).compile(fusion=False)
vm = TNVM(program, diff=Differentiation.NONE)
kernel = fused_kernel_for(program, vm.compiled, grad=True).source
result = run_mutation_corpus([program, unfused], [kernel], seed=0)
print(json.dumps({
    "applied": result.applied,
    "caught": result.caught,
    "first": [int(corpus_rng(0, c.name, 0).integers(1 << 30))
              for c in MUTATION_CLASSES],
}))
"""


def test_corpus_does_not_depend_on_hash_seed():
    """Two processes with different string hashing draw the same
    mutants."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CORPUS_DRAW],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert all(child.returncode == 0 for child in children)
    first, second = (json.loads(out.splitlines()[-1]) for out in outputs)
    assert first == second
    assert sum(first["applied"].values()) > 0


def test_corpus_rejects_unclean_subject(clean_programs):
    program = clean_programs["ansatz-2q"]
    mutant = type(program).from_bytes(program.to_bytes())
    mutant.dynamic_section.pop()
    with pytest.raises(ValueError, match="not clean"):
        run_mutation_corpus([mutant], [], seed=0)
