"""Seeded mutation corpus: proof that the verifier is not vacuous.

A verifier that accepts every clean program is only trustworthy if it
also *rejects* every representative corruption.  This module defines a
corpus of mutation classes — each models one realistic failure mode of
the compile/serialize/rehydrate pipeline (a bad rewrite swapping
operand buffers, a corrupted TRANSPOSE ``perm`` or WRITE layout,
dropped forward-AD metadata, a truncated payload, mangled kernel
source, a wrong-contract output shape) — plus a harness,
:func:`run_mutation_corpus`, that applies every class to a set of
clean subjects with a seeded RNG and checks that
:func:`~repro.analysis.verifier.verify_program` /
:func:`~repro.analysis.kernel_lint.lint_kernel_source` flags **every**
mutant with the expected violation code.

The corpus is exercised by ``tests/analysis`` and by the CI ``verify``
job's mutation smoke.
"""

from __future__ import annotations

import dataclasses
import re
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from .kernel_lint import lint_kernel_source
from .verifier import verify_program

if TYPE_CHECKING:
    from ..tensornet.bytecode import Program

__all__ = [
    "MutationClass",
    "NotApplicable",
    "MUTATION_CLASSES",
    "mutate_program",
    "mutate_kernel",
    "run_mutation_corpus",
    "corpus_rng",
    "CorpusResult",
]


class NotApplicable(Exception):
    """The mutation class has no site in this subject (e.g. no
    TRANSPOSE instruction to corrupt); the harness tries the next
    subject."""


@dataclass(frozen=True)
class MutationClass:
    """One corruption model and the violation codes that must catch it."""

    name: str
    kind: str  # "program" | "kernel"
    expected_codes: frozenset[str]
    description: str


def _copy(program: Program) -> Program:
    """An independent deep copy via the program's own wire format."""
    return type(program).from_bytes(program.to_bytes())


_T = TypeVar("_T")


def _choice(rng: np.random.Generator, items: list[_T]) -> _T:
    if not items:
        raise NotApplicable
    return items[int(rng.integers(len(items)))]


# ----------------------------------------------------------------------
# Program mutations
# ----------------------------------------------------------------------


def _mut_swap_operands(program: Program, rng: np.random.Generator) -> Program:
    """A bad rewrite swapped a contraction's operand buffers."""
    program = _copy(program)
    sites = [
        (pos, instr)
        for pos, instr in enumerate(program.dynamic_section)
        if instr.opcode in ("MATMUL", "KRON", "HADAMARD")
        and instr.a_buf != -1
        and instr.b_buf != -1
        and program.buffers[instr.a_buf].size
        != program.buffers[instr.b_buf].size
    ]
    pos, instr = _choice(rng, sites)
    program.dynamic_section[pos] = dataclasses.replace(
        instr, a_buf=instr.b_buf, b_buf=instr.a_buf
    )
    return program


def _mut_corrupt_perm(program: Program, rng: np.random.Generator) -> Program:
    """A TRANSPOSE whose perm is no longer a permutation."""
    program = _copy(program)
    sites = [
        (section, pos, instr)
        for section in (program.const_section, program.dynamic_section)
        for pos, instr in enumerate(section)
        if instr.opcode == "TRANSPOSE" and len(instr.perm) >= 2
    ]
    section, pos, instr = _choice(rng, sites)
    bad_perm = (instr.perm[0],) + instr.perm[:-1]  # duplicates perm[0]
    section[pos] = dataclasses.replace(instr, perm=bad_perm)
    return program


def _mut_corrupt_write_layout(
    program: Program, rng: np.random.Generator
) -> Program:
    """A fused WRITE's layout corrupted in transit: its perm is no
    longer a permutation, its shape no longer holds the expression's
    entries, or it spells out the identity the compiler stores
    empty."""
    program = _copy(program)
    sites = [
        (section, pos, instr)
        for section in (program.const_section, program.dynamic_section)
        for pos, instr in enumerate(section)
        if instr.opcode == "WRITE" and instr.perm
    ]
    section, pos, instr = _choice(rng, sites)
    kind = int(rng.integers(3))
    if kind == 0:
        bad = {"perm": (instr.perm[0],) + instr.perm[:-1]}
    elif kind == 1:
        bad = {"shape": (2 * instr.shape[0],) + instr.shape[1:]}
    else:
        bad = {"perm": tuple(range(len(instr.perm)))}
    section[pos] = dataclasses.replace(instr, **bad)
    return program


def _mut_drop_param_dep(program: Program, rng: np.random.Generator) -> Program:
    """Forward-AD metadata corruption: a parameter dependency vanishes
    from an instruction *and* its output buffer spec — the exact
    invariant grad specialization relies on."""
    program = _copy(program)
    sites = [
        (pos, instr)
        for pos, instr in enumerate(program.dynamic_section)
        if instr.params
    ]
    pos, instr = _choice(rng, sites)
    dropped = instr.params[int(rng.integers(len(instr.params)))]
    trimmed = tuple(p for p in instr.params if p != dropped)
    program.dynamic_section[pos] = dataclasses.replace(
        instr, params=trimmed
    )
    spec = program.buffers[instr.out_buf]
    program.buffers[instr.out_buf] = dataclasses.replace(
        spec, params=tuple(p for p in spec.params if p != dropped)
    )
    return program


def _mut_truncate_dynamic(program: Program, rng: np.random.Generator) -> Program:
    """A truncated payload: the dynamic section lost its tail."""
    program = _copy(program)
    if not program.dynamic_section:
        raise NotApplicable
    program.dynamic_section.pop()
    return program


def _mut_bad_expr_ref(program: Program, rng: np.random.Generator) -> Program:
    """A WRITE referencing outside the expression table."""
    program = _copy(program)
    sites = [
        (section, pos, instr)
        for section in (program.const_section, program.dynamic_section)
        for pos, instr in enumerate(section)
        if instr.opcode == "WRITE"
    ]
    section, pos, instr = _choice(rng, sites)
    section[pos] = dataclasses.replace(
        instr, expr_id=len(program.expressions) + 3
    )
    return program


def _mut_bad_slot(program: Program, rng: np.random.Generator) -> Program:
    """A WRITE slot outside the circuit parameter space."""
    program = _copy(program)
    sites = [
        (pos, instr)
        for pos, instr in enumerate(program.dynamic_section)
        if instr.opcode == "WRITE" and instr.slots
    ]
    pos, instr = _choice(rng, sites)
    slots = (program.num_params + 1,) + instr.slots[1:]
    program.dynamic_section[pos] = dataclasses.replace(instr, slots=slots)
    return program


def _mut_use_before_def(program: Program, rng: np.random.Generator) -> Program:
    """An instruction scheduled before its operand's producer."""
    program = _copy(program)
    section = program.dynamic_section
    sites = []
    for i, producer in enumerate(section):
        for j in range(i + 1, len(section)):
            consumer = section[j]
            if producer.out_buf in (consumer.a_buf, consumer.b_buf):
                sites.append((i, j))
                break
    i, j = _choice(rng, sites)
    producer = section.pop(i)
    section.insert(j, producer)  # now sits *after* its first consumer
    return program


def _mut_wrong_contract_shape(
    program: Program, rng: np.random.Generator
) -> Program:
    """Output shape flipped against the compiled contract."""
    program = _copy(program)
    d = program.output_shape[0]
    is_full = tuple(program.contract) == ("full",)
    program.output_shape = (d, 1) if is_full else (d, d)
    return program


def _mut_corrupt_contract_key(
    program: Program, rng: np.random.Generator
) -> Program:
    """The contract key itself is stale/corrupt for this bytecode."""
    program = _copy(program)
    if tuple(program.contract) == ("full",):
        dim = program.output_shape[0]
        program.contract = ("column", dim + int(rng.integers(1, 5)))
    else:
        program.contract = ("full",)
    return program


def _mut_dangling_write(program: Program, rng: np.random.Generator) -> Program:
    """A write retargeted to a fresh buffer, leaving its original
    target undefined for every downstream reader."""
    from ..tensornet.bytecode import BufferSpec

    program = _copy(program)
    section = program.dynamic_section
    read = set()
    for instr in section:
        read.update(b for b in (instr.a_buf, instr.b_buf) if b != -1)
    sites = [
        (pos, instr)
        for pos, instr in enumerate(section)
        if instr.out_buf in read
    ]
    pos, instr = _choice(rng, sites)
    spec = program.buffers[instr.out_buf]
    fresh = BufferSpec(
        buffer_id=len(program.buffers),
        size=spec.size,
        params=spec.params,
        constant=spec.constant,
    )
    program.buffers.append(fresh)
    section[pos] = dataclasses.replace(instr, out_buf=fresh.buffer_id)
    return program


# ----------------------------------------------------------------------
# Kernel-source mutations
# ----------------------------------------------------------------------

_UNPACK_RE = re.compile(r"^\s+p\d+ = params\[\d+\]\n", re.MULTILINE)
_TEMP_ASSIGN_RE = re.compile(r"^(\s+)(i\d+_t\d+) = .+\n", re.MULTILINE)
#: a product call by its form, ``np.<ufunc>(a, b, out=c)``, whatever
#: the generator names its views (``b`` may pick stack rows)
_CONTRACT_CALL_RE = re.compile(
    r"np\.(matmul|multiply)\((\w+), ([\w\[\]]+), out=(\w+)\)"
)
_NP_CALL_RE = re.compile(r"np\.(matmul|multiply|copyto)\(")


def _pick_match(
    rng: np.random.Generator, pattern: re.Pattern, source: str
) -> re.Match:
    matches = list(pattern.finditer(source))
    return _choice(rng, matches)


def _mut_kernel_unbound(source: str, rng: np.random.Generator) -> str:
    """A parameter unpack line lost in transit: later loads unbound."""
    m = _pick_match(rng, _UNPACK_RE, source)
    return source[: m.start()] + source[m.end() :]


def _mut_kernel_double_assign(
    source: str, rng: np.random.Generator
) -> str:
    """A CSE temp assigned twice (single-assignment violation)."""
    m = _pick_match(rng, _TEMP_ASSIGN_RE, source)
    duplicate = f"{m.group(1)}{m.group(2)} = 0.0\n"
    return source[: m.end()] + duplicate + source[m.end() :]


def _mut_kernel_alias_out(source: str, rng: np.random.Generator) -> str:
    """A contraction's out= retargeted onto one of its own inputs."""
    m = _pick_match(rng, _CONTRACT_CALL_RE, source)
    mutated = f"np.{m.group(1)}({m.group(2)}, {m.group(3)}, out={m.group(2)})"
    return source[: m.start()] + mutated + source[m.end() :]


def _mut_kernel_rogue_call(source: str, rng: np.random.Generator) -> str:
    """A whitelisted numpy call swapped for an arbitrary one."""
    m = _pick_match(rng, _NP_CALL_RE, source)
    return source[: m.start()] + "np.dot(" + source[m.end() :]


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------

_ProgramMutator = Callable[["Program", np.random.Generator], "Program"]
_KernelMutator = Callable[[str, np.random.Generator], str]

_PROGRAM_MUTATORS: dict[str, _ProgramMutator] = {
    "swap-operand-buffers": _mut_swap_operands,
    "corrupt-perm": _mut_corrupt_perm,
    "corrupt-write-layout": _mut_corrupt_write_layout,
    "drop-param-dep": _mut_drop_param_dep,
    "truncate-dynamic": _mut_truncate_dynamic,
    "expr-out-of-range": _mut_bad_expr_ref,
    "slot-out-of-range": _mut_bad_slot,
    "reorder-use-before-def": _mut_use_before_def,
    "wrong-contract-shape": _mut_wrong_contract_shape,
    "corrupt-contract-key": _mut_corrupt_contract_key,
    "dangling-write": _mut_dangling_write,
}

_KERNEL_MUTATORS: dict[str, _KernelMutator] = {
    "kernel-drop-unpack": _mut_kernel_unbound,
    "kernel-double-assign": _mut_kernel_double_assign,
    "kernel-alias-out": _mut_kernel_alias_out,
    "kernel-rogue-call": _mut_kernel_rogue_call,
}

MUTATION_CLASSES: tuple[MutationClass, ...] = (
    MutationClass(
        "swap-operand-buffers",
        "program",
        frozenset({"operand-shape"}),
        "contraction operands swapped by a bad rewrite",
    ),
    MutationClass(
        "corrupt-perm",
        "program",
        frozenset({"bad-transpose"}),
        "TRANSPOSE perm is no longer a permutation",
    ),
    MutationClass(
        "corrupt-write-layout",
        "program",
        frozenset({"write-layout"}),
        "WRITE layout no longer a permutation of the expression",
    ),
    MutationClass(
        "drop-param-dep",
        "program",
        frozenset({"param-deps"}),
        "forward-AD parameter dependency dropped",
    ),
    MutationClass(
        "truncate-dynamic",
        "program",
        frozenset(
            {"output", "never-written", "dead-buffer", "use-before-def"}
        ),
        "dynamic section truncated (corrupt payload)",
    ),
    MutationClass(
        "expr-out-of-range",
        "program",
        frozenset({"bad-expr-ref"}),
        "WRITE expr_id outside the expression table",
    ),
    MutationClass(
        "slot-out-of-range",
        "program",
        frozenset({"bad-slot"}),
        "WRITE slot outside the circuit parameter space",
    ),
    MutationClass(
        "reorder-use-before-def",
        "program",
        frozenset({"use-before-def"}),
        "instruction scheduled before its operand's producer",
    ),
    MutationClass(
        "wrong-contract-shape",
        "program",
        frozenset({"contract"}),
        "output shape disagrees with the compiled contract",
    ),
    MutationClass(
        "corrupt-contract-key",
        "program",
        frozenset({"contract"}),
        "stale/corrupt contract key for this bytecode",
    ),
    MutationClass(
        "dangling-write",
        "program",
        frozenset({"use-before-def", "never-written", "dead-buffer"}),
        "write retargeted away from its readers",
    ),
    MutationClass(
        "kernel-drop-unpack",
        "kernel",
        frozenset({"kernel-unbound-name"}),
        "megakernel parameter unpack line lost",
    ),
    MutationClass(
        "kernel-double-assign",
        "kernel",
        frozenset({"kernel-multi-assign"}),
        "CSE temp assigned twice in kernel source",
    ),
    MutationClass(
        "kernel-alias-out",
        "kernel",
        frozenset({"kernel-out-aliasing"}),
        "contraction out= aliased onto a live input",
    ),
    MutationClass(
        "kernel-rogue-call",
        "kernel",
        frozenset({"kernel-rogue-callable"}),
        "whitelisted numpy call swapped for an arbitrary one",
    ),
)


def mutate_program(
    name: str, program: Program, rng: np.random.Generator
) -> Program:
    """Apply program-mutation class ``name``; raises
    :class:`NotApplicable` when the program has no site for it."""
    return _PROGRAM_MUTATORS[name](program, rng)


def mutate_kernel(
    name: str, source: str, rng: np.random.Generator
) -> str:
    """Apply kernel-mutation class ``name`` to kernel source."""
    return _KERNEL_MUTATORS[name](source, rng)


@dataclass
class CorpusResult:
    """Catch matrix of one :func:`run_mutation_corpus` run."""

    seed: int
    #: class name -> number of mutants generated
    applied: dict[str, int] = field(default_factory=dict)
    #: class name -> number of mutants flagged with an expected code
    caught: dict[str, int] = field(default_factory=dict)
    #: (class, subject index, codes found) for every miss
    missed: list[tuple[str, int, tuple[str, ...]]] = field(
        default_factory=list
    )

    @property
    def classes_exercised(self) -> int:
        return sum(1 for n in self.applied.values() if n > 0)

    @property
    def all_caught(self) -> bool:
        return (
            not self.missed
            and self.classes_exercised == len(MUTATION_CLASSES)
        )

    def render(self) -> str:
        lines = [
            f"mutation corpus (seed={self.seed}): "
            f"{self.classes_exercised}/{len(MUTATION_CLASSES)} classes "
            f"exercised, {len(self.missed)} missed"
        ]
        for cls in MUTATION_CLASSES:
            lines.append(
                f"  {cls.name:<24} applied={self.applied.get(cls.name, 0)} "
                f"caught={self.caught.get(cls.name, 0)}"
            )
        return "\n".join(lines)


def corpus_rng(seed: int, name: str, subject: int) -> np.random.Generator:
    """The generator that draws class ``name``'s mutation site on
    subject ``subject`` of a corpus run under ``seed``.

    The class enters through a CRC-32 of its name, not ``hash``, which
    changes with ``PYTHONHASHSEED``: every process draws the same
    mutants, so a mutant a run misses can be reproduced from its seed.
    """
    return np.random.default_rng([seed, zlib.crc32(name.encode()), subject])


def run_mutation_corpus(
    programs: list[Program],
    kernel_sources: list[str],
    seed: int = 0,
) -> CorpusResult:
    """Apply every mutation class across the given clean subjects.

    Every subject must verify cleanly beforehand (asserted); every
    applicable (class, subject) pair must then be caught with one of
    the class's expected codes.  A class with *no* applicable subject
    counts as not exercised — :attr:`CorpusResult.all_caught` demands
    full coverage, so callers must pass subjects rich enough to host
    every class (e.g. a ``fusion=False`` program for TRANSPOSE sites).
    """
    result = CorpusResult(seed=seed)
    for i, program in enumerate(programs):
        clean = verify_program(program)
        if not clean.ok:
            raise ValueError(
                f"corpus subject program {i} is not clean:\n"
                + clean.render()
            )
    for i, source in enumerate(kernel_sources):
        clean = lint_kernel_source(source)
        if not clean.ok:
            raise ValueError(
                f"corpus subject kernel {i} is not clean:\n"
                + clean.render()
            )
    for cls in MUTATION_CLASSES:
        result.applied[cls.name] = 0
        result.caught[cls.name] = 0
        subjects = (
            list(enumerate(programs))
            if cls.kind == "program"
            else list(enumerate(kernel_sources))
        )
        for i, subject in subjects:
            rng = corpus_rng(seed, cls.name, i)
            try:
                if cls.kind == "program":
                    mutant = mutate_program(cls.name, subject, rng)
                    report = verify_program(mutant)
                else:
                    mutated = mutate_kernel(cls.name, subject, rng)
                    report = lint_kernel_source(mutated)
            except NotApplicable:
                continue
            result.applied[cls.name] += 1
            if report.codes() & cls.expected_codes:
                result.caught[cls.name] += 1
            else:
                result.missed.append(
                    (cls.name, i, tuple(sorted(report.codes())))
                )
    return result
