"""Abstract interpretation over TNVM bytecode.

:func:`verify_program` runs a compiled
:class:`~repro.tensornet.bytecode.Program` through an abstract
interpreter that tracks, per buffer, the flat element count the
declared :class:`~repro.tensornet.bytecode.BufferSpec` promises, the
write/read history across both program sections, and the
parameter-dependency metadata the TNVM's forward-AD specialization
relies on.  It rejects:

* operand shape mismatches per opcode — ``MATMUL (m,k)@(k,n)``,
  ``KRON``/``HADAMARD`` view-size errors, ``TRANSPOSE`` with an
  invalid ``perm`` or a size-changing reshape;
* use-before-def and dead / overwritten-never-read buffers, across
  the constant/dynamic section boundary (the constant section runs
  once before any dynamic sweep);
* ``expr_id`` / ``slots`` references outside the expression table or
  the circuit parameter space, and slot-arity mismatches;
* unsound forward-AD metadata: an instruction's ``params`` must cover
  the union of its operands' parameter deps (plus its own ``slots``
  for ``WRITE``), must agree with its output buffer's declared deps,
  and must be sorted, unique, and in range — exactly the invariants
  the TNVM's gradient specialization assumes;
* contract inconsistency: the final buffer's shape must match the
  program's compiled :class:`~repro.tensornet.OutputContract` —
  ``D x D`` for ``FULL_UNITARY``, ``D x 1`` for ``COLUMN`` — for the
  program's radices.  This is the only contract check: VMs and
  serialized engines take their contract from the program.

The verifier is pure analysis: it never executes bytecode, allocates
arenas, or evaluates expressions, so it is safe to run on untrusted
(e.g. deserialized) programs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .report import VerificationReport

if TYPE_CHECKING:
    from ..tensornet.bytecode import Instruction, Program

__all__ = ["verify_program"]

_OPCODES = ("WRITE", "MATMUL", "KRON", "HADAMARD", "TRANSPOSE")

#: codes emitted by this module (documented for the mutation corpus)
PROGRAM_VIOLATION_CODES = (
    "bad-opcode",
    "bad-buffer-ref",
    "bad-expr-ref",
    "bad-slot",
    "slot-arity",
    "operand-shape",
    "bad-transpose",
    "use-before-def",
    "double-write",
    "dead-buffer",
    "never-written",
    "param-deps",
    "section",
    "contract",
    "output",
)


class _BufferState:
    """Abstract state of one buffer during interpretation."""

    __slots__ = ("size", "params", "constant", "written", "read", "pending")

    def __init__(
        self, size: int, params: tuple[int, ...], constant: bool
    ) -> None:
        self.size = size
        self.params = params
        self.constant = constant
        #: has any instruction written this buffer yet?
        self.written = False
        #: has any instruction ever read this buffer?
        self.read = False
        #: last write not yet observed by a read (overwrite detection)
        self.pending: str | None = None


def verify_program(
    program: Program, subject: str | None = None
) -> VerificationReport:
    """Statically verify ``program``; returns the full report.

    The report is never raised from here — boundary wiring calls
    :meth:`~repro.analysis.report.VerificationReport.raise_if_failed`.
    """
    name = subject if subject is not None else _describe(program)
    report = VerificationReport(subject=name)
    checker = _ProgramChecker(program, report)
    checker.run()
    return report


def _describe(program: Program) -> str:
    return (
        f"program[{program.num_params}p "
        f"r={list(program.radices)} "
        f"contract={tuple(program.contract)!r}]"
    )


class _ProgramChecker:
    def __init__(
        self, program: Program, report: VerificationReport
    ) -> None:
        self.program = program
        self.report = report
        self.num_params = int(program.num_params)
        self.buffers: list[_BufferState] = []
        for spec in program.buffers:
            self.buffers.append(
                _BufferState(
                    int(spec.size),
                    tuple(spec.params),
                    bool(spec.constant),
                )
            )

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._check_header()
        self._check_buffer_table()
        for pos, instr in enumerate(self.program.const_section):
            self._check_instruction(instr, f"const[{pos}]", constant=True)
        for pos, instr in enumerate(self.program.dynamic_section):
            self._check_instruction(
                instr, f"dynamic[{pos}]", constant=False
            )
        self._check_liveness()
        self._check_contract()

    # ------------------------------------------------------------------
    def _check_header(self) -> None:
        if self.num_params < 0:
            self.report.add(
                "param-deps",
                f"num_params is negative ({self.num_params})",
            )
        for r in self.program.radices:
            if int(r) < 1:
                self.report.add(
                    "contract", f"invalid radix {r} in {self.program.radices}"
                )

    def _check_buffer_table(self) -> None:
        for i, state in enumerate(self.buffers):
            if state.size < 1:
                self.report.add(
                    "bad-buffer-ref",
                    f"buffer b{i} declares non-positive size {state.size}",
                    where=f"b{i}",
                )
            bad = self._bad_param_tuple(state.params)
            if bad:
                self.report.add(
                    "param-deps",
                    f"buffer b{i} param deps {list(state.params)}: {bad}",
                    where=f"b{i}",
                )

    def _bad_param_tuple(self, params: tuple[int, ...]) -> str | None:
        """Why a ``params`` tuple is malformed, or None if fine.

        Single strictly-increasing pass: this runs twice per
        instruction plus once per buffer-table entry, so it stays
        allocation-free.
        """
        num_params = self.num_params
        prev = -1
        for p in params:
            if not 0 <= int(p) < num_params:
                return f"index {p} outside [0, {num_params})"
            if p <= prev:
                return "not sorted-unique"
            prev = p
        return None

    # ------------------------------------------------------------------
    # Per-instruction interpretation
    # ------------------------------------------------------------------
    def _check_instruction(
        self, instr: Instruction, where: str, constant: bool
    ) -> None:
        if instr.opcode not in _OPCODES:
            self.report.add(
                "bad-opcode", f"unknown opcode {instr.opcode!r}", where
            )
            return

        # Output buffer and section discipline.
        out = instr.out_buf
        out_state = self._buffer(out, where, role="out_buf")
        if out_state is not None and out_state.constant != constant:
            self.report.add(
                "section",
                f"{instr.opcode} in the "
                f"{'constant' if constant else 'dynamic'} section writes "
                f"b{out}, declared "
                f"{'constant' if out_state.constant else 'dynamic'}",
                where,
            )

        # Parameter metadata (the forward-AD invariants).
        bad = self._bad_param_tuple(tuple(instr.params))
        if bad:
            self.report.add(
                "param-deps",
                f"instruction params {list(instr.params)}: {bad}",
                where,
            )
        if constant and instr.params:
            self.report.add(
                "section",
                "constant-section instruction depends on parameters "
                f"{list(instr.params)}",
                where,
            )
        if out_state is not None and out_state.params != tuple(instr.params):
            self.report.add(
                "param-deps",
                f"instruction params {list(instr.params)} disagree with "
                f"output buffer b{out} deps {list(out_state.params)}",
                where,
            )

        deps: set[int] = set()
        if instr.opcode == "WRITE":
            self._check_write(instr, where, deps)
        else:
            for role, buf in (("a_buf", instr.a_buf), ("b_buf", instr.b_buf)):
                if buf == -1:
                    if instr.opcode != "TRANSPOSE" or role == "a_buf":
                        if instr.opcode == "TRANSPOSE" and role == "a_buf":
                            self.report.add(
                                "bad-buffer-ref",
                                "TRANSPOSE has no input operand",
                                where,
                            )
                        elif instr.opcode != "TRANSPOSE":
                            self.report.add(
                                "bad-buffer-ref",
                                f"{instr.opcode} missing operand {role}",
                                where,
                            )
                    continue
                state = self._buffer(buf, where, role=role)
                if state is None:
                    continue
                self._read(buf, state, where)
                deps |= set(state.params)
            if instr.opcode in ("MATMUL", "KRON", "HADAMARD"):
                self._check_product_shapes(instr, where)
            else:
                self._check_transpose(instr, where)

        missing = deps - set(instr.params)
        if missing:
            self.report.add(
                "param-deps",
                "instruction params must cover operand deps; missing "
                f"{sorted(missing)} (params={list(instr.params)})",
                where,
            )

        # Finally: the write itself.
        if out_state is not None:
            if out_state.pending is not None:
                self.report.add(
                    "double-write",
                    f"b{out} overwritten before its value written at "
                    f"{out_state.pending} was ever read",
                    where,
                )
            out_state.written = True
            out_state.pending = where

    def _buffer(
        self, buf: int, where: str, role: str
    ) -> _BufferState | None:
        if not 0 <= buf < len(self.buffers):
            self.report.add(
                "bad-buffer-ref",
                f"{role} b{buf} outside the buffer table "
                f"(0..{len(self.buffers) - 1})",
                where,
            )
            return None
        return self.buffers[buf]

    def _read(self, buf: int, state: _BufferState, where: str) -> None:
        if not state.written:
            self.report.add(
                "use-before-def",
                f"b{buf} read before any instruction writes it",
                where,
            )
        state.read = True
        state.pending = None

    # -- WRITE ---------------------------------------------------------
    def _check_write(
        self, instr: Instruction, where: str, deps: set[int]
    ) -> None:
        n_expr = len(self.program.expressions)
        if not 0 <= instr.expr_id < n_expr:
            self.report.add(
                "bad-expr-ref",
                f"expr_id e{instr.expr_id} outside the expression table "
                f"(0..{n_expr - 1})",
                where,
            )
            return
        expr = self.program.expressions[instr.expr_id]
        if len(instr.slots) != expr.num_params:
            self.report.add(
                "slot-arity",
                f"expression e{instr.expr_id} takes {expr.num_params} "
                f"parameters but {len(instr.slots)} slots are bound",
                where,
            )
        for slot in instr.slots:
            if not 0 <= int(slot) < self.num_params:
                self.report.add(
                    "bad-slot",
                    f"slot {slot} outside the circuit parameter space "
                    f"[0, {self.num_params})",
                    where,
                )
            else:
                deps.add(int(slot))
        rows, cols = expr.shape
        self._expect_size(
            instr.out_buf,
            rows * cols,
            where,
            f"WRITE of e{instr.expr_id} with shape {rows}x{cols}",
        )

    # -- MATMUL / KRON / HADAMARD --------------------------------------
    def _check_product_shapes(
        self, instr: Instruction, where: str
    ) -> None:
        a_shape = tuple(int(s) for s in instr.a_shape)
        b_shape = tuple(int(s) for s in instr.b_shape)
        if instr.opcode == "HADAMARD":
            b_shape = a_shape
        for label, shape in (("a_shape", a_shape), ("b_shape", b_shape)):
            if not shape or any(s < 1 for s in shape):
                self.report.add(
                    "operand-shape",
                    f"{instr.opcode} {label} {list(shape)} is not a "
                    "positive shape",
                    where,
                )
                return
        if instr.opcode == "MATMUL":
            if len(a_shape) != 2 or len(b_shape) != 2:
                self.report.add(
                    "operand-shape",
                    "MATMUL operands must be 2-D views, got "
                    f"{list(a_shape)} @ {list(b_shape)}",
                    where,
                )
                return
            m, k = a_shape
            k2, n = b_shape
            if k != k2:
                self.report.add(
                    "operand-shape",
                    f"MATMUL inner dimensions disagree: "
                    f"({m},{k}) @ ({k2},{n})",
                    where,
                )
            out_size = m * n
        elif instr.opcode == "KRON":
            out_size = math.prod(a_shape) * math.prod(b_shape)
        else:  # HADAMARD: both operands viewed as a_shape
            out_size = math.prod(a_shape)
        self._expect_view(instr.a_buf, a_shape, where, instr.opcode, "a_buf")
        if instr.b_buf != -1:
            self._expect_view(
                instr.b_buf, b_shape, where, instr.opcode, "b_buf"
            )
        self._expect_size(
            instr.out_buf, out_size, where, f"{instr.opcode} result"
        )

    # -- TRANSPOSE -----------------------------------------------------
    def _check_transpose(self, instr: Instruction, where: str) -> None:
        shape = tuple(int(s) for s in instr.shape)
        perm = tuple(int(p) for p in instr.perm)
        if not shape or any(s < 1 for s in shape):
            self.report.add(
                "bad-transpose",
                f"TRANSPOSE shape {list(shape)} is not a positive shape",
                where,
            )
            return
        if sorted(perm) != list(range(len(shape))):
            self.report.add(
                "bad-transpose",
                f"perm {list(perm)} is not a permutation of the "
                f"{len(shape)} axes of shape {list(shape)}",
                where,
            )
            return
        size = math.prod(shape)
        self._expect_view(instr.a_buf, shape, where, "TRANSPOSE", "a_buf")
        # A transpose permutes; it can never change the element count.
        self._expect_size(
            instr.out_buf, size, where, "TRANSPOSE result (size-preserving)"
        )

    # -- shape/size helpers --------------------------------------------
    def _expect_view(
        self,
        buf: int,
        shape: tuple[int, ...],
        where: str,
        opcode: str,
        role: str,
    ) -> None:
        if not 0 <= buf < len(self.buffers):
            return  # bad-buffer-ref already reported
        want = math.prod(shape)
        have = self.buffers[buf].size
        if want != have:
            self.report.add(
                "operand-shape",
                f"{opcode} views {role} b{buf} as {list(shape)} "
                f"({want} elements) but the buffer holds {have}",
                where,
            )

    def _expect_size(
        self, buf: int, size: int, where: str, what: str
    ) -> None:
        if not 0 <= buf < len(self.buffers):
            return
        have = self.buffers[buf].size
        if size != have:
            self.report.add(
                "operand-shape",
                f"{what} needs {size} elements but out_buf b{buf} "
                f"holds {have}",
                where,
            )

    # ------------------------------------------------------------------
    # Whole-program analyses
    # ------------------------------------------------------------------
    def _check_liveness(self) -> None:
        out = self.program.output_buffer
        for i, state in enumerate(self.buffers):
            if not state.written:
                self.report.add(
                    "never-written",
                    f"buffer b{i} is allocated but no instruction "
                    "writes it",
                    where=f"b{i}",
                )
            elif not state.read and i != out:
                self.report.add(
                    "dead-buffer",
                    f"buffer b{i} is written but never read and is not "
                    "the output buffer",
                    where=f"b{i}",
                )

    def _check_contract(self) -> None:
        from ..tensornet.contract import OutputContract

        out = self.program.output_buffer
        if not 0 <= out < len(self.buffers):
            self.report.add(
                "output",
                f"output buffer b{out} outside the buffer table",
            )
            return
        if not self.buffers[out].written:
            self.report.add(
                "output", f"output buffer b{out} is never written"
            )
        dim = math.prod(int(r) for r in self.program.radices)
        try:
            contract = OutputContract.from_program_key(self.program.contract)
        except (ValueError, TypeError) as exc:
            self.report.add("contract", str(exc))
            return
        if contract.column_based and not 0 <= contract.column_index < dim:
            self.report.add(
                "contract",
                f"column index {contract.column_index} outside the "
                f"program's dimension {dim}",
            )
            return
        want_shape = contract.output_shape(dim)
        have_shape = tuple(int(s) for s in self.program.output_shape)
        if have_shape != want_shape:
            self.report.add(
                "contract",
                f"contract {contract.describe()} over radices "
                f"{list(self.program.radices)} requires output shape "
                f"{want_shape}, program declares {have_shape}",
            )
        want_size = want_shape[0] * want_shape[1]
        if self.buffers[out].size != want_size:
            self.report.add(
                "contract",
                f"output buffer b{out} holds {self.buffers[out].size} "
                f"elements; contract {contract.describe()} requires "
                f"{want_size}",
            )
