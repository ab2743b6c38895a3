"""The TNVM bytecode: Table II instruction set and program container.

Instructions act on abstract, labeled buffers.  The program is split
into two sections (paper section IV-A): a *constant* section executed
once at TNVM initialization (subtrees independent of every circuit
parameter) and a *dynamic* section executed on every evaluation.

Every instruction is annotated with the sorted set of circuit-parameter
indices its output depends on; the TNVM uses this to specialize each
instruction for forward-mode automatic differentiation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, fields
from typing import Any

from ..symbolic.matrix import ExpressionMatrix

__all__ = [
    "OPCODES",
    "Instruction",
    "BufferSpec",
    "Program",
]

#: The Table II opcode set.
OPCODES = ("WRITE", "MATMUL", "KRON", "HADAMARD", "TRANSPOSE")


@dataclass(frozen=True)
class Instruction:
    """One bytecode instruction.

    Operand meaning by opcode (matching Table II):

    WRITE      ``expr_id``; ``out_buf``; ``slots`` maps the referenced
               expression's parameters to circuit parameter indices.
    MATMUL     ``a_buf (m,k)`` @ ``b_buf (k,n)`` -> ``out_buf (m,n)``;
               matrix shapes are carried in ``a_shape``/``b_shape``.
    KRON       Kronecker product of ``a_buf`` viewed as ``a_shape`` and
               ``b_buf`` viewed as ``b_shape``.
    HADAMARD   element-wise product, both operands viewed as ``a_shape``.
    TRANSPOSE  fused reshape(``shape``)-permute(``perm``)-reshape of
               ``a_buf`` into ``out_buf``.
    """

    opcode: str
    out_buf: int
    a_buf: int = -1
    b_buf: int = -1
    expr_id: int = -1
    slots: tuple[int, ...] = ()
    a_shape: tuple[int, ...] = ()
    b_shape: tuple[int, ...] = ()
    shape: tuple[int, ...] = ()
    perm: tuple[int, ...] = ()
    #: sorted circuit-parameter indices the output depends on
    params: tuple[int, ...] = ()

    def render(self) -> str:
        if self.opcode == "WRITE":
            return (
                f"WRITE     e{self.expr_id}{list(self.slots)} "
                f"-> b{self.out_buf}"
            )
        if self.opcode in ("MATMUL", "KRON", "HADAMARD"):
            return (
                f"{self.opcode:<9} b{self.a_buf}{list(self.a_shape)} "
                f"b{self.b_buf}{list(self.b_shape)} -> b{self.out_buf}"
            )
        return (
            f"TRANSPOSE b{self.a_buf} shape={list(self.shape)} "
            f"perm={list(self.perm)} -> b{self.out_buf}"
        )


@dataclass(frozen=True)
class BufferSpec:
    """An abstract buffer: flat element count plus parameter deps."""

    buffer_id: int
    size: int
    params: tuple[int, ...]
    constant: bool


@dataclass
class Program:
    """An AOT-compiled tensor-network bytecode program."""

    num_params: int
    radices: tuple[int, ...]
    expressions: list[ExpressionMatrix] = field(default_factory=list)
    buffers: list[BufferSpec] = field(default_factory=list)
    const_section: list[Instruction] = field(default_factory=list)
    dynamic_section: list[Instruction] = field(default_factory=list)
    output_buffer: int = -1
    output_shape: tuple[int, int] = (1, 1)
    #: the output contract's bytecode identity — ``("full",)`` or
    #: ``("column", j)`` (see :mod:`repro.tensornet.contract`); VMs
    #: and serialized engines take their contract from this
    contract: tuple[str | int, ...] = ("full",)

    @property
    def dim(self) -> int:
        return self.output_shape[0]

    @property
    def num_instructions(self) -> int:
        return len(self.const_section) + len(self.dynamic_section)

    @property
    def memory_elements(self) -> int:
        """Total complex elements across all buffers (the single
        contiguous region the TNVM allocates)."""
        return sum(b.size for b in self.buffers)

    # ------------------------------------------------------------------
    # Serialization (engine-pool sharing across processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        """Pickle the declared fields only.

        The scalar TNVM caches generated megakernels on the
        instance (``_fused_kernels``); those ship explicitly with
        :class:`~repro.instantiation.SerializedEngine`, so program
        bytes stay lean and cache state never leaks through
        :meth:`to_bytes`.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_bytes(self) -> bytes:
        """A compact, process-portable serialized form.

        Instructions and buffer specs are plain dataclasses and the
        expression matrices pickle through the symbolic layer's
        re-interning reducers, so a program AOT-compiled in one process
        can be shipped to a worker and rehydrated with
        :meth:`from_bytes` instead of re-paying the compile there.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(data: bytes) -> Program:
        """Rehydrate a program serialized with :meth:`to_bytes`."""
        program = pickle.loads(data)
        if not isinstance(program, Program):
            raise TypeError(
                f"serialized object is {type(program).__name__}, "
                "not a Program"
            )
        return program

    def disassemble(self) -> str:
        """Human-readable listing of both sections."""
        lines = [
            f"; program: {self.num_params} params, "
            f"{len(self.buffers)} buffers, "
            f"{self.memory_elements} complex elements",
        ]
        lines.append("; constant section")
        for instr in self.const_section:
            lines.append("  " + instr.render())
        lines.append("; dynamic section")
        for instr in self.dynamic_section:
            lines.append("  " + instr.render())
        lines.append(
            f"; output: b{self.output_buffer} "
            f"{self.output_shape[0]}x{self.output_shape[1]} "
            f"contract={self.contract!r}"
        )
        return "\n".join(lines)

    def validate(self) -> None:
        """Internal consistency checks (used heavily by tests)."""
        n_buf = len(self.buffers)
        n_expr = len(self.expressions)
        seen_written: set[int] = set()
        for section, constant in (
            (self.const_section, True),
            (self.dynamic_section, False),
        ):
            for instr in section:
                if instr.opcode not in OPCODES:
                    raise ValueError(f"bad opcode {instr.opcode}")
                if not 0 <= instr.out_buf < n_buf:
                    raise ValueError("out_buf out of range")
                if self.buffers[instr.out_buf].constant != constant:
                    raise ValueError(
                        "instruction writes a buffer of the wrong section"
                    )
                for operand in (instr.a_buf, instr.b_buf):
                    if operand == -1:
                        continue
                    if not 0 <= operand < n_buf:
                        raise ValueError("operand buffer out of range")
                    if operand not in seen_written:
                        raise ValueError(
                            f"buffer b{operand} read before written"
                        )
                if instr.opcode == "WRITE":
                    if not 0 <= instr.expr_id < n_expr:
                        raise ValueError("expr_id out of range")
                    expr = self.expressions[instr.expr_id]
                    if len(instr.slots) != expr.num_params:
                        raise ValueError("slot arity mismatch")
                seen_written.add(instr.out_buf)
        if self.output_buffer not in seen_written and self.buffers:
            raise ValueError("output buffer never written")
