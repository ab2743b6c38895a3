"""The Tensor Network Virtual Machine runtime."""

from ..tensornet.contract import FULL_UNITARY, OutputContract
from .buffers import MemoryPlan
from .fused import FusedKernel, bind_fused_kernel, generate_fused_kernel
from .vm import TNVM, BatchedTNVM, Differentiation

__all__ = [
    "TNVM",
    "BatchedTNVM",
    "Differentiation",
    "OutputContract",
    "FULL_UNITARY",
    "MemoryPlan",
    "FusedKernel",
    "generate_fused_kernel",
    "bind_fused_kernel",
]
