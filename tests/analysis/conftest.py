"""Shared subjects for the static-verification suite.

Session-scoped clean programs and fused-kernel sources covering every
relevant shape: qubit/qutrit radices, fused and unfused bytecode,
hoisted and unhoisted constant sections, full and column contracts
(the only contracts a program is compiled for), grad/no-grad kernels,
and kernels with shared parameters, gathered rows and duplicated
slots.
"""

from __future__ import annotations

import pytest

from repro.circuit import (
    build_dtc_circuit,
    build_qft_circuit,
    build_qsearch_ansatz,
)
from repro.tensornet.contract import OutputContract
from repro.tnvm import TNVM, Differentiation
from repro.tnvm.fused import fused_kernel_for

from ..tnvm.test_fused import PROGRAMS as ZOO

PROGRAM_BUILDERS = {
    "ansatz-2q": lambda: build_qsearch_ansatz(2, 2, 2).compile(),
    "ansatz-3q": lambda: build_qsearch_ansatz(3, 4, 2).compile(),
    "ansatz-qutrit": lambda: build_qsearch_ansatz(2, 2, 3).compile(),
    "qft-3": lambda: build_qft_circuit(3).compile(),
    "dtc-3": lambda: build_dtc_circuit(3, 2).compile(),
    "no-fusion": lambda: build_qsearch_ansatz(3, 4, 2).compile(
        fusion=False
    ),
    "no-hoist": lambda: build_qsearch_ansatz(3, 4, 2).compile(
        hoist_constants=False
    ),
    "column": lambda: build_qsearch_ansatz(3, 4, 2).compile(
        contract=OutputContract.column(0)
    ),
    "column-qutrit": lambda: build_qsearch_ansatz(2, 2, 3).compile(
        contract=OutputContract.column(1)
    ),
}


@pytest.fixture(scope="session")
def clean_programs():
    return {name: build() for name, build in PROGRAM_BUILDERS.items()}


#: ``test_fused`` zoo programs whose kernels reach the generator's
#: rarer paths: a parameter on both operands of a product (its
#: product-rule addend through a scratch), B-only rows gathered around
#: it, and duplicated WRITE slots (scatter accumulate)
ZOO_KERNELS = (
    "kron-product-rule",
    "matmul-overlap",
    "matmul-gather",
    "scatter-write",
    "hadamard-overlap",
)


@pytest.fixture(scope="session")
def clean_kernels(clean_programs):
    """(name, grad) -> FusedKernel for a subject spread."""
    programs = {
        name: clean_programs[name]
        for name in ("ansatz-2q", "ansatz-qutrit", "column", "dtc-3")
    }
    programs.update((name, ZOO[name]()) for name in ZOO_KERNELS)
    kernels = {}
    for name, program in programs.items():
        vm = TNVM(program, diff=Differentiation.NONE)
        for grad in (False, True):
            kernels[(name, grad)] = fused_kernel_for(
                program, vm.compiled, grad=grad
            )
    return kernels
