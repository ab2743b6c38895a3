"""Compilation must not depend on ``PYTHONHASHSEED``.

String hashing is randomized per process, so any set of e-nodes (whose
operators are strings) iterates in a different order in every fresh
interpreter.  E-class nodes are kept in insertion order instead; this
test runs, in three processes with different hash seeds, and demands
identical output from:

* the whole gate library, simplified with and without gradients: the
  simplified entries and the scalar and batched writer sources
  generated from them;
* the five Figure 5 circuits, compiled end to end under the full
  unitary and the ``COLUMN(0)`` contracts: both instruction sections,
  the simplified entries of every expression the VM fetches, and the
  scalar gradient megakernel source.

Engine payloads ship only programs and entries, and each worker
regenerates its writers and megakernel from them, so this
cross-process identity is what keeps results bit-identical across
worker counts.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import hashlib

from repro.circuit import FIG5_BENCHMARKS, fig5_circuit, gates
from repro.jit.cache import ExpressionCache
from repro.jit.compiled import CompiledExpression
from repro.symbolic import expr as E
from repro.tensornet import FULL_UNITARY, OutputContract
from repro.tnvm import TNVM

PARAMETRIZED = {
    "shift": (3,), "clock": (3,), "qudit_hadamard": (3,), "csum": (3,),
    "embedded_u3": (3, 0, 1), "rdiag": (3,),
}
library = {}
for name in gates.__all__:
    gate = getattr(gates, name)(*PARAMETRIZED.get(name, ()))
    library.setdefault(gate.name, gate)

def hash_entries(digest, compiled):
    for entries in compiled.entries:
        for _, re_e, im_e in entries:
            for root in (re_e, im_e):
                digest.update(E.to_sexpr(root).encode() + b"\n")


digest = hashlib.sha256()
for gate in library.values():
    for grad in (False, True):
        compiled = CompiledExpression(gate.matrix, grad=grad)
        hash_entries(digest, compiled)
        digest.update(compiled.source.encode())
        digest.update(compiled._writer(True).source.encode())
        digest.update(repr(compiled.total_cost).encode())

programs = hashlib.sha256()
cache = ExpressionCache()
for name in FIG5_BENCHMARKS:
    for contract in (FULL_UNITARY, OutputContract.column(0)):
        program = fig5_circuit(name).compile(contract=contract)
        for instr in program.const_section + program.dynamic_section:
            programs.update(repr(instr).encode() + b"\n")
        vm = TNVM(program, cache=cache)
        for compiled in vm.compiled:
            hash_entries(programs, compiled)
        programs.update(vm.fused_kernel.source.encode())
print(len(library), digest.hexdigest(), programs.hexdigest())
"""


def test_simplified_gates_do_not_depend_on_hash_seed():
    procs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out.strip())
    assert int(outputs[0].split()[0]) >= 30  # the whole library ran
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
