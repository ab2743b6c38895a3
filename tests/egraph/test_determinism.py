"""The simplifier's output must not depend on ``PYTHONHASHSEED``.

String hashing is randomized per process, so any set of e-nodes (whose
operators are strings) iterates in a different order in every fresh
interpreter.  E-class nodes are kept in insertion order instead; this
test simplifies the whole gate library, with and without gradients, in
three processes with different hash seeds and demands identical output:
the simplified entries and the scalar and batched writer sources
generated from them.  Engine payloads ship entries, and each worker
regenerates its writers, so this cross-process identity is what keeps
results bit-identical across worker counts.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import hashlib

from repro.circuit import gates
from repro.jit.compiled import CompiledExpression
from repro.symbolic import expr as E

PARAMETRIZED = {
    "shift": (3,), "clock": (3,), "qudit_hadamard": (3,), "csum": (3,),
    "embedded_u3": (3, 0, 1), "rdiag": (3,),
}
library = {}
for name in gates.__all__:
    gate = getattr(gates, name)(*PARAMETRIZED.get(name, ()))
    library.setdefault(gate.name, gate)

digest = hashlib.sha256()
for gate in library.values():
    for grad in (False, True):
        compiled = CompiledExpression(gate.matrix, grad=grad)
        for entries in compiled.entries:
            for _, re_e, im_e in entries:
                for root in (re_e, im_e):
                    digest.update(E.to_sexpr(root).encode() + b"\n")
        digest.update(compiled.source.encode())
        digest.update(compiled._writer(True).source.encode())
        digest.update(repr(compiled.total_cost).encode())
print(len(library), digest.hexdigest())
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
