"""OpenQudit reproduction: extensible and accelerated numerical quantum
compilation via a JIT-compiled DSL (CGO 2026), implemented in Python.

Public API tour::

    from repro import UnitaryExpression, QuditCircuit, TNVM, instantiate

    # 1. Define gate semantics once, in QGL (paper Listing 2).
    rx = UnitaryExpression('''RX(theta) {
        [[cos(theta/2), ~i*sin(theta/2)],
         [~i*sin(theta/2), cos(theta/2)]]
    }''')

    # 2. Build a PQC with cached expressions (paper Listing 4).
    circ = QuditCircuit.pure([2, 2])
    ref = circ.cache_operation(rx)
    circ.append_ref(ref, 0)

    # 3. AOT-compile and evaluate through the TNVM (paper Listing 3).
    code = circ.compile()
    vm = TNVM(code)
    unitary, grad = vm.evaluate_with_grad([0.5])

    # 4. Or run the full instantiation engine.
    result = instantiate(circ, target, starts=8)

Subpackages: ``qgl`` (the DSL front end), ``symbolic`` (IR +
differentiation), ``egraph`` (equality saturation), ``jit`` (expression
compilation + cache), ``tensornet`` (AOT compiler), ``tnvm`` (runtime),
``circuit`` (gate library + builders), ``instantiation`` (LM engine),
``synthesis`` (search/compression passes), ``telemetry`` (spans +
metrics), ``baseline`` (the traditional comparator framework),
``utils``.
"""

import logging as _logging

# Library convention: the ``repro`` logger hierarchy stays silent
# unless the application configures handlers.  Debug-level span
# start/stop records land on ``repro.telemetry`` when REPRO_TRACE_LOG
# is set (see repro.telemetry.tracer).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from . import checkpoint, telemetry
from .checkpoint import CheckpointStore, PreemptedError
from .circuit import (
    FIG5_BENCHMARKS,
    QuditCircuit,
    build_dtc_circuit,
    build_qft_circuit,
    build_qsearch_ansatz,
    fig5_circuit,
    gates,
)
from .expression import UnitaryExpression
from .instantiation import (
    EnginePool,
    Instantiater,
    InstantiationResult,
    LMOptions,
    instantiate,
)
from .jit import ExpressionCache, global_cache
from .synthesis import (
    CustomLayerGenerator,
    PartitionedSynthesizer,
    QSearchLayerGenerator,
    Resynthesizer,
    SynthesisResult,
    SynthesisSearch,
)
from .tensornet import OutputContract, compile_network
from .tnvm import TNVM, BatchedTNVM, Differentiation
from .utils import hilbert_schmidt_infidelity, random_unitary

__version__ = "1.0.0"

__all__ = [
    "telemetry",
    "checkpoint",
    "CheckpointStore",
    "PreemptedError",
    "UnitaryExpression",
    "QuditCircuit",
    "TNVM",
    "BatchedTNVM",
    "Differentiation",
    "OutputContract",
    "compile_network",
    "ExpressionCache",
    "global_cache",
    "Instantiater",
    "EnginePool",
    "InstantiationResult",
    "LMOptions",
    "instantiate",
    "SynthesisSearch",
    "SynthesisResult",
    "Resynthesizer",
    "PartitionedSynthesizer",
    "QSearchLayerGenerator",
    "CustomLayerGenerator",
    "gates",
    "build_qft_circuit",
    "build_dtc_circuit",
    "build_qsearch_ansatz",
    "fig5_circuit",
    "FIG5_BENCHMARKS",
    "random_unitary",
    "hilbert_schmidt_infidelity",
    "__version__",
]
