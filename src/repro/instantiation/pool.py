"""An LRU pool of :class:`Instantiater` engines keyed by circuit structure.

Synthesis workloads instantiate *many* circuits that share one template
shape: every frontier candidate of a search round, every gate-deletion
variant of a compression pass.  Each distinct shape costs an AOT
compile (tensor-network lowering, pathfinding, bytecode generation,
TNVM setup) that dwarfs the optimization itself on small templates —
the pool pays it once per shape and hands the compiled engine back for
every structurally identical candidate after that.

The key pairs :meth:`QuditCircuit.structure_key` — radices plus the
sequence of (expression, location, slot-binding) triples, exactly the
information the AOT compiler consumes — with the requested
:class:`~repro.tensornet.OutputContract` itself (a frozen, hashable
dataclass), so a full-unitary engine and a column-specialized engine
for the same template shape coexist in the cache (a synthesis run
that interleaves unitary and state-prep targets keeps both hot).
Hit/miss counters feed the ``engine_cache_hits``/
``engine_cache_misses`` fields of
:class:`~repro.synthesis.SynthesisResult`.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict

from .. import telemetry
from ..circuit.circuit import QuditCircuit
from ..jit.cache import ExpressionCache, global_cache
from ..tensornet.contract import OutputContract
from .instantiater import SUCCESS_THRESHOLD, Instantiater
from .lm import LMOptions

__all__ = ["EnginePool"]


class EnginePool:
    """Least-recently-used cache of reusable instantiation engines.

    Engines are constructed with the pool's settings (strategy,
    precision, threshold, LM options); a pooled engine serves *any*
    circuit whose :meth:`~QuditCircuit.structure_key` matches, because
    structurally identical circuits compile to the same TNVM program
    and a solution's parameters mean the same thing on either.
    """

    def __init__(
        self,
        capacity: int = 32,
        strategy: str = "auto",
        precision: str = "f64",
        cache: ExpressionCache | None = None,
        success_threshold: float = SUCCESS_THRESHOLD,
        lm_options: LMOptions | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.strategy = strategy
        self.precision = precision
        self.cache = cache
        self.success_threshold = success_threshold
        self.lm_options = lm_options
        # Per-pool counters that also feed the process-global telemetry
        # aggregates, so SynthesisResult fields stay exact per pool
        # while BENCH/trace artifacts see the whole-process totals.
        registry = telemetry.metrics()
        self._hits = registry.counter("engine_pool.hits").child()
        self._misses = registry.counter("engine_pool.misses").child()
        self._rehydrates = registry.counter("engine_pool.rehydrates").child()
        self._engines: OrderedDict[tuple, Instantiater] = OrderedDict()
        # Pickled SerializedEngine per structure key: the program store
        # parallel synthesis ships to worker processes.  Serialization
        # is paid once per shape, and the bytes survive engine eviction
        # (an evicted shape rehydrates from them instead of
        # recompiling).  Payloads are much smaller than live engines,
        # so their LRU runs at a multiple of the engine capacity — but
        # still bounded, or a long sweep would accumulate every shape
        # it ever serialized.
        self._payloads: OrderedDict[tuple, bytes] = OrderedDict()
        self._payload_capacity = 4 * capacity

    def __len__(self) -> int:
        return len(self._engines)

    @property
    def hits(self) -> int:
        """Engine-reuse count (also mirrored into the global
        ``engine_pool.hits`` telemetry counter)."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """AOT-compile / rehydrate count (mirrored into
        ``engine_pool.misses``)."""
        return self._misses.value

    def engine_for(
        self, circuit: QuditCircuit, contract: OutputContract | None = None
    ) -> Instantiater:
        """The pooled engine for ``circuit``'s template shape under
        ``contract`` (default: full unitary).

        Distinct contracts are distinct cache entries — a column
        engine never evicts or shadows the full-unitary engine for the
        same shape.  A hit moves the engine to the front of the LRU
        order; a miss AOT-compiles a fresh engine and may evict the
        least recently used one to stay within ``capacity``.
        """
        contract = OutputContract.coerce(contract)
        key = (circuit.structure_key(), contract)
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            self._hits.add()
            return engine
        self._misses.add()
        payload = self._payloads.get(key)
        if payload is not None:
            self._payloads.move_to_end(key)
            # The shape was serialized before its engine was evicted:
            # rehydrating from the snapshot (program and simplified
            # entries; VMs and kernel rebuild on first use) is much
            # cheaper than re-running the AOT compile and is
            # numerically identical.
            self._rehydrates.add()
            with telemetry.tracer().span(
                "engine.rehydrate", category="pool"
            ):
                engine = Instantiater.from_serialized(
                    pickle.loads(payload),
                    cache=(
                        self.cache if self.cache is not None
                        else global_cache()
                    ),
                )
        else:
            with telemetry.tracer().span(
                "engine.compile", category="pool",
                contract=contract.describe(),
            ):
                engine = Instantiater(
                    circuit,
                    precision=self.precision,
                    cache=self.cache,
                    success_threshold=self.success_threshold,
                    lm_options=self.lm_options,
                    strategy=self.strategy,
                    contract=contract,
                )
            telemetry.metrics().histogram("engine_pool.aot_seconds").observe(
                engine.aot_seconds
            )
        self._engines[key] = engine
        while len(self._engines) > self.capacity:
            evicted_key, evicted = self._engines.popitem(last=False)
            # Snapshot on the way out: an evicted shape that was never
            # shipped to a worker would otherwise re-pay the full AOT
            # compile on its next hit, even though the payload LRU
            # exists precisely to make eviction cheap.  Serializing
            # builds no VM and generates no kernel, so it costs far
            # less than recompiling.
            if evicted_key in self._payloads:
                self._payloads.move_to_end(evicted_key)
            else:
                self._store_payload(
                    evicted_key,
                    pickle.dumps(
                        evicted.serialize(),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                )
        return engine

    def _store_payload(self, key: tuple, payload: bytes) -> None:
        """Insert pickled snapshot bytes into the bounded payload LRU."""
        self._payloads[key] = payload
        while len(self._payloads) > self._payload_capacity:
            self._payloads.popitem(last=False)

    def serialized_bytes(
        self, circuit: QuditCircuit, contract: OutputContract | None = None
    ) -> bytes:
        """Pickled :class:`~repro.instantiation.SerializedEngine` bytes
        for ``circuit``'s template shape under ``contract``.

        Resolves the pooled engine first (compiling it here, once, on a
        miss — workers never pay AOT) and caches the pickled snapshot
        per (structure key, contract), so shipping the same shape to
        many workers or tasks costs one serialization total.  Column
        payloads carry the column program (and with it the contract),
        from which a spawn-rehydrated worker engine generates the
        parent's column-specialized megakernel, bit-identical to the
        parent's engine.
        """
        contract = OutputContract.coerce(contract)
        key = (circuit.structure_key(), contract)
        payload = self._payloads.get(key)
        engine = self.engine_for(circuit, contract)
        if payload is None:
            payload = pickle.dumps(
                engine.serialize(), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._store_payload(key, payload)
        else:
            self._payloads.move_to_end(key)
        return payload

    def clear(self) -> None:
        """Drop all pooled engines and payloads (counters preserved)."""
        self._engines.clear()
        self._payloads.clear()

    def __repr__(self) -> str:
        return (
            f"<EnginePool {len(self._engines)}/{self.capacity} engines, "
            f"{self.hits} hits, {self.misses} misses>"
        )
