"""State-preparation synthesis tests: the acceptance-bar scenarios.

A GHZ-3 preparation circuit must synthesize to threshold with
bit-identical results across worker counts (1 vs 2), and state targets
must flow through the compression pass and the shared engine pool.
"""

import numpy as np
import pytest

from repro.instantiation import EnginePool
from repro.synthesis import Resynthesizer, SynthesisSearch
from repro.utils import Statevector, state_prep_infidelity


def result_snapshot(result):
    return (
        result.circuit.structure_key(),
        tuple(np.asarray(result.params).tolist()),
        result.infidelity,
        result.instantiation_calls,
    )


class TestStateSearch:
    def test_ghz2_synthesizes(self):
        search = SynthesisSearch()
        result = search.synthesize(Statevector.ghz(2), rng=0)
        assert result.success
        assert result.count("CX") == 1  # GHZ-2 (Bell) needs one CX
        prepared = result.circuit.get_unitary(result.params)
        assert state_prep_infidelity(Statevector.ghz(2), prepared) < 1e-8

    def test_ghz3_synthesizes_to_threshold(self):
        search = SynthesisSearch()
        result = search.synthesize(Statevector.ghz(3), rng=7)
        assert result.success
        assert result.infidelity <= search.success_threshold
        assert result.count("CX") == 2  # GHZ-3 needs two entanglers
        sv = Statevector([2, 2, 2]).apply_unitary(
            result.circuit.get_unitary(result.params)
        )
        assert Statevector.ghz(3).fidelity(sv) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_radices_come_from_the_statevector(self):
        # A two-qutrit state: no explicit radices, taken from the
        # Statevector itself (dim 9 would otherwise infer (3, 3) too,
        # but the state carries them authoritatively).  |00> is the
        # only state the default diagonal-phase + CSUM qutrit gate set
        # can reach from |00>, so the root template already fits.
        search = SynthesisSearch()
        result = search.synthesize(Statevector([3, 3]), rng=3)
        assert result.circuit.radices == (3, 3)
        assert result.success

    def test_amplitude_vector_target(self):
        search = SynthesisSearch()
        amps = Statevector.ghz(2).amplitudes
        r1 = search.synthesize(amps, rng=0)
        r2 = search.synthesize(Statevector.ghz(2), rng=0)
        assert result_snapshot(r1) == result_snapshot(r2)

    def test_rejects_bad_target_rank(self):
        with pytest.raises(ValueError):
            SynthesisSearch().synthesize(np.zeros((2, 2, 2)), rng=0)

    def test_workers_bit_identical(self):
        ghz = Statevector.ghz(3)
        serial = SynthesisSearch(expansion_width=2).synthesize(ghz, rng=7)
        with SynthesisSearch(workers=2, expansion_width=2) as parallel:
            spawned = parallel.synthesize(ghz, rng=7)
        assert result_snapshot(serial) == result_snapshot(spawned)
        assert spawned.workers == 2

    def test_state_and_unitary_engines_coexist_in_the_pool(self):
        # Engines are keyed by (structure, contract): a state pass
        # warms COLUMN(0) engines, a unitary pass over the same shapes
        # compiles its own FULL engines — and neither evicts or
        # shadows the other, so a repeat of either pass is all hits.
        pool = EnginePool()
        search = SynthesisSearch(pool=pool)
        r1 = search.synthesize(Statevector.ghz(2), rng=0)
        misses_after_state = pool.misses
        search.synthesize(Statevector.ghz(2), rng=0)
        # Same state pass again: every column engine is already pooled.
        assert pool.misses == misses_after_state
        target = r1.circuit.get_unitary(r1.params)
        search.synthesize(target, rng=1)
        misses_after_unitary = pool.misses
        # The unitary pass needed its own full-unitary engines...
        assert misses_after_unitary > misses_after_state
        # ...but did not displace the column engines: re-running both
        # passes adds no further misses.
        search.synthesize(Statevector.ghz(2), rng=0)
        search.synthesize(target, rng=1)
        assert pool.misses == misses_after_unitary


class TestStateResynthesis:
    def test_compression_against_state_target(self):
        # Preserving U|0> is weaker than preserving U: an over-deep
        # prep circuit compresses further against the state.
        ghz = Statevector.ghz(2)
        search = SynthesisSearch()
        found = search.synthesize(ghz, rng=0)
        assert found.success
        resynth = Resynthesizer(pool=search.pool)
        compressed = resynth.resynthesize(
            found.circuit, found.params, target=ghz, rng=2
        )
        assert compressed.success
        assert (
            compressed.circuit.num_operations
            <= found.circuit.num_operations
        )
        prepared = compressed.circuit.get_unitary(compressed.params)
        assert state_prep_infidelity(ghz, prepared) < 1e-8
