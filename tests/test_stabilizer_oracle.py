"""The packed stabilizer sampler against its byte-per-bit oracle.

``stabilizer_reference.py`` keeps the sampler as it was before its
measurement bits were packed into 64-bit words: one phase-column XOR
per (site, choice, qubit) while lowering, fired choice rows folded one
measurement bit per byte, and strings rendered one cbit at a time. On
random Clifford circuits of 1-70 qubits (measure counts on both sides
of the byte and word boundaries, aliased and unmeasured cbits, random
measurements, noise scaled from none to heavy) the package must equal
it in every lowered bit, every folded bit, every count and the order
of every key, and leave the RNG where the oracle leaves it.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import CalibrationGenerator, square_topology
from repro.ir.circuit import Circuit
from repro.simulator import NoiseModel
from repro.simulator.batch import draw_choices
from repro.simulator.executor import lowered_trace
from repro.simulator.stabilizer.program import (
    StabilizerProgram,
    distinct_strings,
    pack_words,
    sample_stabilizer_counts,
    unpack_words,
)

import stabilizer_reference as reference

#: Measure counts either side of a byte and of a 64-bit word.
BOUNDARY_MEASURES = (0, 1, 7, 8, 9, 63, 64, 65)
ONE_QUBIT = ("h", "s", "sdg", "x", "y", "z")
TWO_QUBIT = ("cx", "cz", "swap")


@functools.lru_cache(maxsize=None)
def _calibration(n_qubits: int):
    return CalibrationGenerator(square_topology(max(n_qubits, 4)),
                                seed=n_qubits).snapshot(0)


def _clifford_trace(n_qubits: int, n_measures: int, n_cbits: int,
                    seed: int, scale: float):
    """A lowered random Clifford program, noise scaled by *scale*."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(n_qubits, n_cbits, name="clifford")
    for _ in range(int(rng.integers(1, 2 * n_qubits + 1))):
        if n_qubits < 2 or rng.random() < 0.5:
            getattr(circuit, ONE_QUBIT[rng.integers(len(ONE_QUBIT))])(
                int(rng.integers(n_qubits)))
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            getattr(circuit, TWO_QUBIT[rng.integers(len(TWO_QUBIT))])(
                int(a), int(b))
    # Measures are terminal per qubit; cbits drawn with replacement
    # alias some and leave others unwritten.
    for q in rng.permutation(n_qubits)[:n_measures]:
        circuit.measure(int(q), int(rng.integers(n_cbits)))
    calibration = _calibration(n_qubits)
    compiled = compile_circuit(circuit, calibration,
                               CompilerOptions.greedy_e())
    trace = lowered_trace(compiled, calibration, NoiseModel(calibration))
    return trace.rescaled(scale) if scale != 1.0 else trace


@st.composite
def clifford_traces(draw):
    n_measures = draw(st.one_of(st.sampled_from(BOUNDARY_MEASURES),
                                st.integers(0, 70)))
    n_qubits = draw(st.integers(max(1, n_measures), 70))
    n_cbits = draw(st.integers(max(1, n_measures - 3), n_measures + 3))
    return _clifford_trace(n_qubits, n_measures, n_cbits,
                           draw(st.integers(0, 2**32 - 1)),
                           draw(st.sampled_from((0.0, 0.05, 1.0, 6.0))))


def _assert_equals_oracle(trace, trials: int, seed: int) -> None:
    """Lowering, fold, counts (key order and RNG use included) and
    ideal distribution all equal the byte-per-bit oracle's."""
    program = StabilizerProgram(trace)
    oracle = reference.ReferenceProgram(trace)
    n_measures = trace.n_measures
    assert program.n_coins == oracle.n_coins
    np.testing.assert_array_equal(program.choice_offset,
                                  oracle.choice_offset)
    np.testing.assert_array_equal(program.meas_const, oracle.meas_const)
    np.testing.assert_array_equal(program.meas_coin, oracle.meas_coin)
    assert program.meas_choice.shape == (-(-n_measures // 64),
                                         oracle.n_choices)
    np.testing.assert_array_equal(
        unpack_words(np.ascontiguousarray(program.meas_choice.T),
                     n_measures),
        oracle.meas_choice)

    # One fold on the occurrence law's own draws.
    rng = np.random.default_rng(seed)
    occurred = rng.random((trials, trace.n_sites)) < trace.site_prob
    fired = reference.draw_choices(trace, occurred, rng)
    coins = (rng.random((trials, program.n_coins)) < 0.5).astype(np.uint8)
    np.testing.assert_array_equal(
        program.measured_bits(coins, *fired, trials),
        oracle.measured_bits(coins, *fired, trials))

    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    counts = sample_stabilizer_counts(trace, trials, ours)
    expected = reference.reference_sample_counts(trace, trials, theirs)
    assert list(counts.items()) == list(expected.items())
    assert ours.bit_generator.state == theirs.bit_generator.state

    assert list(program.ideal_distribution(trace).items()) == \
        list(oracle.ideal_distribution(trace).items())


class TestPackedEqualsOracle:
    @given(trace=clifford_traces(), trials=st.integers(1, 300),
           seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_clifford_programs(self, trace, trials, seed):
        _assert_equals_oracle(trace, trials, seed)

    @pytest.mark.parametrize("n_measures", BOUNDARY_MEASURES)
    @pytest.mark.parametrize("cbits", ["aliased", "spare"])
    def test_byte_and_word_boundaries(self, n_measures, cbits):
        """Every boundary measure count, with fewer cbits than measures
        (aliasing) or more (unmeasured cbits), under noise light enough
        that some trials fire no site."""
        n_cbits = max(1, n_measures - 2) if cbits == "aliased" \
            else n_measures + 3
        trace = _clifford_trace(max(1, n_measures) + 2, n_measures,
                                n_cbits, seed=n_measures, scale=0.05)
        _assert_equals_oracle(trace, 257, seed=n_measures)

    def test_batch_without_fired_sites(self):
        """With no noise at all, no site fires: the fold leaves the
        constants and coins, and only the GHZ strings occur."""
        circuit = Circuit(9, 9, name="ghz9")
        circuit.h(0)
        for q in range(8):
            circuit.cx(q, q + 1)
        circuit.measure_all()
        calibration = _calibration(9)
        trace = lowered_trace(
            compile_circuit(circuit, calibration, CompilerOptions.greedy_e()),
            calibration, NoiseModel(calibration)).rescaled(
                0.0, scale_readout=True)
        program = StabilizerProgram(trace)
        oracle = reference.ReferenceProgram(trace)
        empty = np.zeros(0, dtype=np.int64)
        coins = np.ones((5, program.n_coins), dtype=np.uint8)
        np.testing.assert_array_equal(
            program.measured_bits(coins, empty, empty, empty, 5),
            oracle.measured_bits(coins, empty, empty, empty, 5))
        counts = sample_stabilizer_counts(trace, 100,
                                          np.random.default_rng(0))
        assert set(counts) <= {"0" * 9, "1" * 9}


class TestChoiceDraw:
    @given(seed=st.integers(0, 10_000), trials=st.integers(0, 40),
           n_sites=st.integers(0, 30), density=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_gathered_bounds(self, seed, trials, n_sites, density):
        """Per-column counting equals the gathered ``(F, 14)``
        comparison, in row-major order, with the same RNG use."""
        data = np.random.default_rng(seed)
        cum = np.sort(data.random((n_sites, 14)), axis=1)
        cum[data.random((n_sites, 14)) < 0.3] = 1.0
        cum = np.sort(cum, axis=1)
        trace = SimpleNamespace(site_cum=cum)
        occurred = data.random((trials, n_sites)) < density
        ours = np.random.default_rng(seed + 1)
        theirs = np.random.default_rng(seed + 1)
        for got, want in zip(draw_choices(trace, occurred, ours),
                             reference.draw_choices(trace, occurred,
                                                    theirs)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestRenderer:
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 200),
           n_slots=st.integers(0, 130), extra=st.integers(0, 4),
           density=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_bit_rendering(self, seed, rows, n_slots, extra,
                                       density):
        """Same strings, counts and key order as the per-bit loop, on
        slot widths across byte and word boundaries."""
        data = np.random.default_rng(seed)
        n_cbits = max(1, n_slots + extra)
        trace = SimpleNamespace(
            n_cbits=n_cbits,
            measured_cbits=data.permutation(n_cbits)[:n_slots].tolist())
        slot_bits = (data.random((rows, n_slots)) < density).astype(np.int64)
        # Repeat some rows so counts above one occur.
        slot_bits = slot_bits[data.integers(rows, size=rows)]
        strings, counts, first = distinct_strings(trace, slot_bits)
        expected = reference.count_slot_bits(trace, slot_bits)
        assert list(zip(strings, counts.tolist())) == list(expected.items())
        for string, row in zip(strings, first):
            assert string == reference.render_string(
                SimpleNamespace(n_cbits=n_cbits,
                                measured_cbits=trace.measured_cbits,
                                last_measure_for_cbit=list(range(n_slots))),
                slot_bits[row])


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 128, 130])
def test_pack_words_round_trip(width):
    bits = (np.random.default_rng(width).random((5, width)) < 0.5
            ).astype(np.uint8)
    words = pack_words(bits)
    assert words.dtype == np.uint64
    assert words.shape == (5, -(-width // 64))
    np.testing.assert_array_equal(unpack_words(words, width), bits)
    # XOR on words is XOR on bits.
    np.testing.assert_array_equal(
        unpack_words(words[:1] ^ words[1:2], width), bits[:1] ^ bits[1:2])
