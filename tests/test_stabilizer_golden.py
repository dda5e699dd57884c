"""Pinned stabilizer-engine counts and ideal distributions.

Every entry of ``stabilizer_golden.json`` is one ``engine="stabilizer"``
execution: the sha256 of ``repr(list(counts.items()))`` and of
``repr(list(ideal_distribution.items()))``, so a changed count, a
changed key or a changed key order all move a digest. The cases cover
perfbench's ``scale_ladder`` GHZ-mirror cells at both device seeds,
BV64 on ``grid144`` (exactly 64 measures, one full 64-bit word), REP49,
two coin-heavy IBMQ16 programs either side of the ideal-distribution
coin cap, two measures aliasing one cbit, unmeasured cbits, and a
program that measures nothing. The pins were recorded before the
sampler moved to packed GF(2) words, and must hold exactly.
"""

import functools
import hashlib
import json
import os

import pytest

from repro.backend import get_backend
from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import (
    CalibrationGenerator,
    default_ibmq16_calibration,
    square_topology,
)
from repro.ir.circuit import Circuit
from repro.programs import build_benchmark, ghz_mirror
from repro.simulator import execute

_GOLDEN = os.path.join(os.path.dirname(__file__), "stabilizer_golden.json")

DEVICE_SEEDS = (2019, 7)
GHZ_QUBITS = (30, 60, 100)
GHZ_SHOTS = 2048


def _coins(n_coins: int) -> Circuit:
    """*n_coins* random measurements, mixed by a CNOT ladder so each
    outcome is a sum of coins rather than one coin."""
    circuit = Circuit(n_coins, n_coins, name=f"coins{n_coins}")
    for q in range(n_coins):
        circuit.h(q)
    for q in range(n_coins - 1):
        circuit.cx(q, q + 1)
    circuit.s(0)
    circuit.x(n_coins - 1)
    circuit.measure_all()
    return circuit


def _aliased() -> Circuit:
    """Two independent coins both written to cbit 0: the second
    overwrites the first, so two coin patterns share each string."""
    circuit = Circuit(3, 2, name="aliased")
    circuit.h(0).h(1).cx(1, 2)
    circuit.measure(0, 0).measure(1, 0).measure(2, 1)
    return circuit


def _unmeasured() -> Circuit:
    """Six cbits, two of them written, one of those by a flipped qubit."""
    circuit = Circuit(3, 6, name="unmeasured")
    circuit.h(0).cx(0, 1).x(2)
    circuit.measure(0, 4).measure(2, 1)
    return circuit


def _unmeasuring() -> Circuit:
    circuit = Circuit(3, 1, name="nomeasure")
    circuit.h(0).cx(0, 1).cz(1, 2)
    return circuit


@functools.lru_cache(maxsize=None)
def _square(device_seed: int, n_qubits: int):
    return CalibrationGenerator(square_topology(max(n_qubits, 4)),
                                seed=device_seed).snapshot(0)


def _cases():
    """(key, circuit, calibration, shots, seed) of every pinned run."""
    for device_seed in DEVICE_SEEDS:
        for n_qubits in GHZ_QUBITS:
            yield (f"ghz_mirror/{n_qubits}q/{device_seed}",
                   ghz_mirror(n_qubits), _square(device_seed, n_qubits),
                   GHZ_SHOTS, device_seed)
    grid = get_backend("grid144").calibration(0)
    for name in ("BV64", "REP49"):
        yield name, build_benchmark(name), grid, 2048, 11
    ibmq16 = default_ibmq16_calibration()
    for n_coins in (12, 13):
        yield f"coins{n_coins}", _coins(n_coins), ibmq16, 4096, 5
    for build in (_aliased, _unmeasured, _unmeasuring):
        circuit = build()
        yield circuit.name, circuit, ibmq16, 1024, 3


def _digest(mapping) -> str:
    text = repr(list(mapping.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def pins() -> dict:
    """Every pin, keyed as in the golden file."""
    out = {}
    for key, circuit, calibration, shots, seed in _cases():
        compiled = compile_circuit(circuit, calibration,
                                   CompilerOptions.greedy_e())
        result = execute(compiled, calibration, trials=shots, seed=seed,
                         engine="stabilizer")
        out[key] = {"distinct": len(result.counts),
                    "counts": _digest(result.counts),
                    "ideal": _digest(result.ideal_distribution)}
    return out


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as fh:
        return json.load(fh)["pins"]


def test_stabilizer_counts_pinned(golden):
    actual = pins()
    assert list(actual) == list(golden)
    for key, figures in actual.items():
        assert figures == golden[key], key
