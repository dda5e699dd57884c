"""Pinned GreedyE* compiles of perfbench's ``scale_ladder`` grid.

The 16 random-circuit compiles (4-128 qubits, 128-1024 gates) and the 3
GHZ-mirror compiles (30, 60 and 100 qubits) at device seeds 2019 and 7
are pinned in ``compile_golden.json``: makespan, one-way SWAP count,
physical duration, and a sha256 of the placement plus every scheduled
gate (index, start, duration, reserved qubits, route path). These
compiles fill Best-Path rows on grids of up to 12x11 qubits and
list-schedule programs that keep dozens of gates ready at once; the pins
were recorded before either layer was rewritten, and must hold exactly.
"""

import functools
import hashlib
import json
import os

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    square_topology,
)
from repro.programs import ghz_mirror, random_circuit

_GOLDEN = os.path.join(os.path.dirname(__file__), "compile_golden.json")

DEVICE_SEEDS = (2019, 7)
GREEDY_QUBITS = (4, 8, 32, 128)
GREEDY_GATES = (128, 256, 512, 1024)
GHZ_QUBITS = (30, 60, 100)


@functools.lru_cache(maxsize=None)
def _machine(device_seed: int, n_qubits: int):
    calibration = CalibrationGenerator(square_topology(max(n_qubits, 4)),
                                       seed=device_seed).snapshot(0)
    return calibration, ReliabilityTables(calibration)


def _compiles(device_seed: int):
    """(key, circuit, qubit count) of every GreedyE* compile pinned."""
    for n_qubits in GREEDY_QUBITS:
        for n_gates in GREEDY_GATES:
            circuit = random_circuit(
                n_qubits, n_gates,
                seed=device_seed + n_qubits * 10000 + n_gates)
            yield f"greedye*/{n_qubits}q/{n_gates}g", circuit, n_qubits
    for n_qubits in GHZ_QUBITS:
        yield f"ghz/{n_qubits}q", ghz_mirror(n_qubits), n_qubits


def pin(compiled) -> dict:
    """The pinned figures of one compiled program."""
    schedule = compiled.schedule
    gates = [(g.index, g.start, g.duration, g.hw_qubits,
              None if g.route is None else g.route.path)
             for g in schedule.gates]
    payload = repr((sorted(compiled.placement.items()), gates))
    return {"makespan": schedule.makespan,
            "swaps": schedule.swap_count(),
            "physical_duration": compiled.physical.duration,
            "digest": hashlib.sha256(payload.encode()).hexdigest()}


def pins(device_seed: int) -> dict:
    """Every pin at one device seed, keyed as in the golden file."""
    out = {}
    for key, circuit, n_qubits in _compiles(device_seed):
        calibration, tables = _machine(device_seed, n_qubits)
        out[key] = pin(compile_circuit(circuit, calibration,
                                       CompilerOptions.greedy_e(),
                                       tables=tables))
    return out


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("device_seed", DEVICE_SEEDS)
def test_scale_ladder_greedy_compiles(golden, device_seed):
    expected = golden[str(device_seed)]
    actual = pins(device_seed)
    assert list(actual) == list(expected)
    for key, figures in actual.items():
        assert figures == expected[key], key
