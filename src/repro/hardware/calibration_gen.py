"""Synthetic calibration-data generator.

Stands in for the daily calibration logs of IBMQ16 (see the README's
"Substitutions"). The generator reproduces the distributional facts the
paper reports in §2:

* mean T2 about 70 us, varying up to ~9.2x across qubits and days;
* mean CNOT error 0.04, varying up to ~9x;
* mean readout error 0.07, varying up to ~5.9x;
* mean single-qubit gate error 0.002;
* CNOT durations varying up to ~1.8x across edges.

Each qubit/edge gets a persistent "fabrication quality" factor (material
defects are static) plus day-to-day drift modeled as an AR(1) process in
log space, which yields the autocorrelated daily wander of Fig. 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.exceptions import CalibrationError
from repro.hardware.calibration import (
    Calibration,
    EdgeCalibration,
    QubitCalibration,
)
from repro.hardware.topology import Edge, GridTopology


@dataclass(frozen=True)
class NoiseProfile:
    """Distributional parameters for synthetic calibration data.

    ``*_sigma`` values are log-space standard deviations of the static
    (fabrication) spread; ``drift_sigma`` scales the daily AR(1) wander
    and ``drift_rho`` its day-to-day correlation.
    """

    mean_t1_us: float = 90.0
    mean_t2_us: float = 70.0
    t2_sigma: float = 0.34
    mean_cnot_error: float = 0.04
    cnot_sigma: float = 0.38
    mean_readout_error: float = 0.07
    readout_sigma: float = 0.32
    mean_single_qubit_error: float = 0.002
    single_qubit_sigma: float = 0.3
    mean_cnot_duration_slots: float = 3.0
    cnot_duration_sigma: float = 0.12
    drift_sigma: float = 0.18
    drift_rho: float = 0.7
    max_error_rate: float = 0.35
    min_t2_us: float = 15.0


class CalibrationGenerator:
    """Generates a reproducible stream of daily calibration snapshots.

    Args:
        topology: The machine to calibrate.
        seed: RNG seed; the full day sequence is a pure function of it.
        profile: Distribution parameters (defaults follow the paper).
    """

    def __init__(self, topology: GridTopology, seed: int = 0,
                 profile: NoiseProfile = NoiseProfile()) -> None:
        self.topology = topology
        self.profile = profile
        self.seed = seed
        rng = random.Random(seed)
        # Static fabrication quality, in log space: positive values mean
        # a worse-than-average element.
        self._qubit_quality = {
            q: {
                "t2": rng.gauss(0.0, profile.t2_sigma),
                "readout": rng.gauss(0.0, profile.readout_sigma),
                "single": rng.gauss(0.0, profile.single_qubit_sigma),
            }
            for q in topology.iter_qubits()
        }
        self._edge_quality = {
            e: {
                "cnot": rng.gauss(0.0, profile.cnot_sigma),
                "duration": rng.gauss(0.0, profile.cnot_duration_sigma),
            }
            for e in topology.edges()
        }

    # ------------------------------------------------------------------
    def snapshot(self, day: int = 0) -> Calibration:
        """The calibration posted on *day* (deterministic per seed).

        Raises:
            CalibrationError: If *day* is negative (day 0 is the first
                posted calibration).
        """
        if day < 0:
            raise CalibrationError(f"calibration day must be >= 0, got {day}")
        drift_q = self._drift_states(day, kind="qubit")
        drift_e = self._drift_states(day, kind="edge")
        p = self.profile

        qubits: Dict[int, QubitCalibration] = {}
        for q in self.topology.iter_qubits():
            quality = self._qubit_quality[q]
            d = drift_q[q]
            t2 = max(p.min_t2_us,
                     p.mean_t2_us * math.exp(-quality["t2"] - d["t2"]))
            t1 = max(t2 * 0.8,
                     p.mean_t1_us * math.exp(-quality["t2"] * 0.6 - d["t2"] * 0.5))
            readout = _clamp_error(
                p.mean_readout_error * math.exp(quality["readout"] + d["readout"]),
                p.max_error_rate)
            single = _clamp_error(
                p.mean_single_qubit_error
                * math.exp(quality["single"] + d["single"]),
                p.max_error_rate)
            qubits[q] = QubitCalibration(t1_us=t1, t2_us=t2,
                                         readout_error=readout,
                                         single_qubit_error=single)

        edges: Dict[Edge, EdgeCalibration] = {}
        for e in self.topology.edges():
            quality = self._edge_quality[e]
            d = drift_e[e]
            cnot = _clamp_error(
                p.mean_cnot_error * math.exp(quality["cnot"] + d["cnot"]),
                p.max_error_rate)
            duration = max(1.0, p.mean_cnot_duration_slots
                           * math.exp(quality["duration"] + d["duration"] * 0.3))
            edges[e] = EdgeCalibration(cnot_error=cnot,
                                       cnot_duration_slots=duration)

        return Calibration(topology=self.topology, qubits=qubits,
                           edges=edges, label=f"day{day}")

    def days(self, n_days: int, start: int = 0) -> Iterator[Calibration]:
        """Iterate calibration snapshots for *n_days* consecutive days.

        Raises:
            CalibrationError: If *start* is negative.
        """
        if start < 0:
            raise CalibrationError(
                f"calibration start day must be >= 0, got {start}")
        return map(self.snapshot, range(start, start + n_days))

    # ------------------------------------------------------------------
    def _drift_states(self, day: int, kind: str) -> dict:
        """AR(1) log-space drift per element, replayed from day 0.

        Replaying keeps ``snapshot(d)`` a pure function of (seed, d)
        while giving consecutive days correlated values.
        """
        p = self.profile
        innovation_scale = p.drift_sigma * math.sqrt(1.0 - p.drift_rho ** 2)
        if kind == "qubit":
            elements: List = list(self.topology.iter_qubits())
            keys = ("t2", "readout", "single")
        else:
            elements = list(self.topology.edges())
            keys = ("cnot", "duration")
        states = {el: {k: 0.0 for k in keys} for el in elements}
        for d in range(day + 1):
            rng = random.Random(f"{self.seed}/{kind}/{d}")
            for el in elements:
                for k in keys:
                    shock = rng.gauss(0.0, 1.0)
                    if d == 0:
                        states[el][k] = p.drift_sigma * shock
                    else:
                        states[el][k] = (p.drift_rho * states[el][k]
                                         + innovation_scale * shock)
        return states


def _clamp_error(value: float, max_error: float) -> float:
    return min(max(value, 1e-5), max_error)


def default_ibmq16_calibration(day: int = 0, seed: int = 2019) -> Calibration:
    """Convenience: the repo-wide default synthetic IBMQ16 snapshot."""
    from repro.hardware.topology import ibmq16_topology

    return CalibrationGenerator(ibmq16_topology(), seed=seed).snapshot(day)
