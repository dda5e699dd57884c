"""Stochastic noise model derived from calibration data.

Three error mechanisms, matching the failure modes the paper's compiler
optimizes against (§2, §3):

* **Gate errors** — after each physical gate, with the calibrated error
  probability (per-edge for CNOTs, per-qubit for 1q gates), a uniformly
  random non-identity Pauli hits the participating qubits (depolarizing
  approximation).
* **Idle decoherence** — while a qubit waits between operations, it
  suffers Pauli noise with probabilities from the T1/T2 exponentials
  (the standard Pauli-twirl of amplitude/phase damping):
  ``p_x = p_y = (1 - exp(-t/T1)) / 4``,
  ``p_z = (1 - exp(-t/T2)) / 2 - p_x``.
* **Readout errors** — each measured bit flips with the qubit's
  calibrated readout error probability, optionally skewed by the
  calibration's readout asymmetry (|1> misreads more often than |0>).

An optional **crosstalk** extension (off by default; the paper's §9 /
follow-up direction) inflates a two-qubit gate's error rate when other
two-qubit gates run concurrently on adjacent couplings:
``p' = min(p * (1 + crosstalk_factor * n_concurrent), 0.5)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.hardware.calibration import TIMESLOT_NS, Calibration
from repro.ir.gates import Gate

_PAULIS_1Q = ("x", "y", "z")
#: Non-identity two-qubit Pauli pairs (15 of them).
_PAULIS_2Q = tuple((a, b)
                   for a in ("i", "x", "y", "z")
                   for b in ("i", "x", "y", "z")
                   if not (a == "i" and b == "i"))


@dataclass(frozen=True)
class IdleRates:
    """Pauli-twirl rates for one qubit idling for some duration."""

    p_x: float
    p_y: float
    p_z: float

    @property
    def total(self) -> float:
        return self.p_x + self.p_y + self.p_z


class NoiseModel:
    """Error probabilities for a physical program under a calibration.

    Args:
        calibration: The machine snapshot the program was compiled for
            (and is "executed" on).
        gate_errors: Include stochastic gate errors.
        decoherence: Include idle decoherence.
        readout_errors: Include measurement bit flips.

    Subclassing notes:
        Subclass through the **probability accessors**
        (:meth:`gate_error_probability`, :meth:`idle_rates`,
        :meth:`readout_flip_probability`) plus ``trace_key()``. Every
        engine lowers its execution trace from those accessors alone,
        so they define the model's error law. A subclass is **bypassed
        by the trace cache** unless it defines that escape hatch::

            def trace_key(self):
                # hashable tuple covering every attribute that shapes
                # the model's probabilities (or None = don't cache)
                return ("my-model", self.calibration.content_id(), ...)

        Two models whose ``trace_key()`` values are equal must produce
        identical probabilities for every (program, calibration) pair —
        the cache serves one model's lowered trace for the other.
    """

    def __init__(self, calibration: Calibration, gate_errors: bool = True,
                 decoherence: bool = True, readout_errors: bool = True,
                 crosstalk_factor: float = 0.0) -> None:
        if crosstalk_factor < 0.0:
            raise ValueError("crosstalk factor must be non-negative")
        self.calibration = calibration
        self.gate_errors = gate_errors
        self.decoherence = decoherence
        self.readout_errors = readout_errors
        self.crosstalk_factor = crosstalk_factor

    # ------------------------------------------------------------------
    def gate_error_probability(self, gate: Gate,
                               concurrent_neighbors: int = 0) -> float:
        """Calibrated error probability of one physical gate.

        Args:
            concurrent_neighbors: Number of two-qubit gates overlapping
                this gate in time on adjacent couplings (crosstalk).
        """
        if not self.gate_errors or gate.is_measure or gate.name == "barrier":
            return 0.0
        if gate.is_two_qubit:
            a, b = gate.qubits
            p = self.calibration.cnot_error(a, b)
            if self.crosstalk_factor > 0.0 and concurrent_neighbors > 0:
                p = min(p * (1.0 + self.crosstalk_factor
                             * concurrent_neighbors), 0.5)
            return p
        return self.calibration.qubit(gate.qubits[0]).single_qubit_error

    # ------------------------------------------------------------------
    def idle_rates(self, qubit: int, idle_slots: float) -> IdleRates:
        """Pauli-twirl rates for *qubit* idling *idle_slots* timeslots."""
        if not self.decoherence or idle_slots <= 0.0:
            return IdleRates(0.0, 0.0, 0.0)
        record = self.calibration.qubit(qubit)
        t_us = idle_slots * TIMESLOT_NS / 1000.0
        p_relax = 1.0 - math.exp(-t_us / record.t1_us)
        p_dephase = 1.0 - math.exp(-t_us / record.t2_us)
        p_x = p_relax / 4.0
        p_z = max(p_dephase / 2.0 - p_x, 0.0)
        return IdleRates(p_x=p_x, p_y=p_x, p_z=p_z)

    # ------------------------------------------------------------------
    def readout_flip_probability(self, qubit: int, bit: int = 0) -> float:
        """Probability of misreporting the measured *bit* of *qubit*."""
        if not self.readout_errors:
            return 0.0
        return self.calibration.qubit(qubit).readout_flip_probability(bit)


def ideal_noise_model(calibration: Calibration) -> NoiseModel:
    """A noise model with every mechanism disabled (ideal executor)."""
    return NoiseModel(calibration, gate_errors=False, decoherence=False,
                      readout_errors=False)


def noise_content_key(noise: NoiseModel) -> Optional[tuple]:
    """Hashable content key of a model's probability behavior, or ``None``.

    The single keying rule shared by the trace cache
    (:class:`repro.runtime.cache.TraceCache`) and by wrappers that
    derive their own key from a base model's (e.g.
    :class:`repro.mitigation.zne.ScaledNoiseModel`): a subclass's
    ``trace_key()`` when it defines one (``None`` from it means
    "don't cache"), the full constructor state for a plain
    :class:`NoiseModel`, and ``None`` — uncacheable — for subclasses
    without the escape hatch, whose behavior this function cannot see.
    """
    custom = getattr(type(noise), "trace_key", None)
    if custom is not None:
        return noise.trace_key()
    if type(noise) is NoiseModel:
        return (noise.calibration.content_id(), noise.gate_errors,
                noise.decoherence, noise.readout_errors,
                noise.crosstalk_factor)
    return None
