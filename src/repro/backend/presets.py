"""The built-in backend presets: the fixed :data:`BACKENDS` table.

Grid approximations of the machines discussed in the paper and its
related work, plus targets that widen scenario diversity beyond the
2 x 8 Rueschlikon the evaluation centers on. All topologies are
:class:`~repro.hardware.topology.GridTopology` instances, so every
compiler variant works on them unchanged; what distinguishes the
presets is shape *and* noise character — each carries its own
:class:`~repro.hardware.calibration_gen.NoiseProfile`, because the
whole point of noise-adaptive mapping is that machines drift
differently.

A preset name is only a CLI spelling of a :class:`Backend` value:
every API that takes a name also takes the value, so a machine that is
not a preset is passed as a ``Backend`` directly.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.backend.base import Backend
from repro.backend.engines import unknown_name_message
from repro.exceptions import BackendError
from repro.hardware.calibration_gen import NoiseProfile
from repro.hardware.topology import (
    GridTopology,
    ibmq5_topology,
    ibmq16_topology,
    ibmq20_topology,
    linear_topology,
)

#: Preset name (the CLI's ``--device`` value) -> backend, in the order
#: ``repro backends`` lists them.
BACKENDS: Dict[str, Backend] = {
    # The paper's primary machine (defaults follow its §2 statistics).
    "ibmq16": Backend(
        name="ibmq16", topology=ibmq16_topology(),
        description="IBMQ16 Rueschlikon, 2x8 grid — the paper's machine"),
    "ibmq5": Backend(
        name="ibmq5", topology=ibmq5_topology(),
        description="5-qubit IBM device as a 1x5 line"),
    "ibmq20": Backend(
        name="ibmq20", topology=ibmq20_topology(),
        description="20-qubit Tokyo-class IBM device as a 5x4 grid"),
    # The §9 extension target: a linear ion-trap-style chain. Traps hold
    # coherence far longer than superconducting qubits but pay slower
    # two-qubit gates — the profile stretches T2 and the CNOT duration
    # while thinning gate error, so schedule-aware variants see a
    # genuinely different tradeoff surface.
    "iontrap8": Backend(
        name="iontrap8", topology=linear_topology(8, name="IonTrap8"),
        profile=NoiseProfile(mean_t1_us=400.0, mean_t2_us=300.0,
                             mean_cnot_error=0.02,
                             mean_cnot_duration_slots=8.0,
                             mean_readout_error=0.03),
        description="linear 8-ion chain: long T2, slow 2q gates"),
    # A 27-qubit heavy-hex-class device, grid-approximated as 9x3.
    # Modeled on the Falcon generation: roughly 3x lower CNOT and
    # readout error than Rueschlikon, with milder day-to-day drift.
    "falcon27": Backend(
        name="falcon27", topology=GridTopology(mx=9, my=3, name="Falcon27"),
        profile=NoiseProfile(mean_t2_us=100.0, mean_cnot_error=0.012,
                             mean_readout_error=0.025,
                             mean_single_qubit_error=0.0005,
                             drift_sigma=0.12),
        description="27-qubit heavy-hex-class target as a 9x3 grid"),
    # A 144-qubit 12x12 lattice for the large-n Clifford tier. Far
    # beyond any dense amplitude budget — the point of this preset is
    # the stabilizer engine, so its default engine is "auto": Clifford
    # programs (the GHZ/BV64/repetition-code benchmarks) route to the
    # polynomial tableau path, anything else falls back to dense and
    # hits the capacity guard with a clear error instead of an OOM.
    # Better-than-Rueschlikon noise keeps 100-qubit circuits from fully
    # depolarizing.
    "grid144": Backend(
        name="grid144", topology=GridTopology(mx=12, my=12,
                                              name="Grid144"),
        profile=NoiseProfile(mean_t1_us=180.0, mean_t2_us=120.0,
                             mean_cnot_error=0.008,
                             mean_single_qubit_error=0.0004,
                             mean_readout_error=0.015),
        default_engine="auto",
        description="144-qubit 12x12 grid for stabilizer-tier scenarios"),
    # A 16-qubit 4x4 lattice with a readout-dominated error budget. The
    # inverse stress case to falcon27: strong readout error and wide
    # per-element spread, where the omega-weighted R-SMT* objective has
    # the most room to matter.
    "aspen16": Backend(
        name="aspen16", topology=GridTopology(mx=4, my=4, name="Aspen16"),
        profile=NoiseProfile(mean_readout_error=0.12, readout_sigma=0.45,
                             mean_cnot_error=0.05, cnot_sigma=0.45),
        description="16-qubit 4x4 lattice, readout-dominated errors"),
}


def get_backend(backend: Union[str, Backend]) -> Backend:
    """The :data:`BACKENDS` preset *backend* names, case-insensitively
    (a :class:`Backend` passes through).

    Raises:
        BackendError: For unknown names, with a did-you-mean hint and
            the preset list (a :class:`TopologyError` subclass, so
            legacy device-lookup callers keep working).
    """
    if isinstance(backend, Backend):
        return backend
    preset = BACKENDS.get(str(backend).lower())
    if preset is None:
        raise BackendError(unknown_name_message("backend", backend, BACKENDS))
    return preset
