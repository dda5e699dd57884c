"""Built-in backend presets.

Grid approximations of the machines discussed in the paper and its
related work, plus targets that widen scenario diversity beyond the
2 x 8 Rueschlikon the evaluation centers on. All topologies are
:class:`~repro.hardware.topology.GridTopology` instances, so every
compiler variant works on them unchanged; what distinguishes the
presets is shape *and* noise character — each carries its own
:class:`~repro.hardware.calibration_gen.NoiseProfile`, because the
whole point of noise-adaptive mapping is that machines drift
differently.

These are ordinary :func:`~repro.backend.base.register_backend`
registrations: adding a machine here (or anywhere else) never touches
the CLI or the executor.
"""

from __future__ import annotations

from repro.backend.base import Backend, register_backend
from repro.hardware.calibration_gen import NoiseProfile
from repro.hardware.topology import (
    GridTopology,
    ibmq5_topology,
    ibmq16_topology,
    ibmq20_topology,
    linear_topology,
)


@register_backend("ibmq16")
def ibmq16() -> Backend:
    """The paper's primary machine (defaults follow its §2 statistics)."""
    return Backend(
        name="ibmq16", topology=ibmq16_topology(),
        description="IBMQ16 Rueschlikon, 2x8 grid — the paper's machine")


@register_backend("ibmq5")
def ibmq5() -> Backend:
    return Backend(
        name="ibmq5", topology=ibmq5_topology(),
        description="5-qubit IBM device as a 1x5 line")


@register_backend("ibmq20")
def ibmq20() -> Backend:
    return Backend(
        name="ibmq20", topology=ibmq20_topology(),
        description="20-qubit Tokyo-class IBM device as a 5x4 grid")


@register_backend("iontrap8")
def iontrap8() -> Backend:
    """The §9 extension target: a linear ion-trap-style chain.

    Traps hold coherence far longer than superconducting qubits but
    pay slower two-qubit gates — the profile stretches T2 and the CNOT
    duration while thinning gate error, so schedule-aware variants see
    a genuinely different tradeoff surface.
    """
    return Backend(
        name="iontrap8", topology=linear_topology(8, name="IonTrap8"),
        profile=NoiseProfile(mean_t1_us=400.0, mean_t2_us=300.0,
                             mean_cnot_error=0.02,
                             mean_cnot_duration_slots=8.0,
                             mean_readout_error=0.03),
        description="linear 8-ion chain: long T2, slow 2q gates")


@register_backend("falcon27")
def falcon27() -> Backend:
    """A 27-qubit heavy-hex-class device, grid-approximated as 9x3.

    Modeled on the Falcon generation: roughly 3x lower CNOT and
    readout error than Rueschlikon, with milder day-to-day drift.
    """
    return Backend(
        name="falcon27", topology=GridTopology(mx=9, my=3, name="Falcon27"),
        profile=NoiseProfile(mean_t2_us=100.0, mean_cnot_error=0.012,
                             mean_readout_error=0.025,
                             mean_single_qubit_error=0.0005,
                             drift_sigma=0.12),
        description="27-qubit heavy-hex-class target as a 9x3 grid")


@register_backend("grid144")
def grid144() -> Backend:
    """A 144-qubit 12x12 lattice for the large-n Clifford tier.

    Far beyond any dense amplitude budget — the point of this preset
    is the stabilizer engine, so its default engine is ``"auto"``:
    Clifford programs (the GHZ/BV64/repetition-code benchmarks) route
    to the polynomial tableau path, anything else falls back to dense
    and hits the capacity guard with a clear error instead of an OOM.
    Better-than-Rueschlikon noise keeps 100-qubit circuits from fully
    depolarizing.
    """
    return Backend(
        name="grid144", topology=GridTopology(mx=12, my=12,
                                              name="Grid144"),
        profile=NoiseProfile(mean_t1_us=180.0, mean_t2_us=120.0,
                             mean_cnot_error=0.008,
                             mean_single_qubit_error=0.0004,
                             mean_readout_error=0.015),
        default_engine="auto",
        description="144-qubit 12x12 grid for stabilizer-tier scenarios")


@register_backend("aspen16")
def aspen16() -> Backend:
    """A 16-qubit 4x4 lattice with a readout-dominated error budget.

    The inverse stress case to ``falcon27``: strong readout error and
    wide per-element spread, where the omega-weighted R-SMT* objective
    has the most room to matter.
    """
    return Backend(
        name="aspen16", topology=GridTopology(mx=4, my=4, name="Aspen16"),
        profile=NoiseProfile(mean_readout_error=0.12, readout_sigma=0.45,
                             mean_cnot_error=0.05, cnot_sigma=0.45),
        description="16-qubit 4x4 lattice, readout-dominated errors")
