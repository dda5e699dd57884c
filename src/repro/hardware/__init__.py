"""Machine models: topology, calibration data, routing cost tables."""

from repro.hardware.calibration import (
    READOUT_SLOTS,
    SINGLE_QUBIT_SLOTS,
    TIMESLOT_NS,
    Calibration,
    EdgeCalibration,
    QubitCalibration,
    uniform_calibration,
)
from repro.hardware.calibration_gen import (
    CalibrationGenerator,
    NoiseProfile,
    default_ibmq16_calibration,
)
from repro.hardware.reliability import ReliabilityTables, RoutedCnot, route_cost
from repro.hardware.topology import (
    GridTopology,
    edge_key,
    ibmq5_topology,
    ibmq16_topology,
    ibmq20_topology,
    linear_topology,
    square_topology,
)

__all__ = [
    "Calibration",
    "CalibrationGenerator",
    "ibmq20_topology",
    "ibmq5_topology",
    "linear_topology",
    "EdgeCalibration",
    "GridTopology",
    "NoiseProfile",
    "QubitCalibration",
    "READOUT_SLOTS",
    "ReliabilityTables",
    "RoutedCnot",
    "SINGLE_QUBIT_SLOTS",
    "TIMESLOT_NS",
    "default_ibmq16_calibration",
    "edge_key",
    "ibmq16_topology",
    "route_cost",
    "square_topology",
    "uniform_calibration",
]
