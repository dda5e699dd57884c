"""repro — noise-adaptive compiler mappings for NISQ computers.

A from-scratch reproduction of Murali et al., "Noise-Adaptive Compiler
Mappings for Noisy Intermediate-Scale Quantum Computers" (ASPLOS 2019):
a quantum IR, benchmark programs, a calibrated machine model, a
branch-and-bound constraint optimizer, the paper's optimal and heuristic
mapping variants, a noisy Monte-Carlo executor, and harnesses for every
figure and table in the evaluation.

Quickstart::

    from repro import (CompilerOptions, compile_circuit,
                       default_ibmq16_calibration, execute)
    from repro.programs import build_benchmark, expected_output

    cal = default_ibmq16_calibration()
    program = compile_circuit(build_benchmark("BV4"), cal,
                              CompilerOptions.r_smt_star())
    result = execute(program, cal, trials=1024,
                     expected=expected_output("BV4"))
    print(program.summary(), "->", result.success_rate)
"""

from repro.backend import BACKENDS, Backend, get_backend
from repro.compiler import CompiledProgram, CompilerOptions, compile_circuit
from repro.exceptions import ReproError
from repro.hardware import (
    Calibration,
    CalibrationGenerator,
    GridTopology,
    default_ibmq16_calibration,
    ibmq16_topology,
)
from repro.ir import Circuit, Gate, circuit_to_qasm, parse_scaffir
from repro.simulator import ExecutionResult, execute

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "Backend",
    "Calibration",
    "CalibrationGenerator",
    "Circuit",
    "CompiledProgram",
    "CompilerOptions",
    "ExecutionResult",
    "Gate",
    "GridTopology",
    "ReproError",
    "__version__",
    "circuit_to_qasm",
    "compile_circuit",
    "default_ibmq16_calibration",
    "execute",
    "get_backend",
    "ibmq16_topology",
    "parse_scaffir",
]
