"""Noise-adaptive backend compiler: mapping, scheduling, routing, codegen."""

from repro.compiler.compile import (
    CompiledProgram,
    PassTiming,
    compile_circuit,
)
from repro.compiler.mapping.base import Mapper, MappingResult
from repro.compiler.mapping.greedy import GreedyEdgeMapper, GreedyVertexMapper
from repro.compiler.mapping.smt import ReliabilitySmtMapper, TimeSmtMapper
from repro.compiler.mapping.trivial import TrivialMapper
from repro.compiler.metrics import (
    ReliabilityEstimate,
    estimate_reliability,
    weighted_log_reliability,
)
from repro.compiler.options import (
    ALL_ROUTES,
    ALL_VARIANTS,
    ROUTE_BEST_PATH,
    ROUTE_ONE_BEND,
    ROUTE_RECTANGLE,
    ROUTE_SHORTEST,
    VARIANT_GREEDY_E,
    VARIANT_GREEDY_V,
    VARIANT_QISKIT,
    VARIANT_R_SMT_STAR,
    VARIANT_T_SMT,
    VARIANT_T_SMT_STAR,
    CompilerOptions,
)
from repro.compiler.peephole import cancel_adjacent_inverses, count_cancellations
from repro.compiler.pipeline import (
    MAPPERS,
    MappingPass,
    Pass,
    PassManager,
    PeepholePass,
    PipelineContext,
    ReliabilityPass,
    SchedulingPass,
    SwapInsertPass,
    VerifyPass,
    build_pipeline,
    mapper_for,
    mapping_stage_fingerprint,
)
from repro.compiler.routing.policies import Route, Router
from repro.compiler.verify import VerificationReport, verify_compiled
from repro.compiler.scheduling.list_scheduler import (
    Schedule,
    ScheduledGate,
    schedule_circuit,
)
from repro.compiler.swap_insert import (
    PhysicalProgram,
    apply_peephole,
    insert_swaps,
)

__all__ = [
    "ALL_ROUTES",
    "ALL_VARIANTS",
    "CompiledProgram",
    "CompilerOptions",
    "GreedyEdgeMapper",
    "GreedyVertexMapper",
    "MAPPERS",
    "Mapper",
    "MappingPass",
    "MappingResult",
    "Pass",
    "PassManager",
    "PassTiming",
    "PeepholePass",
    "PhysicalProgram",
    "PipelineContext",
    "ROUTE_BEST_PATH",
    "ROUTE_ONE_BEND",
    "ROUTE_RECTANGLE",
    "ROUTE_SHORTEST",
    "ReliabilityEstimate",
    "ReliabilityPass",
    "ReliabilitySmtMapper",
    "Route",
    "Router",
    "Schedule",
    "ScheduledGate",
    "SchedulingPass",
    "SwapInsertPass",
    "TimeSmtMapper",
    "TrivialMapper",
    "VARIANT_GREEDY_E",
    "VARIANT_GREEDY_V",
    "VARIANT_QISKIT",
    "VARIANT_R_SMT_STAR",
    "VARIANT_T_SMT",
    "VARIANT_T_SMT_STAR",
    "VerificationReport",
    "VerifyPass",
    "apply_peephole",
    "build_pipeline",
    "cancel_adjacent_inverses",
    "compile_circuit",
    "count_cancellations",
    "estimate_reliability",
    "insert_swaps",
    "mapper_for",
    "mapping_stage_fingerprint",
    "schedule_circuit",
    "verify_compiled",
    "weighted_log_reliability",
]
