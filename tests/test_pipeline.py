"""Pass-manager pipeline: equivalence, name checks, stage-prefix cache.

Pins the pipeline's contract: the composable pipeline must be
bit-identical (by ``CompiledProgram.fingerprint()``) to the seed
monolithic ``compile_circuit`` sequence for every variant, an unknown
variant or an anonymous pass must fail loudly, and the stage-prefix
cache must reuse exactly the stages whose inputs agree.
"""

import tracemalloc

import pytest

from repro.compiler import (
    CompiledProgram,
    CompilerOptions,
    MappingPass,
    PassManager,
    PeepholePass,
    ReliabilityPass,
    SchedulingPass,
    SwapInsertPass,
    VerifyPass,
    apply_peephole,
    build_pipeline,
    compile_circuit,
    estimate_reliability,
    insert_swaps,
    mapper_for,
    mapping_stage_fingerprint,
    schedule_circuit,
)
from repro.exceptions import CompilationError
from repro.hardware import ReliabilityTables, default_ibmq16_calibration
from repro.programs import build_benchmark
from repro.runtime import CompileCache, StageCache, SweepCell, run_sweep


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def tables(cal):
    return ReliabilityTables(cal)


ALL_OPTIONS = [CompilerOptions.qiskit(), CompilerOptions.t_smt(),
               CompilerOptions.t_smt_star(), CompilerOptions.r_smt_star(),
               CompilerOptions.greedy_e(), CompilerOptions.greedy_v()]

EQUIVALENCE_BENCHMARKS = ("BV4", "HS4", "Toffoli")


def compile_reference(circuit, calibration, options, tables):
    """The seed repo's monolithic compile_circuit sequence, verbatim:
    mapping -> scheduling -> SWAP insertion -> optional peephole ->
    reliability estimation."""
    mapper = mapper_for(options)
    mapping = mapper.run(circuit, calibration, tables)
    schedule = schedule_circuit(circuit, mapping.placement, calibration,
                                tables, options)
    physical = insert_swaps(circuit, schedule, mapping.placement,
                            calibration)
    if options.peephole:
        physical = apply_peephole(physical, calibration)
    reliability = estimate_reliability(circuit, schedule, mapping.placement,
                                       calibration)
    return CompiledProgram(
        logical=circuit,
        physical=physical,
        placement=dict(mapping.placement),
        schedule=schedule,
        reliability=reliability,
        options=options,
        mapping=mapping,
        compile_time=0.0,
        calibration_label=calibration.label,
    )


class TestPipelineEquivalence:
    """PassManager output == seed monolith output, bit for bit."""

    @pytest.mark.parametrize("options", ALL_OPTIONS,
                             ids=[o.variant for o in ALL_OPTIONS])
    @pytest.mark.parametrize("bench", EQUIVALENCE_BENCHMARKS)
    def test_fingerprint_identical_to_seed_path(self, options, bench, cal,
                                                tables):
        circuit = build_benchmark(bench)
        reference = compile_reference(circuit, cal, options, tables)
        pipelined = compile_circuit(circuit, cal, options, tables=tables)
        assert pipelined.fingerprint() == reference.fingerprint()

    def test_peephole_config_identical_to_seed_path(self, cal, tables):
        options = CompilerOptions.qiskit().with_(peephole=True)
        circuit = build_benchmark("Toffoli")
        reference = compile_reference(circuit, cal, options, tables)
        pipelined = compile_circuit(circuit, cal, options, tables=tables)
        assert pipelined.fingerprint() == reference.fingerprint()

    def test_stage_cache_does_not_change_output(self, cal, tables):
        options = CompilerOptions.r_smt_star()
        circuit = build_benchmark("BV4")
        plain = compile_circuit(circuit, cal, options, tables=tables)
        cached = compile_circuit(circuit, cal, options, tables=tables,
                                 stage_cache=StageCache())
        assert plain.fingerprint() == cached.fingerprint()

    def test_pass_timings_cover_pipeline(self, cal, tables):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star(),
                                  tables=tables)
        names = [t.name for t in program.pass_timings]
        assert names == ["mapping[r-smt*]", "schedule", "swap-insert",
                         "reliability"]
        assert all(t.seconds >= 0 and not t.cached
                   for t in program.pass_timings)
        assert "mapping[r-smt*]" in program.timing_report()

    def test_pass_timings_carry_allocations_only_when_tracing(self, cal,
                                                              tables):
        options = CompilerOptions.r_smt_star()
        circuit = build_benchmark("BV4")
        assert not tracemalloc.is_tracing()
        plain = compile_circuit(circuit, cal, options, tables=tables)
        assert all(t.alloc_bytes == 0 and t.peak_bytes == 0
                   for t in plain.pass_timings)
        stages = StageCache()
        tracemalloc.start()
        try:
            traced = compile_circuit(circuit, cal, options, tables=tables,
                                     stage_cache=stages)
            served = compile_circuit(circuit, cal, options, tables=tables,
                                     stage_cache=stages)
        finally:
            tracemalloc.stop()
        mapping = traced.pass_timings[0]
        assert mapping.name == "mapping[r-smt*]" and mapping.peak_bytes > 0
        assert all(t.cached and t.seconds == 0.0 and t.alloc_bytes == 0
                   and t.peak_bytes == 0 for t in served.pass_timings)
        assert traced.fingerprint() == plain.fingerprint()

    def test_verify_pass_attaches_report(self, cal, tables):
        options = CompilerOptions.greedy_e()
        program = build_pipeline(options, verify=True).run(
            build_benchmark("BV4"), cal, options, tables=tables)
        assert program.verification is not None
        assert program.verification.ok
        assert [t.name for t in program.pass_timings][-1] == "verify"


class TestRegistries:
    def test_unknown_variant_rejected_by_mapping_pass(self):
        with pytest.raises(CompilationError, match="no mapper for variant"):
            MappingPass("annealer")

    def test_anonymous_pass_rejected_by_manager(self):
        class Nameless:
            name = ""
            produces = ""

        with pytest.raises(CompilationError, match="must declare"):
            PassManager([Nameless()])

    def test_canonical_pipeline_shape(self):
        manager = build_pipeline(CompilerOptions.qiskit().with_(
            peephole=True), verify=True)
        kinds = [type(p) for p in manager.passes]
        assert kinds == [MappingPass, SchedulingPass, SwapInsertPass,
                         PeepholePass, ReliabilityPass, VerifyPass]


class TestStagePrefixCache:
    """Post-mapping option changes reuse the mapping artifact."""

    def test_routing_change_reuses_mapping(self, cal):
        cache = CompileCache()
        circuit = build_benchmark("BV4")
        base = CompilerOptions.r_smt_star()
        first, _ = cache.get_or_compile(circuit, cal, base)
        second, hit = cache.get_or_compile(circuit, cal,
                                           base.with_(routing="rr"))
        assert not hit  # distinct compile keys...
        by_name = {t.name: t for t in second.pass_timings}
        assert by_name["mapping[r-smt*]"].cached  # ...shared mapping
        assert not by_name["schedule"].cached
        assert first.placement == second.placement
        assert cache.stages.stats.hits >= 1

    def test_peephole_change_reuses_prefix_through_swap_insert(self, cal):
        cache = CompileCache()
        circuit = build_benchmark("Toffoli")
        base = CompilerOptions.qiskit()
        cache.get_or_compile(circuit, cal, base)
        tidy, _ = cache.get_or_compile(circuit, cal,
                                       base.with_(peephole=True))
        by_name = {t.name: t for t in tidy.pass_timings}
        assert by_name["mapping[qiskit]"].cached
        assert by_name["schedule"].cached
        assert by_name["swap-insert"].cached
        assert not by_name["peephole"].cached

    def test_omega_change_misses_mapping(self, cal):
        cache = CompileCache()
        circuit = build_benchmark("BV4")
        cache.get_or_compile(circuit, cal, CompilerOptions.r_smt_star(0.5))
        second, _ = cache.get_or_compile(circuit, cal,
                                         CompilerOptions.r_smt_star(1.0))
        by_name = {t.name: t for t in second.pass_timings}
        assert not by_name["mapping[r-smt*]"].cached

    def test_verify_pass_config_distinguishes_stage_keys(self):
        # Differently configured VerifyPass instances must never alias
        # in the stage cache (a lax cached report would skip the
        # strict arm's raise and its semantic check).
        options = CompilerOptions.r_smt_star()
        strict = VerifyPass().fingerprint(options)
        lax = VerifyPass(strict=False, semantic=False).fingerprint(options)
        assert strict != lax

    def test_mapping_fingerprint_ignores_post_mapping_knobs(self):
        base = CompilerOptions.r_smt_star()
        assert mapping_stage_fingerprint(base) == \
            mapping_stage_fingerprint(base.with_(routing="rr",
                                                 peephole=True))
        assert mapping_stage_fingerprint(base) != \
            mapping_stage_fingerprint(base.with_(omega=1.0))
        assert mapping_stage_fingerprint(base) != \
            mapping_stage_fingerprint(CompilerOptions.greedy_e())

    def test_sweep_stage_stats_deterministic_across_workers(self, cal):
        cells = [SweepCell(circuit=build_benchmark(bench), calibration=cal,
                           options=CompilerOptions.r_smt_star().with_(
                               routing=routing, peephole=peephole),
                           simulate=False,
                           key=(bench, routing, peephole))
                 for bench in ("BV4", "HS4")
                 for routing in ("1bp", "rr")
                 for peephole in (False, True)]
        serial = run_sweep(cells, workers=0)
        parallel = run_sweep(cells, workers=2)
        assert parallel.workers == 2
        # One mapping solve per benchmark; the other 3 option combos
        # per benchmark hit the stage cache — at any worker count.
        for sweep in (serial, parallel):
            assert sweep.compile_stats.misses == len(cells)
            assert sweep.stage_stats.hits == \
                serial.stage_stats.hits
        for ser, par in zip(serial, parallel):
            assert ser.compiled.fingerprint() == par.compiled.fingerprint()


class TestCompiledProgramMemo:
    def test_fingerprint_memoized_via_cached_property(self, cal, tables):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.qiskit(), tables=tables)
        assert "_fingerprint" not in program.__dict__
        value = program.fingerprint()
        assert program.__dict__["_fingerprint"] == value
        assert program.fingerprint() is value
