"""Error-mitigation subsystem tests.

Covers the three estimator families (ZNE with both amplifiers, readout
inversion, composition), their integration with the sweep runtime's
mitigation axis and caches, the persistent on-disk compile/stage cache,
and the acceptance bar: ``repro mitigate --strategy zne`` must improve
mean success over the unmitigated baseline on >= 3 Table-2 benchmarks
under the default noise model.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import MitigationError, ReproError, SimulationError
from repro.hardware import default_ibmq16_calibration
from repro.mitigation import (
    ComposedStrategy,
    FoldingPass,
    MitigationContext,
    ReadoutMitigator,
    ReadoutStrategy,
    ScaledNoiseModel,
    ZneStrategy,
    achieved_scale,
    confusion_matrix,
    extrapolate,
    fold_circuit,
    folded_pipeline,
    richardson_extrapolate,
    strategy_from_spec,
)
from repro.programs import get_benchmark
from repro.programs.random_circuits import random_circuit
from repro.runtime import CompileCache, DiskStore, SweepCell, TraceCache, \
    run_sweep
from repro.simulator import NoiseModel, StateVector, execute

TRIALS = 256


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def compiled_bv4(cal):
    return compile_circuit(get_benchmark("BV4").build(), cal,
                           CompilerOptions.r_smt_star())


def make_context(cal, compiled, trials=TRIALS, seed=3, **kwargs):
    baseline = execute(compiled, cal, trials=trials, seed=seed,
                       expected=get_benchmark("BV4").expected_output)
    return MitigationContext(compiled=compiled, calibration=cal,
                             baseline=baseline, trials=trials, seed=seed,
                             **kwargs)


# ----------------------------------------------------------------------
# Readout confusion inversion
# ----------------------------------------------------------------------
class TestConfusionInversion:
    @given(p0=st.floats(0.0, 0.4), p1=st.floats(0.0, 0.4))
    @settings(max_examples=50, deadline=None)
    def test_matrix_is_column_stochastic(self, p0, p1):
        matrix = confusion_matrix(p0, p1)
        assert np.allclose(matrix.sum(axis=0), 1.0)
        assert (matrix >= 0.0).all()

    @given(readout=st.floats(0.01, 0.3),
           asymmetry=st.floats(-0.5, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_calibration_matrix_matches_flip_probabilities(
            self, readout, asymmetry):
        from repro.hardware.calibration import QubitCalibration

        record = QubitCalibration(t1_us=90.0, t2_us=70.0,
                                  readout_error=readout,
                                  single_qubit_error=0.002,
                                  readout_asymmetry=asymmetry)
        matrix = record.confusion_matrix()
        assert matrix[1][0] == pytest.approx(
            record.readout_flip_probability(0))
        assert matrix[0][1] == pytest.approx(
            record.readout_flip_probability(1))
        assert matrix[0][0] + matrix[1][0] == pytest.approx(1.0)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_inversion_is_exact_on_synthetic_noise(self, data, cal,
                                                   compiled_bv4):
        """apply(apply_confusion(p)) == p for any true distribution."""
        mitigator = ReadoutMitigator(compiled_bv4, cal)
        m = len(mitigator.cbits)
        assert m > 0
        weights = data.draw(st.lists(st.floats(0.0, 1.0),
                                     min_size=1 << m, max_size=1 << m))
        total = sum(weights)
        if total <= 0.0:
            weights[0] = 1.0
            total = 1.0
        truth = {}
        for index, weight in enumerate(weights):
            if weight > 0.0:
                truth[mitigator._string(index)] = weight / total
        noisy = mitigator.apply_confusion(truth)
        recovered = mitigator.apply(noisy)
        for outcome in set(truth) | set(recovered):
            assert recovered.get(outcome, 0.0) == pytest.approx(
                truth.get(outcome, 0.0), abs=1e-9)

    def test_inverts_the_executors_readout_channel(self, cal, compiled_bv4):
        """Mitigating a readout-noise-only run recovers ~ideal success."""
        noise = NoiseModel(cal, gate_errors=False, decoherence=False)
        expected = get_benchmark("BV4").expected_output
        baseline = execute(compiled_bv4, cal, trials=4096, seed=11,
                           expected=expected, noise_model=noise)
        ctx = MitigationContext(compiled=compiled_bv4, calibration=cal,
                                baseline=baseline, trials=4096, seed=11,
                                noise=noise)
        outcome = ReadoutStrategy().mitigate(ctx)
        # Raw success is visibly depressed by readout error alone...
        assert outcome.raw_success < 0.9
        # ...and inversion recovers the ideal (deterministic) answer to
        # within sampling error.
        assert outcome.mitigated_success > 0.97
        assert outcome.executions == 0

    def test_disabled_readout_noise_is_identity(self, cal, compiled_bv4):
        noise = NoiseModel(cal, readout_errors=False)
        mitigator = ReadoutMitigator(compiled_bv4, cal, noise=noise)
        dist = {mitigator._string(0): 0.25, mitigator._string(3): 0.75}
        assert mitigator.apply(dist) == pytest.approx(dist)


# ----------------------------------------------------------------------
# Gate folding
# ----------------------------------------------------------------------
class TestFolding:
    @given(seed=st.integers(0, 10_000),
           n_gates=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_scale_one_is_fingerprint_identical(self, seed, n_gates):
        circuit = random_circuit(3, n_gates, seed=seed)
        assert fold_circuit(circuit, 1.0).fingerprint() == \
            circuit.fingerprint()

    @given(seed=st.integers(0, 10_000),
           scale=st.sampled_from([3.0, 5.0, 7.0]))
    @settings(max_examples=30, deadline=None)
    def test_odd_integer_scales_fold_every_gate(self, seed, scale):
        circuit = random_circuit(3, 12, seed=seed)
        folded = fold_circuit(circuit, scale)
        assert achieved_scale(circuit, folded) == pytest.approx(scale)
        # Measurements pass through untouched.
        assert len(folded.measurements) == len(circuit.measurements)

    def test_folding_preserves_semantics(self):
        circuit = random_circuit(3, 15, seed=42, measure=False)
        reference = StateVector(3)
        for gate in circuit.gates:
            reference.apply_gate(gate.name, gate.qubits, param=gate.param)
        for scale in (1.0, 1.8, 3.0):
            state = StateVector(3)
            for gate in fold_circuit(circuit, scale).gates:
                state.apply_gate(gate.name, gate.qubits, param=gate.param)
            assert np.allclose(state.probabilities(),
                               reference.probabilities(), atol=1e-9)

    def test_fractional_scale_rounds_to_nearest_fold_count(self):
        circuit = random_circuit(4, 20, seed=0, measure=False)
        folded = fold_circuit(circuit, 2.0)
        # scale 2 over 20 gates: 10 gates folded once -> 40 gates.
        assert achieved_scale(circuit, folded) == pytest.approx(2.0)

    def test_scale_below_one_rejected(self):
        with pytest.raises(MitigationError):
            fold_circuit(random_circuit(2, 4, seed=0), 0.5)

    def test_folding_pass_in_pipeline(self, cal):
        """folded_pipeline compiles to a semantically equivalent but
        longer physical program, reusing the unfolded mapping prefix."""
        circuit = get_benchmark("BV4").build()
        options = CompilerOptions.r_smt_star()
        plain = compile_circuit(circuit, cal, options)
        folded = folded_pipeline(options, 3.0).run(circuit, cal, options)
        assert folded.physical.circuit.gate_count() > \
            plain.physical.circuit.gate_count()
        assert folded.placement == plain.placement
        names = [timing.name for timing in folded.pass_timings]
        assert "fold" in names


# ----------------------------------------------------------------------
# Extrapolation
# ----------------------------------------------------------------------
class TestExtrapolation:
    @given(data=st.data(),
           scales=st.sampled_from([(1.0, 2.0), (1.0, 2.0, 3.0),
                                   (1.0, 1.5, 2.0, 3.0)]))
    @settings(max_examples=60, deadline=None)
    def test_richardson_recovers_polynomial_decay(self, data, scales):
        """Exact for any polynomial of degree < #points."""
        degree = len(scales) - 1
        coeffs = data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False),
            min_size=degree + 1, max_size=degree + 1))
        values = [sum(c * x ** k for k, c in enumerate(coeffs))
                  for x in scales]
        assert richardson_extrapolate(scales, values) == \
            pytest.approx(coeffs[0], abs=1e-6)

    @given(intercept=st.floats(0.1, 1.0), slope=st.floats(-0.3, 0.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_fit_recovers_lines(self, intercept, slope):
        scales = (1.0, 1.5, 2.0)
        values = [intercept + slope * x for x in scales]
        assert extrapolate(scales, values, "linear") == \
            pytest.approx(intercept, abs=1e-9)

    def test_exp_fit_recovers_exponential_decay(self):
        scales = (1.0, 2.0, 3.0)
        values = [0.9 * np.exp(-0.2 * x) for x in scales]
        assert extrapolate(scales, values, "exp") == \
            pytest.approx(0.9, abs=1e-9)

    def test_duplicate_scales_rejected(self):
        with pytest.raises(MitigationError):
            richardson_extrapolate((1.0, 1.0, 2.0), (0.5, 0.5, 0.4))

    def test_unknown_fit_rejected(self):
        with pytest.raises(MitigationError):
            extrapolate((1.0, 2.0), (0.5, 0.4), "spline")


# ----------------------------------------------------------------------
# Scaled noise models and trace rescaling
# ----------------------------------------------------------------------
class TestScaledNoise:
    def test_rescaled_trace_matches_fresh_lowering(self, cal, compiled_bv4):
        """execute() under a ScaledNoiseModel is bit-identical whether
        the trace is freshly lowered or rescaled from the base trace."""
        expected = get_benchmark("BV4").expected_output
        base = NoiseModel(cal)
        for scale in (0.5, 1.7, 4.0):
            scaled = ScaledNoiseModel(base, scale)
            fresh = execute(compiled_bv4, cal, trials=TRIALS, seed=5,
                            expected=expected, noise_model=scaled)
            cache = TraceCache()
            ctx = make_context(cal, compiled_bv4, trace_cache=cache)
            cache.put(compiled_bv4, scaled, cal,
                      ctx.base_trace().rescaled(scale))
            reused = execute(compiled_bv4, cal, trials=TRIALS, seed=5,
                             expected=expected, noise_model=scaled,
                             trace_cache=cache)
            assert fresh.counts == reused.counts, scale

    def test_probabilities_clip_at_one(self, cal):
        from repro.ir.gates import Gate

        scaled = ScaledNoiseModel(NoiseModel(cal), 1e6)
        assert scaled.gate_error_probability(Gate("cx", (0, 1))) <= 1.0
        rates = scaled.idle_rates(0, 500.0)
        assert rates.total <= 1.0 + 1e-12
        # The conditional Pauli split survives renormalization.
        base = NoiseModel(cal).idle_rates(0, 500.0)
        assert rates.p_x / rates.total == \
            pytest.approx(base.p_x / base.total)

    def test_scale_one_matches_base_model(self, cal, compiled_bv4):
        expected = get_benchmark("BV4").expected_output
        plain = execute(compiled_bv4, cal, trials=TRIALS, seed=9,
                        expected=expected)
        unscaled = execute(compiled_bv4, cal, trials=TRIALS, seed=9,
                           expected=expected,
                           noise_model=ScaledNoiseModel(NoiseModel(cal),
                                                        1.0))
        assert plain.counts == unscaled.counts

    def test_trace_key_none_for_unknown_base(self, cal):
        class Exotic(NoiseModel):
            def gate_error_probability(self, gate,
                                       concurrent_neighbors=0):
                return 0.0

        assert ScaledNoiseModel(Exotic(cal), 2.0).trace_key() is None
        assert ScaledNoiseModel(NoiseModel(cal), 2.0).trace_key() \
            is not None

    def test_negative_scale_rejected(self, cal):
        with pytest.raises(MitigationError):
            ScaledNoiseModel(NoiseModel(cal), -0.1)


@pytest.mark.parametrize("scale", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
class TestNonFiniteScales:
    """Every entry point taking a noise scale rejects nan and inf with
    its own typed error, before a fit, a fold or a sampler sees it."""

    def test_zne_strategy(self, scale):
        with pytest.raises(MitigationError, match="finite"):
            ZneStrategy(scales=(1.0, scale, 2.0))

    def test_fold_circuit(self, scale):
        with pytest.raises(MitigationError, match="finite"):
            fold_circuit(random_circuit(2, 4, seed=0), scale)

    def test_folding_pass(self, scale):
        with pytest.raises(MitigationError, match="finite"):
            FoldingPass(scale)

    def test_scaled_noise_model(self, cal, scale):
        with pytest.raises(MitigationError, match="finite"):
            ScaledNoiseModel(NoiseModel(cal), scale)

    def test_rescaled_trace(self, cal, compiled_bv4, scale):
        trace = make_context(cal, compiled_bv4,
                             trace_cache=TraceCache()).base_trace()
        with pytest.raises(SimulationError, match="finite"):
            trace.rescaled(scale)


# ----------------------------------------------------------------------
# Strategies and composition
# ----------------------------------------------------------------------
class TestStrategies:
    def test_zne_validation(self):
        with pytest.raises(MitigationError):
            ZneStrategy(scales=(1.0,))
        with pytest.raises(MitigationError):
            ZneStrategy(scales=(1.0, 1.0))
        with pytest.raises(MitigationError):
            ZneStrategy(scales=(0.5, 1.0))
        with pytest.raises(MitigationError):
            ZneStrategy(fit="spline")
        with pytest.raises(MitigationError):
            ZneStrategy(amplifier="wishful")
        with pytest.raises(MitigationError):
            ZneStrategy(amplifier="fold", scale_readout=True)

    def test_declared_cost_matches_performed_executions(self, cal,
                                                        compiled_bv4):
        for strategy in (ZneStrategy(),
                         ZneStrategy(scales=(1.0, 2.0, 3.0, 4.0)),
                         ReadoutStrategy(),
                         strategy_from_spec("readout+zne")):
            outcome = strategy.mitigate(make_context(cal, compiled_bv4))
            assert outcome.executions == strategy.extra_executions(), \
                strategy.name

    def test_spec_parsing(self):
        assert strategy_from_spec("zne").name == "zne"
        assert strategy_from_spec("readout").name == "readout"
        stacked = strategy_from_spec("readout+zne")
        assert isinstance(stacked, ComposedStrategy)
        assert stacked.name == "readout+zne"
        with pytest.raises(MitigationError):
            strategy_from_spec("magic")
        # Estimator-only strategies are rejected in leading slots: a
        # "zne+readout" stack would silently run zero scaled
        # executions while advertising ZNE's name and cost.
        with pytest.raises(MitigationError, match="readout\\+zne"):
            strategy_from_spec("zne+readout")

    def test_composed_applies_readout_to_every_scale(self, cal,
                                                     compiled_bv4):
        """The stack's scale-1 point equals standalone readout
        mitigation of the baseline — transforms reach the estimator."""
        ctx = make_context(cal, compiled_bv4)
        stacked = ComposedStrategy([ReadoutStrategy(), ZneStrategy()])
        outcome = stacked.mitigate(ctx)
        readout_only = ReadoutStrategy().mitigate(ctx)
        scale1 = dict((s, v) for s, v in outcome.points)[1.0]
        assert scale1 == pytest.approx(readout_only.mitigated_success)
        assert outcome.raw_success == pytest.approx(
            readout_only.raw_success)

    def test_scaled_readout_rejected_under_transforms(self, cal,
                                                      compiled_bv4):
        """readout+zne with readout amplification would apply an
        unscaled confusion inverse to scaled channels — rejected."""
        stacked = ComposedStrategy([ReadoutStrategy(),
                                    ZneStrategy(scale_readout=True)])
        with pytest.raises(MitigationError, match="scale_readout"):
            stacked.mitigate(make_context(cal, compiled_bv4))
        # Standalone scaled-readout ZNE remains fine.
        outcome = ZneStrategy(scale_readout=True).mitigate(
            make_context(cal, compiled_bv4))
        assert 0.0 <= outcome.mitigated_success <= 1.0

    def test_context_requires_expected(self, cal, compiled_bv4):
        baseline = execute(compiled_bv4, cal, trials=8, seed=0)
        with pytest.raises(MitigationError):
            MitigationContext(compiled=compiled_bv4, calibration=cal,
                              baseline=baseline)


# ----------------------------------------------------------------------
# Sweep-runtime integration (acceptance: cache reuse for scaled cells)
# ----------------------------------------------------------------------
class TestMitigationSweep:
    def test_scaled_cells_hit_trace_cache(self, cal):
        """Replicated mitigated cells reuse the scaled-noise traces:
        the extra trace hits can only come from scaled executions."""
        spec = get_benchmark("BV4")
        circuit = spec.build()

        def cells(mitigation):
            return [SweepCell(circuit=circuit, calibration=cal,
                              options=CompilerOptions.r_smt_star(),
                              expected=spec.expected_output, trials=64,
                              seed=seed, mitigation=mitigation,
                              key=("BV4", seed))
                    for seed in (0, 1, 2)]

        plain = run_sweep(cells(None))
        mitigated = run_sweep(cells(ZneStrategy()))
        assert mitigated.trace_stats.hits > plain.trace_stats.hits > 0

    def test_folded_cells_hit_stage_cache(self, cal):
        """Fold-amplified cells reuse the mapping prefix (first cell)
        and whole folded pipelines (replicas) via the stage cache."""
        spec = get_benchmark("BV4")
        cells = [SweepCell(circuit=spec.build(), calibration=cal,
                           options=CompilerOptions.r_smt_star(),
                           expected=spec.expected_output, trials=64,
                           seed=seed,
                           mitigation=ZneStrategy(scales=(1.0, 3.0),
                                                  amplifier="fold"),
                           key=("BV4", seed))
                 for seed in (0, 1)]
        sweep = run_sweep(cells)
        assert sweep.stage_stats.hits > 0

    def test_parallel_matches_serial(self, cal):
        """Mitigated grids stay bit-identical across the process pool
        (strategies and results pickle cleanly)."""
        specs = {name: get_benchmark(name) for name in ("BV4", "HS2")}
        cells = [SweepCell(circuit=spec.build(), calibration=cal,
                           options=options,
                           expected=spec.expected_output, trials=64,
                           seed=seed,
                           mitigation=strategy_from_spec("readout+zne"),
                           key=(name, options.variant, seed))
                 for name, spec in specs.items()
                 for options in (CompilerOptions.r_smt_star(),
                                 CompilerOptions.t_smt_star(routing="1bp"))
                 for seed in (0, 1)]
        serial = run_sweep(cells, workers=0)
        parallel = run_sweep(cells, workers=2)
        for a, b in zip(serial, parallel):
            assert a.key == b.key
            assert a.mitigation.points == b.mitigation.points
            assert a.mitigation.mitigated_success == \
                b.mitigation.mitigated_success

    def test_unmitigated_cells_unchanged(self, cal):
        spec = get_benchmark("BV4")
        cell = SweepCell(circuit=spec.build(), calibration=cal,
                         options=CompilerOptions.r_smt_star(),
                         expected=spec.expected_output, trials=64,
                         seed=0, key="BV4")
        result = run_sweep([cell]).results[0]
        assert result.mitigation is None
        with pytest.raises(ReproError):
            result.mitigated_success


# ----------------------------------------------------------------------
# Acceptance: ZNE improves success on Table-2 benchmarks
# ----------------------------------------------------------------------
class TestZneImprovesSuccess:
    BENCHMARKS = ("BV4", "BV6", "HS2", "Toffoli")

    def test_improves_on_at_least_three_benchmarks(self, cal):
        spec_map = {name: get_benchmark(name) for name in self.BENCHMARKS}
        cells = [SweepCell(circuit=spec.build(), calibration=cal,
                           options=CompilerOptions.r_smt_star(),
                           expected=spec.expected_output, trials=1024,
                           seed=7, mitigation=ZneStrategy(), key=name)
                 for name, spec in spec_map.items()]
        sweep = run_sweep(cells)
        improved = [r.key for r in sweep if r.mitigation.gain > 0.0]
        assert len(improved) >= 3, improved
        mean_raw = sum(r.mitigation.raw_success for r in sweep) / len(sweep)
        mean_mit = sum(r.mitigation.mitigated_success
                       for r in sweep) / len(sweep)
        assert mean_mit > mean_raw

    def test_cli_mitigate_reports_improvement(self):
        out = io.StringIO()
        assert main(["mitigate", "--strategy", "zne", "--trials", "512",
                     "--benchmarks", *self.BENCHMARKS], out=out) == 0
        text = out.getvalue()
        assert "mitigated" in text
        improved = int(text.split("improved on ")[1].split("/")[0])
        assert improved >= 3, text


# ----------------------------------------------------------------------
# Persistent disk cache
# ----------------------------------------------------------------------
class TestDiskCache:
    def test_programs_survive_process_boundary(self, cal, tmp_path):
        """A second cache instance on the same directory (simulating a
        new process) serves the compilation as a hit."""
        circuit = get_benchmark("BV4").build()
        options = CompilerOptions.r_smt_star()
        first = CompileCache(DiskStore(tmp_path))
        program, hit = first.get_or_compile(circuit, cal, options)
        assert not hit

        second = CompileCache(DiskStore(tmp_path))
        replayed, hit = second.get_or_compile(circuit, cal, options)
        assert hit
        assert replayed.fingerprint() == program.fingerprint()
        assert second.stats.hits == 1 and second.stats.misses == 0

    def test_stage_artifacts_survive_too(self, cal, tmp_path):
        circuit = get_benchmark("BV4").build()
        first = CompileCache(DiskStore(tmp_path))
        first.get_or_compile(circuit, cal, CompilerOptions.r_smt_star())

        second = CompileCache(DiskStore(tmp_path))
        # A post-mapping variation in a fresh process still reuses the
        # on-disk mapping artifact.
        program, hit = second.get_or_compile(
            circuit, cal, CompilerOptions.r_smt_star().with_(peephole=True))
        assert not hit
        assert second.stages.stats.hits > 0
        cached_stages = [timing.name for timing in program.pass_timings
                         if timing.cached]
        assert "mapping[r-smt*]" in cached_stages

    def test_corrupt_entries_fail_integrity_check(self, cal, tmp_path):
        """Flipping stored bytes must degrade to a miss, never a crash
        or a bogus artifact."""
        circuit = get_benchmark("BV4").build()
        options = CompilerOptions.r_smt_star()
        CompileCache(DiskStore(tmp_path)).get_or_compile(circuit, cal,
                                                         options)
        for path in tmp_path.rglob("*"):
            if path.is_file():
                blob = bytearray(path.read_bytes())
                blob[len(blob) // 2] ^= 0xFF
                path.write_bytes(bytes(blob))

        fresh = CompileCache(DiskStore(tmp_path))
        program, hit = fresh.get_or_compile(circuit, cal, options)
        assert not hit  # every corrupted entry was rejected
        assert program.physical.circuit.gate_count() > 0

    def test_store_round_trip_checks_key(self, tmp_path):
        from repro.runtime import DiskStore

        store = DiskStore(tmp_path)
        store.store("stage", "key-a", {"value": 1})
        assert store.load("stage", "key-a") == {"value": 1}
        assert store.load("stage", "key-b") is None

    def test_sweep_cache_dir_round_trip(self, cal, tmp_path):
        spec = get_benchmark("BV4")
        cells = [SweepCell(circuit=spec.build(), calibration=cal,
                           options=CompilerOptions.r_smt_star(),
                           expected=spec.expected_output, trials=32,
                           seed=0, key="BV4")]
        cold = run_sweep(cells, cache_dir=tmp_path)
        warm = run_sweep(cells, cache_dir=tmp_path)
        assert cold.compile_stats.hits == 0
        assert warm.compile_stats.hits == 1
        assert cold.results[0].execution.counts == \
            warm.results[0].execution.counts


# ----------------------------------------------------------------------
# The experiment harness
# ----------------------------------------------------------------------
class TestMitigationStudy:
    def test_study_shape_and_text(self, cal):
        from repro.experiments import run_mitigation_study

        result = run_mitigation_study(
            benchmarks=("BV4", "HS2"),
            variants=[CompilerOptions.r_smt_star()],
            strategies=[ZneStrategy(), ReadoutStrategy()],
            calibration=cal, trials=128, seed=7)
        assert set(result.runs) == {"BV4", "HS2"}
        assert result.strategies == ["zne", "readout"]
        assert 0.0 <= result.mitigated("BV4", "r-smt*", "zne") <= 1.0
        assert result.raw("BV4", "r-smt*") == pytest.approx(
            result.cell("BV4", "r-smt*", "readout").success_rate)
        text = result.to_text()
        assert "geomean lift" in text and "BV4" in text
