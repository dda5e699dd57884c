"""Array-backend seam tests: registry, budgets, bit-identity, caches.

The contract under test: whatever array backend runs the batched
engine's statevector contraction, every RNG draw happens in host
numpy, so counts are **bit-identical** across backends, and across
chunk sizes and memory budgets on programs of three or more qubits
(BV4 here) — only throughput differs.
"""

import io
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import SimulationError
from repro.hardware import default_ibmq16_calibration
from repro.programs import build_benchmark, expected_output
from repro.runtime import SweepCell, cell_fingerprint, run_sweep
from repro.simulator import (
    CompactProgram,
    NoiseModel,
    ProgramTrace,
    execute,
)
from repro.simulator.batch import batch_plan_probabilities, run_batched
from repro.simulator import xp
from repro.simulator.xp import (
    ArrayBackend,
    NumpyBackend,
    array_backend_available,
    array_backend_status,
    default_array_backend,
    get_array_backend,
    register_array_backend,
    registered_array_backends,
    resolve_array_backend,
    set_default_array_backend,
)

from batch_reference import plan_matrix

TRIALS = 2048
BENCHMARKS = ["BV4", "Toffoli", "HS2"]


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def programs(cal):
    return {name: compile_circuit(build_benchmark(name), cal,
                                  CompilerOptions.r_smt_star())
            for name in BENCHMARKS}


@pytest.fixture(scope="module")
def bv4_trace(cal, programs):
    compiled = programs["BV4"]
    compact = CompactProgram(compiled.physical.circuit,
                             compiled.physical.times,
                             topology=cal.topology)
    return ProgramTrace(compact, NoiseModel(cal))


def sample_plans(trace, n_plans=10, seed=9):
    """A reproducible batch of non-trivial error plans for *trace*."""
    rng = np.random.default_rng(seed)
    occurred = rng.random((256, trace.n_sites)) < trace.site_prob
    plans = []
    for row in np.nonzero(occurred.any(axis=1))[0]:
        sites = np.nonzero(occurred[row])[0]
        choices = np.zeros(sites.size, dtype=np.int64)
        plans.append((sites, choices))
        if len(plans) == n_plans:
            break
    assert len(plans) == n_plans
    return plan_matrix(plans)


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_array_backends()
        assert "numpy" in names and "torch" in names and "cupy" in names

    def test_numpy_always_available(self):
        assert array_backend_available("numpy")
        assert isinstance(get_array_backend("numpy"), NumpyBackend)
        assert "available" in array_backend_status()["numpy"]

    def test_instances_are_shared(self):
        assert get_array_backend("numpy") is get_array_backend("NuMpY")

    def test_unknown_name_has_did_you_mean(self):
        with pytest.raises(SimulationError, match="did you mean 'torch'"):
            get_array_backend("torhc")
        with pytest.raises(SimulationError, match="unknown array backend"):
            resolve_array_backend("nonsense")

    def test_status_covers_every_registered_name(self):
        status = array_backend_status()
        assert set(status) == set(registered_array_backends())
        for text in status.values():
            assert text.startswith(("available", "unavailable"))

    def test_third_party_registration(self):
        @register_array_backend("test-dummy")
        class Dummy(NumpyBackend):
            name = "test-dummy"

        try:
            assert "test-dummy" in registered_array_backends()
            assert isinstance(get_array_backend("test-dummy"), Dummy)
        finally:
            xp._FACTORIES.pop("test-dummy", None)
            xp._INSTANCES.pop("test-dummy", None)

    def test_unavailable_backend_warns_once_and_falls_back(self):
        @register_array_backend("test-broken")
        def broken():
            raise ImportError("No module named 'brokenlib'")

        try:
            with pytest.raises(SimulationError, match="unavailable"):
                get_array_backend("test-broken")
            with pytest.warns(RuntimeWarning, match="brokenlib"):
                backend = resolve_array_backend("test-broken")
            assert backend.name == "numpy"
            # Second resolve: silent (warn-once), same fallback.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert resolve_array_backend("test-broken").name == "numpy"
        finally:
            xp._FACTORIES.pop("test-broken", None)
            xp._WARNED_UNAVAILABLE.discard("test-broken")

    def test_default_backend_round_trip(self):
        assert default_array_backend() == "numpy"
        set_default_array_backend("numpy")
        assert resolve_array_backend(None).name == "numpy"
        with pytest.raises(SimulationError, match="unknown array backend"):
            set_default_array_backend("nope")
        set_default_array_backend(None)
        assert default_array_backend() == "numpy"

    def test_instance_passes_through(self):
        backend = get_array_backend("numpy")
        assert resolve_array_backend(backend) is backend
        assert get_array_backend(backend) is backend


class TestAmplitudeBudget:
    def test_numpy_native_budget_is_64_mib(self):
        # 64 MiB of complex128 = the old _CHUNK_AMPLITUDES constant.
        assert get_array_backend("numpy").native_amplitude_budget() \
            == 1 << 22

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(xp.CHUNK_ENV, "1")
        assert get_array_backend("numpy").amplitude_budget() == 65536

    def test_env_override_validation(self, monkeypatch):
        monkeypatch.setenv(xp.CHUNK_ENV, "zero")
        with pytest.raises(SimulationError, match="number of MiB"):
            get_array_backend("numpy").amplitude_budget()
        monkeypatch.setenv(xp.CHUNK_ENV, "-3")
        with pytest.raises(SimulationError, match="positive"):
            get_array_backend("numpy").amplitude_budget()
        # float() parses these, but no buffer has a non-finite size.
        for raw in ("nan", "inf", "1e400"):
            monkeypatch.setenv(xp.CHUNK_ENV, raw)
            with pytest.raises(SimulationError, match="finite"):
                get_array_backend("numpy").amplitude_budget()

    def test_budget_does_not_change_results(self, bv4_trace, monkeypatch):
        plans = sample_plans(bv4_trace)
        baseline = batch_plan_probabilities(bv4_trace, plans)
        monkeypatch.setenv(xp.CHUNK_ENV, "0.001")  # a handful of plans
        squeezed = batch_plan_probabilities(bv4_trace, plans)
        np.testing.assert_array_equal(baseline, squeezed)


class TestChunkInvariance:
    def test_chunk_sizes_agree_exactly(self, bv4_trace):
        plans = sample_plans(bv4_trace)
        default = batch_plan_probabilities(bv4_trace, plans)
        for chunk in (1, 3):
            chunked = batch_plan_probabilities(bv4_trace, plans,
                                               chunk=chunk)
            np.testing.assert_array_equal(default, chunked)

    def test_chunk_must_be_positive(self, bv4_trace):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            batch_plan_probabilities(bv4_trace, sample_plans(bv4_trace, 2),
                                     chunk=0)

    def test_run_batched_seed_determinism_per_backend(self, bv4_trace):
        a = run_batched(bv4_trace, 512, np.random.default_rng(3))
        b = run_batched(bv4_trace, 512, np.random.default_rng(3),
                        array_backend="numpy")
        assert a == b


class TestCrossBackendBitIdentity:
    """Counts must match numpy exactly on every available backend."""

    @pytest.mark.parametrize("backend_name", ["torch", "cupy"])
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_counts_bit_identical(self, cal, programs, bench,
                                  backend_name):
        if not array_backend_available(backend_name):
            pytest.skip(f"array backend {backend_name!r} not installed")
        compiled = programs[bench]
        expected = expected_output(bench)
        reference = execute(compiled, cal, trials=TRIALS, seed=11,
                            expected=expected, array_backend="numpy")
        device = execute(compiled, cal, trials=TRIALS, seed=11,
                         expected=expected, array_backend=backend_name)
        assert device.counts == reference.counts

    @pytest.mark.parametrize("backend_name", ["torch", "cupy"])
    def test_plan_matrices_match_to_float_tolerance(self, bv4_trace,
                                                    backend_name):
        # The probability matrices themselves may differ at float ulp
        # level across libraries; the *counts* identity above holds
        # because sampling consumes host-normalized rows. Pin the
        # matrices to tight tolerance as an early-warning diagnostic.
        if not array_backend_available(backend_name):
            pytest.skip(f"array backend {backend_name!r} not installed")
        plans = sample_plans(bv4_trace)
        host = batch_plan_probabilities(bv4_trace, plans,
                                        array_backend="numpy")
        device = batch_plan_probabilities(bv4_trace, plans,
                                          array_backend=backend_name)
        np.testing.assert_allclose(device, host, rtol=1e-12, atol=1e-14)


class TestEngineSelection:
    def test_only_dense_engines_take_an_array_backend(self):
        """An accelerator is an array backend for ``batched`` (which
        ``auto`` forwards to), not an engine of its own."""
        from repro.backend import get_engine, registered_engines

        takers = {name for name in registered_engines()
                  if get_engine(name).accepts_array_backend}
        assert takers == {"batched", "auto"}

    def test_engines_listing_shows_array_backends(self):
        out = io.StringIO()
        assert main(["engines"], out=out) == 0
        text = out.getvalue()
        assert "batched" in text
        assert "numpy" in text and "torch" in text and "cupy" in text

    def test_non_array_engine_warns_when_backend_requested(self, cal,
                                                           programs):
        from repro.simulator import executor

        executor._WARNED_ARRAY_IGNORED.discard("stabilizer")
        with pytest.warns(RuntimeWarning,
                          match="array_backend selection is ignored"):
            execute(programs["BV4"], cal, trials=8, seed=0,
                    engine="stabilizer", array_backend="numpy")


class TestSweepCacheSharing:
    """The array backend must stay out of every cache key: sweeping the
    same grid per backend costs zero extra compiles or trace builds."""

    def make_cells(self, cal, array_backend):
        spec_names = ("BV4", "Toffoli")
        cells = []
        for name in spec_names:
            circuit = build_benchmark(name)
            for seed in (0, 1):
                cells.append(SweepCell(
                    circuit=circuit, calibration=cal,
                    options=CompilerOptions.r_smt_star(),
                    expected=expected_output(name), trials=128,
                    seed=seed, array_backend=array_backend,
                    key=(name, seed)))
        return cells

    def test_fingerprint_excludes_array_backend(self, cal):
        plain = self.make_cells(cal, None)
        torch = self.make_cells(cal, "torch")
        for a, b in zip(plain, torch):
            assert cell_fingerprint(a) == cell_fingerprint(b)

    def test_no_extra_cache_misses_across_backends(self, cal):
        baseline = run_sweep(self.make_cells(cal, None))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            selected = run_sweep(self.make_cells(cal, "torch"))
        assert selected.compile_stats.misses == \
            baseline.compile_stats.misses
        assert selected.trace_stats.misses == baseline.trace_stats.misses
        # Counts are backend-independent, so the journaled results are
        # interchangeable too (torch falls back to numpy when absent —
        # same contract, same bits).
        for a, b in zip(baseline, selected):
            assert a.execution.counts == b.execution.counts


class TestCliFlags:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_run_accepts_array_backend(self):
        import os

        try:
            code, text = self.run_cli(
                "run", "--benchmark", "BV4", "--trials", "64",
                "--array-backend", "numpy", "--chunk-mib", "8")
        finally:
            os.environ.pop(xp.CHUNK_ENV, None)  # --chunk-mib sets it
        assert code == 0
        assert "success rate" in text

    def test_run_rejects_unknown_array_backend(self, capsys):
        code, _ = self.run_cli(
            "run", "--benchmark", "BV4", "--trials", "64",
            "--array-backend", "torhc")
        assert code == 1
        assert "did you mean 'torch'" in capsys.readouterr().err

    def test_sweep_accepts_array_backend(self):
        code, text = self.run_cli(
            "sweep", "--benchmarks", "BV4", "--variants", "r-smt*",
            "--trials", "64", "--array-backend", "numpy")
        assert code == 0
        assert "BV4" in text
