"""Backend presets and engine names: lookup, cache isolation, CLI."""

import io
import socket

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    ENGINES,
    Backend,
    engine_name,
    get_backend,
)
from repro.cli import main
from repro.compiler import CompilerOptions, PassManager, compile_circuit
from repro.exceptions import (
    BackendError,
    CalibrationError,
    SimulationError,
    TopologyError,
)
from repro.hardware import GridTopology
from repro.programs import get_benchmark
from repro.runtime import SweepCell, run_sweep
from repro.simulator import NoiseModel, execute, run_batched
from repro.simulator.executor import lowered_trace

TRIALS = 128


@pytest.fixture
def bv4():
    return get_benchmark("BV4")


def make_device_cells(backends, spec, seeds=(0,), options=None, **kwargs):
    options = options or CompilerOptions.r_smt_star()
    return [SweepCell(circuit=spec.build(), backend=backend,
                      options=options, expected=spec.expected_output,
                      trials=TRIALS, seed=seed,
                      key=(backend.name, seed), **kwargs)
            for backend in backends for seed in seeds]


class TestBackendRegistry:
    def test_at_least_five_presets(self):
        assert len(BACKENDS) >= 5

    def test_lookup_is_case_insensitive_and_memoized(self):
        assert get_backend("IBMQ16") is get_backend("ibmq16")
        assert get_backend("ibmq16").topology.n_qubits == 16

    def test_unknown_backend_suggests(self):
        with pytest.raises(BackendError, match="did you mean 'ibmq16'"):
            get_backend("ibmq61")
        # The lookup error still satisfies the legacy device contract.
        with pytest.raises(TopologyError):
            get_backend("quantum-toaster")

    def test_content_id_stable_and_distinct(self):
        a = get_backend("ibmq16")
        assert a.content_id() == \
            Backend(name="ibmq16", topology=a.topology).content_id()
        ids = {get_backend(n).content_id() for n in BACKENDS}
        assert len(ids) == len(BACKENDS)
        assert a.with_(calibration_seed=7).content_id() != a.content_id()

    def test_calibration_stream_memoized(self):
        backend = get_backend("falcon27")
        assert backend.calibration(3) is backend.calibration(3)
        assert backend.calibration(3).label == "day3"
        days = list(backend.days(2))
        assert [c.label for c in days] == ["day0", "day1"]

    def test_negative_calibration_day_rejected(self):
        with pytest.raises(CalibrationError):
            get_backend("ibmq16").calibration(-1)

    def test_non_preset_backend_value_runs_end_to_end(self):
        """A machine that is not a preset is a plain ``Backend`` value:
        ``get_backend`` passes it through and a sweep runs on it."""
        backend = Backend(name="testlab9",
                          topology=GridTopology(3, 3, name="TestLab9"),
                          description="test-only 3x3 machine")
        assert "testlab9" not in BACKENDS
        assert get_backend(backend) is backend
        assert backend.n_qubits == 9
        spec = get_benchmark("BV4")
        sweep = run_sweep(make_device_cells([backend], spec))
        assert 0.0 <= sweep.results[0].success_rate <= 1.0

    def test_device_calibration_uses_backend_profile(self):
        """Each preset's snapshots come from its own noise profile."""
        falcon = get_backend("falcon27").calibration()
        rueschlikon = get_backend("ibmq16").calibration()
        assert falcon.mean_cnot_error() < rueschlikon.mean_cnot_error()
        # Seed override still works and is reflected in the data.
        reseeded = get_backend("ibmq16").with_(calibration_seed=7)
        assert reseeded.calibration().content_id() != \
            rueschlikon.content_id()


class TestEngineRegistry:
    def test_builtins_registered(self):
        assert tuple(ENGINES) == ("batched", "stabilizer", "auto")

    def test_unknown_engine_suggests(self):
        with pytest.raises(SimulationError, match="did you mean 'batched'"):
            engine_name("bathced")

    def test_engine_lookup_case_insensitive(self):
        # Matches get_backend's case handling.
        assert engine_name("Batched") == engine_name("batched")

    def test_cell_engine_derived_from_backend(self, bv4):
        backend = get_backend("ibmq16").with_(default_engine="auto")
        cell = SweepCell(circuit=bv4.build(), backend=backend,
                         options=CompilerOptions.r_smt_star(),
                         expected=bv4.expected_output)
        assert cell.engine == "auto"
        override = SweepCell(circuit=bv4.build(), backend=backend,
                             options=CompilerOptions.r_smt_star(),
                             expected=bv4.expected_output,
                             engine="stabilizer")
        assert override.engine == "stabilizer"


class TestCrossDeviceIsolation:
    def test_distinct_keys_and_zero_cross_hits(self, bv4):
        """Identical circuit+options on two backends: disjoint compile,
        stage and trace key spaces — no cache tier may cross-serve."""
        backends = [get_backend("ibmq16"), get_backend("aspen16")]
        cells = make_device_cells(backends, bv4)
        assert cells[0].compile_key() != cells[1].compile_key()
        assert cells[0].prefix_key() != cells[1].prefix_key()
        sweep = run_sweep(cells)
        # One compile, one lowering per device; zero hits anywhere.
        assert sweep.compile_stats.misses == 2
        assert sweep.compile_stats.hits == 0
        assert sweep.trace_stats.hits == 0
        assert sweep.stage_stats.hits == 0

    def test_same_device_still_shares(self, bv4):
        backend = get_backend("ibmq16")
        cells = make_device_cells([backend, backend], bv4, seeds=(0, 1))
        sweep = run_sweep(cells)
        assert sweep.compile_stats.misses == 1
        assert sweep.compile_stats.hits == len(cells) - 1
        assert sweep.trace_stats.hits == len(cells) - 1

    def test_content_equal_backends_share_entries(self, bv4):
        """A renamed copy of ibmq16 yields snapshots equal in content:
        its cells share ibmq16's compile and trace, at every worker
        count, and each result keeps its own cell's key."""
        backends = [get_backend("ibmq16"),
                    get_backend("ibmq16").with_(name="ibmq16-prime")]
        assert backends[0].content_id() != backends[1].content_id()
        cells = make_device_cells(backends, bv4)
        assert cells[0].compile_key() == cells[1].compile_key()
        serial = run_sweep(cells)
        assert serial.compile_stats.misses == 1
        assert serial.compile_stats.hits == 1
        assert serial.trace_stats.misses == 1
        assert serial.trace_stats.hits == 1
        assert [r.key for r in serial] == [("ibmq16", 0),
                                           ("ibmq16-prime", 0)]
        assert serial.results[0].execution.counts == \
            serial.results[1].execution.counts
        grid = cells + make_device_cells([get_backend("aspen16")], bv4)
        parallel = run_sweep(grid, workers=2)
        assert parallel.workers == 2
        assert parallel.compile_stats.misses == 2
        assert parallel.trace_stats.hits == 1
        assert [r.key for r in parallel] == [c.key for c in grid]

    def test_mixed_device_grid_parallel_bit_identical(self, bv4):
        backends = [get_backend(n)
                    for n in ("ibmq16", "ibmq5", "iontrap8")]
        cells = make_device_cells(backends, bv4, seeds=(0, 1))
        serial = run_sweep(cells, workers=0)
        for workers in (2, 3):
            parallel = run_sweep(cells, workers=workers)
            for a, b in zip(serial, parallel):
                assert a.key == b.key
                assert a.execution.counts == b.execution.counts
            assert parallel.compile_stats.hits == serial.compile_stats.hits
            assert parallel.trace_stats.hits == serial.trace_stats.hits

    def test_partition_clusters_whole_machines(self, bv4):
        """With at least as many machines as batches, each device's
        cells land on exactly one worker (shared tables memo)."""
        from repro.runtime.sweep import _partition

        backends = [get_backend(n)
                    for n in ("ibmq16", "ibmq5", "iontrap8")]
        variants = [CompilerOptions.greedy_e(), CompilerOptions.greedy_v()]
        cells = [cell
                 for options in variants
                 for cell in make_device_cells(backends, bv4,
                                               options=options)]
        batches = _partition(cells, workers=3)
        for batch in batches:
            assert len({cell.machine_key() for _, cell in batch}) == 1


class TestPreRefactorIdentity:
    def test_backend_cell_matches_bare_calibration_cell(self, bv4):
        """The default ibmq16+batched path is pinned: routing a cell
        through the backend axis changes no fingerprint and no count."""
        backend = get_backend("ibmq16")
        options = CompilerOptions.r_smt_star()
        with_backend = SweepCell(circuit=bv4.build(), backend=backend,
                                 options=options,
                                 expected=bv4.expected_output,
                                 trials=TRIALS, seed=5, key="b")
        bare = SweepCell(circuit=bv4.build(),
                         calibration=get_backend("ibmq16").calibration(),
                         options=options, expected=bv4.expected_output,
                         trials=TRIALS, seed=5, key="c")
        assert with_backend.calibration.content_id() == \
            bare.calibration.content_id()
        assert with_backend.engine == bare.engine == "batched"
        a, b = run_sweep([with_backend]).results[0], \
            run_sweep([bare]).results[0]
        assert a.compiled.fingerprint() == b.compiled.fingerprint()
        assert a.execution.counts == b.execution.counts

    def test_execute_matches_direct_engine_run(self, bv4):
        """`execute` is a thin dispatcher: its counts must be
        bit-identical to sampling the lowered trace directly."""
        cal = get_backend("ibmq16").calibration()
        compiled = compile_circuit(bv4.build(), cal,
                                   CompilerOptions.r_smt_star())
        via_execute = execute(compiled, cal, trials=TRIALS, seed=3,
                              expected=bv4.expected_output)
        trace = lowered_trace(compiled, cal, NoiseModel(cal))
        direct = run_batched(trace, TRIALS, np.random.default_rng(3))
        assert via_execute.counts == direct


class TestBackendCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_backends_listing(self):
        code, text = self.run_cli("backends")
        assert code == 0
        names = [row.split()[0] for row in text.splitlines()[1:8]]
        assert names == list(BACKENDS) == [
            "ibmq16", "ibmq5", "ibmq20", "iontrap8", "falcon27", "grid144",
            "aspen16"]
        assert ("registered execution engines: batched, stabilizer, auto\n"
                in text)  # the engine roster rides along on its own line

    def test_run_on_preset_with_engine(self):
        code, text = self.run_cli("run", "--benchmark", "BV4",
                                  "--device", "falcon27",
                                  "--engine", "auto",
                                  "--trials", "64")
        assert code == 0
        assert "success rate:" in text

    def test_run_unknown_engine_is_an_error(self):
        code, _ = self.run_cli("run", "--benchmark", "BV4",
                               "--engine", "warp-drive",
                               "--trials", "8")
        assert code == 1

    def test_sweep_unknown_engine_fails_before_compiling(self, monkeypatch,
                                                         capsys):
        compiles = []
        monkeypatch.setattr(PassManager, "run",
                            lambda *args, **kwargs: compiles.append(args))
        code, text = self.run_cli("sweep", "--benchmarks", "BV4",
                                  "--variants", "r-smt*",
                                  "--engine", "bogus")
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown execution engine 'bogus'")
        assert compiles == [] and text == ""

    def test_submit_unknown_engine_fails_before_connecting(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # Nothing listens on the port, so any connection attempt would
        # end in a transport error instead.
        code, text = self.run_cli("submit", "--port", str(port),
                                  "--max-attempts", "1",
                                  "--benchmarks", "BV4",
                                  "--variants", "r-smt*",
                                  "--engine", "warp-drive")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown execution engine 'warp-drive'")
        assert "request failed" not in err and text == ""

    def test_multi_device_sweep(self):
        code, text = self.run_cli(
            "sweep", "--device", "ibmq16", "ibmq5", "iontrap8",
            "--benchmarks", "BV4", "--variants", "greedye*",
            "--trials", "32")
        assert code == 0
        for name in ("ibmq16", "ibmq5", "iontrap8"):
            assert name in text
        assert text.count("BV4") == 3  # same grid ran once per device

    def test_experiment_accepts_device(self):
        code, text = self.run_cli("experiment", "fig8",
                                  "--device", "aspen16")
        assert code == 0
        assert "est.reliability" in text

    def test_unknown_device_is_an_error(self):
        code, _ = self.run_cli("sweep", "--device", "toaster",
                               "--benchmarks", "BV4")
        assert code == 1


class TestDiskStoreStats:
    def test_summary_surfaces_per_tier_stats(self, bv4, tmp_path):
        backend = get_backend("ibmq5")
        cells = make_device_cells([backend], bv4,
                                  options=CompilerOptions.greedy_e())
        first = run_sweep(cells, cache_dir=tmp_path)
        assert first.disk_stats["compile"].hits == 0
        assert first.disk_stats["compile"].bytes_written > 0
        assert "disk store:" in first.summary()
        second = run_sweep(cells, cache_dir=tmp_path)
        assert second.disk_stats["compile"].hits == len(
            {c.compile_key() for c in cells})
        assert second.disk_stats["compile"].bytes_read > 0
        assert "hit" in second.summary()

    def test_result_stats_are_snapshots(self, bv4, tmp_path):
        """Reusing one persistent cache across sweeps must not mutate
        an earlier result's disk counters."""
        from repro.runtime import CompileCache, DiskStore

        cache = CompileCache(DiskStore(tmp_path))
        cells = make_device_cells([get_backend("ibmq5")], bv4,
                                  options=CompilerOptions.greedy_e())
        first = run_sweep(cells, compile_cache=cache)
        written_then = first.disk_stats["compile"].bytes_written
        run_sweep(make_device_cells([get_backend("iontrap8")], bv4,
                  options=CompilerOptions.greedy_e()),
                  compile_cache=cache)
        assert first.disk_stats["compile"].bytes_written == written_then

    def test_in_memory_sweep_has_no_disk_section(self, bv4):
        sweep = run_sweep(make_device_cells([get_backend("ibmq5")], bv4,
                          options=CompilerOptions.greedy_e()))
        assert sweep.disk_stats == {}
        assert "disk store:" not in sweep.summary()
