"""Sweep-runtime tests: fingerprints, caches, parallel determinism."""

import io
from dataclasses import replace

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import ReproError
from repro.experiments import run_fig6
from repro.hardware import (
    CalibrationGenerator,
    default_ibmq16_calibration,
    ibmq16_topology,
)
from repro.ir.circuit import Circuit
from repro.programs import get_benchmark
from repro.runtime import (
    CompileCache,
    DiskStore,
    SweepCell,
    TraceCache,
    cell_fingerprint,
    compile_key,
    run_sweep,
)
from repro.simulator import NoiseModel, execute

TRIALS = 128


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


def make_cells(cal, benchmarks=("BV4", "Toffoli"), seeds=(0, 1),
               variants=None, trials=TRIALS, simulate=True):
    variants = variants or [CompilerOptions.t_smt_star(routing="1bp"),
                            CompilerOptions.r_smt_star(omega=0.5)]
    cells = []
    for name in benchmarks:
        spec = get_benchmark(name)
        circuit = spec.build()
        for options in variants:
            for seed in seeds:
                cells.append(SweepCell(
                    circuit=circuit, calibration=cal, options=options,
                    expected=spec.expected_output, trials=trials,
                    seed=seed, simulate=simulate,
                    key=(name, options.variant, seed)))
    return cells


class TestFingerprints:
    def test_circuit_fingerprint_stable_across_builds(self):
        spec = get_benchmark("BV4")
        assert spec.build().fingerprint() == spec.build().fingerprint()

    def test_circuit_fingerprint_ignores_name(self):
        circuit = get_benchmark("BV4").build()
        assert circuit.copy(name="other").fingerprint() == \
            circuit.fingerprint()

    def test_circuit_fingerprint_distinguishes_content(self):
        bv4 = get_benchmark("BV4").build()
        bv6 = get_benchmark("BV6").build()
        assert bv4.fingerprint() != bv6.fingerprint()
        tweaked = bv4.copy()
        tweaked.x(0)
        assert tweaked.fingerprint() != bv4.fingerprint()

    def test_options_fingerprint(self):
        a = CompilerOptions.r_smt_star(omega=0.5)
        assert a.fingerprint() == CompilerOptions.r_smt_star().fingerprint()
        assert a.fingerprint() != \
            CompilerOptions.r_smt_star(omega=1.0).fingerprint()
        assert a.fingerprint() != a.with_(peephole=True).fingerprint()

    def test_calibration_content_id(self):
        generator = CalibrationGenerator(ibmq16_topology(), seed=2019)
        again = CalibrationGenerator(ibmq16_topology(), seed=2019)
        assert generator.snapshot(0).content_id() == \
            again.snapshot(0).content_id()
        assert generator.snapshot(0).content_id() != \
            generator.snapshot(1).content_id()

    def test_compiled_fingerprint_stable_across_recompiles(self, cal):
        circuit = get_benchmark("BV4").build()
        options = CompilerOptions.r_smt_star()
        first = compile_circuit(circuit, cal, options)
        second = compile_circuit(circuit, cal, options)
        assert first.fingerprint() == second.fingerprint()

    def test_cell_fingerprint_ignores_engine_case(self, cal):
        """``BATCHED`` and ``batched`` name one engine, so their cells
        share one fingerprint (one journal entry)."""
        circuit = get_benchmark("BV4").build()
        upper, lower = (SweepCell(circuit=circuit, calibration=cal,
                                  options=CompilerOptions.r_smt_star(),
                                  engine=engine)
                        for engine in ("BATCHED", "batched"))
        assert cell_fingerprint(upper) == cell_fingerprint(lower)

    def test_compile_key_components(self, cal):
        circuit = get_benchmark("BV4").build()
        options = CompilerOptions.r_smt_star()
        key = compile_key(circuit, cal, options)
        assert key == (circuit.fingerprint(), cal.content_id(),
                       options.fingerprint())


class TestCompileCache:
    def test_hit_on_identical_configuration(self, cal):
        cache = CompileCache()
        circuit = get_benchmark("BV4").build()
        options = CompilerOptions.r_smt_star()
        first, hit1 = cache.get_or_compile(circuit, cal, options)
        second, hit2 = cache.get_or_compile(circuit, cal, options)
        assert (hit1, hit2) == (False, True)
        assert first.fingerprint() == second.fingerprint()
        assert first.physical is second.physical
        # Hits are flagged and report no wall clock of their own — the
        # stored program's compile_time describes the original run.
        assert not first.cache_hit and second.cache_hit
        assert first.compile_time > 0.0 and second.compile_time == 0.0
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_rebuilt_circuit_still_hits(self, cal):
        cache = CompileCache()
        spec = get_benchmark("BV4")
        options = CompilerOptions.qiskit()
        cache.get_or_compile(spec.build(), cal, options)
        _, hit = cache.get_or_compile(spec.build(), cal, options)
        assert hit

    def test_distinct_options_miss(self, cal):
        cache = CompileCache()
        circuit = get_benchmark("BV4").build()
        cache.get_or_compile(circuit, cal, CompilerOptions.r_smt_star())
        _, hit = cache.get_or_compile(circuit, cal,
                                      CompilerOptions.t_smt_star())
        assert not hit
        assert len(cache) == 2

    def test_tables_shared_per_calibration(self, cal):
        cache = CompileCache()
        assert cache.tables_for(cal) is cache.tables_for(cal)


class TestTraceCache:
    def test_execute_reuses_trace(self, cal):
        compiled = compile_circuit(get_benchmark("BV4").build(), cal,
                                   CompilerOptions.r_smt_star())
        expected = get_benchmark("BV4").expected_output
        cache = TraceCache()
        plain = execute(compiled, cal, trials=TRIALS, seed=3,
                        expected=expected)
        first = execute(compiled, cal, trials=TRIALS, seed=3,
                        expected=expected, trace_cache=cache)
        second = execute(compiled, cal, trials=TRIALS, seed=3,
                         expected=expected, trace_cache=cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        # The cached trace changes nothing about the sampled law.
        assert first.counts == plain.counts == second.counts

    def test_exotic_noise_model_bypasses_cache(self, cal):
        class Tweaked(NoiseModel):
            def gate_error_probability(self, gate, concurrent_neighbors=0):
                return 0.0

        compiled = compile_circuit(get_benchmark("BV4").build(), cal,
                                   CompilerOptions.qiskit())
        cache = TraceCache()
        noise = Tweaked(cal)
        execute(compiled, cal, trials=8, seed=0, noise_model=noise,
                trace_cache=cache)
        execute(compiled, cal, trials=8, seed=0, noise_model=noise,
                trace_cache=cache)
        assert len(cache) == 0 and cache.stats.lookups == 0

    def test_engines_share_one_lowering(self, cal):
        """An engine-comparison run lowers a Clifford program once."""
        compiled = compile_circuit(get_benchmark("BV4").build(), cal,
                                   CompilerOptions.r_smt_star())
        cache = TraceCache()
        for engine in ("batched", "stabilizer", "auto"):
            execute(compiled, cal, trials=TRIALS, seed=3, engine=engine,
                    trace_cache=cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 2

    def test_store_served_trace_counts_as_hit(self, cal, tmp_path):
        """A trace read back from the disk tier avoided a lowering, as
        a disk-served compile does: a rerun on fresh caches hits on
        every lookup."""
        cells = make_cells(cal, seeds=(0,))
        run_sweep(cells, cache_dir=tmp_path)
        again = run_sweep(cells, cache_dir=tmp_path)
        assert again.trace_stats.lookups == len(cells)
        assert again.trace_stats.hits == again.trace_stats.lookups
        assert all(result.trace_cache_hit for result in again)


def _cut_cum(arrays):
    arrays["site_cum"] = arrays["site_cum"][:, :2]


def _drop_last(name):
    def tamper(arrays):
        arrays[name] = arrays[name][:-1]
    return tamper


def _set(name, index, value):
    def tamper(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
    return tamper


def _swap_first_gates(arrays):
    gates = arrays["site_gate"].copy()
    first = np.nonzero(gates != gates[0])[0][0]
    gates[[0, first]] = gates[[first, 0]]
    arrays["site_gate"] = gates


def _repeat_qubit(arrays):
    pair = arrays["site_pair"].copy()
    pair[0, 1] = pair[0, 0]
    arrays["site_pair"] = pair


def _reverse_cum_row(arrays):
    cum = arrays["site_cum"].copy()
    cum[0] = cum[0, ::-1]
    arrays["site_cum"] = cum


class TestStoredTraceChecks:
    """The disk trace tier is an input boundary: an entry whose digest
    matches but whose site table or readout arrays no lowering produces
    is a miss, and the cell re-lowers to the clean counts."""

    TAMPERINGS = {
        "cum-columns": _cut_cum,
        "prob-rows": _drop_last("site_prob"),
        "pair-rows": _drop_last("site_pair"),
        "cum-rows": _drop_last("site_cum"),
        "readout-length": _drop_last("readout_p1"),
        "gate-range": _set("site_gate", -1, 10_000),
        "gate-order": _swap_first_gates,
        "pair-qubit": _set("site_pair", (0, 0), 99),
        "pair-second": _set("site_pair", (0, 1), -2),
        "pair-repeat": _repeat_qubit,
        "prob-nan": _set("site_prob", 0, np.nan),
        "prob-above-one": _set("site_prob", 0, 1.5),
        "cum-negative": _set("site_cum", (0, 0), -0.5),
        "cum-decreasing": _reverse_cum_row,
        "readout-inf": _set("readout_p0", 0, np.inf),
    }

    @pytest.fixture(scope="class")
    def program(self, cal):
        # BV8 is above the exact-law cap: its counts come from the
        # site table, so a tampered table would show in them.
        return compile_circuit(get_benchmark("BV8").build(), cal,
                               CompilerOptions.r_smt_star())

    def run(self, program, cal, cache):
        return execute(program, cal, trials=4096, seed=1,
                       trace_cache=cache).counts

    @pytest.mark.parametrize("damage", sorted(TAMPERINGS))
    def test_tampered_entry_is_a_miss(self, program, cal, tmp_path,
                                      damage):
        noise = NoiseModel(cal)
        writer = TraceCache(DiskStore(tmp_path))
        clean = self.run(program, cal, writer)
        key = repr(writer._key(program, noise, cal))
        store = DiskStore(tmp_path)
        with np.load(io.BytesIO(store.load_blob("trace", key)),
                     allow_pickle=False) as data:
            arrays = dict(data)
        self.TAMPERINGS[damage](arrays)
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        store.store_blob("trace", key, buf.getvalue())
        assert TraceCache(DiskStore(tmp_path)).get(program, noise,
                                                   cal) is None
        assert self.run(program, cal, TraceCache(DiskStore(tmp_path))) \
            == clean


class TestRunSweep:
    def test_serial_order_and_keys(self, cal):
        cells = make_cells(cal)
        sweep = run_sweep(cells)
        assert [r.key for r in sweep] == [c.key for c in cells]
        assert len(sweep.by_key()) == len(cells)

    def test_cache_hits_are_grid_determined(self, cal):
        cells = make_cells(cal, seeds=(0, 1, 2))
        sweep = run_sweep(cells)
        distinct = len({c.compile_key() for c in cells})
        assert sweep.compile_stats.misses == distinct
        assert sweep.compile_stats.hits == len(cells) - distinct
        assert sweep.trace_stats.hits == len(cells) - distinct

    def test_parallel_matches_serial_bit_for_bit(self, cal):
        cells = make_cells(cal)
        serial = run_sweep(cells, workers=0)
        parallel = run_sweep(cells, workers=2)
        for a, b in zip(serial, parallel):
            assert a.key == b.key
            assert a.execution.counts == b.execution.counts
        assert parallel.compile_stats.hits == serial.compile_stats.hits
        assert parallel.trace_stats.hits == serial.trace_stats.hits

    def test_worker_count_independence(self, cal):
        cells = make_cells(cal, benchmarks=("BV4",), seeds=(0, 1, 2))
        reference = run_sweep(cells, workers=2)
        for workers in (3, 5):
            other = run_sweep(cells, workers=workers)
            for a, b in zip(reference, other):
                assert a.execution.counts == b.execution.counts
            assert other.compile_stats.hits == \
                reference.compile_stats.hits

    def test_compile_only_cells(self, cal):
        cells = make_cells(cal, seeds=(0,), simulate=False)
        sweep = run_sweep(cells)
        for result in sweep:
            assert result.execution is None
            with pytest.raises(ReproError):
                result.success_rate
        assert sweep.trace_stats.lookups == 0

    def test_duplicate_keys_rejected(self, cal):
        cells = make_cells(cal, seeds=(0,)) * 2
        with pytest.raises(ReproError):
            run_sweep(cells).by_key()

    def test_summary_renders(self, cal):
        sweep = run_sweep(make_cells(cal, benchmarks=("BV4",), seeds=(0,)))
        assert "compile cache" in sweep.summary()

    def test_resumed_results_keep_their_own_keys(self, cal, tmp_path):
        """Cells equal but for ``key`` share one journal entry; each
        resumed result still names the cell that asked for it."""
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,),
                          variants=[CompilerOptions.qiskit()])[0]
        cells = [replace(cell, key=key) for key in ("first", "second")]
        fresh = run_sweep(cells, cache_dir=tmp_path)
        resumed = run_sweep(cells, cache_dir=tmp_path, resume=True)
        assert [r.key for r in fresh] == ["first", "second"]
        assert [r.key for r in resumed] == ["first", "second"]
        assert resumed.resumed == 2
        assert sorted(resumed.by_key()) == ["first", "second"]
        assert resumed.results[0].execution.counts == \
            fresh.results[1].execution.counts


class TestHarnessParallelism:
    def test_fig6_workers_equivalent(self):
        kwargs = dict(days=2, trials=64, benchmarks=("BV4",))
        assert run_fig6(**kwargs).success == \
            run_fig6(workers=2, **kwargs).success


class TestDegenerateGrids:
    def test_empty_grid_returns_well_formed_result(self):
        sweep = run_sweep([])
        assert len(sweep) == 0 and list(sweep) == []
        assert sweep.ok and sweep.failures == []
        assert sweep.compile_stats.lookups == 0
        assert sweep.failure_report() == ""
        assert "0 cells" in sweep.summary()

    def test_empty_grid_with_workers(self):
        assert len(run_sweep([], workers=4)) == 0

    def test_single_cell_with_wide_pool_runs_serially(self, cal):
        cells = make_cells(cal, benchmarks=("BV4",), seeds=(0,),
                           variants=[CompilerOptions.qiskit()])
        serial = run_sweep(cells)
        wide = run_sweep(cells, workers=8)
        assert wide.workers == 0  # one batch -> in-process path
        assert wide.ok
        assert wide.results[0].execution.counts == \
            serial.results[0].execution.counts


class TestFailureIsolation:
    """Organic (non-injected) failures take the same capture path as
    the fault harness's; see tests/test_faults.py for the chaos suite.
    """

    def make_oversized_cells(self, cal):
        # 20 program qubits cannot map onto the 16-qubit machine.
        too_big = Circuit(20, name="oversized")
        for q in range(20):
            too_big.h(q)
        too_big.cx(0, 19).measure_all()
        good = get_benchmark("BV4")
        return [
            SweepCell(circuit=good.build(), calibration=cal,
                      options=CompilerOptions.qiskit(),
                      expected=good.expected_output, trials=TRIALS,
                      seed=0, key="good-before"),
            SweepCell(circuit=too_big, calibration=cal,
                      options=CompilerOptions.qiskit(), trials=TRIALS,
                      seed=0, key="oversized"),
            SweepCell(circuit=good.build(), calibration=cal,
                      options=CompilerOptions.qiskit(),
                      expected=good.expected_output, trials=TRIALS,
                      seed=1, key="good-after"),
        ]

    def test_organic_failure_is_isolated(self, cal):
        sweep = run_sweep(self.make_oversized_cells(cal))
        assert [f.key for f in sweep.failures] == ["oversized"]
        failure = sweep.failures[0]
        assert failure.stage == "cell" and failure.attempts == 1
        assert failure.traceback  # full stack captured for debugging
        assert sweep.results[0].ok and sweep.results[2].ok
        assert "oversized" in sweep.failure_report()

    def test_organic_failure_strict_raises(self, cal):
        with pytest.raises(Exception) as excinfo:
            run_sweep(self.make_oversized_cells(cal), strict=True)
        assert isinstance(excinfo.value, ReproError)

    def test_failed_cell_success_rate_raises_informatively(self, cal):
        sweep = run_sweep(self.make_oversized_cells(cal))
        with pytest.raises(ReproError, match="failed"):
            sweep.results[1].success_rate
