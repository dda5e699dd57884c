"""Chaos suite for the fault-tolerant sweep runtime.

Every recovery path of the supervised pool, the per-cell isolation
layer, and the checkpoint journal is driven by a deterministic
:class:`~repro.runtime.faults.FaultPlan` and checked against a
fault-free reference run: surviving cells must be bit-identical, and
exactly the injected failures must appear in the failure report. The
CI chaos job runs this file under ``REPRO_FAULTS=1`` with a hard
timeout so a supervision bug hangs a job, not a laptop.
"""

import multiprocessing
import signal
import warnings
from dataclasses import replace

import pytest

from repro.compiler import CompilerOptions
from repro.exceptions import CellExecutionError, FaultInjected, ReproError
from repro.hardware import default_ibmq16_calibration
from repro.programs import get_benchmark
from repro.runtime import (
    CompileCache,
    DiskStore,
    FaultPlan,
    SweepCell,
    cell_fingerprint,
    run_sweep,
)
from repro.runtime import diskcache
from repro.runtime.diskcache import DEGRADE_AFTER

TRIALS = 64

#: Fast-compiling options: chaos tests exercise the runtime, not the
#: SMT solver.
OPTIONS = CompilerOptions.qiskit()


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(autouse=True)
def armed(monkeypatch):
    """Arm the fault gate for every test in this file."""
    monkeypatch.setenv("REPRO_FAULTS", "1")


def make_cells(cal, benchmarks=("BV4", "Toffoli", "HS2"), seeds=(0, 1)):
    """A grid with one mapping-prefix group per benchmark, so
    ``workers=len(benchmarks)`` yields one batch per benchmark."""
    cells = []
    for name in benchmarks:
        spec = get_benchmark(name)
        circuit = spec.build()
        for seed in seeds:
            cells.append(SweepCell(
                circuit=circuit, calibration=cal, options=OPTIONS,
                expected=spec.expected_output, trials=TRIALS, seed=seed,
                key=(name, seed)))
    return cells


@pytest.fixture(scope="module")
def cells(cal):
    return make_cells(cal)


@pytest.fixture(scope="module")
def baseline(cells):
    """The fault-free reference every chaos run is compared against."""
    return run_sweep(cells)


def assert_identical(reference, sweep, except_indexes=()):
    """Surviving cells must be bit-identical to the reference run."""
    for index, (a, b) in enumerate(zip(reference, sweep)):
        if index in except_indexes:
            continue
        assert b.ok, f"cell {index} unexpectedly failed: {b.failure}"
        assert a.key == b.key
        assert a.execution.counts == b.execution.counts
        assert a.compiled.placement == b.compiled.placement


class TestGate:
    def test_disarmed_plan_is_inert(self, cells, baseline, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS")
        sweep = run_sweep(cells, faults=FaultPlan(raise_in=(0, 1, 2)))
        assert sweep.ok
        assert_identical(baseline, sweep)

    def test_from_env_requires_gate_and_spec(self, monkeypatch):
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "raise:1,kill:2x*,delay:3=0.5,corrupt:4")
        plan = FaultPlan.from_env()
        assert plan.raise_in == (1,)
        assert plan.kill_on == {2: None}
        assert plan.delay == {3: 0.5}
        assert plan.corrupt_journal == (4,)
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "conn-drop:0,conn-trunc:1,conn-delay:2=0.25,"
                           "kill-server:3")
        plan = FaultPlan.from_env()
        assert plan.conn_drop == (0,)
        assert plan.conn_trunc == (1,)
        assert plan.conn_delay == {2: 0.25}
        assert plan.kill_server_on == (3,)
        monkeypatch.setenv("REPRO_FAULTS", "0")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "explode:7")
        with pytest.raises(ReproError):
            FaultPlan.from_env()

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(11, 100, raise_rate=0.2, kill_rate=0.2)
        b = FaultPlan.random(11, 100, raise_rate=0.2, kill_rate=0.2)
        assert a == b
        assert a != FaultPlan.random(12, 100, raise_rate=0.2,
                                     kill_rate=0.2)


class TestPerCellIsolation:
    def test_raise_fault_is_captured_not_fatal(self, cells, baseline):
        sweep = run_sweep(cells, faults=FaultPlan(raise_in=(2,)))
        assert [f.index for f in sweep.failures] == [2]
        failure = sweep.failures[0]
        assert failure.error_type == "FaultInjected"
        assert failure.stage == "cell" and failure.attempts == 1
        assert "FaultInjected" in failure.traceback
        assert_identical(baseline, sweep, except_indexes={2})
        assert "1 failed" in sweep.summary()
        assert "Toffoli" in sweep.failure_report()

    def test_failed_cell_channels_raise_informatively(self, cells):
        sweep = run_sweep(cells, faults=FaultPlan(raise_in=(0,)))
        result = sweep.results[0]
        assert not result.ok and result.compiled is None
        with pytest.raises(ReproError, match="failed"):
            result.success_rate

    def test_strict_serial_raises_original_exception(self, cells):
        with pytest.raises(FaultInjected):
            run_sweep(cells, faults=FaultPlan(raise_in=(1,)), strict=True)

    def test_strict_parallel_raises_cell_execution_error(self, cells):
        with pytest.raises(CellExecutionError, match="FaultInjected"):
            run_sweep(cells, workers=3, strict=True,
                      faults=FaultPlan(raise_in=(1,)))

    def test_kill_fault_in_serial_path_is_loud(self, cells):
        sweep = run_sweep(cells, faults=FaultPlan(kill_on={1: None}))
        assert [f.index for f in sweep.failures] == [1]
        assert sweep.failures[0].error_type == "FaultInjected"


class TestSupervisedPool:
    def test_transient_worker_kill_loses_nothing(self, cells, baseline):
        """Acceptance (a): a killed worker loses no other batch's cells
        — and after the retry, not even its own."""
        sweep = run_sweep(cells, workers=3, max_retries=2,
                          faults=FaultPlan(kill_on={3: 1}))
        assert sweep.ok
        assert_identical(baseline, sweep)

    def test_poison_cell_quarantined_others_survive(self, cells, baseline):
        """Acceptance (b): a cell that always kills its worker is
        bisected out and quarantined; every other cell's result is
        intact — including its own batch siblings."""
        sweep = run_sweep(cells, workers=3, max_retries=1,
                          faults=FaultPlan(kill_on={3: None}))
        assert [f.index for f in sweep.failures] == [3]
        failure = sweep.failures[0]
        assert failure.error_type == "WorkerDied"
        assert failure.stage == "worker"
        assert failure.attempts == 2  # max_retries + 1
        assert_identical(baseline, sweep, except_indexes={3})

    def test_kill_and_poison_together(self, cells, baseline):
        """The acceptance grid: one worker killed transiently AND one
        poison cell, in one sweep — exactly the injected failures are
        reported, everything else is bit-identical."""
        sweep = run_sweep(cells, workers=3, max_retries=1,
                          faults=FaultPlan(kill_on={1: 1, 4: None}))
        assert [f.index for f in sweep.failures] == [4]
        assert_identical(baseline, sweep, except_indexes={4})

    def test_watchdog_kills_and_resubmits_stuck_worker(
            self, cells, baseline):
        sweep = run_sweep(cells, workers=3, max_retries=2,
                          batch_timeout=2.0,
                          faults=FaultPlan(delay={3: 60.0}))
        assert sweep.ok
        assert_identical(baseline, sweep)

    def test_watchdog_quarantines_permanently_stuck_cell(self, cal, baseline):
        cells = make_cells(cal)
        sweep = run_sweep(cells, workers=3, max_retries=0,
                          batch_timeout=1.0,
                          faults=FaultPlan(delay={3: 60.0},
                                           delay_times=10))
        assert [f.index for f in sweep.failures] == [3]
        assert sweep.failures[0].error_type == "WorkerTimeout"
        assert sweep.failures[0].stage == "timeout"
        assert_identical(baseline, sweep, except_indexes={3})


class TestCheckpointResume:
    def test_resume_after_interrupt_is_bit_identical(
            self, cells, baseline, tmp_path):
        """Acceptance (c): resume re-executes only incomplete cells
        (pinned via journal hit counters) and matches an uninterrupted
        run bit-for-bit."""
        cache_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cells, cache_dir=cache_dir,
                      faults=FaultPlan(interrupt_in=(3,)))
        resumed = run_sweep(cells, cache_dir=cache_dir, resume=True)
        assert resumed.ok
        assert resumed.resumed == 3
        journal = resumed.disk_stats["cell"]
        assert journal.hits == 3      # cells 0..2 served from journal
        assert journal.misses == 3    # cells 3..5 re-executed
        assert_identical(baseline, resumed)
        assert "3 resumed" in resumed.summary()

    def test_resume_of_complete_sweep_executes_nothing(
            self, cells, baseline, tmp_path):
        cache_dir = tmp_path / "store"
        run_sweep(cells, cache_dir=cache_dir)
        again = run_sweep(cells, cache_dir=cache_dir, resume=True)
        assert again.resumed == len(cells)
        assert again.disk_stats["cell"].hits == len(cells)
        assert again.compile_stats.lookups == 0  # nothing executed
        assert_identical(baseline, again)
        assert all(r.resumed for r in again)

    def test_resume_after_parallel_worker_loss(self, cells, baseline,
                                               tmp_path):
        """Workers journal cells as they complete, so even a sweep that
        ends with a quarantined cell leaves a useful checkpoint; the
        resumed (fault-free) sweep re-executes only what's missing."""
        cache_dir = tmp_path / "store"
        first = run_sweep(cells, workers=3, max_retries=0,
                          cache_dir=cache_dir,
                          faults=FaultPlan(kill_on={3: None}))
        assert [f.index for f in first.failures] == [3]
        resumed = run_sweep(cells, cache_dir=cache_dir, resume=True)
        assert resumed.ok
        assert resumed.resumed == 5  # everything but the quarantined cell
        assert_identical(baseline, resumed)

    def test_resume_reattempts_quarantined_cells(self, cells, baseline,
                                                 tmp_path):
        """Failed cells are deliberately not journaled, so a resumed
        sweep re-attempts exactly them: survivors are served from the
        journal bit-identically while the poison cell is re-executed
        (and, with the fault still armed, re-quarantined)."""
        cache_dir = tmp_path / "store"
        first = run_sweep(cells, workers=3, max_retries=0,
                          cache_dir=cache_dir,
                          faults=FaultPlan(kill_on={3: None}))
        assert [f.index for f in first.failures] == [3]
        # Resume with the poison still active: the failed cell is
        # genuinely re-attempted (a journal miss, then a fresh
        # quarantine), not served from a stale failure record.
        again = run_sweep(cells, workers=3, max_retries=0,
                          cache_dir=cache_dir, resume=True,
                          faults=FaultPlan(kill_on={3: None}))
        assert again.resumed == 5
        assert again.disk_stats["cell"].hits == 5
        assert [f.index for f in again.failures] == [3]
        # Only one cell was left to run, so it went down the serial
        # path, where a kill fault surfaces as a loud FaultInjected.
        assert again.failures[0].error_type == "FaultInjected"
        assert_identical(baseline, again, except_indexes={3})
        # Fault lifted: the third run completes just the poison cell.
        healed = run_sweep(cells, cache_dir=cache_dir, resume=True)
        assert healed.ok and healed.resumed == 5
        assert_identical(baseline, healed)

    def test_corrupt_journal_entry_degrades_to_reexecution(
            self, cells, baseline, tmp_path):
        """Acceptance (d): a corrupt journal entry fails the store's
        integrity check, loads as a miss, and the cell re-executes —
        no crash, no trusted garbage."""
        cache_dir = tmp_path / "store"
        run_sweep(cells, cache_dir=cache_dir,
                  faults=FaultPlan(corrupt_journal=(1,)))
        resumed = run_sweep(cells, cache_dir=cache_dir, resume=True)
        assert resumed.ok
        assert resumed.resumed == len(cells) - 1
        assert resumed.disk_stats["cell"].misses >= 1
        assert_identical(baseline, resumed)

    def test_pool_sweep_persists_a_passed_caches_store(
            self, cells, baseline, tmp_path):
        """A pool sweep handed a store-backed compile cache and no
        ``cache_dir`` runs its workers on that store: every tier is
        written, and a resume serves every cell."""
        first = run_sweep(cells, workers=2,
                          compile_cache=CompileCache(DiskStore(tmp_path)))
        assert first.ok and first.workers == 2
        for kind in ("compile", "stage", "trace", "cell"):
            assert first.disk_stats[kind].bytes_written > 0, kind
        again = run_sweep(cells, workers=2, resume=True,
                          compile_cache=CompileCache(DiskStore(tmp_path)))
        assert again.resumed == len(cells)
        assert again.disk_stats["cell"].hits == len(cells)
        assert_identical(baseline, again)

    def test_resume_without_store_is_an_error(self, cells):
        with pytest.raises(ReproError, match="cache_dir"):
            run_sweep(cells, resume=True)

    def test_fingerprint_covers_result_determinants(self, cal):
        spec = get_benchmark("BV4")
        base = SweepCell(circuit=spec.build(), calibration=cal,
                         options=OPTIONS, expected=spec.expected_output,
                         trials=TRIALS, seed=0, key="a")
        fingerprints = {cell_fingerprint(base)}
        for tweak in (dict(seed=1), dict(trials=32), dict(simulate=False),
                      dict(engine="stabilizer"), dict(expected=None)):
            cell = SweepCell(circuit=spec.build(), calibration=cal,
                             options=OPTIONS,
                             expected=tweak.get("expected",
                                                spec.expected_output),
                             trials=tweak.get("trials", TRIALS),
                             seed=tweak.get("seed", 0),
                             simulate=tweak.get("simulate", True),
                             engine=tweak.get("engine"), key="b")
            fingerprints.add(cell_fingerprint(cell))
        assert len(fingerprints) == 6
        # ...while the free-form key deliberately doesn't matter.
        renamed = SweepCell(circuit=spec.build(), calibration=cal,
                            options=OPTIONS,
                            expected=spec.expected_output,
                            trials=TRIALS, seed=0, key="renamed")
        assert cell_fingerprint(renamed) == cell_fingerprint(base)


class TestParallelInterrupt:
    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="needs SIGALRM")
    def test_interrupt_tears_down_pool_and_checkpoints(
            self, cal, baseline, tmp_path):
        """Ctrl-C mid-sweep: the supervisor kills every worker before
        re-raising (no zombie children), and cells completed before the
        interrupt were journaled, so resume finishes the job."""
        cells = make_cells(cal)
        cache_dir = tmp_path / "store"

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 4.0)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_sweep(cells, workers=3, cache_dir=cache_dir,
                          faults=FaultPlan(delay={3: 120.0},
                                           delay_times=10))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []
        resumed = run_sweep(cells, cache_dir=cache_dir, resume=True)
        assert resumed.ok
        # Everything but the stalled cell finished and checkpointed
        # before the alarm (its batch sibling included); resume
        # re-executes only the stalled cell.
        assert resumed.resumed == 5
        assert_identical(baseline, resumed)


class TestStoreNamespace:
    def test_namespace_is_fixed_when_the_store_opens(self, tmp_path,
                                                     monkeypatch):
        """A store keeps the source digest it saw when it opened: a
        digest that changes later in the process (a long-lived server
        whose source was edited) does not move its entries."""
        monkeypatch.setattr(diskcache, "_layout_cache", "v1-opened")
        store = DiskStore(tmp_path)
        monkeypatch.setattr(diskcache, "_layout_cache", "v1-later")
        store.store_blob("compile", "key", b"payload")
        assert (tmp_path / "v1-opened" / "compile").is_dir()
        assert not (tmp_path / "v1-later").exists()
        assert store.load_blob("compile", "key") == b"payload"


class TestDiskDegradation:
    def test_store_flips_to_memory_only_with_one_warning(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        store = DiskStore(blocker)
        with pytest.warns(RuntimeWarning, match="memory-only"):
            for i in range(DEGRADE_AFTER):
                store.store("compile", f"key-{i}", i)
        assert store.degraded
        stats = store.stats_for("compile")
        assert stats.write_errors == DEGRADE_AFTER
        # Further writes are silent no-ops — no retry, no new warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.store("compile", "key-after", 1)
        assert stats.write_errors == DEGRADE_AFTER
        assert "write errors" in stats.describe()
        # The degraded flag is store state, stamped onto snapshots.
        stamped = replace(stats, degraded=store.degraded)
        assert "DEGRADED (memory-only)" in stamped.describe()

    def test_successful_write_resets_the_failure_streak(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        store._note_write_failure("compile")
        store._note_write_failure("compile")
        store.store("compile", "key", "value")  # succeeds, streak resets
        store._note_write_failure("compile")
        assert not store.degraded

    def test_redeem_recovers_degraded_store(self, tmp_path):
        """``redeem`` lifts a memory-only degradation once the disk
        works again — and only then: while the root is still blocked
        the store stays degraded, silently."""
        blocker = tmp_path / "store"
        blocker.write_text("occupied")
        store = DiskStore(blocker)
        with pytest.warns(RuntimeWarning, match="memory-only"):
            for i in range(DEGRADE_AFTER):
                store.store("compile", f"key-{i}", i)
        assert store.degraded
        assert not store.redeem()  # root is still a file
        assert store.degraded and store.redemptions == 0
        blocker.unlink()  # the outage clears
        assert store.redeem()
        assert not store.degraded and store.redemptions == 1
        # The recovered store persists again, with a fresh streak.
        store.store("compile", "after", "value")
        assert store.load("compile", "after") == "value"
        assert store.stats_for("compile").write_errors == DEGRADE_AFTER

    def test_redeem_on_healthy_store_is_a_noop(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        assert store.redeem()
        assert store.redemptions == 0

    def test_redemption_surfaces_in_store_stats(self, tmp_path):
        """The recovery is stamped (like ``degraded``) onto every
        stats snapshot the persistent cache hands out."""
        blocker = tmp_path / "store"
        blocker.write_text("occupied")
        cache = CompileCache(DiskStore(blocker))
        with pytest.warns(RuntimeWarning, match="memory-only"):
            for i in range(DEGRADE_AFTER):
                cache.store.store("compile", f"key-{i}", i)
        assert not cache.redeem()
        blocker.unlink()
        assert cache.redeem()
        stats = cache.disk_stats()["compile"]
        assert stats.redeemed == 1 and not stats.degraded
        assert "redeemed x1" in stats.describe()
        # Snapshot diffs carry the state through undiffed — a span
        # report after a recovery still shows it.
        assert stats.minus(replace(stats, hits=0)).redeemed == 1

    def test_degraded_store_surfaces_in_sweep_summary(
            self, cal, baseline, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("occupied")
        cache = CompileCache(DiskStore(blocker))
        with pytest.warns(RuntimeWarning, match="memory-only"):
            sweep = run_sweep(make_cells(cal, benchmarks=("BV4",),
                                         seeds=(0,)),
                              compile_cache=cache)
        assert sweep.ok
        assert "DEGRADED" in sweep.summary()
        assert_identical(baseline, sweep)  # zip stops at the one cell
