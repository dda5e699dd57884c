"""Compile-service tests: protocol framing, admission control, the
served/in-process bit-identity contract, and the chaos drills the
service's robustness story rests on (dropped and truncated responses,
worker death behind the service, a server killed and restarted
mid-sweep, SIGTERM drain).

Chaos tests arm the ``REPRO_FAULTS`` gate per-test via monkeypatch,
exactly like ``tests/test_faults.py``; connection-level faults are
addressed by submit-request sequence number (global arrival order), so
single-client drills observe their faults deterministically.
"""

import contextlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.compiler import CompilerOptions
from repro.exceptions import (
    CircuitOpen,
    DeadlineExceeded,
    ProtocolError,
    ServiceError,
    ServiceUnavailable,
)
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
from repro.service import (
    AdmissionController,
    MAX_MESSAGE_BYTES,
    ReproServer,
    RetryPolicy,
    ServerConfig,
    ServiceClient,
    decode_cell,
    decode_result,
    encode_cell,
    encode_result,
    recv_message,
    send_message,
    submit_sweep,
)
from repro.service.protocol import send_truncated

TRIALS = 64

#: Fast-compiling options: service tests exercise the transport and
#: admission layers, not the SMT solver.
OPTIONS = CompilerOptions.qiskit()


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(autouse=True)
def armed(monkeypatch):
    """Arm the fault gate for every test in this file (plans are only
    passed where a drill wants them; armed-but-absent is inert)."""
    monkeypatch.setenv("REPRO_FAULTS", "1")


def make_cells(cal, benchmarks=("BV4", "Toffoli", "HS2"), seeds=(0, 1)):
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
    """The in-process reference every served run is compared against."""
    return run_sweep(cells)


def assert_matches_reference(reference, results):
    """Served results must be bit-identical to the in-process run
    (journal-resume provenance aside)."""
    by_key = {result.key: result for result in reference}
    assert len(results) == len(reference.results)
    for got in results:
        ref = by_key[got.key]
        assert got.ok, f"cell {got.key} failed: {got.failure}"
        assert got.execution.counts == ref.execution.counts
        assert got.compiled.placement == ref.compiled.placement
        assert got.compiled.qasm() == ref.compiled.qasm()
        assert got.success_rate == ref.success_rate


@contextlib.contextmanager
def running_server(faults=None, **config_kwargs):
    """An in-thread server on an OS-picked loopback port."""
    server = ReproServer(ServerConfig(**config_kwargs), faults=faults)
    host, port = server.start()
    try:
        yield server, host, port
    finally:
        server.stop()


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_for_port(port: int, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port),
                                     timeout=0.2).close()
            return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"port {port} never opened")


# --------------------------------------------------------------------------
# Wire protocol
# --------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"type": "submit", "tenant": "t", "n": 3})
            assert recv_message(b) == {"type": "submit", "tenant": "t",
                                       "n": 3}

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_message(b) is None

    def test_torn_frame_is_a_protocol_error(self):
        a, b = socket.socketpair()
        with b:
            send_truncated(a, {"type": "result", "body": "x" * 64})
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)

    def test_oversized_length_prefix_is_rejected_not_allocated(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="corrupt length"):
                recv_message(b)

    def test_non_json_payload_is_a_protocol_error(self):
        a, b = socket.socketpair()
        with a, b:
            payload = b"\xffnot json"
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(b)

    def test_untyped_envelope_is_a_protocol_error(self):
        a, b = socket.socketpair()
        with a, b:
            payload = b"[1,2,3]"
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ProtocolError, match="typed envelope"):
                recv_message(b)

    def test_cell_roundtrip_verifies_fingerprint(self, cal):
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        envelope = encode_cell(cell)
        assert envelope["fingerprint"] == cell_fingerprint(cell)
        decoded = decode_cell(envelope)
        assert cell_fingerprint(decoded) == envelope["fingerprint"]

    def test_fingerprint_mismatch_is_rejected(self, cal):
        one, other = make_cells(cal, benchmarks=("BV4",), seeds=(0, 1))
        envelope = encode_cell(one)
        envelope["fingerprint"] = cell_fingerprint(other)
        with pytest.raises(ProtocolError, match="mismatch"):
            decode_cell(envelope)

    def test_result_body_roundtrip(self, baseline):
        result = baseline.results[0]
        decoded = decode_result({"result": encode_result(result)})
        assert decoded == result


# --------------------------------------------------------------------------
# Admission control (unit)
# --------------------------------------------------------------------------


class TestAdmission:
    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionController(capacity=0)
        with pytest.raises(ValueError, match="tenant cap"):
            AdmissionController(tenant_cap=0)

    def test_k_plus_first_distinct_submit_is_shed(self):
        controller = AdmissionController(capacity=3, tenant_cap=100)
        for i in range(3):
            assert controller.offer(f"fp-{i}", object(), "t").kind \
                == "admit"
        verdict = controller.offer("fp-3", object(), "t")
        assert verdict.kind == "shed"
        assert verdict.reason == "queue-full"
        assert verdict.retry_after > 0
        assert controller.stats.shed_queue_full == 1

    def test_queue_full_hint_scales_with_backlog(self):
        small = AdmissionController(capacity=1, retry_after=0.1)
        small.offer("fp-0", object(), "t")
        hint = small.offer("fp-x", object(), "t").retry_after
        assert hint == pytest.approx(0.1 * 2.0)

    def test_duplicate_fingerprint_coalesces_without_queue_cost(self):
        controller = AdmissionController(capacity=1, tenant_cap=100)
        first = controller.offer("fp", object(), "alice")
        again = controller.offer("fp", object(), "bob")
        assert first.kind == "admit" and again.kind == "coalesce"
        assert again.request is first.request
        assert controller.depth() == 1  # no second queue slot
        assert controller.stats.coalesced == 1
        # Both tenants occupy outstanding slots, and complete() frees
        # them all.
        assert controller.snapshot()["tenants"] == {"alice": 1, "bob": 1}
        batch = controller.take_batch(8, timeout=0.0)
        controller.complete(batch[0], result="done")
        assert first.request.done.is_set()
        assert first.request.result == "done"
        assert controller.snapshot()["tenants"] == {}

    def test_tenant_cap_is_enforced(self):
        controller = AdmissionController(capacity=100, tenant_cap=2)
        controller.offer("fp-0", object(), "greedy")
        controller.offer("fp-1", object(), "greedy")
        verdict = controller.offer("fp-2", object(), "greedy")
        assert verdict.kind == "shed" and verdict.reason == "tenant-cap"
        # Other tenants are unaffected — that is the point of the cap.
        assert controller.offer("fp-2", object(), "modest").kind == "admit"

    def test_draining_sheds_new_work_but_keeps_admitted(self):
        controller = AdmissionController(capacity=8)
        admitted = controller.offer("fp-0", object(), "t")
        controller.drain()
        verdict = controller.offer("fp-1", object(), "t")
        assert verdict.kind == "shed" and verdict.reason == "draining"
        # The admitted request still flows through the executor path.
        batch = controller.take_batch(8, timeout=0.0)
        assert batch == [admitted.request]
        controller.complete(batch[0], result="ok")
        assert controller.pending() == 0

    def test_in_flight_requests_still_coalesce(self):
        controller = AdmissionController(capacity=4)
        first = controller.offer("fp", object(), "a")
        controller.take_batch(4, timeout=0.0)  # fp is now in flight
        assert controller.depth() == 0
        late = controller.offer("fp", object(), "b")
        assert late.kind == "coalesce"
        assert late.request is first.request

    def test_take_batch_honors_max_batch(self):
        controller = AdmissionController(capacity=10)
        for i in range(5):
            controller.offer(f"fp-{i}", object(), "t")
        batch = controller.take_batch(2, timeout=0.0)
        assert [r.fingerprint for r in batch] == ["fp-0", "fp-1"]
        assert controller.depth() == 3


# --------------------------------------------------------------------------
# Served sweeps, no faults: the bit-identity contract
# --------------------------------------------------------------------------


class TestServedSweep:
    def test_served_results_match_in_process_run(self, cells, baseline):
        with running_server() as (_server, host, port):
            results = submit_sweep(cells, host, port, deadline=120.0)
        assert_matches_reference(baseline, results)

    def test_journal_serves_resubmitted_cells(self, cells, baseline,
                                              tmp_path):
        with running_server(cache_dir=tmp_path / "store") as \
                (server, host, port):
            first = submit_sweep(cells, host, port, deadline=120.0)
            with ServiceClient(host, port, tenant="second") as client:
                again = client.submit_many(cells, deadline=120.0)
                stats = dict(client.stats)
            health = server.health()
        assert_matches_reference(baseline, first)
        assert_matches_reference(baseline, again)
        # Every resubmitted cell was served from the checkpoint journal
        # (surfaced per-response and in the health report).
        assert stats["journal_hits"] == len(cells)
        assert health["journal"] is True
        assert health["served"] == 2 * len(cells)

    def test_pool_with_a_store_matches_in_process_run(
            self, cells, baseline, tmp_path):
        """A served grid on a two-worker pool with a ``cache_dir``: the
        pool's workers run on the server's store, so the results equal
        the in-process run and every cell is journaled."""
        cache_dir = tmp_path / "store"
        results = {}
        # The window only bounds the wait: a full batch leaves at once.
        with running_server(cache_dir=cache_dir, workers=2,
                            batch_window=5.0, batch_max=len(cells)) as \
                (server, host, port):

            def submit_one(index, cell):
                with ServiceClient(host, port, tenant=f"t{index}") as \
                        client:
                    results[cell.key] = client.submit(cell,
                                                      deadline=180.0)

            threads = [threading.Thread(target=submit_one, args=(i, c))
                       for i, c in enumerate(cells)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
            health = server.health()
        assert_matches_reference(baseline, list(results.values()))
        # One batch of every cell: three mapping-prefix groups on two
        # workers, so the whole grid ran on the pool.
        assert health["batches"] == 1
        journal = CompileCache(DiskStore(cache_dir)).journal
        for cell in cells:
            assert journal.load(cell_fingerprint(cell)) is not None

    def test_each_submit_gets_its_own_cells_key(self, cal, tmp_path):
        """Cells equal but for ``key`` share a fingerprint, so the second
        is a journal hit; its result still carries its own key."""
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        cells = [replace(cell, key=key) for key in ("first", "second")]
        with running_server(cache_dir=tmp_path / "store") as \
                (_server, host, port):
            with ServiceClient(host, port) as client:
                results = [client.submit(c, deadline=60.0) for c in cells]
                journal_hits = client.stats["journal_hits"]
        assert [r.key for r in results] == ["first", "second"]
        assert journal_hits == 1
        assert results[0].execution.counts == results[1].execution.counts

    @pytest.mark.parametrize("raise_in", [(), (0,)], ids=["ok", "failed"])
    def test_coalesced_submit_gets_its_own_cells_key(self, cal, raise_in):
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        renamed = replace(cell, key="renamed")
        faults = FaultPlan(delay={0: 0.8}, raise_in=raise_in)
        with running_server(faults=faults) as (_server, host, port):
            outcome = {}

            def first():
                with ServiceClient(host, port, tenant="a") as client:
                    outcome["a"] = client.submit(cell, deadline=60.0)

            thread = threading.Thread(target=first)
            thread.start()
            time.sleep(0.25)  # let the submit be admitted and batched
            with ServiceClient(host, port, tenant="b") as client:
                outcome["b"] = client.submit(renamed, deadline=60.0)
                coalesced = client.stats["coalesced"]
            thread.join()
        assert coalesced == 1
        assert (outcome["a"].key, outcome["b"].key) == (cell.key, "renamed")
        if raise_in:
            assert outcome["b"].failure.key == "renamed"
        else:
            assert outcome["a"].execution.counts == \
                outcome["b"].execution.counts

    def test_concurrent_identical_submits_coalesce(self, cal, baseline):
        # The cell-level delay fault holds the batch in the executor
        # long enough that the second client's identical submit must
        # coalesce onto the in-flight request.
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        with running_server(faults=FaultPlan(delay={0: 0.8})) as \
                (server, host, port):
            outcome = {}

            def first():
                with ServiceClient(host, port, tenant="a") as client:
                    outcome["a"] = client.submit(cell, deadline=60.0)

            thread = threading.Thread(target=first)
            thread.start()
            time.sleep(0.25)  # let the submit be admitted and batched
            with ServiceClient(host, port, tenant="b") as client:
                outcome["b"] = client.submit(cell, deadline=60.0)
                coalesced = client.stats["coalesced"]
            thread.join()
            health = server.health()
        assert coalesced == 1
        assert health["coalesced"] == 1
        assert outcome["a"] == outcome["b"]
        ref = {r.key: r for r in baseline}[cell.key]
        assert outcome["a"].execution.counts == ref.execution.counts

    def test_health_probe_over_the_wire(self):
        with running_server() as (_server, host, port):
            with ServiceClient(host, port) as client:
                report = client.health()
        assert report["status"] == "ok"
        assert report["capacity"] == 64
        assert report["queue_depth"] == 0
        assert report["journal"] is False

    def test_unknown_request_type_is_a_structured_error(self):
        with running_server() as (_server, host, port):
            with socket.create_connection((host, port)) as conn:
                send_message(conn, {"type": "frobnicate"})
                response = recv_message(conn)
        assert response["type"] == "error"
        assert "frobnicate" in response["message"]

    def test_malformed_submit_body_is_rejected_not_crashed(self):
        with running_server() as (_server, host, port):
            with socket.create_connection((host, port)) as conn:
                send_message(conn, {"type": "submit", "tenant": "t",
                                    "fingerprint": "cell-v1|bogus",
                                    "cell": "AAAA"})
                response = recv_message(conn)
                # The connection survives for a retry with a good body.
                send_message(conn, {"type": "health"})
                health = recv_message(conn)
        assert response["type"] == "error"
        assert response["error_type"] == "ProtocolError"
        assert health["type"] == "health"


# --------------------------------------------------------------------------
# Admission bounds, end to end
# --------------------------------------------------------------------------


class TestAdmissionEndToEnd:
    def test_overload_sheds_structurally_and_backoff_completes(
            self, cal, baseline):
        """Acceptance: with capacity 1, three concurrent distinct
        submits produce at least one structured queue-full shed (never
        a hang), and clients that keep backing off all complete with
        correct results."""
        cells = make_cells(cal, benchmarks=("BV4", "Toffoli", "HS2"),
                           seeds=(0,))
        retry = RetryPolicy(max_attempts=10, base_delay=0.1,
                            max_delay=0.5)
        with running_server(queue_capacity=1, batch_max=1,
                            faults=FaultPlan(delay={0: 0.6})) as \
                (server, host, port):
            results, sheds = {}, []

            def submit_one(index, cell):
                with ServiceClient(host, port, tenant=f"t{index}",
                                   retry=retry,
                                   jitter_seed=index) as client:
                    results[cell.key] = client.submit(cell,
                                                      deadline=120.0)
                    sheds.append(client.stats["sheds"])

            threads = [threading.Thread(target=submit_one, args=(i, c))
                       for i, c in enumerate(cells)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            health = server.health()
        assert len(results) == len(cells)
        assert_matches_reference(
            run_sweep(cells), list(results.values()))
        # The bound actually fired: the server shed, the clients retried
        # through it.
        assert health["shed_queue_full"] >= 1
        assert sum(sheds) >= 1

    def test_tenant_cap_shed_end_to_end(self, cal):
        cells = make_cells(cal, benchmarks=("BV4", "Toffoli"),
                           seeds=(0,))
        with running_server(tenant_cap=1,
                            faults=FaultPlan(delay={0: 0.8})) as \
                (_server, host, port):
            def occupy():
                with ServiceClient(host, port, tenant="greedy") as c:
                    c.submit(cells[0], deadline=60.0)

            thread = threading.Thread(target=occupy)
            thread.start()
            time.sleep(0.25)
            impatient = RetryPolicy(max_attempts=1)
            with ServiceClient(host, port, tenant="greedy",
                               retry=impatient) as client:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    client.submit(cells[1], deadline=10.0)
            thread.join()
        assert excinfo.value.reason == "tenant-cap"
        assert excinfo.value.retry_after > 0

    def test_draining_server_sheds_with_notice(self, cal):
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        with running_server() as (server, host, port):
            server.request_drain()
            with ServiceClient(host, port,
                               retry=RetryPolicy(max_attempts=1)) as \
                    client:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    client.submit(cell, deadline=10.0)
            assert server.health()["status"] == "draining"
        assert excinfo.value.reason == "draining"


# --------------------------------------------------------------------------
# Client resilience
# --------------------------------------------------------------------------


class TestClientResilience:
    def test_backoff_delays_are_seed_deterministic_and_bounded(self):
        import random

        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=1.0, jitter=0.25)
        a = [policy.delay(n, random.Random(7)) for n in range(1, 6)]
        b = [policy.delay(n, random.Random(7)) for n in range(1, 6)]
        assert a == b
        for attempt, value in enumerate(a, start=1):
            raw = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert raw * 0.75 <= value <= raw * 1.25

    def test_circuit_breaker_opens_and_fails_fast(self):
        port = free_port()  # nothing listening
        retry = RetryPolicy(max_attempts=6, base_delay=0.01,
                            breaker_threshold=2, breaker_cooldown=60.0)
        with ServiceClient("127.0.0.1", port, retry=retry) as client:
            with pytest.raises(CircuitOpen):
                client.submit(_tiny_cell(), deadline=None)
            assert client.breaker_open
            assert client.stats["transport_failures"] == 2

    def test_breaker_half_open_probe_recovers(self, cal, baseline):
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        port = free_port()
        retry = RetryPolicy(max_attempts=1, base_delay=0.01,
                            breaker_threshold=1, breaker_cooldown=0.2)
        with ServiceClient("127.0.0.1", port, retry=retry) as client:
            with pytest.raises(ServiceError):
                client.submit(cell)  # trips the breaker
            assert client.breaker_open
            server = ReproServer(ServerConfig(port=port))
            server.start()
            try:
                with pytest.raises(CircuitOpen):
                    client.submit(cell)  # still cooling down
                time.sleep(0.25)
                result = client.submit(cell, deadline=60.0)  # probe
                assert not client.breaker_open
            finally:
                server.stop()
        ref = {r.key: r for r in baseline}[cell.key]
        assert result.execution.counts == ref.execution.counts

    def test_deadline_cuts_backoff_short(self):
        port = free_port()
        retry = RetryPolicy(max_attempts=50, base_delay=0.3, jitter=0.0,
                            breaker_threshold=100)
        with ServiceClient("127.0.0.1", port, retry=retry) as client:
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                client.submit(_tiny_cell(), deadline=0.5)
            assert time.monotonic() - started < 5.0

    def test_slow_response_trips_the_deadline(self, cal):
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        with running_server(faults=FaultPlan(conn_delay={0: 5.0})) as \
                (_server, host, port):
            with ServiceClient(host, port,
                               retry=RetryPolicy(max_attempts=1)) as \
                    client:
                with pytest.raises(DeadlineExceeded):
                    client.submit(cell, deadline=1.0)


def _tiny_cell():
    """A cell that is never executed (transport-failure tests)."""
    cal = default_ibmq16_calibration()
    return make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]


# --------------------------------------------------------------------------
# Chaos drills: connection faults, worker death, server kill + restart
# --------------------------------------------------------------------------


class TestChaosServed:
    def test_dropped_response_is_retried_to_bit_identity(
            self, cal, baseline, tmp_path):
        cells = make_cells(cal, benchmarks=("BV4", "Toffoli"),
                           seeds=(0,))
        with running_server(cache_dir=tmp_path / "store",
                            faults=FaultPlan(conn_drop=(1,))) as \
                (_server, host, port):
            with ServiceClient(host, port,
                               retry=RetryPolicy(base_delay=0.05)) as \
                    client:
                results = client.submit_many(cells, deadline=120.0)
                stats = dict(client.stats)
        assert_matches_reference(run_sweep(cells), results)
        assert stats["transport_failures"] == 1
        assert stats["retries"] >= 1
        # The resubmitted cell was already journaled: served as a hit,
        # not recomputed.
        assert stats["journal_hits"] >= 1

    def test_truncated_response_is_rejected_and_retried(
            self, cal, tmp_path):
        cells = make_cells(cal, benchmarks=("BV4", "Toffoli"),
                           seeds=(0,))
        with running_server(cache_dir=tmp_path / "store",
                            faults=FaultPlan(conn_trunc=(0,))) as \
                (_server, host, port):
            with ServiceClient(host, port,
                               retry=RetryPolicy(base_delay=0.05)) as \
                    client:
                results = client.submit_many(cells, deadline=120.0)
                stats = dict(client.stats)
        assert_matches_reference(run_sweep(cells), results)
        assert stats["transport_failures"] == 1
        assert stats["journal_hits"] >= 1

    def test_worker_death_behind_the_service_is_invisible(
            self, cells, baseline):
        """A transient worker kill inside the server's pool is absorbed
        by the supervised-pool retry; clients see only correct
        results."""
        with running_server(workers=3, max_retries=2, batch_window=0.5,
                            batch_max=16,
                            faults=FaultPlan(kill_on={0: 1})) as \
                (_server, host, port):
            results = {}

            def submit_one(index, cell):
                with ServiceClient(host, port, tenant=f"t{index}",
                                   jitter_seed=index) as client:
                    results[cell.key] = client.submit(cell,
                                                      deadline=180.0)

            threads = [threading.Thread(target=submit_one, args=(i, c))
                       for i, c in enumerate(cells)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert_matches_reference(baseline, list(results.values()))

    def test_connection_chaos_compound_drill(self, cal, baseline,
                                             tmp_path):
        """The end-to-end chaos proof: dropped AND truncated responses
        in one served sweep, with a journal — the client converges on
        results bit-identical to the unfaulted in-process run."""
        cells = make_cells(cal)
        plan = FaultPlan(conn_drop=(1, 4), conn_trunc=(2,),
                         conn_delay={0: 0.2})
        with running_server(cache_dir=tmp_path / "store",
                            faults=plan) as (server, host, port):
            with ServiceClient(host, port,
                               retry=RetryPolicy(base_delay=0.05)) as \
                    client:
                results = client.submit_many(cells, deadline=300.0)
                stats = dict(client.stats)
            health = server.health()
        assert_matches_reference(baseline, results)
        assert stats["transport_failures"] == 3  # two drops + one trunc
        # Two cells were resubmitted after a faulted response; both
        # were served from the journal, not recomputed. (The dropped
        # resubmission at seq 2 was *also* a journal hit, but its torn
        # response never reached the client's counters.)
        assert stats["journal_hits"] == 2
        assert health["status"] == "ok"


class TestServerRestartDrill:
    def test_killed_server_restarts_and_resumes_from_journal(
            self, cal, baseline, tmp_path):
        """The acceptance drill: the server is killed (``os._exit``)
        right after journaling a result but before answering; a
        restarted server on the same port serves the resubmission from
        the checkpoint journal and the client converges bit-identically
        with the in-process run."""
        cells = make_cells(cal, benchmarks=("BV4", "Toffoli"),
                           seeds=(0, 1))
        port = free_port()
        cache_dir = tmp_path / "store"
        env = dict(os.environ, REPRO_FAULTS="1",
                   REPRO_FAULT_SPEC="kill-server:1",
                   PYTHONPATH=_src_path())

        def spawn(spawn_env):
            return subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(port), "--cache-dir", str(cache_dir)],
                env=spawn_env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)

        first = spawn(env)
        try:
            wait_for_port(port)
            outcome = {}

            def run_client():
                retry = RetryPolicy(max_attempts=20, base_delay=0.3,
                                    multiplier=1.4, max_delay=1.5,
                                    breaker_threshold=50)
                with ServiceClient("127.0.0.1", port,
                                   retry=retry) as client:
                    outcome["results"] = client.submit_many(
                        cells, deadline=180.0)
                    outcome["stats"] = dict(client.stats)

            thread = threading.Thread(target=run_client)
            thread.start()
            # The kill fires on the second submit (seq 1), after its
            # result hit the journal.
            assert first.wait(timeout=120) == 86
            clean_env = dict(env)
            clean_env.pop("REPRO_FAULT_SPEC")
            second = spawn(clean_env)
            try:
                wait_for_port(port)
                thread.join(timeout=180)
                assert not thread.is_alive()
            finally:
                second.send_signal(signal.SIGTERM)
                assert second.wait(timeout=30) == 0
        finally:
            if first.poll() is None:  # pragma: no cover — drill failed
                first.kill()
                first.wait()
        assert_matches_reference(run_sweep(cells), outcome["results"])
        assert outcome["stats"]["transport_failures"] >= 1
        # The journaled-then-unanswered cell was served from the
        # restarted server's journal, not recomputed.
        assert outcome["stats"]["journal_hits"] >= 1
        journal = CompileCache(DiskStore(cache_dir)).journal
        for cell in cells:
            assert journal.load(cell_fingerprint(cell)) is not None


class TestGracefulDrain:
    def test_sigterm_drains_journals_and_exits_zero(self, cal,
                                                    tmp_path):
        """Acceptance: SIGTERM mid-sweep finishes and journals the
        in-flight cell, sheds new submits with a draining notice, and
        exits 0 — no zombies, no lost work."""
        cells = make_cells(cal, benchmarks=("BV4", "Toffoli"),
                           seeds=(0,))
        port = free_port()
        cache_dir = tmp_path / "store"
        env = dict(os.environ, REPRO_FAULTS="1",
                   REPRO_FAULT_SPEC="delay:0=1.5",
                   PYTHONPATH=_src_path())
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(port), "--cache-dir", str(cache_dir)],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            wait_for_port(port)
            outcome = {}

            def submit_in_flight():
                with ServiceClient("127.0.0.1", port) as client:
                    outcome["result"] = client.submit(cells[0],
                                                      deadline=120.0)

            thread = threading.Thread(target=submit_in_flight)
            thread.start()
            time.sleep(0.6)  # the submit is admitted and executing
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            with ServiceClient("127.0.0.1", port,
                               retry=RetryPolicy(max_attempts=1)) as \
                    late:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    late.submit(cells[1], deadline=10.0)
            assert excinfo.value.reason == "draining"
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover — drill failed
                proc.kill()
                proc.wait()
        # The in-flight cell was answered correctly AND journaled
        # before exit.
        reference = run_sweep([cells[0]])
        assert outcome["result"].execution.counts == \
            reference.results[0].execution.counts
        journal = CompileCache(DiskStore(cache_dir)).journal
        assert journal.load(cell_fingerprint(cells[0])) is not None


    def test_stop_with_an_idle_client_returns_promptly(self):
        """An idle connected client does not hold stop() for the
        default drain_grace (10 s), nor the listener for 2 s."""
        server = ReproServer(ServerConfig())
        host, port = server.start()
        with ServiceClient(host, port) as idle:
            idle.health()  # connected, then idle
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1.5

    def test_response_in_flight_at_stop_still_arrives(self, cal,
                                                      baseline):
        cell = make_cells(cal, benchmarks=("BV4",), seeds=(0,))[0]
        server = ReproServer(ServerConfig())
        host, port = server.start()
        outcome = {}
        with ServiceClient(host, port) as idle, \
                ServiceClient(host, port) as busy:
            idle.health()

            def submit_in_flight():
                outcome["result"] = busy.submit(cell, deadline=60.0)

            thread = threading.Thread(target=submit_in_flight)
            thread.start()
            deadline = time.monotonic() + 30.0
            while server.health()["admitted"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            server.stop()
            thread.join(timeout=60)
            assert not thread.is_alive()
        ref = {r.key: r for r in baseline}[cell.key]
        assert outcome["result"].execution.counts == ref.execution.counts


def _src_path() -> str:
    import repro

    return os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))


# --------------------------------------------------------------------------
# Satellite: argument validation
# --------------------------------------------------------------------------


class TestValidation:
    def test_run_sweep_rejects_negative_workers(self, cells):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            run_sweep(cells, workers=-1)

    def test_run_sweep_rejects_negative_max_retries(self, cells):
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            run_sweep(cells, max_retries=-1)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_run_sweep_rejects_non_positive_batch_timeout(self, cells,
                                                          bad):
        with pytest.raises(ValueError,
                           match="batch_timeout must be positive"):
            run_sweep(cells, batch_timeout=bad)

    def test_run_sweep_zero_workers_and_retries_stay_legal(self, cal):
        sweep = run_sweep(make_cells(cal, benchmarks=("BV4",),
                                     seeds=(0,)),
                          workers=0, max_retries=0)
        assert sweep.ok

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "-1"],
        ["sweep", "--max-retries", "-2"],
        ["sweep", "--batch-timeout", "0"],
        ["sweep", "--batch-timeout", "-3.5"],
        ["serve", "--queue-capacity", "0"],
        ["serve", "--workers", "-1"],
        ["submit", "--max-attempts", "0"],
        ["submit", "--deadline", "-1"],
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
        ["serve", "--health", "--port", "70000"],
        ["submit", "--port", "70000"],
        ["submit", "--port", "-1"],
        ["submit", "--port", "0"],
    ])
    def test_cli_rejects_bad_values_at_parse_time(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("port", [70000, -1, 0])
    def test_client_rejects_out_of_range_port(self, port):
        # getaddrinfo would wrap 70000 to 4464 and connect there.
        with pytest.raises(ServiceError, match="port must be in 1-65535"):
            ServiceClient("127.0.0.1", port)

    @pytest.mark.parametrize("port", [70000, -1])
    def test_server_config_rejects_out_of_range_port(self, port):
        with pytest.raises(ServiceError, match="port must be in 0-65535"):
            ServerConfig(port=port)

    def test_busy_port_is_a_clean_error(self):
        """Serving on a port another socket listens on exits 1 with one
        ``error:`` line naming host:port, not a traceback."""
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--port",
                 str(port)],
                env=dict(os.environ, PYTHONPATH=_src_path()),
                capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: cannot listen on 127.0.0.1:{port}: ")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_unbindable_host_is_a_clean_error(self):
        # 192.0.2.0/24 is reserved for documentation: no local
        # interface holds it, so bind fails without any traffic.
        with pytest.raises(ServiceError,
                           match="cannot listen on 192.0.2.1:0"):
            ReproServer(ServerConfig(host="192.0.2.1")).start()
