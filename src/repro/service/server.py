"""The ``repro serve`` daemon.

A long-lived socket service that turns :func:`~repro.runtime.run_sweep`
into compilation-as-a-service: clients submit individual
:class:`~repro.runtime.SweepCell` requests; the server batches admitted
cells through the fault-tolerant sweep runtime (supervised pool,
retry/quarantine, checkpoint journal) and streams each result back to
every client waiting on its fingerprint.

Thread model — deliberately boring, because boring survives chaos:

* one **accept** thread hands each connection to a dedicated handler
  thread (clients block on their own submits; slow clients slow only
  themselves);
* one **executor** thread drains the admission queue in batches
  (``batch_window`` of latency buys burst coalescing into one
  ``run_sweep`` call) — all compile/trace caches are touched by this
  thread only, so the cache layer needs no locking;
* the **admission controller** is the only cross-thread state, and it
  is fully lock-guarded.

Robustness contract:

* a request, once admitted, is always answered — executor exceptions
  are converted to per-cell :class:`~repro.runtime.CellFailure`
  results, never silent drops;
* ``SIGTERM``/``SIGINT`` drain gracefully: new submits are shed with a
  ``"draining"`` notice, admitted cells finish and are journaled, and
  the process exits 0 with no zombie workers;
* with a ``cache_dir``, every completed cell is checkpoint-journaled
  *before* its response is sent, so a server killed mid-flight resumes
  from the journal and a resubmitting client converges on the exact
  result the uninterrupted run would have produced;
* persistent-store degradation (disk full) is surfaced to clients as a
  ``degraded`` response flag and re-probed between batches
  (:meth:`~repro.runtime.CompileCache.redeem`), so a transient outage
  doesn't pin a long-lived server in memory-only mode.

Connection-level fault injection (``REPRO_FAULTS`` +
``conn-drop``/``conn-trunc``/``conn-delay``/``kill-server`` tokens)
fires in the response path, addressed by global submit arrival order —
every client recovery path is deterministically drillable.
"""

from __future__ import annotations

import signal
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Hashable, List, Optional, Set, Tuple

from repro.exceptions import ProtocolError, ServiceError
from repro.runtime.cache import CompileCache
from repro.runtime.diskcache import DiskStore
from repro.runtime.sweep import (
    CellFailure,
    CellResult,
    SweepCell,
    run_sweep,
)
from repro.service.admission import AdmissionController, Request
from repro.service.protocol import (
    decode_cell,
    encode_result,
    recv_message,
    send_message,
    send_truncated,
)


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`ReproServer`.

    Attributes:
        host: Interface to bind. Loopback by default — the wire
            protocol carries pickle bodies, so only trusted interfaces
            may listen (see :mod:`repro.service.protocol`).
        port: TCP port in 0-65535; ``0`` lets the OS pick (tests) —
            the bound port is reported by :meth:`ReproServer.start`.
        cache_dir: Optional disk store root for every cache tier
            and the checkpoint journal.
            Strongly recommended for production: it is what makes the
            server restartable (resume from journal) and cross-process
            cache-warm.
        workers: Sweep pool width per batch (``0`` = in-process; the
            supervised pool's worker-death recovery applies when
            ``>= 2``).
        queue_capacity: Bound on *distinct* queued cells; beyond it
            submits are shed with ``Retry-After``.
        tenant_cap: Per-tenant outstanding-request cap.
        batch_window: Seconds the executor waits to batch a burst of
            submits into one ``run_sweep`` call.
        batch_max: Max distinct cells per executor batch.
        max_retries: Worker-death retries per cell (pool path).
        batch_timeout: Watchdog seconds-without-progress per worker
            (pool path; ``None`` disables).
        drain_grace: Seconds shutdown waits for handler threads to
            flush their final responses.
    """

    host: str = "127.0.0.1"
    port: int = 0
    cache_dir: Optional[object] = None
    workers: int = 0
    queue_capacity: int = 64
    tenant_cap: int = 16
    batch_window: float = 0.05
    batch_max: int = 32
    max_retries: int = 2
    batch_timeout: Optional[float] = None
    drain_grace: float = 10.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ServiceError(
                f"port must be in 0-65535 (0 = OS-picked), got "
                f"{self.port}")


class ReproServer:
    """One compile-service instance (see module docstring).

    Args:
        config: The server's knobs.
        faults: Optional :class:`~repro.runtime.faults.FaultPlan`.
            Cell-level faults ride into every ``run_sweep`` batch;
            connection-level faults fire in the response path. Inert
            unless ``REPRO_FAULTS`` is set.
    """

    def __init__(self, config: ServerConfig = ServerConfig(),
                 faults=None) -> None:
        self.config = config
        self._faults = faults
        self._admission = AdmissionController(
            capacity=config.queue_capacity, tenant_cap=config.tenant_cap)
        self._cache = CompileCache(
            DiskStore(config.cache_dir) if config.cache_dir is not None
            else None)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._executor_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        # Open client connections; each handler removes its own.
        self._connections: Set[socket.socket] = set()
        self._handlers_lock = threading.Lock()
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._seq_lock = threading.Lock()
        self._submit_seq = 0
        self._started_at = 0.0
        # Executor-thread-only counters, read (racily but monotonically)
        # by the health report.
        self._served = 0
        self._resumed = 0
        self._quarantined = 0
        self._failed = 0
        self._batches = 0
        self._degraded = False

    # ---------------------------------------------------------- lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind, spawn the accept and executor threads, and return the
        bound ``(host, port)`` (the OS-picked port when ``port=0``).

        Raises:
            ServiceError: The address cannot be resolved or bound
                (unknown host, port in use, no permission).
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # A restarted server must rebind the port its predecessor's
        # dying sockets still hold in TIME_WAIT — the restart drill
        # depends on this.
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.config.host, self.config.port))
            listener.listen(128)
        except OSError as exc:
            listener.close()
            raise ServiceError(
                f"cannot listen on {self.config.host}:{self.config.port}: "
                f"{exc.strerror or exc}") from exc
        self._listener = listener
        self._started_at = time.monotonic()
        self._executor_thread = threading.Thread(
            target=self._executor_loop, name="repro-serve-executor",
            daemon=True)
        self._executor_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept",
            daemon=True)
        self._accept_thread.start()
        return listener.getsockname()[:2]

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        return self._listener.getsockname()[:2]

    def request_drain(self) -> None:
        """Begin graceful shutdown: shed new submits with a
        ``"draining"`` notice, finish and journal admitted cells, then
        let :meth:`serve_forever`/:meth:`stop` complete. Idempotent and
        signal-handler-safe."""
        self._admission.drain()

    def serve_forever(self) -> None:
        """Run until drained (CLI entry point; call from the main
        thread). Installs ``SIGTERM``/``SIGINT`` handlers that trigger
        the graceful drain, then blocks; returns once every admitted
        cell has been answered and the process is safe to exit 0."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self.request_drain())
        self._drained.wait()
        self._shutdown()

    def stop(self) -> None:
        """Drain and shut down (programmatic/test entry point)."""
        self.request_drain()
        self._drained.wait(timeout=self.config.drain_grace
                           + (self.config.batch_timeout or 0.0))
        self._shutdown()

    def _shutdown(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            # On Linux, close() does not wake a thread blocked in
            # accept(); shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # some platforms refuse it on a listener
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover — already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._executor_thread is not None:
            self._executor_thread.join(timeout=self.config.drain_grace)
        deadline = time.monotonic() + self.config.drain_grace
        with self._handlers_lock:
            handlers = list(self._handlers)
            connections = list(self._connections)
        # Every admitted cell is answered by now. Closing the read half
        # lets a handler idling on its client's next request read EOF
        # and exit, while responses still in flight go out.
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:  # the peer already hung up
                pass
        for handler in handlers:
            handler.join(timeout=max(0.0, deadline - time.monotonic()))

    # ------------------------------------------------------------ health

    def health(self) -> dict:
        """The health report: admission bounds and depths, lifetime
        counters, degradation, and drain state."""
        report = dict(self._admission.snapshot())
        disk = self._cache.disk_stats()
        report.update({
            "status": "draining" if self._admission.draining else "ok",
            "uptime": round(time.monotonic() - self._started_at, 3),
            "workers": self.config.workers,
            "batches": self._batches,
            "served": self._served,
            "resumed": self._resumed,
            "failed": self._failed,
            "quarantined": self._quarantined,
            "degraded": self._degraded,
            "redeemed": max((stats.redeemed for stats in disk.values()),
                            default=0),
            "journal": self._cache.journal is not None,
        })
        return report

    # ------------------------------------------------------------ intake

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:  # listener closed — shutting down
                return
            handler = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="repro-serve-conn", daemon=True)
            with self._handlers_lock:
                self._handlers = [t for t in self._handlers
                                  if t.is_alive()]
                self._handlers.append(handler)
                self._connections.add(conn)
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while True:
                    try:
                        envelope = recv_message(conn)
                    except ProtocolError:
                        # Torn/corrupt inbound frame: there is no way
                        # to answer a request we can't delimit — drop
                        # the connection; the client resubmits.
                        return
                    if envelope is None:
                        return
                    if not self._dispatch(conn, envelope):
                        return
        except OSError:
            return  # peer vanished mid-response; nothing left to say
        finally:
            with self._handlers_lock:
                self._connections.discard(conn)

    def _dispatch(self, conn: socket.socket, envelope: dict) -> bool:
        """Handle one envelope; False ends the connection."""
        kind = envelope.get("type")
        if kind == "health":
            send_message(conn, {"type": "health", **self.health()})
            return True
        if kind != "submit":
            send_message(conn, {
                "type": "error", "error_type": "ProtocolError",
                "message": f"unknown request type {kind!r}"})
            return True
        with self._seq_lock:
            seq = self._submit_seq
            self._submit_seq += 1
        try:
            cell = decode_cell(envelope)
            if not isinstance(cell, SweepCell):
                raise ProtocolError(
                    f"submit body is a {type(cell).__name__}, "
                    f"not a SweepCell")
        except ProtocolError as exc:
            send_message(conn, {
                "type": "error", "error_type": "ProtocolError",
                "message": str(exc)})
            return True
        tenant = str(envelope.get("tenant", "default"))
        decision = self._admission.offer(envelope["fingerprint"], cell,
                                         tenant)
        if decision.kind == "shed":
            send_message(conn, {
                "type": "shed", "reason": decision.reason,
                "retry_after": decision.retry_after,
                "fingerprint": envelope["fingerprint"]})
            return True
        request = decision.request
        while not request.done.wait(timeout=0.2):
            if self._stopping.is_set():  # pragma: no cover — safety net
                send_message(conn, {
                    "type": "shed", "reason": "draining",
                    "retry_after": 0.1,
                    "fingerprint": request.fingerprint})
                return True
        # The result exists and — with a cache_dir — is already
        # journaled, which is exactly why the injected crash sits
        # here: a restarted server serves the resubmission from the
        # journal, proving the client-visible exactly-once story.
        if self._faults is not None:
            self._faults.maybe_kill_server(seq)
            action = self._faults.on_response(seq)
            if action == "drop":
                return False
            if action == "trunc":
                send_truncated(conn, self._result_envelope(
                    request, decision, cell.key))
                return False
        send_message(conn, self._result_envelope(request, decision,
                                                 cell.key))
        return True

    def _result_envelope(self, request: Request, decision,
                         key: Hashable) -> dict:
        # Coalesced submits and journal hits share a result keyed by
        # whichever content-equal cell ran; each gets its own key back.
        result: CellResult = request.result
        failure = result.failure and replace(result.failure, key=key)
        result = replace(result, key=key, failure=failure)
        return {
            "type": "result",
            "fingerprint": request.fingerprint,
            "result": encode_result(result),
            "ok": result.failure is None,
            "coalesced": decision.kind == "coalesce",
            "journal_hit": bool(result.resumed),
            "degraded": self._degraded,
        }

    # ---------------------------------------------------------- executor

    def _executor_loop(self) -> None:
        while True:
            batch = self._admission.take_batch(
                self.config.batch_max, timeout=self.config.batch_window)
            if not batch:
                if self._admission.draining and \
                        self._admission.pending() == 0:
                    break
                if self._stopping.is_set():
                    break
                continue
            self._execute_batch(batch)
        self._drained.set()

    def _execute_batch(self, batch: List[Request]) -> None:
        cells = [request.cell for request in batch]
        try:
            sweep = run_sweep(
                cells, workers=self.config.workers,
                compile_cache=self._cache,
                resume=self._cache.journal is not None,
                max_retries=self.config.max_retries,
                batch_timeout=self.config.batch_timeout,
                faults=self._faults)
            results = list(sweep.results)
            self._resumed += sweep.resumed
        except Exception as exc:
            # An executor crash must never strand waiters: answer every
            # request in the batch with a structured failure.
            results = [CellResult(
                key=cell.key,
                failure=CellFailure.from_exception(index, cell.key, exc))
                for index, cell in enumerate(cells)]
        self._batches += 1
        self._served += len(batch)
        for result in results:
            if result.failure is not None:
                self._failed += 1
                if result.failure.stage in ("worker", "timeout"):
                    self._quarantined += 1
        self._degraded = any(stats.degraded for stats
                             in self._cache.disk_stats().values())
        if self._degraded and self._cache.redeem():
            self._degraded = False
        for request, result in zip(batch, results):
            self._admission.complete(request, result)


def serve(config: ServerConfig, faults=None,
          announce=None) -> int:
    """Run a server until drained (the CLI's blocking entry point).

    Returns the process exit code (0 on a clean drain).
    """
    server = ReproServer(config, faults=faults)
    host, port = server.start()
    if announce is not None:
        announce(host, port)
    server.serve_forever()
    return 0
