"""Client side of the compile service.

:class:`ServiceClient` wraps one connection to a ``repro serve``
daemon with the retry discipline a flaky network (or a chaos drill)
demands:

* **Per-request deadlines** — a wall-clock budget covering every
  attempt, connect included; exceeding it raises
  :class:`~repro.exceptions.DeadlineExceeded`, never a silent hang.
* **Exponential backoff with deterministic jitter** — transport
  failures and sheds back off geometrically; jitter is drawn from a
  seeded RNG so tests (and incident replays) are reproducible while
  production fleets still decorrelate.
* **Idempotent resubmission** — the submit envelope's cell fingerprint
  is the request's content identity: a resubmission after a dropped or
  torn response either coalesces onto the still-running original or is
  served from the server's checkpoint journal. Retrying is therefore
  always safe, which is what makes aggressive retry *correct*.
* **Circuit breaker** — consecutive transport failures past a
  threshold fail fast (:class:`~repro.exceptions.CircuitOpen`) for a
  cooldown instead of hammering a dead server; one successful
  round-trip closes the breaker.

Shed responses (queue full, tenant cap, draining) are structured and
retryable: the client honors the server's ``Retry-After`` hint, and
only after the attempt budget or deadline is exhausted does
:class:`~repro.exceptions.ServiceUnavailable` escape to the caller.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import (
    CircuitOpen,
    DeadlineExceeded,
    ProtocolError,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.protocol import (
    decode_result,
    encode_cell,
    recv_message,
    send_message,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff and circuit-breaker knobs of one client.

    Attributes:
        max_attempts: Total tries per request (first attempt included).
        base_delay: First backoff sleep (seconds).
        multiplier: Geometric backoff factor.
        max_delay: Backoff ceiling.
        jitter: Fractional jitter: each sleep is scaled by a uniform
            draw from ``[1 - jitter, 1 + jitter]``.
        breaker_threshold: Consecutive transport failures that trip
            the circuit breaker.
        breaker_cooldown: Seconds the open breaker fails fast before
            allowing a probe attempt.
    """

    max_attempts: int = 8
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    breaker_threshold: int = 5
    breaker_cooldown: float = 1.0

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The jittered backoff before retry *attempt* (1-based)."""
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        return raw * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


class ServiceClient:
    """One tenant's connection to a compile service.

    Connections are reused across submits and transparently reopened
    after transport failures. Not thread-safe — give each thread its
    own client (the coalescing server makes that cheap).

    Args:
        host: Server host.
        port: Server port, 1-65535.
        tenant: Admission-control identity sent with every submit.
        deadline: Default per-request wall-clock budget in seconds
            (``None`` = wait indefinitely, modulo the retry budget).
        retry: Backoff/breaker policy.
        jitter_seed: Seed of the jitter RNG — fixed per client so
            chaos drills replay identically.
    """

    def __init__(self, host: str, port: int, tenant: str = "default",
                 deadline: Optional[float] = None,
                 retry: RetryPolicy = RetryPolicy(),
                 jitter_seed: int = 0) -> None:
        # getaddrinfo wraps an out-of-range port modulo 2**16, so the
        # client would talk to whatever listens there.
        if not 1 <= port <= 65535:
            raise ServiceError(f"port must be in 1-65535, got {port}")
        self.host = host
        self.port = port
        self.tenant = tenant
        self.deadline = deadline
        self.retry = retry
        self._rng = random.Random(jitter_seed)
        self._sock: Optional[socket.socket] = None
        self._consecutive_failures = 0
        self._breaker_open_until = 0.0
        #: Lifetime counters, exposed for tests and reporting.
        self.stats = {"submitted": 0, "retries": 0, "sheds": 0,
                      "transport_failures": 0, "coalesced": 0,
                      "journal_hits": 0, "degraded_responses": 0}

    # --------------------------------------------------------- transport

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover — already dead
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self, timeout: Optional[float]) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        self._sock.settimeout(timeout)
        return self._sock

    def _roundtrip(self, message: dict,
                   deadline_at: Optional[float]) -> dict:
        """One request/response exchange with deadline accounting."""
        timeout = None
        if deadline_at is not None:
            timeout = deadline_at - time.monotonic()
            if timeout <= 0:
                raise DeadlineExceeded(
                    f"deadline exhausted before sending "
                    f"{message.get('type')} request")
        try:
            sock = self._connection(timeout)
            send_message(sock, message)
            response = recv_message(sock)
        except socket.timeout as exc:
            self.close()
            raise DeadlineExceeded(
                f"no response within the {message.get('type')} "
                f"request's deadline") from exc
        if response is None:
            # Clean EOF instead of a response: the server dropped the
            # connection (injected or real). A transport failure like
            # any other.
            self.close()
            raise ProtocolError("connection closed before a response")
        return response

    # ------------------------------------------------------------ breaker

    def _check_breaker(self) -> None:
        if self._consecutive_failures < self.retry.breaker_threshold:
            return
        remaining = self._breaker_open_until - time.monotonic()
        if remaining > 0:
            raise CircuitOpen(
                f"circuit breaker open after "
                f"{self._consecutive_failures} consecutive transport "
                f"failures; retry in {remaining:.2f}s")
        # Cooldown elapsed: half-open — let one probe attempt through.

    def _record_transport_failure(self) -> None:
        self.stats["transport_failures"] += 1
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.retry.breaker_threshold:
            self._breaker_open_until = (time.monotonic()
                                        + self.retry.breaker_cooldown)
        self.close()

    @property
    def breaker_open(self) -> bool:
        return (self._consecutive_failures >= self.retry.breaker_threshold
                and time.monotonic() < self._breaker_open_until)

    # ------------------------------------------------------------- calls

    def submit(self, cell, deadline: Optional[float] = None):
        """Submit one cell; return its :class:`~repro.runtime.CellResult`.

        Retries transport failures and sheds under the client's
        :class:`RetryPolicy`; the cell's fingerprint makes every
        resubmission idempotent server-side.

        Raises:
            DeadlineExceeded: The per-request budget ran out.
            CircuitOpen: The breaker is open (failing fast).
            ServiceUnavailable: Shed on every attempt (the last shed's
                reason and ``Retry-After`` are carried).
            ServiceError: The server rejected the request outright
                (protocol error — not retryable).
        """
        budget = deadline if deadline is not None else self.deadline
        deadline_at = (time.monotonic() + budget
                       if budget is not None else None)
        envelope = {"type": "submit", "tenant": self.tenant,
                    **encode_cell(cell)}
        self.stats["submitted"] += 1
        last_error: Optional[Exception] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            self._check_breaker()
            hint = 0.0
            try:
                response = self._roundtrip(envelope, deadline_at)
            except (ProtocolError, ConnectionError, OSError) as exc:
                self._record_transport_failure()
                last_error = exc
            else:
                self._consecutive_failures = 0
                kind = response.get("type")
                if kind == "result":
                    return self._accept_result(response)
                if kind == "shed":
                    self.stats["sheds"] += 1
                    hint = float(response.get("retry_after", 0.0))
                    last_error = ServiceUnavailable(
                        f"request shed ({response.get('reason')}); "
                        f"retry after {hint:.3f}s",
                        retry_after=hint,
                        reason=str(response.get("reason", "")))
                else:
                    raise ServiceError(
                        f"server rejected request: "
                        f"{response.get('error_type', kind)}: "
                        f"{response.get('message', '')}")
            if attempt >= self.retry.max_attempts:
                break
            delay = max(self.retry.delay(attempt, self._rng), hint)
            if deadline_at is not None and \
                    time.monotonic() + delay >= deadline_at:
                raise DeadlineExceeded(
                    f"deadline would expire during backoff "
                    f"(attempt {attempt}/{self.retry.max_attempts}) "
                    f"after: {last_error}") from last_error
            self.stats["retries"] += 1
            time.sleep(delay)
        if isinstance(last_error, ServiceUnavailable):
            raise last_error
        raise ServiceError(
            f"request failed after {self.retry.max_attempts} attempts: "
            f"{last_error}") from last_error

    def _accept_result(self, response: dict):
        if response.get("coalesced"):
            self.stats["coalesced"] += 1
        if response.get("journal_hit"):
            self.stats["journal_hits"] += 1
        if response.get("degraded"):
            self.stats["degraded_responses"] += 1
        return decode_result(response)

    def submit_many(self, cells: Sequence,
                    deadline: Optional[float] = None) -> List:
        """Submit cells sequentially, returning results in order."""
        return [self.submit(cell, deadline=deadline) for cell in cells]

    def health(self, deadline: Optional[float] = 5.0) -> dict:
        """The server's health report (one attempt, no retries)."""
        deadline_at = (time.monotonic() + deadline
                       if deadline is not None else None)
        try:
            response = self._roundtrip({"type": "health"}, deadline_at)
        except (ConnectionError, OSError, ProtocolError) as exc:
            self.close()
            raise ServiceError(
                f"health probe of {self.host}:{self.port} failed: "
                f"{exc}") from exc
        if response.get("type") != "health":
            raise ServiceError(
                f"unexpected health response type "
                f"{response.get('type')!r}")
        return response


def submit_sweep(cells: Sequence, host: str, port: int,
                 tenant: str = "default",
                 deadline: Optional[float] = None,
                 retry: RetryPolicy = RetryPolicy(),
                 jitter_seed: int = 0) -> List:
    """Submit a whole grid through one client; results in grid order.

    The served counterpart of :func:`~repro.runtime.run_sweep`: by the
    service's robustness contract the returned
    :class:`~repro.runtime.CellResult` list is bit-identical to an
    in-process ``run_sweep`` of the same cells — the property
    ``tests/test_service.py`` pins under chaos.
    """
    with ServiceClient(host, port, tenant=tenant, deadline=deadline,
                       retry=retry, jitter_seed=jitter_seed) as client:
        return client.submit_many(cells)
