"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CircuitError(ReproError):
    """Invalid circuit construction or manipulation."""


class QasmError(ReproError):
    """Malformed OpenQASM input or unsupported construct."""


class ScaffIRError(ReproError):
    """Malformed ScaffIR program text."""


class TopologyError(ReproError):
    """Invalid hardware topology or qubit reference."""


class BackendError(TopologyError):
    """Unknown or misconfigured backend target.

    Subclasses :class:`TopologyError` because the backend presets
    subsume the old device lookup: callers that caught
    ``TopologyError`` on an unknown device name keep working.
    """


class CalibrationError(ReproError):
    """Missing or inconsistent calibration data."""


class SolverError(ReproError):
    """Constraint-model construction or solving failure."""


class CompilationError(ReproError):
    """The compiler could not produce a valid executable."""


class MappingError(CompilationError):
    """No legal qubit mapping exists (e.g. program larger than machine)."""


class SchedulingError(CompilationError):
    """Gate scheduling failed (e.g. coherence deadline violated)."""


class SweepError(ReproError):
    """Sweep-runtime execution failure."""


class CellExecutionError(SweepError):
    """One or more sweep cells failed under ``strict=True``.

    Raised by :func:`repro.runtime.run_sweep` when strict mode is on
    and the parallel path collected cell failures; the message carries
    the sweep's failure report (per-cell exception type, message, and
    captured traceback).
    """


class ServiceError(ReproError):
    """Compile-service (``repro serve``) failure."""


class ProtocolError(ServiceError):
    """Malformed or truncated wire message (:mod:`repro.service.protocol`).

    Raised on oversized frames, invalid JSON payloads, and connections
    closed mid-message. The client treats it as a transport failure:
    the request is resubmitted (idempotent by cell fingerprint), never
    half-trusted.
    """


class ServiceUnavailable(ServiceError):
    """The service shed the request (structured, retryable).

    Carries the server's ``Retry-After`` hint and shed reason
    (``"queue-full"``, ``"tenant-cap"``, ``"draining"``). The client's
    backoff loop honors the hint; this type only escapes to callers
    once the retry budget or deadline is exhausted.
    """

    def __init__(self, message: str, retry_after: float = 0.0,
                 reason: str = "") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


class DeadlineExceeded(ServiceError):
    """A client request ran past its per-request deadline."""


class CircuitOpen(ServiceError):
    """The client's circuit breaker is open.

    Tripped after consecutive transport failures; submissions fail
    fast (no connection attempt) until the cooldown elapses.
    """


class FaultInjected(ReproError):
    """An injected fault fired (:mod:`repro.runtime.faults`).

    Only ever raised when the fault-injection harness is armed via the
    ``REPRO_FAULTS`` environment variable — production sweeps never see
    this type.
    """


class SimulationError(ReproError):
    """Noisy-executor failure."""


class SimulationCapacityError(SimulationError):
    """The program exceeds the engine's practical capacity.

    Raised by the dense-statevector engines when ``2**n_qubits``
    amplitudes would exceed
    :func:`~repro.simulator.batch.amplitude_budget` — a clear refusal
    instead of an out-of-memory allocation. The message suggests
    ``--engine stabilizer`` for Clifford circuits.
    """


class MitigationError(ReproError):
    """Invalid error-mitigation configuration or input."""
