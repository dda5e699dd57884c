"""Pluggable array-namespace backends for the batched statevector pass.

The batched trajectory engine (:mod:`repro.simulator.batch`) used to be
hard-wired to numpy and to a fixed ``1 << 22`` amplitude chunk budget.
This module turns "which array library runs the contraction" into a
registry value, mirroring the engine/backend registries:

* :class:`ArrayBackend` exposes exactly the small op surface the
  batched pass uses — ``zeros``, the gate contraction
  ``apply_matrix``, the batched Pauli injection ``apply_paulis``, the
  |amplitude|^2 reduce, and host transfer (``asarray``/``to_numpy``)
  — plus a
  *device-memory-aware* :meth:`~ArrayBackend.amplitude_budget` that
  replaces the fixed chunk constant (64 MiB of complex128 on host
  backends, a fraction of free device memory on CUDA ones, with a
  ``REPRO_CHUNK_MIB`` environment override on all of them).
* :func:`register_array_backend` registers a zero-argument factory
  under a stable name. ``"numpy"`` is always present and is the
  default; ``"torch"`` and ``"cupy"`` are registered here but
  construct lazily, so merely importing this module never imports
  either library — availability is probed on demand.
* :func:`resolve_array_backend` is the tolerant front door the
  executor uses: unknown names fail fast with a did-you-mean hint
  (matching the engine/backend registries), while *known but
  unavailable* names (``--array-backend torch`` without torch
  installed) warn once per process and fall back to numpy.

All RNG sampling stays in numpy on the host regardless of the selected
backend — only the statevector contraction moves to the device — so
counts are bit-identical across backends for the same seeds (the
contraction feeds probabilities back to the host sampler through one
:meth:`~ArrayBackend.pattern_reduce` transfer per chunk).

Per-trace unitaries are staged through :meth:`ArrayBackend.stage`,
which memoizes device uploads by host-array identity: each distinct
gate matrix is transferred once per process (pinned host staging on
CUDA), not once per chunk.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Callable, Dict, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.exceptions import SimulationError
from repro.backend.engines import unknown_name_message

#: Host-side default chunk budget: 64 MiB of complex128 amplitudes
#: (16 bytes each) — the value the fixed ``_CHUNK_AMPLITUDES`` constant
#: used to hard-code.
_DEFAULT_BUDGET_AMPLITUDES = 1 << 22

#: Fraction of *free* device memory a CUDA backend budgets per chunk.
#: Conservative on purpose: the contraction holds the state tensor
#: plus one tensordot temporary of the same size.
_DEVICE_MEMORY_FRACTION = 0.25

#: Bound on the per-backend staged-unitary memo (matches the
#: ``cached_unitary`` lru bound; entries are 2x2/4x4 matrices).
_MAX_STAGED = 4096

#: Environment override for the chunk budget, in MiB of complex128
#: amplitudes (also settable via the CLI's ``--chunk-mib``).
CHUNK_ENV = "REPRO_CHUNK_MIB"


def _env_budget() -> Optional[int]:
    """The ``REPRO_CHUNK_MIB`` override in amplitudes, or ``None``."""
    raw = os.environ.get(CHUNK_ENV, "").strip()
    if not raw:
        return None
    try:
        mib = float(raw)
    except ValueError:
        raise SimulationError(
            f"{CHUNK_ENV} must be a number of MiB, got {raw!r}")
    if not math.isfinite(mib):
        raise SimulationError(
            f"{CHUNK_ENV} must be a finite number of MiB, got {raw!r}")
    if mib <= 0:
        raise SimulationError(
            f"{CHUNK_ENV} must be positive MiB, got {raw!r}")
    return max(1, int(mib * (1 << 20)) // 16)


class ArrayBackend:
    """One array library the batched statevector pass can run on.

    Subclasses set :attr:`name` and implement the op surface below;
    anything importing heavy libraries must do so in ``__init__`` (the
    registry constructs lazily, so an uninstalled library only fails
    when its backend is actually requested). Backends are stateless
    apart from the staged-unitary memo and are shared process-wide.
    """

    name: str = ""

    # ------------------------------------------------------------------
    # Device / memory
    # ------------------------------------------------------------------
    def device(self) -> str:
        """Human-readable description of the executing device."""
        return "cpu"

    def native_amplitude_budget(self) -> int:
        """The backend's own chunk budget, in complex128 amplitudes.

        Host backends default to 64 MiB; device backends override this
        with a query of free device memory.
        """
        return _DEFAULT_BUDGET_AMPLITUDES

    def amplitude_budget(self) -> int:
        """Amplitudes the batched pass may hold per chunk.

        The ``REPRO_CHUNK_MIB`` environment override wins when set
        (64 MiB default on host backends otherwise); device backends
        size the native budget to the backing device's free memory —
        the memory-system-aware replacement for the old fixed
        ``_CHUNK_AMPLITUDES`` constant.
        """
        override = _env_budget()
        if override is not None:
            return override
        return self.native_amplitude_budget()

    # ------------------------------------------------------------------
    # Op surface (exactly what repro.simulator.batch uses)
    # ------------------------------------------------------------------
    def zeros(self, shape: Tuple[int, ...]):
        """A complex128 zero tensor on the device."""
        raise NotImplementedError

    def asarray(self, host: np.ndarray):
        """Upload a host numpy array to the device (identity on host
        backends)."""
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        """Bring a device array back to a host numpy array (identity
        on host backends)."""
        raise NotImplementedError

    def apply_matrix(self, state, matrix, axes: Tuple[int, ...]):
        """*state* with the ``2**k x 2**k`` *matrix* applied to its
        *axes* (k of them, most significant first).

        Computed the way ``np.tensordot`` computes the same
        contraction — *axes* moved to the front, flattened to
        ``2**k`` rows, one matrix product, axes moved back — so the
        numpy backend's amplitudes are bit-identical to it. May
        return a view.
        """
        raise NotImplementedError

    def apply_paulis(self, state, rows: np.ndarray, flips: np.ndarray,
                     signs: np.ndarray, phases: np.ndarray) -> None:
        """Apply one single-qubit Pauli to each of *rows*, in place.

        Indexing a row's basis states as the flattened ``(2, ..., 2)``
        tensor does, row ``rows[k]`` maps amplitude *j* to
        ``phases[k] * (-1 if j & signs[k] else 1) * amp[j ^ flips[k]]``
        — X flips the qubit's bit, Z signs it, Y does both under a
        ``-1j`` phase. The products are with 0, ±1 and ±i, so they are
        exact. *rows* are distinct; every argument is a host array
        (int64 masks, complex128 phases).
        """
        raise NotImplementedError

    def pattern_reduce(self, state, order: np.ndarray,
                       n_patterns: int) -> np.ndarray:
        """The batched pass's closing |amplitude|^2 reduce.

        Flattens the ``(batch, 2, ..., 2)`` state, takes squared
        magnitudes, permutes the basis columns by *order* (which sorts
        them by measured-pattern code, so each code owns an equal
        contiguous block) and collapses each block with one
        reshape+sum. Returns a **host** ``(batch, n_patterns)`` float64
        matrix — the single device-to-host transfer of a chunk.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Unitary staging
    # ------------------------------------------------------------------
    def stage(self, host: np.ndarray):
        """The device copy of a (cached, read-only) host unitary.

        Memoized by host-array identity: ``cached_unitary`` returns one
        immutable array per (gate, param), so each distinct unitary is
        uploaded once per process rather than once per chunk. The memo
        holds a reference to the host array (so ``id`` cannot be
        recycled under it) and is FIFO-bounded like the unitary cache
        itself.
        """
        staged = self.__dict__.setdefault("_staged", {})
        entry = staged.get(id(host))
        if entry is None:
            while len(staged) >= _MAX_STAGED:
                staged.pop(next(iter(staged)))
            entry = staged[id(host)] = (host, self.asarray(host))
        return entry[1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
ArrayBackendFactory = Callable[[], ArrayBackend]

_FACTORIES: Dict[str, ArrayBackendFactory] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
_WARNED_UNAVAILABLE: Set[str] = set()
_DEFAULT_NAME = "numpy"


def register_array_backend(name: str):
    """Decorator registering a zero-argument :class:`ArrayBackend`
    factory under *name* (case-insensitive on lookup; last wins,
    matching the engine/backend registries)::

        @register_array_backend("mylib")
        def mylib() -> ArrayBackend:
            return MyLibBackend()

    The factory may raise ``ImportError`` (or any exception) when its
    library is missing; the name then shows as unavailable and
    resolving it falls back to numpy with a warning.
    """
    key = name.lower()

    def decorate(factory: ArrayBackendFactory) -> ArrayBackendFactory:
        _FACTORIES[key] = factory
        _INSTANCES.pop(key, None)
        _WARNED_UNAVAILABLE.discard(key)
        return factory

    return decorate


def registered_array_backends() -> Tuple[str, ...]:
    """Registered array-backend names, in registration order."""
    return tuple(_FACTORIES)


def _construct(key: str) -> ArrayBackend:
    instance = _INSTANCES.get(key)
    if instance is None:
        instance = _INSTANCES[key] = _FACTORIES[key]()
    return instance


def array_backend_available(name: str) -> bool:
    """Whether *name* is registered and its library constructs."""
    key = str(name).lower()
    if key not in _FACTORIES:
        return False
    try:
        _construct(key)
        return True
    except Exception:
        return False


def array_backend_status() -> Dict[str, str]:
    """Per-backend availability, for listings (``repro engines``).

    Maps each registered name to ``"available (<device>)"`` or
    ``"unavailable (<reason>)"``.
    """
    status: Dict[str, str] = {}
    for key in _FACTORIES:
        try:
            backend = _construct(key)
            status[key] = f"available ({backend.device()})"
        except Exception as exc:
            reason = str(exc).splitlines()[0] if str(exc) else \
                type(exc).__name__
            status[key] = f"unavailable ({reason})"
    return status


def get_array_backend(name: Optional[Union[str, ArrayBackend]] = None
                      ) -> ArrayBackend:
    """The backend behind *name*, strictly.

    ``None`` resolves to the process default (see
    :func:`set_default_array_backend`); an :class:`ArrayBackend`
    instance passes through.

    Raises:
        SimulationError: Unknown names (did-you-mean hint, like the
            engine registry) and registered-but-unavailable backends
            (with the underlying import failure). Use
            :func:`resolve_array_backend` for the warn-and-fall-back
            contract instead.
    """
    if isinstance(name, ArrayBackend):
        return name
    key = (_DEFAULT_NAME if name is None else str(name)).lower()
    if key not in _FACTORIES:
        raise SimulationError(
            unknown_name_message("array backend", name, _FACTORIES))
    try:
        return _construct(key)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"array backend {key!r} is registered but unavailable: "
            f"{exc}") from exc


def resolve_array_backend(name: Optional[Union[str, ArrayBackend]] = None
                          ) -> ArrayBackend:
    """Resolve *name* with graceful degradation.

    Unknown names still raise (a typo should fail fast, with the
    registry's did-you-mean hint), but a registered backend whose
    library is missing — ``--array-backend torch`` on a box without
    torch — warns once per process and falls back to ``"numpy"``,
    which is always available. Results are unaffected by construction:
    every backend produces bit-identical counts.
    """
    if isinstance(name, ArrayBackend):
        return name
    key = (_DEFAULT_NAME if name is None else str(name)).lower()
    if key not in _FACTORIES:
        raise SimulationError(
            unknown_name_message("array backend", name, _FACTORIES))
    try:
        return _construct(key)
    except Exception as exc:
        if key not in _WARNED_UNAVAILABLE:
            _WARNED_UNAVAILABLE.add(key)
            warnings.warn(
                f"array backend {key!r} is unavailable ({exc}); "
                f"falling back to 'numpy' (counts are bit-identical "
                f"across array backends, only throughput differs)",
                RuntimeWarning, stacklevel=3)
        return _construct("numpy")


def set_default_array_backend(name: Optional[str]) -> None:
    """Set the process-wide default (what ``array_backend=None``
    resolves to); ``None`` restores ``"numpy"``.

    The CLI's ``repro experiment --array-backend`` uses this so every
    harness inherits the selection without per-harness plumbing. The
    name is validated against the registry immediately (did-you-mean
    on typos); availability is still resolved per call, with the
    warn-and-fall-back contract.
    """
    global _DEFAULT_NAME
    if name is None:
        _DEFAULT_NAME = "numpy"
        return
    key = str(name).lower()
    if key not in _FACTORIES:
        raise SimulationError(
            unknown_name_message("array backend", name, _FACTORIES))
    _DEFAULT_NAME = key


def default_array_backend() -> str:
    """The current process-wide default backend name."""
    return _DEFAULT_NAME


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
@register_array_backend("numpy")
class NumpyBackend(ArrayBackend):
    """The always-available host backend (bit-for-bit the pre-seam
    numpy path: every op below is the exact call the batched pass used
    to make inline)."""

    name = "numpy"

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.complex128)

    def asarray(self, host):
        return host

    def to_numpy(self, array):
        return array

    def apply_matrix(self, state, matrix, axes):
        # np.tensordot's transpose, reshape and dot on the same
        # operands, without its argument handling: the same BLAS call.
        order = list(axes) + [a for a in range(state.ndim) if a not in axes]
        moved = state.transpose(order)
        out = np.dot(matrix, moved.reshape(matrix.shape[1], -1))
        return out.reshape(moved.shape).transpose(np.argsort(order))

    def apply_paulis(self, state, rows, flips, signs, phases):
        count = rows.size
        sub = state[rows].reshape(count, -1)
        basis = np.arange(sub.shape[1])
        moved = sub[np.arange(count)[:, np.newaxis],
                    basis ^ flips[:, np.newaxis]]
        moved *= phases[:, np.newaxis]
        np.negative(moved, out=moved,
                    where=(basis & signs[:, np.newaxis]) != 0)
        state[rows] = moved.reshape((count,) + state.shape[1:])

    def pattern_reduce(self, state, order, n_patterns):
        probs = np.abs(state.reshape(state.shape[0], -1)) ** 2
        return probs[:, order].reshape(
            state.shape[0], n_patterns, -1).sum(axis=2)

    def stage(self, host):
        return host  # already on the host — nothing to upload


@register_array_backend("torch")
class TorchBackend(ArrayBackend):
    """Torch backend: CUDA when available, multi-threaded CPU
    otherwise. Constructed lazily — importing :mod:`repro.simulator.xp`
    never imports torch."""

    name = "torch"

    def __init__(self) -> None:
        import torch  # noqa: F401 — availability probe + op namespace

        self._torch = torch
        self._device = torch.device(
            "cuda" if torch.cuda.is_available() else "cpu")

    def device(self) -> str:
        if self._device.type == "cuda":
            return f"cuda:{self._torch.cuda.get_device_name(0)}"
        return f"cpu:{self._torch.get_num_threads()}-threads"

    def native_amplitude_budget(self) -> int:
        if self._device.type == "cuda":
            free, _total = self._torch.cuda.mem_get_info()
            return max(1, int(free * _DEVICE_MEMORY_FRACTION) // 16)
        return _DEFAULT_BUDGET_AMPLITUDES

    def zeros(self, shape):
        return self._torch.zeros(shape, dtype=self._torch.complex128,
                                 device=self._device)

    def asarray(self, host):
        tensor = self._torch.from_numpy(np.ascontiguousarray(host))
        if self._device.type == "cuda":
            # Pinned host staging makes the (once-per-unitary) upload
            # async-capable instead of a pageable-memory copy.
            tensor = tensor.pin_memory()
            return tensor.to(self._device, non_blocking=True)
        return tensor

    def to_numpy(self, array):
        return array.cpu().numpy()

    def apply_matrix(self, state, matrix, axes):
        order = list(axes) + [a for a in range(state.dim()) if a not in axes]
        moved = state.permute(order)
        out = self._torch.matmul(matrix,
                                 moved.reshape(matrix.shape[1], -1))
        return out.reshape(moved.shape).permute(
            np.argsort(order).tolist())

    def apply_paulis(self, state, rows, flips, signs, phases):
        torch, device = self._torch, self._device
        rows_t = torch.from_numpy(rows).to(device)
        flips_t, signs_t, phases_t = (
            torch.from_numpy(a).to(device)[:, None]
            for a in (flips, signs, phases))
        count = rows.size
        sub = state[rows_t].reshape(count, -1)
        basis = torch.arange(sub.shape[1], device=device)
        moved = torch.gather(sub, 1, basis ^ flips_t)
        moved *= torch.where((basis & signs_t) != 0, -phases_t, phases_t)
        state[rows_t] = moved.reshape((count,) + tuple(state.shape[1:]))

    def pattern_reduce(self, state, order, n_patterns):
        probs = self._torch.abs(state.reshape(state.shape[0], -1)) ** 2
        gathered = probs[:, self._torch.from_numpy(order).to(self._device)]
        reduced = gathered.reshape(state.shape[0], n_patterns, -1).sum(dim=2)
        return reduced.cpu().numpy().astype(np.float64, copy=False)


@register_array_backend("cupy")
class CupyBackend(ArrayBackend):
    """CuPy backend (CUDA). Constructed lazily, like torch."""

    name = "cupy"

    def __init__(self) -> None:
        import cupy  # noqa: F401

        self._cp = cupy
        # Fail at construction (not mid-chunk) when no device exists.
        cupy.cuda.runtime.getDeviceCount()

    def device(self) -> str:
        props = self._cp.cuda.runtime.getDeviceProperties(0)
        name = props["name"]
        return f"cuda:{name.decode() if isinstance(name, bytes) else name}"

    def native_amplitude_budget(self) -> int:
        free, _total = self._cp.cuda.Device().mem_info
        return max(1, int(free * _DEVICE_MEMORY_FRACTION) // 16)

    def zeros(self, shape):
        return self._cp.zeros(shape, dtype=self._cp.complex128)

    def asarray(self, host):
        # cupy.asarray stages through a pinned buffer internally for
        # host sources; explicit pinning is unnecessary for 4x4 tiles.
        return self._cp.asarray(host)

    def to_numpy(self, array):
        return self._cp.asnumpy(array)

    def apply_matrix(self, state, matrix, axes):
        order = list(axes) + [a for a in range(state.ndim) if a not in axes]
        moved = state.transpose(order)
        out = self._cp.dot(matrix, moved.reshape(matrix.shape[1], -1))
        return out.reshape(moved.shape).transpose(
            np.argsort(order).tolist())

    def apply_paulis(self, state, rows, flips, signs, phases):
        cp = self._cp
        rows_d = cp.asarray(rows)
        count = rows.size
        sub = state[rows_d].reshape(count, -1)
        basis = cp.arange(sub.shape[1])
        moved = cp.take_along_axis(sub, basis ^ cp.asarray(flips)[:, None],
                                   axis=1)
        phases_d = cp.asarray(phases)[:, None]
        moved *= cp.where((basis & cp.asarray(signs)[:, None]) != 0,
                          -phases_d, phases_d)
        state[rows_d] = moved.reshape((count,) + state.shape[1:])

    def pattern_reduce(self, state, order, n_patterns):
        probs = self._cp.abs(state.reshape(state.shape[0], -1)) ** 2
        gathered = probs[:, self._cp.asarray(order)]
        reduced = gathered.reshape(state.shape[0], n_patterns, -1).sum(axis=2)
        return self._cp.asnumpy(reduced)
