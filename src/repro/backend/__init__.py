"""Unified machine-target abstraction: backends and execution engines.

Two registries make "which machine" and "which executor" pluggable:

* :class:`Backend` (:func:`register_backend` / :func:`get_backend`) —
  topology + calibration stream + noise profile + default engine under
  one stable :meth:`~Backend.content_id`, with presets in
  :mod:`repro.backend.presets` (``repro backends`` on the CLI);
* :class:`ExecutionEngine` (:func:`register_engine` /
  :func:`get_engine`) — the strategy behind
  ``execute(engine=...)``; the built-ins (``batched``, ``stabilizer``,
  ``auto``) register themselves from the simulator package.

The sweep runtime treats a cell's backend as a first-class axis: the
backend supplies the cell's calibration, whose content id is the only
machine identity in cache keys, and ``run_sweep`` groups cells per
device, so per-device routing tables are shared.
"""

from repro.backend.base import (
    Backend,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.backend.engines import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    get_engine,
    register_engine,
    registered_engines,
)
# Importing the presets registers the built-in machines.
from repro.backend import presets  # noqa: F401  (import side effect)

__all__ = [
    "Backend",
    "DEFAULT_ENGINE",
    "ExecutionEngine",
    "get_backend",
    "get_engine",
    "register_backend",
    "register_engine",
    "registered_backends",
    "registered_engines",
]
