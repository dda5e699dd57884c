"""Unified machine-target abstraction: backends and execution engines.

* :class:`Backend` (:func:`register_backend` / :func:`get_backend`) —
  topology + calibration stream + noise profile + default engine under
  one stable :meth:`~Backend.content_id`, with presets in
  :mod:`repro.backend.presets` (``repro backends`` on the CLI). The
  registry makes "which machine" pluggable;
* :data:`ENGINES` (:func:`engine_name`) — the three fixed names
  ``execute(engine=...)`` dispatches on: ``batched``, ``stabilizer``
  and ``auto`` (``repro engines`` on the CLI).

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
from repro.backend.engines import DEFAULT_ENGINE, ENGINES, engine_name
# Importing the presets registers the built-in machines.
from repro.backend import presets  # noqa: F401  (import side effect)

__all__ = [
    "Backend",
    "DEFAULT_ENGINE",
    "ENGINES",
    "engine_name",
    "get_backend",
    "register_backend",
    "registered_backends",
]
