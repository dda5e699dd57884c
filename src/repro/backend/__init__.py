"""Unified machine-target abstraction: backends and execution engines.

* :class:`Backend` — topology + calibration stream + noise profile +
  default engine under one stable :meth:`~Backend.content_id`. The
  seven presets are the fixed :data:`BACKENDS` table
  (:func:`get_backend` looks a name up; ``repro backends`` on the
  CLI); any other machine is a ``Backend`` value passed directly;
* :data:`ENGINES` (:func:`engine_name`) — the three fixed names
  ``execute(engine=...)`` dispatches on: ``batched``, ``stabilizer``
  and ``auto`` (``repro engines`` on the CLI).

The sweep runtime treats a cell's backend as a first-class axis: the
backend supplies the cell's calibration, whose content id is the only
machine identity in cache keys, and ``run_sweep`` groups cells per
device, so per-device routing tables are shared.
"""

from repro.backend.base import Backend
from repro.backend.engines import DEFAULT_ENGINE, ENGINES, engine_name
from repro.backend.presets import BACKENDS, get_backend

__all__ = [
    "BACKENDS",
    "Backend",
    "DEFAULT_ENGINE",
    "ENGINES",
    "engine_name",
    "get_backend",
]
