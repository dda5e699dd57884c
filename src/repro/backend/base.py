"""The :class:`Backend` target abstraction.

The paper's central claim is that a good mapping is a function of *the
machine on the day*: topology, calibration stream, and noise behavior
together. The repo used to carry those as three loosely-coupled pieces
(a topology factory, a hand-threaded ``Calibration``, an ``engine``
string); a :class:`Backend` binds them into one value with a stable
:meth:`~Backend.content_id`, so "which machine" can be swept, cached
against, and reported like any other axis.

A backend is *not* a calibration: it is the generator of the machine's
calibration stream (topology + noise profile + generator seed), plus
the default execution engine for simulating it. Day-*d* snapshots come
from :meth:`Backend.calibration` and are memoized process-wide, so a
thousand sweep cells on ``(falcon27, day 3)`` share one
:class:`~repro.hardware.calibration.Calibration` object.

The built-in machines are the :data:`~repro.backend.presets.BACKENDS`
table; any other machine is just a ``Backend`` value, accepted
wherever a preset is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.backend.engines import DEFAULT_ENGINE
from repro.hardware.calibration import Calibration
from repro.hardware.calibration_gen import CalibrationGenerator, NoiseProfile
from repro.hardware.topology import GridTopology

#: Process-wide memos keyed by backend content id, so equal backends
#: (including pickled copies in pool workers) share generators and
#: snapshots regardless of object identity. The snapshot memo is
#: FIFO-bounded so a long-lived process sweeping many days/backends
#: cannot grow it without limit (generators are one per distinct
#: backend and stay small).
_GENERATORS: Dict[str, CalibrationGenerator] = {}
_SNAPSHOTS: Dict[Tuple[str, int], Calibration] = {}
_MAX_SNAPSHOTS = 512


@dataclass(frozen=True)
class Backend:
    """One target machine: topology + calibration stream + noise + engine.

    Attributes:
        name: Machine name (a preset's is its CLI ``--device``
            value).
        topology: The machine's coupling graph.
        profile: Distributional parameters of the synthetic calibration
            stream (per-machine: an ion trap and a Falcon drift
            differently).
        calibration_seed: Seed of the calibration generator; the full
            day sequence is a pure function of (topology, profile,
            seed).
        default_engine: Execution engine cells on this backend resolve
            to when they don't pick one explicitly.
        description: One-line human description for listings.
    """

    name: str
    topology: GridTopology
    profile: NoiseProfile = NoiseProfile()
    calibration_seed: int = 2019
    default_engine: str = DEFAULT_ENGINE
    description: str = ""

    @property
    def n_qubits(self) -> int:
        return self.topology.n_qubits

    def with_(self, **changes) -> "Backend":
        """A copy with the given fields replaced (like
        ``CompilerOptions.with_``)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def content_id(self) -> str:
        """Stable content hash of everything that defines this target's
        *machine* — name, topology, noise profile, calibration seed.

        Two backends serializing identically share an id regardless of
        object identity (or pickling round-trips); the process-wide
        generator and snapshot memos key on it, and the sweep
        scheduler groups cells by it. Cache keys do not: they hold the
        snapshot's own :meth:`~repro.hardware.Calibration.content_id`.
        ``default_engine`` is deliberately excluded: it selects
        execution dispatch, not the calibration stream. Memoized —
        backends are frozen and treated as immutable.
        """
        cached = getattr(self, "_content_id", None)
        if cached is None:
            payload = json.dumps({
                "name": self.name,
                "topology": {"mx": self.topology.mx, "my": self.topology.my,
                             "name": self.topology.name},
                "profile": dataclasses.asdict(self.profile),
                "calibration_seed": self.calibration_seed,
            }, sort_keys=True)
            cached = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_content_id", cached)
        return cached

    # ------------------------------------------------------------------
    # Calibration stream
    # ------------------------------------------------------------------
    def generator(self) -> CalibrationGenerator:
        """The (memoized) calibration generator for this machine."""
        gen = _GENERATORS.get(self.content_id())
        if gen is None:
            gen = _GENERATORS[self.content_id()] = CalibrationGenerator(
                self.topology, seed=self.calibration_seed,
                profile=self.profile)
        return gen

    def calibration(self, day: int = 0) -> Calibration:
        """The day-*day* snapshot (memoized process-wide)."""
        key = (self.content_id(), day)
        snapshot = _SNAPSHOTS.get(key)
        if snapshot is None:
            while len(_SNAPSHOTS) >= _MAX_SNAPSHOTS:
                _SNAPSHOTS.pop(next(iter(_SNAPSHOTS)))
            snapshot = _SNAPSHOTS[key] = self.generator().snapshot(day)
        return snapshot

    def days(self, n_days: int, start: int = 0) -> Iterator[Calibration]:
        """Iterate snapshots for *n_days* consecutive days."""
        for day in range(start, start + n_days):
            yield self.calibration(day)

    def __repr__(self) -> str:
        return (f"Backend({self.name!r}, {self.topology.mx}x"
                f"{self.topology.my}, engine={self.default_engine!r})")
