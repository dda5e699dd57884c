"""Execution-engine protocol and registry.

An :class:`ExecutionEngine` is a stateless strategy object that turns a
(compiled program, calibration, noise model) triple into an
:class:`~repro.simulator.ExecutionResult`, registered under a stable
name with :func:`register_engine`. ``execute(engine=...)`` looks the
name up here, so adding an engine means registering a class, not
editing ``executor.py``.

Built-ins, all sampling one law from the same lowered
:class:`~repro.simulator.trace.ProgramTrace`:

* ``"batched"`` — vectorized dense Monte-Carlo (the default);
* ``"stabilizer"`` — polynomial-time CHP tableau sampler for
  Clifford-only programs (hundreds of qubits; see
  :mod:`repro.simulator.stabilizer`);
* ``"auto"`` — per-circuit router: Clifford programs go to
  ``"stabilizer"``, everything else to ``"batched"``.

This module deliberately imports nothing from the simulator at load
time (the simulator imports *it* to register the built-ins); lookups
lazily import :mod:`repro.simulator` so the built-ins are always
registered before the first :func:`get_engine` call resolves.
"""

from __future__ import annotations

import difflib
from typing import Dict, Optional, Tuple, Type, Union

from repro.exceptions import SimulationError

#: The repo-wide default engine name (cells without a backend, and
#: backends that don't say otherwise, resolve to it).
DEFAULT_ENGINE = "batched"


def unknown_name_message(kind: str, name: str, known) -> str:
    """A did-you-mean lookup error, shared by the engine and backend
    registries."""
    matches = difflib.get_close_matches(str(name).lower(), sorted(known),
                                        n=3, cutoff=0.5)
    hint = ""
    if matches:
        hint = "; did you mean " + " or ".join(repr(m) for m in matches) + "?"
    return (f"unknown {kind} {name!r}{hint} "
            f"(known: {', '.join(sorted(known))})")


class ExecutionEngine:
    """One way of executing a compiled program under a noise model.

    Subclasses set :attr:`name` (the string accepted by
    ``execute(engine=...)`` and ``SweepCell.engine``), implement
    :meth:`run`, and optionally declare :attr:`family`, the capability
    class shown by ``repro engines``: ``"dense"`` (statevector,
    exponential in qubits), ``"stabilizer"`` (tableau, polynomial but
    Clifford-only) or ``"router"`` (dispatches to other engines).

    Engines must be stateless: one shared instance serves every call,
    including concurrent pool workers (determinism comes from the seed
    each call receives).
    """

    name: str = ""
    family: str = "dense"

    def capacity_note(self) -> str:
        """Practical qubit ceiling, for the ``repro engines`` listing."""
        if self.family == "dense":
            from repro.simulator.batch import amplitude_budget

            budget = amplitude_budget()
            return (f"<= {max(1, budget).bit_length() - 1} qubits "
                    f"(amplitude budget)")
        return "unbounded"

    def run(self, compiled, calibration, noise, *, trials: int, seed: int,
            expected: Optional[str] = None, trace_cache=None):
        """Execute *compiled* and return an ``ExecutionResult``.

        Args:
            compiled: A :class:`~repro.compiler.CompiledProgram`.
            calibration: Snapshot to execute under.
            noise: The (already resolved) noise model.
            trials: Shot count (>= 1, validated by ``execute``).
            seed: Master RNG seed; results must be a pure function of
                the arguments.
            expected: The benchmark's known answer string.
            trace_cache: Optional lowered-trace cache
                (``get``/``put`` signature of
                :class:`repro.runtime.cache.TraceCache`).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_ENGINES: Dict[str, ExecutionEngine] = {}


def register_engine(engine: Union[Type[ExecutionEngine], ExecutionEngine]):
    """Register an engine class (or instance) under its ``name``.

    Usable as a class decorator::

        @register_engine
        class MyEngine(ExecutionEngine):
            name = "mine"
            def run(self, compiled, calibration, noise, **kwargs): ...

    Re-registering a name replaces the previous engine (last wins),
    matching the other repo registries.
    """
    instance = engine() if isinstance(engine, type) else engine
    if not instance.name:
        raise SimulationError(
            f"engine {instance!r} must declare a non-empty name")
    # Lookup is case-insensitive, matching the backend registry.
    _ENGINES[instance.name.lower()] = instance
    return engine


def _ensure_builtin_engines() -> None:
    """Make sure the simulator's built-ins have registered themselves.

    Imported lazily (not at module load) so the simulator can import
    this module without a cycle.
    """
    import repro.simulator  # noqa: F401 — import side effect registers


def registered_engines() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    _ensure_builtin_engines()
    return tuple(_ENGINES)


def get_engine(name: str) -> ExecutionEngine:
    """The registered engine behind *name*.

    Raises:
        SimulationError: For unknown names, with a did-you-mean hint
            and the full registered list.
    """
    _ensure_builtin_engines()
    engine = _ENGINES.get(str(name).lower())
    if engine is None:
        raise SimulationError(
            unknown_name_message("execution engine", name, _ENGINES))
    return engine
