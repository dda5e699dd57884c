"""The execution engines ``execute(engine=...)`` accepts.

Three fixed names, dispatched by :func:`repro.simulator.execute`, all
sampling one law from the same lowered
:class:`~repro.simulator.trace.ProgramTrace`:

* ``"batched"`` — vectorized dense sampling (the default): one draw
  from the exact outcome law on small traces, trajectories above;
* ``"stabilizer"`` — polynomial-time CHP tableau sampler for
  Clifford-only programs (hundreds of qubits; see
  :mod:`repro.simulator.stabilizer`);
* ``"auto"`` — per-circuit router: Clifford programs go to
  ``"stabilizer"``, everything else to ``"batched"``.

This module imports nothing from the simulator, so backends and the
CLI can check an engine name before anything is compiled or run.
"""

from __future__ import annotations

import difflib

from repro.exceptions import SimulationError

#: The repo-wide default engine name (cells without a backend, and
#: backends that don't say otherwise, resolve to it).
DEFAULT_ENGINE = "batched"

#: Engine name -> (family, capacity note, one-line description), in
#: the order ``repro engines`` lists them. The dense capacity depends
#: on the amplitude budget, so its note is a template the listing fills
#: with the budget's qubit ceiling.
ENGINES = {
    "batched": ("dense", "<= {dense_qubits} qubits (amplitude budget)",
                "Vectorized sampling of a lowered ProgramTrace."),
    "stabilizer": ("stabilizer", "hundreds of qubits (Clifford-only)",
                   "Polynomial-time noisy sampling for Clifford programs."),
    "auto": ("router", "Clifford -> stabilizer, else dense",
             "Per-circuit router: Clifford -> stabilizer, else dense."),
}


def unknown_name_message(kind: str, name: str, known) -> str:
    """A did-you-mean lookup error, shared by the engine names and the
    backend presets."""
    matches = difflib.get_close_matches(str(name).lower(), sorted(known),
                                        n=3, cutoff=0.5)
    hint = ""
    if matches:
        hint = "; did you mean " + " or ".join(repr(m) for m in matches) + "?"
    return (f"unknown {kind} {name!r}{hint} "
            f"(known: {', '.join(sorted(known))})")


def engine_name(name: str) -> str:
    """The :data:`ENGINES` key *name* spells, case-insensitively.

    Raises:
        SimulationError: For unknown names, with a did-you-mean hint
            and the full list.
    """
    key = str(name).lower()
    if key not in ENGINES:
        raise SimulationError(
            unknown_name_message("execution engine", name, ENGINES))
    return key
