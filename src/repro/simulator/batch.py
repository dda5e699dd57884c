"""Sampling counts from a precompiled trace, without a per-trial loop.

Two paths, chosen by the trace's qubit count:

* **Exact law** (traces of at most :data:`EXACT_MAX_QUBITS` qubits):
  the trace's outcome law over rendered-cbit codes, noise and readout
  included, is computed once (:mod:`repro.simulator.exact`) and cached
  on the trace, and every execution draws its counts from it with one
  ``rng.multinomial``. A trace-cache hit (a rerun, another seed or shot
  count) then costs that one draw. The pass holds ``4**n`` float64
  coefficients, 128 KiB at the cap, so it never chunks.
* **Trajectories** (larger traces):

  1. the full ``(trials, sites)`` Bernoulli occurrence matrix is drawn
     in one RNG call against the trace's per-site firing
     probabilities;
  2. every error-free trial is routed through a **single** vectorized
     draw from the ideal output distribution;
  3. the noisy trials' Pauli choices are drawn in one batch, and the
     trials are deduplicated into distinct error plans by one
     ``np.unique`` over their padded (site, choice) codes, in order of
     first occurrence. Each distinct trajectory is simulated once, all
     of them **batched**: every plan shares the program's gate
     sequence, so each gate is one contraction over a
     ``(plans, 2, ..., 2)`` state tensor. A Pauli injection is an exact
     signed basis permutation (a bit flip for X and Y, a ±1/±i phase
     for Z and Y), applied with one numpy call per (gate, event
     position within that gate) to every plan injecting there, each
     plan keeping its own event order. All noisy trials' outcomes then
     come from one ``rng.random`` draw taken in plan order and counted
     against each plan's CDF — the stream and the results of one
     ``rng.choice`` per plan. The numpy call count grows with the
     program's gates, not with the plans or their distinct event
     tuples;
  4. readout bit flips are applied as one vectorized operation over
     the whole ``(trials, measures)`` outcome array.

  Plans are simulated in chunks of at most :func:`amplitude_budget`
  amplitudes (64 MiB of complex128 unless ``REPRO_CHUNK_MIB`` says
  otherwise); chunks only bound peak memory.

  Each step matches a per-trial loop's sampling law exactly (two
  conditionally independent trials with the same error plan are
  i.i.d. draws from the same trajectory distribution), so the path is
  distribution-identical to one statevector run per trial while
  replacing O(trials) statevector runs with one batched run over the
  distinct noisy plans.

Both paths sample the same law; the exact one is cheaper on every
trace up to the cap (``benchmarks/bench_executor.py`` times the two at
each size). Counts are a deterministic function of (trace, trials,
seed) on either path.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.simulator.exact import SUM_TOLERANCE, contract
from repro.simulator.trace import CHOICE_STRIDE, PAULI_CODES, ProgramTrace

#: Environment override for the chunk budget, in MiB of complex128
#: amplitudes (also settable via the CLI's ``--chunk-mib``).
CHUNK_ENV = "REPRO_CHUNK_MIB"

#: Default chunk budget: 64 MiB of complex128 amplitudes (16 bytes
#: each).
_DEFAULT_BUDGET_AMPLITUDES = 1 << 22

#: Traces of at most this many qubits draw their counts from the
#: exact outcome law; larger ones sample trajectories. At 1024 shots the
#: exact pass is the cheaper of the two at every trace size from 2 to 8
#: qubits (``benchmarks/bench_executor.py`` times both). The cap stops
#: at 7 because BV8 is the only trace above it in perfbench's dense
#: workloads, and its trajectories fire the ``simulator.plan_sim`` span
#: the traced run requires; raising the cap waits for the exact pass to
#: get its own span there.
EXACT_MAX_QUBITS = 7

#: CDF entries compared at once while drawing noisy outcomes (bounds
#: the gathered ``(trials, 2**n_measures)`` temporaries).
_DRAW_BUDGET = 1 << 20


def amplitude_budget() -> int:
    """Amplitudes the batched pass may hold per chunk.

    64 MiB of complex128 by default; the ``REPRO_CHUNK_MIB``
    environment variable overrides it.

    Raises:
        SimulationError: ``REPRO_CHUNK_MIB`` is not a finite positive
            number.
    """
    raw = os.environ.get(CHUNK_ENV, "").strip()
    if not raw:
        return _DEFAULT_BUDGET_AMPLITUDES
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


def run_batched(trace: ProgramTrace, trials: int,
                rng: np.random.Generator) -> Dict[str, int]:
    """Sample *trials* shots from *trace*; returns string counts.

    Args:
        trace: The lowered program.
        trials: Shot count.
        rng: Every random draw comes from it.
    """
    if trace.n_qubits <= EXACT_MAX_QUBITS:
        drawn = rng.multinomial(trials, trace.outcome_law)
        return {trace.outcome_string(int(c)): int(drawn[c])
                for c in np.flatnonzero(drawn)}
    codes = np.zeros(trials, dtype=np.int64)
    if trace.n_sites:
        occurred = rng.random((trials, trace.n_sites)) < \
            trace.site_prob[np.newaxis, :]
        noisy = occurred.any(axis=1)
    else:
        occurred = None
        noisy = np.zeros(trials, dtype=bool)

    clean_rows = np.nonzero(~noisy)[0]
    if clean_rows.size:
        draws = rng.choice(trace.ideal_codes.size, size=clean_rows.size,
                           p=trace.ideal_probs)
        codes[clean_rows] = trace.ideal_codes[draws]

    noisy_rows = np.nonzero(noisy)[0]
    if noisy_rows.size:
        _sample_noisy(trace, occurred[noisy_rows], noisy_rows, codes, rng)

    rendered = _apply_readout_flips(trace, codes, rng)
    outcomes, counts = np.unique(rendered, return_counts=True)
    return {trace.outcome_string(int(c)): int(n)
            for c, n in zip(outcomes, counts)}


def prepare_for_cache(trace: ProgramTrace) -> ProgramTrace:
    """*trace*, with the dense members a cached trace carries computed.

    The ideal distribution always, and the exact outcome law at or
    under :data:`EXACT_MAX_QUBITS`. Every ``put`` of a dense trace goes
    through here, so a persistent trace tier stores both and a later
    hit, in this process or a fresh one, recomputes neither.
    """
    _ = trace.ideal_distribution
    if trace.n_qubits <= EXACT_MAX_QUBITS:
        _ = trace.outcome_law
    return trace


def _sample_noisy(trace: ProgramTrace, occurred: np.ndarray,
                  noisy_rows: np.ndarray, codes: np.ndarray,
                  rng: np.random.Generator) -> None:
    """Fill ``codes[noisy_rows]`` by deduplicated trajectory simulation."""
    trial_idx, site_idx, choices = draw_choices(trace, occurred, rng)
    plans, plan_of_row = _distinct_plans(
        trial_idx, site_idx * CHOICE_STRIDE + choices, occurred.shape[0])
    patterns = batch_plan_probabilities(trace, plans)
    # One vectorized row-normalize instead of a per-plan divide: each
    # row's sum is the same contiguous pairwise reduction the per-plan
    # `probs / probs.sum()` performed, so the draws are bit-identical.
    patterns /= patterns.sum(axis=1, keepdims=True)
    codes[noisy_rows] = _draw_outcomes(patterns, plan_of_row, rng)


def draw_choices(trace: ProgramTrace, occurred: np.ndarray,
                 rng: np.random.Generator
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fired sites of *occurred* and each one's Pauli choice.

    Args:
        trace: The lowered program (its ``site_cum`` bounds).
        occurred: ``(trials, sites)`` boolean occurrence matrix.
        rng: Draws one uniform per fired site, in row-major order.

    Returns:
        ``(trial, site, choice)``, one entry per fired site in row-major
        order (``np.nonzero``'s, so sorted by trial): a site's choice is
        the number of its cumulative bounds at or below its uniform.
        The count is taken one bound column at a time, so no
        ``(fired, bounds)`` matrix is gathered; an integer count is
        exact in any order.
    """
    fired = np.flatnonzero(occurred)
    trial, site = np.divmod(fired, occurred.shape[1])
    uniforms = rng.random(fired.size)
    choice = np.zeros(fired.size, dtype=np.int64)
    for bounds in np.ascontiguousarray(trace.site_cum.T):
        choice += uniforms >= bounds[site]
    return trial, site, choice


def _distinct_plans(trial_idx: np.ndarray, events: np.ndarray,
                    n_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate the noisy trials' error plans.

    Args:
        trial_idx: Sorted trial of each event.
        events: (site, choice) code of each event, in site order
            within a trial.
        n_rows: Noisy trials; each has at least one event.

    Returns:
        ``(plans, plan_of_row)``: the distinct plans as a -1-padded
        code matrix in order of first occurrence, and each trial's
        row in it.
    """
    starts = np.searchsorted(trial_idx, np.arange(n_rows))
    position = np.arange(trial_idx.size) - starts[trial_idx]
    padded = np.full((n_rows, int(position.max()) + 1), -1, dtype=np.int64)
    padded[trial_idx, position] = events
    # Each padded row as one opaque byte key: equal bytes <=> equal
    # plans, and sorting bytes beats ``np.unique(axis=0)``'s per-field
    # comparisons several times over.
    keys = padded.view(np.dtype((np.void, padded.strides[0]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return padded[first[order]], rank[inverse]


def _draw_outcomes(patterns: np.ndarray, plan_of_row: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """One pattern code per noisy trial, from its plan's distribution.

    Consumes the RNG exactly as one ``rng.choice(width, size=n,
    p=patterns[plan])`` call per plan, in plan order, would: the same
    uniforms in the same order, counted against the same CDFs
    (``searchsorted(side="right")`` counts the entries ``<= u``).

    Raises:
        SimulationError: A row that is not a probability vector — the
            checks ``rng.choice`` made, so a broken contraction fails
            loudly instead of drawing garbage.
    """
    if not (np.isfinite(patterns).all() and (patterns >= 0.0).all()
            and (np.abs(patterns.sum(axis=1) - 1.0)
                 <= SUM_TOLERANCE).all()):
        raise SimulationError(
            "a noisy trajectory's outcome distribution is not a "
            "probability vector (non-finite, negative, or not summing "
            "to 1)")
    cdf = np.cumsum(patterns, axis=1)
    cdf /= cdf[:, -1:]
    by_plan = np.argsort(plan_of_row, kind="stable")
    uniforms = rng.random(by_plan.size)
    drawn = np.empty(by_plan.size, dtype=np.int64)
    step = max(1, _DRAW_BUDGET // cdf.shape[1])
    for lo in range(0, by_plan.size, step):
        rows = by_plan[lo:lo + step]
        drawn[rows] = (cdf[plan_of_row[rows]]
                       <= uniforms[lo:lo + step, np.newaxis]).sum(axis=1)
    return drawn


def batch_plan_probabilities(trace: ProgramTrace, plans: np.ndarray,
                             chunk: Optional[int] = None) -> np.ndarray:
    """Measured-pattern distributions of many error plans, batched.

    Returns a ``(len(plans), 2**n_measures)`` matrix; row *p* is the
    outcome distribution of the trajectory with error plan ``plans[p]``
    (what :meth:`ProgramTrace.plan_probabilities` gives for the same
    events, up to float rounding).

    Args:
        trace: The lowered program.
        plans: ``(P, K)`` integer matrix, one error plan per row: the
            codes ``site * CHOICE_STRIDE + choice`` of its events in
            site order, padded with -1.
        chunk: Plans per simulation chunk. Defaults to
            :func:`amplitude_budget` divided by the state size. Chunks
            only bound peak memory: on traces of three or more qubits
            the result is bit-identical at every chunk size (the test
            suite pins BV4, Toffoli and random traces at chunk sizes 1,
            3, and default). On a two-qubit trace a two-qubit gate
            leaves each plan one column of its BLAS product, and a chunk
            holding an odd number of plans may round a last bit
            differently.
    """
    plans = np.asarray(plans, dtype=np.int64)
    total = len(plans)
    width = 1 << trace.n_measures
    out = np.empty((total, width), dtype=np.float64)
    if chunk is None:
        chunk = max(1, amplitude_budget() >> trace.n_qubits)
    elif chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    for lo in range(0, total, chunk):
        part = plans[lo:lo + chunk]
        out[lo:lo + len(part)] = _simulate_plans(trace, part)
    return out


def _simulate_plans(trace: ProgramTrace, plans: np.ndarray) -> np.ndarray:
    """One batched statevector pass over all *plans* trajectories."""
    batch = len(plans)
    n = trace.n_qubits
    state = np.zeros((batch,) + (2,) * n, dtype=np.complex128)
    state[(slice(None),) + (0,) * n] = 1.0
    injections = _injection_groups(trace, plans)
    pending = next(injections, None)
    for i, op in enumerate(trace.ops):
        if op is not None:
            matrix, dense = op
            state = contract(state, matrix, tuple(q + 1 for q in dense))
        while pending is not None and pending[0] == i:
            _apply_paulis(state, *pending[1:])
            pending = next(injections, None)
    return _pattern_reduce(state, trace.pattern_order,
                           1 << trace.n_measures)


def _apply_paulis(state: np.ndarray, rows: np.ndarray, flips: np.ndarray,
                  signs: np.ndarray, phases: np.ndarray) -> None:
    """Apply one single-qubit Pauli to each of *rows*, in place.

    Indexing a row's basis states as the flattened ``(2, ..., 2)``
    tensor does, row ``rows[k]`` maps amplitude *j* to
    ``phases[k] * (-1 if j & signs[k] else 1) * amp[j ^ flips[k]]`` —
    X flips the qubit's bit, Z signs it, Y does both under a ``-1j``
    phase. The products are with 0, ±1 and ±i, so they are exact.
    *rows* are distinct.
    """
    count = rows.size
    sub = state[rows].reshape(count, -1)
    basis = np.arange(sub.shape[1])
    moved = sub[np.arange(count)[:, np.newaxis],
                basis ^ flips[:, np.newaxis]]
    moved *= phases[:, np.newaxis]
    np.negative(moved, out=moved,
                where=(basis & signs[:, np.newaxis]) != 0)
    state[rows] = moved.reshape((count,) + state.shape[1:])


def _pattern_reduce(state: np.ndarray, order: np.ndarray,
                    n_patterns: int) -> np.ndarray:
    """The ``(batch, n_patterns)`` measured-pattern distributions.

    Measured qubits are distinct, so after *order* sorts the basis
    columns by pattern code every code owns an equal contiguous block:
    squared magnitudes collapse to pattern distributions with one
    reshape+sum.
    """
    probs = np.abs(state.reshape(state.shape[0], -1)) ** 2
    return probs[:, order].reshape(
        state.shape[0], n_patterns, -1).sum(axis=2)


def _injection_groups(trace: ProgramTrace, plans: np.ndarray
                      ) -> Iterator[Tuple[int, np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]]:
    """The Pauli events of *plans*, batched for :func:`_apply_paulis`.

    Yields ``(gate, rows, flips, signs, phases)`` per (gate, position)
    pair, where an event's position counts the events its plan injects
    before it after the same gate. Groups come in gate order, then
    position order, so each plan applies its events in its own order.
    """
    plan_row, column = np.nonzero(plans >= 0)  # by plan, then event
    codes = plans[plan_row, column]
    sites = codes // CHOICE_STRIDE
    slots = trace.choice_paulis(codes).reshape(-1)
    present = slots != 0
    pauli = slots[present]
    qubit = trace.site_pair[sites].reshape(-1)[present]
    row = np.repeat(plan_row, 2)[present]
    gate = np.repeat(trace.site_gate[sites], 2)[present]
    if not row.size:
        return

    index = np.arange(row.size)
    run_start = np.ones(row.size, dtype=bool)
    run_start[1:] = (row[1:] != row[:-1]) | (gate[1:] != gate[:-1])
    position = index - np.maximum.accumulate(np.where(run_start, index, 0))
    order = np.lexsort((position, gate))  # stable: rows stay ascending
    gate, position, row, qubit, pauli = (
        a[order] for a in (gate, position, row, qubit, pauli))

    bit = np.left_shift(1, trace.n_qubits - 1 - qubit)
    flips = np.where(pauli != PAULI_CODES["z"], bit, 0)
    signs = np.where(pauli != PAULI_CODES["x"], bit, 0)
    phases = np.where(pauli == PAULI_CODES["y"], -1j, 1.0 + 0j)
    cuts = (np.flatnonzero((gate[1:] != gate[:-1])
                           | (position[1:] != position[:-1])) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [row.size]):
        yield (int(gate[lo]), row[lo:hi], flips[lo:hi], signs[lo:hi],
               phases[lo:hi])


def render_readout_bits(trace: ProgramTrace, bits: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Flip measured bits with the calibrated asymmetric probabilities.

    Args:
        trace: The lowered program.
        bits: ``(trials, n_measures)`` 0/1 array of true measured
            values (column *m* = measure *m*'s outcome).
        rng: Host RNG; the draw sequence (one ``rng.random(trials)``
            per measure, grouped by cbit slot in slot order) is the
            readout law shared by every trace-consuming engine.

    Returns:
        ``(trials, n_slots)`` rendered classical bits (column *j* =
        final value of ``trace.measured_cbits[j]``). Each classical
        bit starts from its last writer's measured value, then every
        measure aliasing that cbit flips it in program order against
        the *current* value — matching the per-trial loop even when
        measures share a cbit.
    """
    trials = bits.shape[0]
    rendered = np.zeros((trials, len(trace.measured_cbits)),
                        dtype=np.int64)
    for j in range(len(trace.measured_cbits)):
        bit = bits[:, trace.last_measure_for_cbit[j]].astype(np.int64)
        for m in trace.measures_for_cbit[j]:
            flip_p = np.where(bit == 1, trace.readout_p1[m],
                              trace.readout_p0[m])
            bit = bit ^ (rng.random(bit.shape) < flip_p)
        rendered[:, j] = bit
    return rendered


def _apply_readout_flips(trace: ProgramTrace, codes: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Readout law over pattern *codes* (the dense engines' encoding).

    Unpacks the codes into a measured-bit matrix, applies
    :func:`render_readout_bits` (bit-identical RNG sequence to the
    pre-refactor in-place loop), and repacks into rendered-cbit codes
    (bit *j* = final value of ``trace.measured_cbits[j]``).
    """
    bits = (codes[:, np.newaxis]
            >> np.arange(trace.n_measures, dtype=np.int64)) & 1
    rendered_bits = render_readout_bits(trace, bits, rng)
    shifts = np.arange(rendered_bits.shape[1], dtype=np.int64)
    return (rendered_bits << shifts).sum(axis=1, dtype=np.int64)
