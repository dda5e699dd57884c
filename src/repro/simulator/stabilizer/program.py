"""Symbolic stabilizer lowering of a :class:`ProgramTrace`.

The dense engines re-simulate per distinct error plan. A Clifford
program doesn't need that: conjugating a Pauli error through Clifford
gates only flips measurement *signs*, so the whole (program, noise)
pair lowers **once** into GF(2)-affine outcome expressions and every
trial becomes bit algebra:

``outcome_m = const_m XOR <coins, coin_m> XOR <fired choices, choice_m>``

where the symbolic variables are (a) one fair coin per random
measurement and (b) one indicator per (error site, Pauli choice) of
the trace's flat error-site table. :class:`StabilizerProgram` runs the
:class:`~repro.simulator.stabilizer.tableau.SymbolicTableau` pass that
produces those coefficient matrices; :func:`sample_stabilizer_counts`
draws all trials vectorized in host numpy.

The error-occurrence law mirrors the batched engine exactly — the same
``(trials, sites)`` Bernoulli matrix against ``trace.site_prob``, the
same one-uniform-per-fired-site conditional Pauli choice against
``trace.site_cum`` — and readout flips go through the shared
:func:`~repro.simulator.batch.render_readout_bits` helper, so the
stabilizer engine honors the full noise lowering (idle windows,
crosstalk-adjusted gate channels, asymmetric readout) with zero dense
simulation. Measurements are deferred to the end of the gate walk, in
program order: the dense engines read the *final* state's joint
distribution, so end-of-walk measurement is exactly their law (all
measures are terminal per qubit by ``CompactProgram`` validation).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.simulator.batch import render_readout_bits
from repro.simulator.stabilizer.clifford import first_non_clifford
from repro.simulator.stabilizer.tableau import SymbolicTableau
from repro.simulator.trace import (_PAIR_CHOICE_PAULIS,
                                   _SINGLE_CHOICE_PAULIS, PAULI_CODES,
                                   ProgramTrace)

#: Enumerate the exact ideal distribution only while ``2**n_coins``
#: stays trivial; past this the engine reports an empty distribution
#: (overlap-style metrics need the dense engines anyway).
_IDEAL_COIN_CAP = 12

#: Pauli name of each :data:`~repro.simulator.trace.PAULI_CODES` value.
_PAULI_NAMES = {code: name for name, code in PAULI_CODES.items()}

#: Per choice, the Pauli codes a two-qubit channel injects on its
#: ``site_pair`` qubits; a single-qubit channel has the first three
#: rows of its table (the rest are padding the sampler never draws).
_PAIR_CHOICES = _PAIR_CHOICE_PAULIS.tolist()
_SINGLE_CHOICES = _SINGLE_CHOICE_PAULIS[:3].tolist()


class StabilizerProgram:
    """One-shot symbolic tableau pass over a lowered Clifford program.

    Attributes:
        n_coins: Random measurements encountered (fair-coin variables).
        n_choices: Total (error site, Pauli choice) indicator count.
        choice_offset: ``(S,)`` first indicator index of each site.
        meas_const: ``(M,)`` constant outcome bit per measure.
        meas_coin: ``(M, n_coins)`` coin coefficients per measure.
        meas_choice: ``(n_choices, M)`` choice coefficients, indicator-
            major so fired-indicator rows gather contiguously.
    """

    def __init__(self, trace: ProgramTrace) -> None:
        compact = trace.compact
        gate = first_non_clifford(compact.gates)
        if gate is not None:
            raise SimulationError(
                f"stabilizer lowering requires a Clifford circuit, but "
                f"gate {gate.name!r} on qubits {gate.qubits} is not in "
                f"the Clifford set; use engine='auto' to route such "
                f"programs to a dense engine")
        n = trace.n_qubits
        n_measures = trace.n_measures
        # Column layout: [constant | coins | choice indicators]. Every
        # measurement could be random, and each site contributes one
        # indicator per Pauli choice.
        site_pairs = trace.site_pair.tolist()
        site_choices = [_PAIR_CHOICES if b >= 0 else _SINGLE_CHOICES
                        for _, b in site_pairs]
        site_widths = [len(choices) for choices in site_choices]
        self.choice_offset = np.concatenate(
            ([0], np.cumsum(site_widths[:-1]))).astype(np.int64) \
            if site_widths else np.zeros(0, dtype=np.int64)
        self.n_choices = int(sum(site_widths))
        coin_base = 1
        choice_base = coin_base + n_measures
        width = choice_base + self.n_choices

        tableau = SymbolicTableau(n, width)
        # Error sites are ordered by gate; walk them with one cursor.
        site = 0
        for i, gate in enumerate(compact.gates):
            if gate.name != "barrier" and not gate.is_measure:
                dense = tuple(compact.hw_to_dense[q] for q in gate.qubits)
                tableau.apply_gate(gate.name, dense)
            while site < trace.n_sites and trace.site_gate[site] == i:
                for c, codes in enumerate(site_choices[site]):
                    column = choice_base + int(self.choice_offset[site]) + c
                    for dense_q, code in zip(site_pairs[site], codes):
                        if code:
                            tableau.inject_pauli(dense_q, _PAULI_NAMES[code],
                                                 column)
                site += 1
        # Deferred measurement, in program (= measure-table) order.
        expressions = np.zeros((n_measures, width), dtype=np.uint8)
        self.n_coins = 0
        for m, (_, dense_q, _) in enumerate(trace.measures):
            expr, used_coin = tableau.measure(
                dense_q, coin_base + self.n_coins)
            expressions[m] = expr
            if used_coin:
                self.n_coins += 1

        self.meas_const = expressions[:, 0].copy()
        self.meas_coin = expressions[
            :, coin_base:coin_base + self.n_coins].copy()
        self.meas_choice = np.ascontiguousarray(
            expressions[:, choice_base:].T)
        self._ideal: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def measured_bits(self, coins: np.ndarray,
                      fired_trial: np.ndarray, fired_site: np.ndarray,
                      fired_choice: np.ndarray, trials: int) -> np.ndarray:
        """Evaluate all outcome expressions for a batch of trials.

        Args:
            coins: ``(trials, n_coins)`` 0/1 coin assignment.
            fired_trial: ``(F,)`` trial index per fired error site,
                nondecreasing (row-major ``np.nonzero`` order).
            fired_site / fired_choice: ``(F,)`` the site and its drawn
                Pauli choice.
            trials: Batch size.

        Returns:
            ``(trials, n_measures)`` 0/1 measured values.
        """
        bits = np.broadcast_to(
            self.meas_const, (trials, self.meas_const.size)).copy()
        if self.n_coins:
            # uint8 matmul wraps mod 256, which preserves parity.
            bits ^= (coins.astype(np.uint8) @ self.meas_coin.T) & 1
        if fired_trial.size and self.n_choices:
            rows = self.meas_choice[
                self.choice_offset[fired_site] + fired_choice]
            # Per-trial XOR of a ragged set of rows. ``reduceat``
            # mishandles *empty* segments, so reduce only over the
            # trials that fired at least one site: their first-
            # occurrence offsets (``fired_trial`` is sorted) delimit
            # all-non-empty segments, and the folded rows scatter back
            # by XOR.
            present, segment_starts = np.unique(fired_trial,
                                                return_index=True)
            folded = np.bitwise_xor.reduceat(rows, segment_starts,
                                             axis=0)
            bits[present] ^= folded
        return bits

    # ------------------------------------------------------------------
    def ideal_distribution(self, trace: ProgramTrace) -> Dict[str, float]:
        """Exact noise-free outcome distribution, when small.

        Noise-free outcomes are affine in the coins alone, so the
        distribution is uniform over the affine image of ``2**n_coins``
        coin patterns. Enumerated only while ``n_coins`` is within
        :data:`_IDEAL_COIN_CAP` (GHZ/BV/repetition-style benchmarks
        have 0 or 1 coins); larger coin counts return an empty dict —
        the honest "not computed" the result object already tolerates.
        """
        if self._ideal is not None:
            return self._ideal
        if self.n_coins > _IDEAL_COIN_CAP:
            self._ideal = {}
            return self._ideal
        patterns = ((np.arange(1 << self.n_coins)[:, np.newaxis]
                     >> np.arange(max(1, self.n_coins))) & 1
                    ).astype(np.uint8)[:, :self.n_coins]
        bits = self.meas_const[np.newaxis, :] \
            ^ ((patterns @ self.meas_coin.T) & 1)
        p = 1.0 / (1 << self.n_coins)
        distribution: Dict[str, float] = {}
        for row in bits:
            string = _render_string(trace, row)
            distribution[string] = distribution.get(string, 0.0) + p
        self._ideal = distribution
        return distribution


def stabilizer_program(trace: ProgramTrace) -> StabilizerProgram:
    """The trace's memoized symbolic lowering (one pass per trace;
    ``rescaled`` clones share it — the symbolic structure depends only
    on the circuit and the site table's shape, not the probabilities)."""
    program = trace.__dict__.get("_stabilizer_program")
    if program is None:
        program = StabilizerProgram(trace)
        trace.__dict__["_stabilizer_program"] = program
    return program


def sample_stabilizer_counts(trace: ProgramTrace, trials: int,
                             rng: np.random.Generator) -> Dict[str, int]:
    """Sample *trials* noisy shots from the symbolic lowering.

    The draw order is the engine's defined law (all host numpy): the
    ``(trials, sites)`` occurrence matrix, one uniform per fired site
    for its conditional Pauli choice, the measurement coins, then the
    shared readout-flip sequence.
    """
    program = stabilizer_program(trace)
    if trace.n_sites:
        occurred = rng.random((trials, trace.n_sites)) < \
            trace.site_prob[np.newaxis, :]
        fired_trial, fired_site = np.nonzero(occurred)
        uniforms = rng.random(fired_trial.size)
        fired_choice = (uniforms[:, np.newaxis]
                        >= trace.site_cum[fired_site, :]).sum(axis=1) \
            .astype(np.int64)
    else:
        fired_trial = fired_site = np.zeros(0, dtype=np.int64)
        fired_choice = np.zeros(0, dtype=np.int64)
    if program.n_coins:
        coins = (rng.random((trials, program.n_coins)) < 0.5
                 ).astype(np.uint8)
    else:
        coins = np.zeros((trials, 0), dtype=np.uint8)
    bits = program.measured_bits(coins, fired_trial, fired_site,
                                 fired_choice, trials)
    rendered = render_readout_bits(trace, bits, rng)
    return _count_slot_bits(trace, rendered.astype(np.uint8))


def _count_slot_bits(trace: ProgramTrace,
                     rendered: np.ndarray) -> Dict[str, int]:
    """Collapse ``(trials, n_slots)`` rendered cbit rows to counts."""
    unique, counts = np.unique(rendered, axis=0, return_counts=True)
    out: Dict[str, int] = {}
    for row, count in zip(unique, counts):
        chars = ["0"] * trace.n_cbits
        for j, cbit in enumerate(trace.measured_cbits):
            if row[j]:
                chars[cbit] = "1"
        out["".join(chars)] = int(count)
    return out


def _render_string(trace: ProgramTrace, measured: np.ndarray) -> str:
    """Noise-free classical string from per-measure bits (last writer
    wins on aliased cbits, matching ``pattern_string``)."""
    chars = ["0"] * trace.n_cbits
    for j, cbit in enumerate(trace.measured_cbits):
        if measured[trace.last_measure_for_cbit[j]]:
            chars[cbit] = "1"
    return "".join(chars)
