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
produces those coefficient matrices, with one vector op per error site:
each choice's column is the XOR of its two qubits' Pauli masks at the
site. :func:`sample_stabilizer_counts` draws all trials vectorized in
host numpy. The choice coefficients are stored packed, 64 measurements
to a ``uint64`` word, so each trial's fired rows XOR-fold as whole
words (XOR is bitwise, so packing is exact) and are unpacked once per
batch; the counts come from one ``np.unique`` over the rendered cbit
rows packed in big bit order, whose byte order is their lexicographic
order, and one byte matrix of output strings, with the key order the
per-row rendering had.

The error-occurrence law mirrors the batched engine exactly — the same
``(trials, sites)`` Bernoulli matrix against ``trace.site_prob``, the
same one-uniform-per-fired-site conditional Pauli choice against
``trace.site_cum`` (:func:`~repro.simulator.batch.draw_choices`) — and
readout flips go through the shared
:func:`~repro.simulator.batch.render_readout_bits` helper, so the
stabilizer engine honors the full noise lowering (idle windows,
crosstalk-adjusted gate channels, asymmetric readout) with zero dense
simulation. Measurements are deferred to the end of the gate walk, in
program order: the dense engines read the *final* state's joint
distribution, so end-of-walk measurement is exactly their law (all
measures are terminal per qubit by ``CompactProgram`` validation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.simulator.batch import draw_choices, render_readout_bits
from repro.simulator.stabilizer.clifford import first_non_clifford
from repro.simulator.stabilizer.tableau import SymbolicTableau
from repro.simulator.trace import (_PAIR_CHOICE_PAULIS,
                                   _SINGLE_CHOICE_PAULIS, ProgramTrace)

#: Enumerate the exact ideal distribution only while ``2**n_coins``
#: stays trivial; past this the engine reports an empty distribution
#: (overlap-style metrics need the dense engines anyway).
_IDEAL_COIN_CAP = 12

#: Per choice, the Pauli codes a two-qubit channel injects on its
#: ``site_pair`` qubits (first column, second column); a single-qubit
#: channel has the first three rows of its table (the rest are padding
#: the sampler never draws) and injects on its one qubit.
_PAIR_CODES = _PAIR_CHOICE_PAULIS.astype(np.intp)
_SINGLE_CODES = _SINGLE_CHOICE_PAULIS[:3, 0].astype(np.intp)


class StabilizerProgram:
    """One-shot symbolic tableau pass over a lowered Clifford program.

    Attributes:
        n_coins: Random measurements encountered (fair-coin variables).
        n_choices: Total (error site, Pauli choice) indicator count.
        choice_offset: ``(S,)`` first indicator index of each site.
        meas_const: ``(M,)`` constant outcome bit per measure.
        meas_coin: ``(M, n_coins)`` coin coefficients per measure.
        meas_choice: ``(ceil(M / 64), n_choices)`` choice coefficients:
            indicator *i*'s M bits packed by :func:`pack_words` into
            column *i*, word-major so each word of the fired indicators
            gathers and folds as one contiguous vector.
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
        site_widths = [len(_PAIR_CODES) if b >= 0 else len(_SINGLE_CODES)
                       for _, b in site_pairs]
        offsets = np.cumsum([0] + site_widths)
        self.choice_offset = offsets[:-1].astype(np.int64)
        self.n_choices = int(offsets[-1])
        coin_base = 1
        choice_base = coin_base + n_measures
        width = choice_base + self.n_choices

        tableau = SymbolicTableau(n, width)
        # Gates write only the constant column, so each site's choice
        # columns are final once the walk reaches the site: collect
        # them here and write them into the tableau before measuring.
        columns = np.empty((self.n_choices, 2 * n), dtype=np.uint8)
        # Error sites are ordered by gate; walk them with one cursor.
        site = 0
        for i, gate in enumerate(compact.gates):
            if gate.name != "barrier" and not gate.is_measure:
                dense = tuple(compact.hw_to_dense[q] for q in gate.qubits)
                tableau.apply_gate(gate.name, dense)
            while site < trace.n_sites and trace.site_gate[site] == i:
                a, b = site_pairs[site]
                lo, hi = offsets[site], offsets[site + 1]
                if b < 0:
                    columns[lo:hi] = tableau.pauli_masks(a)[_SINGLE_CODES]
                else:
                    np.bitwise_xor(
                        tableau.pauli_masks(a)[_PAIR_CODES[:, 0]],
                        tableau.pauli_masks(b)[_PAIR_CODES[:, 1]],
                        out=columns[lo:hi])
                site += 1
        tableau.r[:, choice_base:] = columns.T
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
            pack_words(expressions[:, choice_base:].T).T)
        self._ideal: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def measured_bits(self, coins: np.ndarray,
                      fired_trial: np.ndarray, fired_site: np.ndarray,
                      fired_choice: np.ndarray, trials: int) -> np.ndarray:
        """Evaluate all outcome expressions for a batch of trials.

        Args:
            coins: ``(trials, n_coins)`` 0/1 coin assignment.
            fired_trial: ``(F,)`` trial index per fired error site,
                nondecreasing (row-major order of the occurrence
                matrix).
            fired_site / fired_choice: ``(F,)`` the site and its drawn
                Pauli choice.
            trials: Batch size.

        Returns:
            ``(trials, n_measures)`` 0/1 measured values.
        """
        n_measures = self.meas_const.size
        bits = np.broadcast_to(self.meas_const, (trials, n_measures)).copy()
        if self.n_coins:
            # uint8 matmul wraps mod 256, which preserves parity.
            bits ^= (coins.astype(np.uint8) @ self.meas_coin.T) & 1
        if fired_trial.size:
            indicator = self.choice_offset[fired_site] + fired_choice
            # Per-trial XOR of a ragged set of packed words. ``reduceat``
            # mishandles *empty* segments, so reduce only over the
            # trials that fired at least one site: their first entries
            # (``fired_trial`` is sorted) delimit all-non-empty
            # segments, and the folded words unpack once for the batch.
            starts = np.flatnonzero(np.diff(fired_trial, prepend=-1))
            present = fired_trial[starts]
            words = np.zeros((trials, len(self.meas_choice)),
                             dtype=np.uint64)
            for w, packed in enumerate(self.meas_choice):
                words[present, w] = np.bitwise_xor.reduceat(
                    packed[indicator], starts)
            bits ^= unpack_words(words, n_measures)
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
        Strings come in order of their first coin pattern, each
        cbit holding its last writer's bit.
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
        strings, counts, first = distinct_strings(
            trace, bits[:, trace.last_measure_for_cbit])
        # ``count * p`` is a multiple of a power of two, at most 1, so
        # it is exact: the sum of ``count`` copies of ``p``.
        p = 1.0 / (1 << self.n_coins)
        self._ideal = {strings[i]: int(counts[i]) * p
                       for i in np.argsort(first, kind="stable")}
        return self._ideal


def pack_words(bits: np.ndarray) -> np.ndarray:
    """``(rows, k)`` 0/1 -> ``(rows, ceil(k / 64))`` ``uint64`` words.

    Each row packs with ``np.packbits`` and zero-pads to whole words,
    so bitwise operations on the words act on the bits and
    :func:`unpack_words` inverts it.
    """
    packed = np.packbits(bits, axis=1)
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)


def unpack_words(words: np.ndarray, k: int) -> np.ndarray:
    """``(rows, words)`` packed by :func:`pack_words` -> ``(rows, k)``
    0/1 ``uint8``."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=k)


def distinct_strings(trace: ProgramTrace, slot_bits: np.ndarray
                     ) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """The distinct rows of *slot_bits* as output strings.

    Args:
        trace: The lowered program (its cbit width and slot cbits).
        slot_bits: ``(rows, n_slots)`` 0/1, column *j* the value of
            ``trace.measured_cbits[j]``.

    Returns:
        ``(strings, counts, first)`` over the distinct rows in
        ``np.unique(slot_bits, axis=0)``'s lexicographic row order:
        each row's output string (cbit 0 first, unmeasured cbits
        ``"0"``), how many rows equal it, and the first of them.
    """
    n_slots = slot_bits.shape[1]
    # Each row packed in big bit order, as one opaque byte key (one
    # zero byte when nothing is measured): keys compare bytewise, so
    # sorting them sorts the rows lexicographically, several times
    # faster than ``np.unique(axis=0)``'s per-column comparisons.
    packed = np.ascontiguousarray(np.packbits(slot_bits, axis=1)) \
        if n_slots else np.zeros((len(slot_bits), 1), dtype=np.uint8)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    unique, first, counts = np.unique(keys, return_index=True,
                                      return_counts=True)
    chars = np.full((len(unique), trace.n_cbits), ord("0"), dtype=np.uint8)
    chars[:, trace.measured_cbits] += np.unpackbits(
        unique.view(np.uint8).reshape(len(unique), -1), axis=1,
        count=n_slots)
    strings = chars.view(np.dtype((np.bytes_, trace.n_cbits)))[:, 0]
    return strings.astype(np.str_).tolist(), counts, first


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
    occurred = rng.random((trials, trace.n_sites)) < \
        trace.site_prob[np.newaxis, :]
    fired_trial, fired_site, fired_choice = draw_choices(trace, occurred,
                                                         rng)
    coins = (rng.random((trials, program.n_coins)) < 0.5).astype(np.uint8)
    bits = program.measured_bits(coins, fired_trial, fired_site,
                                 fired_choice, trials)
    rendered = render_readout_bits(trace, bits, rng)
    strings, counts, _ = distinct_strings(trace, rendered)
    return dict(zip(strings, counts.tolist()))
