"""Reference implementations the stabilizer sampler is tested against.

Not a test module (pytest does not collect it) and not a runtime
fallback: the package has one production path per job, and these are
the plain byte-per-bit versions it must reproduce exactly.

* :class:`ReferenceProgram` is the symbolic lowering with one phase-
  column XOR per (error site, Pauli choice, qubit), applied where the
  gate walk meets the site, and the per-trial fold of fired choice rows
  stored one measurement bit per byte (:meth:`measured_bits`).
* :func:`render_string` and :meth:`ReferenceProgram.ideal_distribution`
  build the noise-free strings one cbit at a time, last writer winning
  on aliased cbits.
* :func:`count_slot_bits` collapses rendered cbit rows to counts one
  bit at a time.
* :func:`draw_choices` is the conditional Pauli-choice draw over a
  gathered ``(fired, 14)`` bound matrix.
* :func:`reference_sample_counts` is the whole sampler built from the
  above, with the package's draw order.
"""

from typing import Dict, Tuple

import numpy as np

from repro.simulator.batch import render_readout_bits
from repro.simulator.stabilizer.program import _IDEAL_COIN_CAP
from repro.simulator.stabilizer.tableau import SymbolicTableau
from repro.simulator.trace import (_PAIR_CHOICE_PAULIS,
                                   _SINGLE_CHOICE_PAULIS, ProgramTrace)

#: Which x/z columns of a qubit mark the rows a Pauli anticommutes with.
_MASK_COLUMNS = {1: "z", 2: "xz", 3: "x"}  # PAULI_CODES x, y, z


def _mask(tableau: SymbolicTableau, q: int, code: int) -> np.ndarray:
    kind = _MASK_COLUMNS[code]
    if kind == "z":
        return tableau.z[:, q]
    if kind == "x":
        return tableau.x[:, q]
    return tableau.x[:, q] ^ tableau.z[:, q]


class ReferenceProgram:
    """The symbolic lowering of *trace*, one injection at a time.

    Attributes:
        n_coins: Random measurements encountered.
        n_choices: (error site, Pauli choice) indicator count.
        choice_offset: ``(S,)`` first indicator index of each site.
        meas_const: ``(M,)`` constant outcome bit per measure.
        meas_coin: ``(M, n_coins)`` coin coefficients per measure.
        meas_choice: ``(n_choices, M)`` choice coefficients, one byte
            per bit.
    """

    def __init__(self, trace: ProgramTrace) -> None:
        compact = trace.compact
        n_measures = trace.n_measures
        site_pairs = trace.site_pair.tolist()
        site_choices = [_PAIR_CHOICE_PAULIS.tolist() if b >= 0
                        else _SINGLE_CHOICE_PAULIS[:3].tolist()
                        for _, b in site_pairs]
        widths = [len(choices) for choices in site_choices]
        self.choice_offset = np.concatenate(
            ([0], np.cumsum(widths[:-1]))).astype(np.int64) \
            if widths else np.zeros(0, dtype=np.int64)
        self.n_choices = int(sum(widths))
        coin_base = 1
        choice_base = coin_base + n_measures
        width = choice_base + self.n_choices

        tableau = SymbolicTableau(trace.n_qubits, width)
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
                            tableau.r[:, column] ^= _mask(tableau, dense_q,
                                                          code)
                site += 1
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

    def measured_bits(self, coins: np.ndarray, fired_trial: np.ndarray,
                      fired_site: np.ndarray, fired_choice: np.ndarray,
                      trials: int) -> np.ndarray:
        """``(trials, n_measures)`` 0/1 measured values: the constant,
        the coin parity, and the XOR of every fired choice's byte row,
        folded per trial with ``reduceat`` over the trials that fired."""
        bits = np.broadcast_to(
            self.meas_const, (trials, self.meas_const.size)).copy()
        if self.n_coins:
            bits ^= (coins.astype(np.uint8) @ self.meas_coin.T) & 1
        if fired_trial.size and self.n_choices:
            rows = self.meas_choice[
                self.choice_offset[fired_site] + fired_choice]
            present, segment_starts = np.unique(fired_trial,
                                                return_index=True)
            folded = np.bitwise_xor.reduceat(rows, segment_starts,
                                             axis=0)
            bits[present] ^= folded
        return bits

    def ideal_distribution(self, trace: ProgramTrace) -> Dict[str, float]:
        """Uniform over the affine image of the coin patterns, strings
        in order of first pattern; empty past the coin cap."""
        if self.n_coins > _IDEAL_COIN_CAP:
            return {}
        patterns = ((np.arange(1 << self.n_coins)[:, np.newaxis]
                     >> np.arange(max(1, self.n_coins))) & 1
                    ).astype(np.uint8)[:, :self.n_coins]
        bits = self.meas_const[np.newaxis, :] \
            ^ ((patterns @ self.meas_coin.T) & 1)
        p = 1.0 / (1 << self.n_coins)
        distribution: Dict[str, float] = {}
        for row in bits:
            string = render_string(trace, row)
            distribution[string] = distribution.get(string, 0.0) + p
        return distribution


def render_string(trace: ProgramTrace, measured: np.ndarray) -> str:
    """Noise-free classical string from per-measure bits (last writer
    wins on aliased cbits)."""
    chars = ["0"] * trace.n_cbits
    for j, cbit in enumerate(trace.measured_cbits):
        if measured[trace.last_measure_for_cbit[j]]:
            chars[cbit] = "1"
    return "".join(chars)


def count_slot_bits(trace: ProgramTrace,
                    rendered: np.ndarray) -> Dict[str, int]:
    """Collapse ``(trials, n_slots)`` rendered cbit rows to counts, in
    ``np.unique``'s lexicographic row order."""
    unique, counts = np.unique(rendered, axis=0, return_counts=True)
    out: Dict[str, int] = {}
    for row, count in zip(unique, counts):
        chars = ["0"] * trace.n_cbits
        for j, cbit in enumerate(trace.measured_cbits):
            if row[j]:
                chars[cbit] = "1"
        out["".join(chars)] = int(count)
    return out


def draw_choices(trace: ProgramTrace, occurred: np.ndarray,
                 rng: np.random.Generator
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fired (trial, site) pairs in row-major order and each one's
    Pauli choice: one uniform per fired site, counted against the
    site's gathered cumulative bounds."""
    fired_trial, fired_site = np.nonzero(occurred)
    uniforms = rng.random(fired_trial.size)
    fired_choice = (uniforms[:, np.newaxis]
                    >= trace.site_cum[fired_site, :]).sum(axis=1) \
        .astype(np.int64)
    return fired_trial, fired_site, fired_choice


def reference_sample_counts(trace: ProgramTrace, trials: int,
                            rng: np.random.Generator) -> Dict[str, int]:
    """The stabilizer sampler from the byte-per-bit pieces above: the
    occurrence matrix, one uniform per fired site, the coins, then the
    readout flips."""
    program = ReferenceProgram(trace)
    if trace.n_sites:
        occurred = rng.random((trials, trace.n_sites)) < \
            trace.site_prob[np.newaxis, :]
        fired_trial, fired_site, fired_choice = draw_choices(
            trace, occurred, rng)
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
    return count_slot_bits(trace, rendered.astype(np.uint8))
