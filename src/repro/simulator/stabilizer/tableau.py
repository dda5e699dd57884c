"""Aaronson–Gottesman CHP tableau with symbolic GF(2)-affine phases.

A standard CHP tableau tracks ``2n`` Pauli rows (destabilizers then
stabilizers) as x/z bit matrices plus a sign bit per row. This variant
generalizes the sign bit to a **vector over GF(2)**: column 0 is the
concrete sign, and every further column is the coefficient of one
symbolic Bernoulli variable — a measurement coin, or one Pauli choice
of one error site. A Pauli error only flips phase coefficients (never
x/z), and CHP's control flow (measurement pivots, rowsum
``g``-exponents) depends only on x/z — so **one** symbolic pass serves
every error plan, and sampling a trial reduces to GF(2) dot products
between the fired-variable assignment and the recorded measurement
expressions (:mod:`.program` does that part, vectorized over all
trials).

Gates write only the constant column. The symbolic columns of an error
site's choices are the rows that anticommute with each choice's Pauli
at the site's position in the gate walk, read off :meth:`pauli_masks`;
:mod:`.program` builds them one site at a time and writes them into
:attr:`SymbolicTableau.r` before the first measurement. No gate reads
or writes those columns, so their values are final when written.

Rules implemented (phase flips go to the constant column):

* ``h(q)``: ``r ^= x_q & z_q``, then swap the ``x_q``/``z_q`` columns;
* ``s(q)``: ``r ^= x_q & z_q``; ``z_q ^= x_q``;
* ``sdg(q)``: ``r ^= x_q & ~z_q``; ``z_q ^= x_q`` (``s`` cubed);
* ``x/y/z(q)``: phase-only — the conjugation masks ``z_q``,
  ``x_q ^ z_q``, ``x_q`` respectively (the rows of
  :meth:`~SymbolicTableau.pauli_masks`);
* ``cx(c, t)``: ``r ^= x_c & z_t & ~(x_t ^ z_c)``; ``x_t ^= x_c``;
  ``z_c ^= z_t``;
* ``cz``/``swap``: composed from ``h``+``cx`` / column swaps;
* ``rowsum(h, i)``: ``row_h <- row_i * row_h`` with the phase
  correction ``[sum_j g_j mod 4 == 2]`` — ``g`` depends only on x/z,
  and the symbolic phase vectors XOR.

Measurements follow CHP exactly, except the random branch's fresh
coin is a new symbolic column (not an RNG call): the returned outcome
expression stays affine in the coins and choices.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.simulator.trace import PAULI_CODES


class SymbolicTableau:
    """A 2n-row CHP tableau whose phases are GF(2)-affine expressions.

    Args:
        n_qubits: Dense qubit count (rows ``0..n-1`` are destabilizers,
            ``n..2n-1`` stabilizers; the initial state is ``|0...0>``).
        n_columns: Width of the phase vectors — ``1`` (constant) plus
            one column per symbolic variable the caller will use.
    """

    def __init__(self, n_qubits: int, n_columns: int) -> None:
        self.n = n_qubits
        self.n_columns = n_columns
        self.x = np.zeros((2 * n_qubits, n_qubits), dtype=np.uint8)
        self.z = np.zeros((2 * n_qubits, n_qubits), dtype=np.uint8)
        for q in range(n_qubits):
            self.x[q, q] = 1            # destabilizer X_q
            self.z[n_qubits + q, q] = 1  # stabilizer  Z_q
        self.r = np.zeros((2 * n_qubits, n_columns), dtype=np.uint8)

    # -- gate updates --------------------------------------------------
    def apply_gate(self, name: str, qubits: Tuple[int, ...]) -> None:
        """Apply one Clifford generator by name (dense qubit indices)."""
        if name == "h":
            self._h(qubits[0])
        elif name == "s":
            self._s(qubits[0])
        elif name == "sdg":
            self._sdg(qubits[0])
        elif name in PAULI_CODES:
            self.r[:, 0] ^= self.pauli_masks(qubits[0])[PAULI_CODES[name]]
        elif name == "cx":
            self._cx(qubits[0], qubits[1])
        elif name == "cz":
            self._h(qubits[1])
            self._cx(qubits[0], qubits[1])
            self._h(qubits[1])
        elif name == "swap":
            a, b = qubits
            self.x[:, [a, b]] = self.x[:, [b, a]]
            self.z[:, [a, b]] = self.z[:, [b, a]]
        elif name != "id":
            raise ValueError(f"not a Clifford generator: {name!r}")

    def _h(self, q: int) -> None:
        xq = self.x[:, q].copy()
        self.r[:, 0] ^= xq & self.z[:, q]
        self.x[:, q] = self.z[:, q]
        self.z[:, q] = xq

    def _s(self, q: int) -> None:
        self.r[:, 0] ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def _sdg(self, q: int) -> None:
        self.r[:, 0] ^= self.x[:, q] & (self.z[:, q] ^ 1)
        self.z[:, q] ^= self.x[:, q]

    def _cx(self, c: int, t: int) -> None:
        self.r[:, 0] ^= (self.x[:, c] & self.z[:, t]
                         & (self.x[:, t] ^ self.z[:, c] ^ 1))
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    # -- Pauli conjugation masks ---------------------------------------
    def pauli_masks(self, q: int) -> np.ndarray:
        """``(4, 2n)`` masks, row *c* marking the tableau rows that
        anticommute with the Pauli of code *c* (:data:`PAULI_CODES`;
        row 0, no Pauli, is zero) on qubit *q*: the phase flip that
        Pauli's conjugation applies across the tableau."""
        x = self.x[:, q]
        z = self.z[:, q]
        masks = np.zeros((4, 2 * self.n), dtype=np.uint8)
        masks[PAULI_CODES["x"]] = z
        masks[PAULI_CODES["y"]] = x ^ z
        masks[PAULI_CODES["z"]] = x
        return masks

    # -- rowsum --------------------------------------------------------
    @staticmethod
    def _phase_exponent(x1: np.ndarray, z1: np.ndarray,
                        x2: np.ndarray, z2: np.ndarray) -> int:
        """CHP's ``sum_j g(x1, z1, x2, z2)`` for one row pair."""
        x1 = x1.astype(np.int8)
        z1 = z1.astype(np.int8)
        x2 = x2.astype(np.int8)
        z2 = z2.astype(np.int8)
        g = np.where(x1 & z1, z2 - x2,
                     np.where(x1 == 1, z2 * (2 * x2 - 1),
                              np.where(z1 == 1, x2 * (1 - 2 * z2), 0)))
        return int(g.sum())

    def rowsum(self, h: int, i: int) -> None:
        """``row_h <- row_i * row_h`` (left-multiply, CHP's rowsum)."""
        exponent = self._phase_exponent(self.x[i], self.z[i],
                                        self.x[h], self.z[h])
        self.r[h] ^= self.r[i]
        self.r[h, 0] ^= (exponent % 4) >> 1
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def _rowsum_into(self, xs: np.ndarray, zs: np.ndarray,
                     rs: np.ndarray, i: int) -> None:
        """Rowsum accumulating into a scratch (x, z, r) row triple."""
        exponent = self._phase_exponent(self.x[i], self.z[i], xs, zs)
        rs ^= self.r[i]
        rs[0] ^= (exponent % 4) >> 1
        xs ^= self.x[i]
        zs ^= self.z[i]

    # -- measurement ---------------------------------------------------
    def measure(self, q: int, coin_column: int) -> Tuple[np.ndarray, bool]:
        """Z-measure qubit *q*; return its symbolic outcome expression.

        Returns ``(expression, used_coin)``: the ``(n_columns,)``
        GF(2)-affine outcome (column 0 is the constant term), and
        whether the outcome was random — in which case it equals the
        fresh coin *coin_column* and the tableau collapsed onto the
        corresponding eigenstate (with that symbolic sign), exactly as
        CHP collapses onto a concrete coin flip.
        """
        n = self.n
        stab = np.nonzero(self.x[n:, q])[0]
        if stab.size:
            # Random outcome: some stabilizer anticommutes with Z_q.
            p = int(stab[0]) + n
            for i in np.nonzero(self.x[:, q])[0]:
                if int(i) != p:
                    self.rowsum(int(i), p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            self.r[p] = 0
            self.r[p, coin_column] = 1
            return self.r[p].copy(), True
        # Deterministic: Z_q is in the stabilizer group. Accumulate the
        # product of the stabilizers flagged by the destabilizers that
        # anticommute with Z_q; its phase is the outcome.
        xs = np.zeros(n, dtype=np.uint8)
        zs = np.zeros(n, dtype=np.uint8)
        rs = np.zeros(self.n_columns, dtype=np.uint8)
        for i in np.nonzero(self.x[:n, q])[0]:
            self._rowsum_into(xs, zs, rs, int(i) + n)
        return rs, False
