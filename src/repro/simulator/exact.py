"""Exact outcome law of a lowered program.

The noise a :class:`~repro.simulator.trace.ProgramTrace` lowers is a
set of independent Pauli channels — each error site fires with its
probability and then applies one Pauli choice — followed by
per-measure readout flips. So the distribution the trajectory sampler
(:mod:`repro.simulator.batch`) draws from can be computed exactly, once
per trace, in the Pauli basis — the density-matrix counterpart of the
trajectory method:

* the state is the real ``(4,) * n`` tensor of the density matrix's
  Pauli-basis coefficients, ``[1, 0, 0, 1]`` (the I, X, Y, Z
  coefficients of |0><0|) on every qubit at the start;
* a gate applies its real ``4**k x 4**k`` Pauli-transfer matrix, cached
  per ``(name, param)`` by :func:`cached_ptm`;
* an error site is diagonal in the Pauli basis: on basis Pauli Q it
  multiplies by ``1 - 2 p w(Q)``, where ``p`` is the site's firing
  probability and ``w(Q)`` the conditional weight of its Pauli choices
  that anticommute with Q (both read off ``site_prob`` and
  ``site_cum``, so non-uniform choices are exact too). Every site of
  gate *i* acts after gate *i*, where the trajectory sampler injects
  its events, so its diagonal folds into the gate's matrix and each
  gate costs one contraction. Sites on a measure or barrier apply as
  their own diagonal;
* measurement keeps the I component on unmeasured axes and the I/Z
  components on measured ones; a 2x2 Walsh–Hadamard per measured axis
  turns them into the outcome law;
* readout marginalizes onto each cbit's last-writing measure, then
  applies each aliasing measure's 2x2 flip matrix in measure order —
  the law of :func:`repro.simulator.batch.render_readout_bits`.

The result is a probability vector over rendered-cbit codes (bit *j* =
final value of ``trace.measured_cbits[j]``). The pass holds ``4**n``
float64 coefficients, so :data:`repro.simulator.batch.EXACT_MAX_QUBITS`
caps the traces it serves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.simulator.statevector import cached_unitary
from repro.simulator.trace import (_PAIR_CHOICE_PAULIS,
                                   _SINGLE_CHOICE_PAULIS, ProgramTrace)

#: ``Generator.choice``'s tolerance on the sum of a probability vector.
SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))

#: Round-off below zero a computed law may carry before it is clipped.
_NEGATIVE_TOLERANCE = 1e-12

#: I, X, Y, Z: indexed by Pauli code (0 = I, then ``PAULI_CODES``).
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                   dtype=np.complex128)

#: ``_ANTICOMMUTE[a, b]`` is 1 where Paulis *a* and *b* anticommute.
_ANTICOMMUTE = np.array([[float(0 != a != b != 0) for b in range(4)]
                         for a in range(4)])


def _anticommute_table(choice_paulis: np.ndarray) -> np.ndarray:
    """``(choices, 4, 4)``: 1 where a choice's (first, second qubit)
    Paulis anticommute with a basis Pauli pair."""
    first = _ANTICOMMUTE[:, choice_paulis[:, 0]].T[:, :, np.newaxis]
    second = _ANTICOMMUTE[:, choice_paulis[:, 1]].T[:, np.newaxis, :]
    return first + second - 2.0 * first * second  # XOR of 0/1


#: Per Pauli choice of a two- or one-qubit error site.
_PAIR_TABLE = _anticommute_table(_PAIR_CHOICE_PAULIS)
_SINGLE_TABLE = _anticommute_table(_SINGLE_CHOICE_PAULIS)

#: [P(0), P(1)] of a measured qubit from its [I, Z] coefficients.
_WALSH_HADAMARD = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])


@lru_cache(maxsize=4096)
def cached_ptm(name: str, param: Optional[float] = None) -> np.ndarray:
    """Read-only Pauli-transfer matrix of a named gate.

    Entry ``(i, j)`` is ``Tr(P_i U P_j U^dagger) / 2**k`` over the
    ``4**k`` Pauli strings of the gate's *k* qubits, first qubit most
    significant — the layout :func:`cached_unitary` uses for amplitudes.
    """
    unitary = cached_unitary(name, param)
    dim = unitary.shape[0]
    basis = _PAULIS
    while basis.shape[1] < dim:
        basis = np.einsum("aij,bkl->abikjl", basis, _PAULIS).reshape(
            -1, 2 * basis.shape[1], 2 * basis.shape[1])
    conjugated = unitary @ basis @ unitary.conj().T
    ptm = np.einsum("iab,jba->ij", basis, conjugated).real / dim
    ptm.setflags(write=False)
    return ptm


def _site_factors(trace: ProgramTrace) -> List[np.ndarray]:
    """Each error site's Pauli-basis diagonal, one length-4 axis per
    qubit of its ``site_pair``."""
    sites = trace.n_sites
    bounds = np.concatenate([np.zeros((sites, 1)), trace.site_cum,
                             np.ones((sites, 1))], axis=1)
    weights = np.diff(bounds, axis=1)
    pair = trace.site_pair[:, 1] >= 0
    anticommuting = np.where(pair[:, np.newaxis, np.newaxis],
                             np.einsum("sc,cab->sab", weights, _PAIR_TABLE),
                             np.einsum("sc,cab->sab", weights,
                                       _SINGLE_TABLE))
    factors = 1.0 - 2.0 * trace.site_prob[:, np.newaxis, np.newaxis] \
        * anticommuting
    # A single-qubit site's second Pauli is always I: keep that entry.
    return [f if p else f[:, 0] for f, p in zip(factors, pair.tolist())]


def _spread(factor: np.ndarray, axes: Sequence[int],
            target: Sequence[int]) -> np.ndarray:
    """*factor* (one length-4 axis per entry of *axes*) broadcast onto
    the axes *target*, a superset of *axes*."""
    positions = [target.index(a) for a in axes]
    shape = [1] * len(target)
    for p in positions:
        shape[p] = 4
    if positions != sorted(positions):
        factor = factor.T  # at most two axes
    return factor.reshape(shape)


@lru_cache(maxsize=None)
def _permutations(ndim: int, axes: tuple) -> tuple:
    """The transpose bringing *axes* to the front, and its inverse."""
    order = axes + tuple(a for a in range(ndim) if a not in axes)
    return order, tuple(order.index(a) for a in range(ndim))


def _contract(state: np.ndarray, matrix: np.ndarray,
              axes: Sequence[int]) -> np.ndarray:
    """*state* with *matrix* applied to its *axes* (first most
    significant)."""
    order, inverse = _permutations(state.ndim, tuple(axes))
    moved = state.transpose(order)
    out = np.dot(matrix, moved.reshape(matrix.shape[1], -1))
    return out.reshape(moved.shape).transpose(inverse)


def _is_law(law: np.ndarray, floor: float) -> bool:
    """The checks ``rng.choice`` makes of a probability vector, with
    entries down to *floor* allowed."""
    return bool(np.isfinite(law).all() and (law >= floor).all()
                and abs(law.sum() - 1.0) <= SUM_TOLERANCE)


def outcome_law(trace: ProgramTrace) -> np.ndarray:
    """The exact, read-only law of *trace*'s rendered-cbit codes.

    Raises:
        SimulationError: The result is not a probability vector (a
            non-finite entry, one below -1e-12, or a sum more than the
            sampler's tolerance from 1). Round-off negatives are
            clipped to zero and the law renormalized.
    """
    n = trace.n_qubits
    every_axis = list(range(n))
    factors = _site_factors(trace)
    site_axes = [[a] if b < 0 else [a, b]
                 for a, b in trace.site_pair.tolist()]
    sites_of_gate: Dict[int, List[int]] = {}
    for s, gate in enumerate(trace.site_gate.tolist()):
        sites_of_gate.setdefault(gate, []).append(s)

    state = np.zeros((4,) * n)
    state[np.ix_(*[[0, 3]] * n)] = 1.0
    for i, op in enumerate(trace.ops):
        sites = sites_of_gate.get(i, ())
        if op is None:  # a measure or barrier: its sites stand alone
            for s in sites:
                state = state * _spread(factors[s], site_axes[s],
                                        every_axis)
            continue
        axes = list(op[1])
        diagonal = np.ones((4,) * len(axes))
        for s in sites:  # on the gate's own qubits, after the gate
            diagonal = diagonal * _spread(factors[s], site_axes[s], axes)
        gate = trace.compact.gates[i]
        state = _contract(state, diagonal.reshape(-1, 1)
                          * cached_ptm(gate.name, gate.param), axes)

    # Each cbit reads its last writer's qubit; every other axis is
    # marginalized (its I component).
    slot_qubits = [trace.measures[m][1] for m in trace.last_measure_for_cbit]
    index = [0] * n
    for q in slot_qubits:
        index[q] = slice(0, 4, 3)  # the I and Z components
    marginal = np.asarray(state[tuple(index)])
    kept = sorted(slot_qubits)
    for j, q in enumerate(slot_qubits):
        chain = np.eye(2)
        for m in trace.measures_for_cbit[j]:
            p0, p1 = trace.readout_p0[m], trace.readout_p1[m]
            chain = np.array([[1.0 - p0, p1], [p0, 1.0 - p1]]) @ chain
        marginal = _contract(marginal, chain @ _WALSH_HADAMARD,
                             [kept.index(q)])
    # Code bit j is slot j: the last slot's axis goes first.
    law = marginal.transpose([kept.index(q) for q in reversed(slot_qubits)]
                             ).reshape(-1)
    if not _is_law(law, -_NEGATIVE_TOLERANCE):
        raise SimulationError(
            "the exact outcome law is not a probability vector "
            "(non-finite, negative, or not summing to 1)")
    law = np.maximum(law, 0.0)
    law /= law.sum()
    law.setflags(write=False)
    return law


def stored_law(values: np.ndarray, width: int) -> np.ndarray:
    """A law read back from storage, read-only, exactly as stored.

    Raises:
        SimulationError: *values* is not a length-*width* probability
            vector (a NaN, a negative entry or a bad sum).
    """
    law = np.array(values, dtype=np.float64)
    if law.shape != (width,) or not _is_law(law, 0.0):
        raise SimulationError(
            f"stored outcome law is not a probability vector of "
            f"length {width}")
    law.setflags(write=False)
    return law
