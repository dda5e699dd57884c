"""Reference implementations the batched sampler is tested against.

Not a test module (pytest does not collect it) and not a runtime
fallback: the package has one production path per job, and these are
the plain versions it must reproduce exactly.

* :func:`plan_events` expands (site, choice) pairs into the per-gate
  Pauli event lists :meth:`ProgramTrace.plan_probabilities` takes.
* :func:`plan_matrix` packs the same pairs into the padded code matrix
  :func:`repro.simulator.batch.batch_plan_probabilities` takes.
* :func:`reference_plan_probabilities` is the batched pass with one
  ``tensordot`` per injected Pauli, applied to the gathered rows of
  each distinct event tuple and scattered back.
* :func:`reference_sample_noisy` is the noisy-trial sampler with a
  dictionary dedup of plans and one ``rng.choice`` per distinct plan.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.simulator.statevector import cached_unitary
from repro.simulator.trace import CHOICE_STRIDE, DenseEvent, ProgramTrace

Plan = Dict[int, List[DenseEvent]]


def plan_events(trace: ProgramTrace, sites: Sequence[int],
                choices: Sequence[int]) -> Plan:
    """Expand (site, choice) pairs into per-gate Pauli event lists."""
    by_gate: Plan = {}
    for s, c in zip(sites, choices):
        gate = int(trace.site_gate[s])
        by_gate.setdefault(gate, []).extend(trace.site_events[s][int(c)])
    return by_gate


def plan_matrix(plans: Sequence[Tuple[Sequence[int], Sequence[int]]]
                ) -> np.ndarray:
    """Pack (sites, choices) plans into a -1-padded code matrix."""
    width = max([len(sites) for sites, _ in plans] + [1])
    out = np.full((len(plans), width), -1, dtype=np.int64)
    for row, (sites, choices) in enumerate(plans):
        codes = [int(s) * CHOICE_STRIDE + int(c)
                 for s, c in zip(sites, choices)]
        out[row, :len(codes)] = codes
    return out


def reference_plan_probabilities(trace: ProgramTrace, plans: List[Plan],
                                 chunk: int = 1 << 16) -> np.ndarray:
    """Pattern distributions of *plans*, one tensordot per injection."""
    out = np.empty((len(plans), 1 << trace.n_measures))
    for lo in range(0, len(plans), chunk):
        part = plans[lo:lo + chunk]
        out[lo:lo + len(part)] = _simulate_plans(trace, part)
    return out


def reference_sample_noisy(trace: ProgramTrace, occurred: np.ndarray,
                           noisy_rows: np.ndarray, codes: np.ndarray,
                           rng: np.random.Generator, xb=None) -> None:
    """Fill ``codes[noisy_rows]``: dict dedup, per-plan ``rng.choice``.

    Same signature as ``repro.simulator.batch._sample_noisy``, so a
    test can swap it in under ``run_batched``.
    """
    trial_idx, site_idx = np.nonzero(occurred)
    uniforms = rng.random(trial_idx.size)
    choices = (uniforms[:, np.newaxis]
               >= trace.site_cum[site_idx, :]).sum(axis=1).astype(np.int64)
    starts = np.searchsorted(trial_idx, np.arange(occurred.shape[0] + 1))
    plan_index: Dict[bytes, int] = {}
    plans: List[Plan] = []
    plan_rows: List[List[int]] = []
    for row in range(occurred.shape[0]):
        lo, hi = starts[row], starts[row + 1]
        key = site_idx[lo:hi].tobytes() + b"|" + choices[lo:hi].tobytes()
        index = plan_index.get(key)
        if index is None:
            index = plan_index[key] = len(plans)
            plans.append(plan_events(trace, site_idx[lo:hi], choices[lo:hi]))
            plan_rows.append([])
        plan_rows[index].append(row)
    patterns = reference_plan_probabilities(trace, plans)
    patterns /= patterns.sum(axis=1, keepdims=True)
    for index, rows in enumerate(plan_rows):
        drawn = rng.choice(patterns.shape[1], size=len(rows),
                           p=patterns[index])
        codes[noisy_rows[np.asarray(rows)]] = drawn


def _simulate_plans(trace: ProgramTrace, plans: List[Plan]) -> np.ndarray:
    batch = len(plans)
    n = trace.n_qubits
    state = np.zeros((batch,) + (2,) * n, dtype=np.complex128)
    state[(slice(None),) + (0,) * n] = 1.0
    # Invert the plans: gate index -> {event tuple -> plan rows}.
    per_gate: Dict[int, Dict[Tuple[DenseEvent, ...], List[int]]] = {}
    for row, plan in enumerate(plans):
        for gate, events in plan.items():
            per_gate.setdefault(gate, {}).setdefault(
                tuple(events), []).append(row)
    for i, op in enumerate(trace.ops):
        if op is not None:
            matrix, dense = op
            if len(dense) == 1:
                state = _apply_1q(state, matrix, dense[0])
            else:
                state = _apply_2q(state, matrix, dense)
        for events, rows in per_gate.get(i, {}).items():
            idx = np.asarray(rows)
            sub = state[idx]
            for dense_q, pauli in events:
                sub = _apply_1q(sub, cached_unitary(pauli), dense_q)
            state[idx] = sub
    probs = np.abs(state.reshape(batch, -1)) ** 2
    return probs[:, trace.pattern_order].reshape(
        batch, 1 << trace.n_measures, -1).sum(axis=2)


def _apply_1q(state, matrix, q: int):
    out = np.tensordot(matrix, state, axes=([1], [q + 1]))
    return np.moveaxis(out, 0, q + 1)


def _apply_2q(state, matrix, qs: Tuple[int, int]):
    gate = matrix.reshape(2, 2, 2, 2)
    out = np.tensordot(gate, state, axes=([2, 3], [qs[0] + 1, qs[1] + 1]))
    return np.moveaxis(out, (0, 1), (qs[0] + 1, qs[1] + 1))
