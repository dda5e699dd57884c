"""Precompiled execution traces for the batched Monte-Carlo engine.

A per-trial loop (the test oracle ``tests/trial_reference.py``)
re-derives everything stochastic from the
:class:`~repro.simulator.noise.NoiseModel` on every shot: idle rates,
gate error probabilities, Pauli choices. This module lowers a compiled
program **once** into flat numpy arrays so that the batched engine
(:mod:`repro.simulator.batch`) can sample the entire ``trials x sites``
Bernoulli matrix in a handful of vectorized RNG calls:

* :class:`CompactProgram` — the physical program restricted to the
  hardware qubits it touches, with per-gate idle windows and the
  crosstalk exposure counts (computed with a start-time-sorted interval
  sweep rather than an O(G^2) pair scan);
* :class:`ProgramTrace` — the flattened *error-site* table. Each site
  is one independent Bernoulli error source (an idle window on one
  qubit before a gate, or the gate's own depolarizing channel) with a
  precomputed firing probability, the cumulative boundaries of its
  conditional Pauli-choice distribution, and the dense qubits its
  channel acts on; two static tables give the Paulis each choice
  applies there. The trace also holds the per-gate unitaries,
  the dense-qubit measure map and the per-measure readout flip
  probabilities, and computes two dense members lazily, once, on
  first use: the ideal output distribution and the exact outcome law
  (:mod:`repro.simulator.exact`) that the sampler draws small traces'
  counts from. Both are exponential in the qubit count, so neither is
  built for the large Clifford traces the stabilizer engine shares.

Sampling a trial from the trace is identical in law to the per-trial
loop: an idle window that fires with probability ``p_x + p_y + p_z``
and then picks X/Y/Z proportionally is the same two-stage process the
per-trial loop performs with a single uniform draw.
"""

from __future__ import annotations

import json
import math
import re
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.ir.circuit import Circuit
from repro.simulator.noise import _PAULIS_1Q, _PAULIS_2Q, NoiseModel
from repro.simulator.statevector import StateVector, cached_unitary

#: Ideal-distribution probability cutoff (matches the per-trial loop).
_PROB_CUTOFF = 1e-12

#: Size of the per-site choice space: the two-qubit channel's 15
#: non-identity Pauli pairs. An error plan names each event it
#: injects by the code ``site * CHOICE_STRIDE + choice``.
CHOICE_STRIDE = len(_PAULIS_2Q)

#: Pauli codes of :meth:`ProgramTrace.choice_paulis`; 0 is no event.
PAULI_CODES = {"x": 1, "y": 2, "z": 3}

#: Pauli codes of each choice's two event slots (first qubit, second
#: qubit), for single- and two-qubit channels. Single-qubit rows past
#: the third are never drawn: their cumulative bounds are padded to 1.
_SINGLE_CHOICE_PAULIS = np.zeros((CHOICE_STRIDE, 2), dtype=np.int8)
_SINGLE_CHOICE_PAULIS[:len(_PAULIS_1Q), 0] = [PAULI_CODES[p]
                                              for p in _PAULIS_1Q]
_PAIR_CHOICE_PAULIS = np.array(
    [[PAULI_CODES.get(a, 0), PAULI_CODES.get(b, 0)] for a, b in _PAULIS_2Q],
    dtype=np.int8)


class CompactProgram:
    """Physical program restricted to the hardware qubits it touches."""

    def __init__(self, circuit: Circuit,
                 times: Sequence[Tuple[float, float]],
                 topology=None) -> None:
        used = circuit.used_qubits()
        if not used:
            raise SimulationError("program touches no qubits")
        self.hw_to_dense = {h: i for i, h in enumerate(used)}
        self.used = used
        self.n_qubits = len(used)
        self.gates = list(circuit.gates)
        self.times = list(times)
        self.n_cbits = circuit.n_cbits
        # Measurement map: dense qubit -> cbit; validated terminal.
        self.measures: List[Tuple[int, int, int]] = []  # (hw, dense, cbit)
        seen_measure = set()
        for gate in self.gates:
            for q in gate.qubits:
                if q in seen_measure and gate.name != "barrier":
                    raise SimulationError(
                        f"operation on qubit {q} after its measurement")
            if gate.is_measure:
                hw = gate.qubits[0]
                self.measures.append((hw, self.hw_to_dense[hw], gate.cbit))
                seen_measure.add(hw)
        # Idle window preceding each gate, per participating qubit.
        last_finish: Dict[int, float] = {}
        self.idle_before: List[Tuple[Tuple[int, float], ...]] = []
        for gate, (start, duration) in zip(self.gates, self.times):
            gaps = []
            for q in gate.qubits:
                previous = last_finish.get(q)
                if previous is not None and start > previous + 1e-9:
                    gaps.append((q, start - previous))
                last_finish[q] = start + duration
            self.idle_before.append(tuple(gaps))
        # Crosstalk exposure: for each two-qubit gate, how many other
        # two-qubit gates overlap it in time on an adjacent coupling.
        # Start-time-sorted interval sweep: only gates whose interval is
        # still open when the next one starts are candidate partners.
        self.concurrent_neighbors: List[int] = [0] * len(self.gates)
        two_q = [(i, frozenset(g.qubits), s, s + d)
                 for i, (g, (s, d)) in enumerate(zip(self.gates, self.times))
                 if g.is_two_qubit]
        two_q.sort(key=lambda entry: (entry[2], entry[0]))
        active: List[Tuple[int, frozenset, float, float]] = []
        for entry in two_q:
            i, qs1, s1, _ = entry
            active = [a for a in active if a[3] > s1 + 1e-9]
            for j, qs2, _, _ in active:
                if qs1 & qs2:
                    continue  # same gate chain, not crosstalk
                if topology is not None and not any(
                        topology.is_adjacent(a, b)
                        for a in qs1 for b in qs2):
                    continue  # spatially remote couplings
                self.concurrent_neighbors[i] += 1
                self.concurrent_neighbors[j] += 1
            active.append(entry)


def _build_ops(compact: CompactProgram) -> List:
    """Unitary schedule: (cached matrix, dense qubits) per gate, or
    ``None`` for barriers and measurements."""
    ops: List = []
    for gate in compact.gates:
        if gate.name == "barrier" or gate.is_measure:
            ops.append(None)
        else:
            dense = tuple(compact.hw_to_dense[q] for q in gate.qubits)
            ops.append((cached_unitary(gate.name, gate.param), dense))
    return ops


class ProgramTrace:
    """Flat-array lowering of one (program, noise model) pair.

    Attributes:
        site_gate: ``(S,)`` gate index each error site belongs to.
        site_prob: ``(S,)`` Bernoulli firing probability per site.
        site_cum: ``(S, 14)`` interior cumulative boundaries of each
            site's conditional Pauli-choice distribution, padded with
            1.0 (a uniform draw lands left of the padding).
        site_pair: ``(S, 2)`` dense qubits of each site's channel:
            ``(q, -1)`` for a single-qubit channel, whose choices are
            the rows of ``_SINGLE_CHOICE_PAULIS[:3]``, and ``(a, b)``
            for a two-qubit one, whose choices are the rows of
            ``_PAIR_CHOICE_PAULIS`` (see :meth:`choice_paulis`).
    """

    def __init__(self, compact: CompactProgram, noise: NoiseModel) -> None:
        self.compact = compact
        self.n_qubits = compact.n_qubits
        self.n_cbits = compact.n_cbits
        self.measures = list(compact.measures)
        self.n_measures = len(self.measures)

        # Unitary schedule: (cached matrix, dense qubits) or None for
        # barriers and measurements.
        self.ops = _build_ops(compact)

        # Error-site table, in the order the per-trial loop visits
        # sites: for each gate, its idle windows first, then the gate's
        # own error channel. Zero-probability sites are dropped.
        site_gate: List[int] = []
        site_prob: List[float] = []
        site_pair: List[Tuple[int, int]] = []
        cum_rows: List[np.ndarray] = []
        for i, (gate, gaps) in enumerate(zip(compact.gates,
                                             compact.idle_before)):
            for qubit, idle in gaps:
                rates = noise.idle_rates(qubit, idle)
                if rates.total <= 0.0:
                    continue
                site_gate.append(i)
                site_prob.append(rates.total)
                site_pair.append((compact.hw_to_dense[qubit], -1))
                cum_rows.append(np.array(
                    [rates.p_x, rates.p_x + rates.p_y]) / rates.total)
            p = noise.gate_error_probability(
                gate, concurrent_neighbors=compact.concurrent_neighbors[i])
            if p <= 0.0:
                continue
            site_gate.append(i)
            site_prob.append(p)
            if gate.is_two_qubit:
                da, db = (compact.hw_to_dense[q] for q in gate.qubits)
                site_pair.append((da, db))
                cum_rows.append(np.arange(1, len(_PAULIS_2Q))
                                / float(len(_PAULIS_2Q)))
            else:
                site_pair.append((compact.hw_to_dense[gate.qubits[0]], -1))
                cum_rows.append(np.array([1.0, 2.0]) / 3.0)
        self.n_sites = len(site_gate)
        self.site_gate = np.asarray(site_gate, dtype=np.int64)
        self.site_prob = np.asarray(site_prob, dtype=np.float64)
        self.site_pair = np.asarray(site_pair, dtype=np.int64
                                    ).reshape(self.n_sites, 2)
        max_bounds = len(_PAULIS_2Q) - 1
        self.site_cum = np.ones((self.n_sites, max_bounds), dtype=np.float64)
        for s, row in enumerate(cum_rows):
            self.site_cum[s, :len(row)] = row

        self._index_cbits()

        # Readout flip probabilities per measure, conditioned on the
        # true measured bit.
        self.readout_p0 = np.array(
            [noise.readout_flip_probability(hw, 0)
             for hw, _, _ in self.measures], dtype=np.float64)
        self.readout_p1 = np.array(
            [noise.readout_flip_probability(hw, 1)
             for hw, _, _ in self.measures], dtype=np.float64)

        self._strings: Dict[int, str] = {}
        self._outcome_strings: Dict[int, str] = {}

    def _index_cbits(self) -> None:
        """Classical-bit bookkeeping. Distinct measures may alias the
        same cbit (last write wins, like the per-trial loop); group
        measures per cbit so readout flips can chain in measure order.
        """
        self.measured_cbits: List[int] = []
        self.measures_for_cbit: List[List[int]] = []
        cbit_to_slot: Dict[int, int] = {}
        for m, (_, _, cbit) in enumerate(self.measures):
            slot = cbit_to_slot.get(cbit)
            if slot is None:
                slot = cbit_to_slot[cbit] = len(self.measured_cbits)
                self.measured_cbits.append(cbit)
                self.measures_for_cbit.append([])
            self.measures_for_cbit[slot].append(m)
        self.last_measure_for_cbit = [ms[-1]
                                      for ms in self.measures_for_cbit]

    # ------------------------------------------------------------------
    # Compact serialization (the sweep runtime's disk trace tier).
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the trace into plain numpy arrays.

        Everything a fresh process needs to rebuild the trace without
        re-lowering is captured: the physical gate/time table (from
        which :class:`CompactProgram` and the unitary schedule are
        reconstructed — unitaries themselves live in the process-wide
        :func:`cached_unitary` cache, not the file), the error-site
        table, readout flip probabilities, and — only if already
        computed — the two dense members: the ideal output
        distribution, whose statevector simulation is the expensive
        part of lowering, and the exact outcome law. Every array is
        ``int64``, ``float64`` or a fixed-width string, the dtypes
        :func:`pack_arrays` stores as one flat record.
        """
        compact = self.compact
        gates = compact.gates
        arity = max((len(g.qubits) for g in gates), default=1)
        gate_qubits = np.full((len(gates), arity), -1, dtype=np.int64)
        for i, g in enumerate(gates):
            gate_qubits[i, :len(g.qubits)] = g.qubits
        # The physical register size is not retained by CompactProgram
        # (it keeps only used qubits); any size covering the gate
        # indices rebuilds an equivalent compact program.
        n_hw = max((q for g in gates for q in g.qubits), default=0) + 1
        data: Dict[str, np.ndarray] = {
            "circuit_shape": np.array([n_hw, compact.n_cbits],
                                      dtype=np.int64),
            "gate_names": np.array([g.name for g in gates]),
            "gate_qubits": gate_qubits,
            "gate_params": np.array(
                [np.nan if g.param is None else g.param for g in gates],
                dtype=np.float64),
            "gate_cbits": np.array(
                [-1 if g.cbit is None else g.cbit for g in gates],
                dtype=np.int64),
            "gate_times": np.asarray(compact.times, dtype=np.float64
                                     ).reshape(len(gates), 2),
            "concurrent": np.asarray(compact.concurrent_neighbors,
                                     dtype=np.int64),
            "site_gate": self.site_gate,
            "site_prob": self.site_prob,
            "site_cum": self.site_cum,
            "site_pair": self.site_pair,
            "readout_p0": self.readout_p0,
            "readout_p1": self.readout_p1,
        }
        if "outcome_law" in self.__dict__:
            data["outcome_law"] = self.outcome_law
        if "_ideal" in self.__dict__:
            codes, probs, distribution = self._ideal
            data["ideal_codes"] = np.asarray(codes, dtype=np.int64)
            data["ideal_probs"] = np.asarray(probs, dtype=np.float64)
            data["ideal_strings"] = np.array(list(distribution.keys()))
            data["ideal_values"] = np.array(list(distribution.values()),
                                            dtype=np.float64)
        return data

    @classmethod
    def from_arrays(cls, data: Dict[str, np.ndarray]) -> "ProgramTrace":
        """Rebuild a trace from :meth:`to_arrays` output.

        The result is functionally identical to the originally lowered
        trace: same arrays, same unitary schedule (re-fetched from the
        unitary cache), same lazily-computable dense members. Raises on
        malformed input — missing keys, a site table or readout array
        no lowering of the stored gates produces (:func:`_check_tables`),
        an outcome law that is not a probability vector over the
        rendered codes — and the disk tier treats any exception as a
        cache miss and re-lowers.
        """
        from repro.ir.circuit import Circuit
        from repro.ir.gates import Gate
        from repro.simulator.exact import stored_law

        n_hw, n_cbits = (int(x) for x in data["circuit_shape"])
        circuit = Circuit(n_hw, n_cbits=n_cbits, name="trace")
        params = data["gate_params"]
        cbits = data["gate_cbits"]
        for i, name in enumerate(data["gate_names"]):
            qubits = tuple(int(q) for q in data["gate_qubits"][i]
                           if q >= 0)
            param = None if np.isnan(params[i]) else float(params[i])
            cbit = None if cbits[i] < 0 else int(cbits[i])
            circuit.append(Gate(str(name), qubits, param=param,
                                cbit=cbit))
        times = [(float(s), float(d)) for s, d in data["gate_times"]]
        compact = CompactProgram(circuit, times)
        # The crosstalk sweep above ran without a topology; restore the
        # counts the original lowering computed (they feed error
        # probabilities, which are already baked into site_prob, but a
        # consumer re-lowering from this compact should see the truth).
        compact.concurrent_neighbors = [int(c)
                                        for c in data["concurrent"]]

        trace = object.__new__(cls)
        trace.compact = compact
        trace.n_qubits = compact.n_qubits
        trace.n_cbits = compact.n_cbits
        trace.measures = list(compact.measures)
        trace.n_measures = len(trace.measures)
        trace.ops = _build_ops(compact)
        trace.site_gate = np.asarray(data["site_gate"], dtype=np.int64)
        trace.site_prob = np.asarray(data["site_prob"], dtype=np.float64)
        trace.site_cum = np.asarray(data["site_cum"], dtype=np.float64)
        trace.site_pair = np.asarray(data["site_pair"], dtype=np.int64)
        trace.n_sites = trace.site_gate.size
        trace._index_cbits()
        trace.readout_p0 = np.asarray(data["readout_p0"],
                                      dtype=np.float64)
        trace.readout_p1 = np.asarray(data["readout_p1"],
                                      dtype=np.float64)
        _check_tables(trace)
        trace._strings = {}
        trace._outcome_strings = {}
        if "outcome_law" in data:
            trace.__dict__["outcome_law"] = stored_law(
                data["outcome_law"], 1 << len(trace.measured_cbits))
        if "ideal_codes" in data:
            distribution = {
                str(s): float(v)
                for s, v in zip(data["ideal_strings"],
                                data["ideal_values"])}
            trace.__dict__["_ideal"] = (
                np.asarray(data["ideal_codes"], dtype=np.int64),
                np.asarray(data["ideal_probs"], dtype=np.float64),
                distribution)
        return trace

    # ------------------------------------------------------------------
    # Dense-basis members. These are exponential in n_qubits, so they
    # are computed lazily: only the dense engines touch them, and the
    # stabilizer engine shares cached traces with programs far beyond
    # any dense budget. The values are byte-identical to the eager
    # computation they replaced (same construction, same ordering), and
    # ``rescaled`` clones share them via ``__dict__.update`` — all but
    # the outcome law, which depends on the rescaled probabilities.

    @cached_property
    def basis_codes(self) -> np.ndarray:
        """Dense-basis index -> measured-bit pattern code (bit m of the
        code is the measured value of measure m)."""
        basis = np.arange(1 << self.n_qubits, dtype=np.int64)
        codes = np.zeros(basis.shape, dtype=np.int64)
        for m, (_, dense, _) in enumerate(self.measures):
            codes |= ((basis >> (self.n_qubits - 1 - dense)) & 1) << m
        return codes

    @cached_property
    def pattern_order(self) -> np.ndarray:
        """Measured qubits are distinct, so every pattern code covers
        exactly ``2**(n_qubits - n_measures)`` basis states; sorting by
        code lets the batch collapse basis probabilities to pattern
        distributions with one reshape+sum instead of per-row
        bincounts."""
        return np.argsort(self.basis_codes, kind="stable")

    def choice_paulis(self, codes: np.ndarray) -> np.ndarray:
        """The Paulis each (site, choice) code in *codes* injects.

        Returns a ``(len(codes), 2)`` matrix of :data:`PAULI_CODES`
        values (0 for none): code ``s * CHOICE_STRIDE + c`` injects
        column 0 on qubit ``site_pair[s, 0]``, then column 1 on
        ``site_pair[s, 1]``, in that order.
        """
        site, choice = np.divmod(codes, CHOICE_STRIDE)
        return np.where(self.site_pair[site, 1:] >= 0,
                        _PAIR_CHOICE_PAULIS[choice],
                        _SINGLE_CHOICE_PAULIS[choice])

    @cached_property
    def _ideal(self) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
        """Ideal (noise-free) output distribution over pattern codes."""
        state = StateVector(self.n_qubits)
        for op in self.ops:
            if op is not None:
                state.apply_matrix(*op)
        pattern = np.bincount(self.basis_codes,
                              weights=state.probabilities(),
                              minlength=1 << self.n_measures)
        keep = np.nonzero(pattern > _PROB_CUTOFF)[0]
        probs = pattern[keep]
        # Aliased cbits can render distinct pattern codes to the same
        # string: accumulate, don't overwrite.
        distribution: Dict[str, float] = {}
        for c, p in zip(keep, probs):
            string = self.pattern_string(int(c))
            distribution[string] = distribution.get(string, 0.0) + float(p)
        return keep, probs / probs.sum(), distribution

    @cached_property
    def outcome_law(self) -> np.ndarray:
        """Exact law over rendered-cbit codes, noise and readout
        included (:func:`repro.simulator.exact.outcome_law`). Holds
        ``4**n_qubits`` floats while it is computed, so only traces at
        or under :data:`repro.simulator.batch.EXACT_MAX_QUBITS` build
        it."""
        from repro.simulator.exact import outcome_law
        return outcome_law(self)

    @property
    def ideal_codes(self) -> np.ndarray:
        return self._ideal[0]

    @property
    def ideal_probs(self) -> np.ndarray:
        return self._ideal[1]

    @property
    def ideal_distribution(self) -> Dict[str, float]:
        return self._ideal[2]

    # ------------------------------------------------------------------
    def rescaled(self, scale: float,
                 scale_readout: bool = False) -> "ProgramTrace":
        """A copy of this trace with error probabilities times *scale*.

        The cheap noise-amplification path of zero-noise extrapolation
        (:mod:`repro.mitigation.zne`): only the flat ``site_prob``
        array (and, on request, the readout flip arrays) is rebuilt —
        everything structural (unitary schedule, Pauli-choice
        cumulatives, ideal distribution, measure maps) is shared with
        the original, so rescaling costs one clipped numpy multiply
        instead of a full lowering. The exact outcome law depends on
        the rescaled arrays, so the copy drops it and computes its own
        on first use. Because lowering multiplies each
        site's firing probability uniformly (conditional Pauli choices
        are scale-invariant), the result is array-identical to freshly
        lowering the same program under a
        :class:`~repro.mitigation.zne.ScaledNoiseModel` for any
        ``scale > 0`` — same sites, same RNG stream, same counts.
        (At ``scale = 0`` a fresh lowering would also *drop* the
        now-impossible sites; the rescaled copy keeps them at
        probability zero — identical in law, different RNG stream.)

        Args:
            scale: Finite non-negative multiplier; probabilities clip
                at 1.
            scale_readout: Also scale the per-measure readout flip
                probabilities.
        """
        if not (math.isfinite(scale) and scale >= 0.0):
            raise SimulationError(
                f"noise scale must be finite and non-negative, got {scale}")
        clone = object.__new__(ProgramTrace)
        clone.__dict__.update(self.__dict__)
        clone.__dict__.pop("outcome_law", None)
        clone.site_prob = np.minimum(self.site_prob * scale, 1.0)
        if scale_readout:
            clone.readout_p0 = np.minimum(self.readout_p0 * scale, 1.0)
            clone.readout_p1 = np.minimum(self.readout_p1 * scale, 1.0)
        return clone

    # ------------------------------------------------------------------
    def pattern_string(self, code: int) -> str:
        """Classical output string for a measured-bit pattern code."""
        cached = self._strings.get(code)
        if cached is None:
            chars = ["0"] * self.n_cbits
            for m, (_, _, cbit) in enumerate(self.measures):
                chars[cbit] = "1" if (code >> m) & 1 else "0"
            cached = self._strings[code] = "".join(chars)
        return cached

    def outcome_string(self, code: int) -> str:
        """Classical output string for a rendered-cbit code (bit *j* of
        the code is the final value of ``measured_cbits[j]``)."""
        cached = self._outcome_strings.get(code)
        if cached is None:
            chars = ["0"] * self.n_cbits
            for j, cbit in enumerate(self.measured_cbits):
                chars[cbit] = "1" if (code >> j) & 1 else "0"
            cached = self._outcome_strings[code] = "".join(chars)
        return cached


def _check_tables(trace: ProgramTrace) -> None:
    """Refuse a read-back site table or readout array that no lowering
    of the trace's gates produces.

    A stored trace is input from outside the process: an entry whose
    integrity digest matches can still carry tables a buggy or hostile
    writer made, and sampling them would skew counts silently.

    Raises:
        SimulationError: On the first check that fails.
    """
    n = trace.n_sites
    gate, pair, cum = trace.site_gate, trace.site_pair, trace.site_cum
    if (gate.shape != (n,) or trace.site_prob.shape != (n,)
            or pair.shape != (n, 2) or cum.shape != (n, CHOICE_STRIDE - 1)
            or trace.readout_p0.shape != (trace.n_measures,)
            or trace.readout_p1.shape != (trace.n_measures,)):
        raise SimulationError(
            "stored trace arrays disagree with its site and measure counts")
    if (np.any(gate < 0) or np.any(gate >= len(trace.compact.gates))
            or np.any(np.diff(gate) < 0)):
        raise SimulationError(
            "stored site_gate leaves the gate range or decreases")
    first, second = pair[:, 0], pair[:, 1]
    if (np.any(first < 0) or np.any(first >= trace.n_qubits)
            or np.any(second < -1) or np.any(second >= trace.n_qubits)
            or np.any(first == second)):
        raise SimulationError(
            "stored site_pair leaves the qubit range or repeats a qubit")
    for name in ("site_prob", "site_cum", "readout_p0", "readout_p1"):
        values = getattr(trace, name)
        # NaN fails both comparisons, so this also demands finite values.
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise SimulationError(f"stored {name} leaves [0, 1]")
    if np.any(np.diff(cum, axis=1) < 0.0):
        raise SimulationError("stored site_cum rows decrease")


#: Header-length prefix of a :func:`pack_arrays` record.
_LENGTH_BYTES = 4

#: Numpy 1's dimension limit, so every admitted shape builds anywhere.
_MAX_DIMS = 32


#: The dtypes a record holds: exactly the ones
#: :meth:`ProgramTrace.to_arrays` writes (``<i8``, ``<f8`` and ``<U<n>``
#: with n >= 1), so no object, bool, big-endian or void array, and
#: nothing that unpickles, ever enters or leaves a record.
_RECORD_DTYPE = re.compile(r"<i8|<f8|<U[1-9][0-9]{0,8}")


def _record_dtype(code: str) -> np.dtype:
    """The dtype *code* names, if a record may hold it.

    Raises:
        SimulationError: For any dtype :data:`_RECORD_DTYPE` refuses,
            or a string width numpy cannot hold.
    """
    if _RECORD_DTYPE.fullmatch(code):
        try:
            return np.dtype(code)
        except TypeError:
            pass
    raise SimulationError(f"trace record dtype {code!r} is not allowed")


def pack_arrays(arrays: Dict[str, np.ndarray]) -> bytes:
    """*arrays* as one flat record (the disk trace tier's format).

    The record is the header's byte length (4 bytes, little-endian),
    a UTF-8 JSON list of ``[name, dtype.str, shape]`` triples, then
    each array's C-order bytes back to back, in header order.

    Raises:
        SimulationError: On a dtype :func:`_record_dtype` refuses.
    """
    header, chunks = [], []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        _record_dtype(array.dtype.str)
        header.append([name, array.dtype.str, list(array.shape)])
        chunks.append(array.tobytes())
    head = json.dumps(header).encode("utf-8")
    return b"".join([len(head).to_bytes(_LENGTH_BYTES, "little"), head,
                     *chunks])


def unpack_arrays(blob: bytes) -> Dict[str, np.ndarray]:
    """The arrays of a :func:`pack_arrays` record.

    A stored record is input from outside the process, so the whole
    layout is checked before any array is built: the header lies
    inside the blob and is a JSON list of ``[str, str, list]``
    triples with distinct names, every dtype is allowed, every shape
    holds at most :data:`_MAX_DIMS` non-negative ``int`` entries (no
    ``bool``), none larger than the blob, and the arrays' sizes add up
    to exactly the rest of the blob. Sizes are counted in Python
    integers, so a hostile header fails before anything beyond the
    blob is allocated. Each array is a writable, aligned copy.

    Raises:
        SimulationError: On the first check that fails.
    """
    def malformed(why: str) -> SimulationError:
        return SimulationError(f"malformed trace record: {why}")

    end = len(blob)
    if end < _LENGTH_BYTES:
        raise malformed("no header length")
    start = _LENGTH_BYTES + int.from_bytes(blob[:_LENGTH_BYTES], "little")
    if start > end:
        raise malformed("header length runs past the end")
    try:
        header = json.loads(blob[_LENGTH_BYTES:start].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        raise malformed("header is not UTF-8 JSON") from None
    if not isinstance(header, list):
        raise malformed("header is not a list")
    layout, names, offset = [], set(), start
    for entry in header:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)
                and isinstance(entry[2], list)):
            raise malformed("header entry is not a [name, dtype, shape]"
                            " triple")
        name, code, shape = entry
        if name in names:
            raise malformed(f"array {name!r} appears twice")
        names.add(name)
        dtype = _record_dtype(code)
        if len(shape) > _MAX_DIMS or not all(
                type(n) is int and 0 <= n <= end for n in shape):
            raise malformed(f"array {name!r} has shape {shape!r}")
        count = math.prod(shape)
        if dtype.itemsize * count > end - offset:
            raise malformed(f"array {name!r} runs past the end")
        layout.append((name, dtype, shape, offset))
        offset += dtype.itemsize * count
    if offset != end:
        raise malformed(f"{end - offset} trailing bytes")
    return {name: np.frombuffer(blob, dtype, count=math.prod(shape),
                                offset=at).reshape(shape).copy()
            for name, dtype, shape, at in layout}
