"""Reference modelling path for R-SMT* (test oracle).

The mapper hands the solver R-SMT*'s cost matrices directly
(``repro.compiler.mapping.smt.reliability_model``). This module keeps
the path they replaced: a :class:`SumObjective` of per-term closures
(:func:`reliability_sum_model`), which the generic engine solves with
per-term admissible bounds, and :func:`compile_assignment`, which
re-derives the matrices from that objective term by term. Tests compare
the direct build against it byte for byte, and the vector engine's
optimum against the generic engine's on these models.
"""

import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.mapping.smt import _LOG_FLOOR, _interacting_qubits, _var
from repro.exceptions import SolverError
from repro.solver import AssignmentMatrices, Model
from repro.solver.bounds import _factor_pair_tensor
from repro.solver.model import Assignment, Objective

_NEG_INF = -np.inf


class Term:
    """One additive objective term (maximization convention)."""

    scope: tuple

    def value(self, assignment: Assignment) -> float:
        raise NotImplementedError

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        """Optimistic score given partial assignment and live domains."""
        raise NotImplementedError


class UnaryTerm(Term):
    """Score depending on one variable, e.g. a readout reliability term.

    Args:
        name: Variable name.
        score: ``score(value) -> float``.
        vector: Optional dense score table indexed by raw value, which
            :func:`compile_assignment` slices instead of probing
            ``score`` once per value.
    """

    def __init__(self, name: str, score: Callable[[int], float],
                 vector=None) -> None:
        self.scope = (name,)
        self.score = score
        self.vector = vector
        self._cache: Dict[int, float] = {}

    def _score(self, value: int) -> float:
        if value not in self._cache:
            self._cache[value] = self.score(value)
        return self._cache[value]

    def value(self, assignment: Assignment) -> float:
        return self._score(assignment[self.scope[0]])

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        name = self.scope[0]
        if name in assignment:
            return self._score(assignment[name])
        if not domains[name]:
            raise SolverError(f"empty domain for {name!r} while bounding")
        return max(self._score(v) for v in domains[name])


class PairTerm(Term):
    """Score depending on two variables, e.g. one CNOT's reliability.

    Args:
        a: First variable name.
        b: Second variable name.
        score: ``score(value_a, value_b) -> float``.
        matrix: Optional dense score table with ``matrix[va, vb]``
            indexed by raw values, which :func:`compile_assignment`
            slices instead of probing ``score`` per value pair.
    """

    def __init__(self, a: str, b: str,
                 score: Callable[[int, int], float],
                 matrix=None) -> None:
        self.scope = (a, b)
        self.score = score
        self.matrix = matrix
        self._cache: Dict[tuple, float] = {}

    def _score(self, va: int, vb: int) -> float:
        key = (va, vb)
        if key not in self._cache:
            self._cache[key] = self.score(va, vb)
        return self._cache[key]

    def value(self, assignment: Assignment) -> float:
        return self._score(assignment[self.scope[0]],
                           assignment[self.scope[1]])

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        a, b = self.scope
        a_vals = [assignment[a]] if a in assignment else list(domains[a])
        b_vals = [assignment[b]] if b in assignment else list(domains[b])
        if not a_vals or not b_vals:
            raise SolverError("empty domain while bounding pair term")
        if a in assignment and b in assignment:
            return self._score(a_vals[0], b_vals[0])
        best = -float("inf")
        for va in a_vals:
            for vb in b_vals:
                if va == vb:
                    continue  # mapping variables are all-different
                s = self._score(va, vb)
                if s > best:
                    best = s
        if best == -float("inf"):
            # Degenerate single-value domains colliding; let the search
            # reject the branch rather than the bound.
            return self._score(a_vals[0], b_vals[0])
        return best


class SumObjective(Objective):
    """Sum of decomposable terms with per-term admissible bounds."""

    def __init__(self, terms: Sequence[Term]) -> None:
        self.terms = list(terms)

    def value(self, assignment: Assignment) -> float:
        return sum(t.value(assignment) for t in self.terms)

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        return sum(t.bound(assignment, domains) for t in self.terms)


def reliability_sum_model(circuit, calibration, tables,
                          omega: float) -> Tuple[Model, List[int]]:
    """R-SMT*'s Eq.-12 model as closures over dense score tables.

    Returns:
        (model with its objective set, the interacting search qubits).
    """
    search_qubits = _interacting_qubits(circuit)
    model = Model()
    hw = list(calibration.topology.iter_qubits())
    for q in search_qubits:
        model.add_variable(_var(q), hw)

    readout_logrel = np.array(
        [math.log(max(calibration.readout_reliability(h), _LOG_FLOOR))
         for h in calibration.topology.iter_qubits()])
    cnot_logrel = tables.log_reliability_table()
    cnot_rows = cnot_logrel.tolist()

    terms: List = []
    readout_counts = Counter(g.qubits[0] for g in circuit.measurements)
    for q, count in sorted(readout_counts.items()):
        if q not in search_qubits:
            continue

        def score(h: int, _count: int = count) -> float:
            rel = max(calibration.readout_reliability(h), _LOG_FLOOR)
            return omega * _count * math.log(rel)
        terms.append(UnaryTerm(_var(q), score,
                               vector=omega * count * readout_logrel))
    cnot_counts = Counter((g.control, g.target) for g in circuit.cnots)
    for (qc, qt), count in sorted(cnot_counts.items()):
        def score(hc: int, ht: int, _count: int = count) -> float:
            if hc == ht:
                return _count * math.log(_LOG_FLOOR)
            return (1.0 - omega) * _count * cnot_rows[hc][ht]
        matrix = (1.0 - omega) * count * cnot_logrel
        np.fill_diagonal(matrix, count * math.log(_LOG_FLOOR))
        terms.append(PairTerm(_var(qc), _var(qt), score, matrix=matrix))

    model.objective = SumObjective(terms)
    return model, search_qubits


def compile_assignment(model: Model) -> Optional[AssignmentMatrices]:
    """Compile a :class:`SumObjective` model to matrices, or ``None``
    for any other objective or a term it cannot place."""
    if not isinstance(model.objective, SumObjective):
        return None
    names = [v.name for v in model.variables]
    index = {name: i for i, name in enumerate(names)}

    values = np.array(sorted({v for var in model.variables
                              for v in var.domain}), dtype=np.int64)
    col_of = {int(v): c for c, v in enumerate(values)}
    n, H = len(names), len(values)
    domain_mask = np.zeros((n, H), dtype=bool)
    for i, var in enumerate(model.variables):
        for v in var.domain:
            domain_mask[i, col_of[v]] = True

    unary = np.where(domain_mask, 0.0, _NEG_INF)
    pair_slices: Dict[Tuple[int, int], np.ndarray] = {}
    for term in model.objective.terms:
        if isinstance(term, UnaryTerm):
            i = index.get(term.scope[0])
            if i is None:
                return None
            scores = _unary_scores(term, values, domain_mask[i])
            unary[i] += np.where(domain_mask[i], scores, 0.0)
        elif isinstance(term, PairTerm):
            a, b = term.scope
            ia, ib = index.get(a), index.get(b)
            if ia is None or ib is None or ia == ib:
                return None
            mat = _pair_scores(term, values, domain_mask[ia],
                               domain_mask[ib])
            if ia > ib:
                ia, ib = ib, ia
                mat = mat.T
            key = (ia, ib)
            if key in pair_slices:
                pair_slices[key] = pair_slices[key] + np.where(
                    np.isfinite(mat), mat, 0.0)
            else:
                pair_slices[key] = mat
        else:
            return None

    pair_vars = sorted(pair_slices)
    if pair_vars:
        pair_tensor = np.stack([pair_slices[k] for k in pair_vars])
    else:
        pair_tensor = np.empty((0, H, H))
    factored = _factor_pair_tensor(pair_tensor)
    base, xs, ys, slack = factored if factored is not None \
        else (None, None, None, None)
    return AssignmentMatrices(
        var_names=names, values=values, domain_mask=domain_mask,
        unary=unary, pair_vars=pair_vars, pair_tensor=pair_tensor,
        pair_base=base, pair_x=xs, pair_y=ys, pair_slack=slack)


def _dense_applies(table: Optional[np.ndarray],
                   values: np.ndarray) -> bool:
    return (table is not None and int(values.min()) >= 0
            and table.shape[0] > int(values.max()))


def _unary_scores(term: UnaryTerm, values: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
    if term.vector is not None:
        vec = np.asarray(term.vector, dtype=float)
        if _dense_applies(vec, values):
            return vec[values]
    out = np.zeros(len(values))
    for c, v in enumerate(values):
        if mask[c]:
            out[c] = term._score(int(v))
    return out


def _pair_scores(term: PairTerm, values: np.ndarray,
                 mask_a: np.ndarray, mask_b: np.ndarray) -> np.ndarray:
    H = len(values)
    region = np.logical_and.outer(mask_a, mask_b)
    np.fill_diagonal(region, False)
    if term.matrix is not None:
        dense = np.asarray(term.matrix, dtype=float)
        if _dense_applies(dense, values) and dense.shape[1] > int(values.max()):
            sliced = dense[np.ix_(values, values)]
            return np.where(region, sliced, _NEG_INF)
    out = np.full((H, H), _NEG_INF)
    rows = np.where(mask_a)[0]
    cols = np.where(mask_b)[0]
    for a in rows:
        va = int(values[a])
        for b in cols:
            if a == b:
                continue
            out[a, b] = term._score(va, int(values[b]))
    return out
