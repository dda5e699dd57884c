"""Vectorized cost matrices and bounds for assignment problems.

The paper's R-SMT* formulation is an *assignment problem*: variables
placed on pairwise distinct columns, maximizing a sum of unary and pair
terms (Eq. 12's readout and CNOT log-reliabilities).
:func:`assignment_matrices` sums those terms into an ``(n, H)`` unary
matrix and a ``(T, H, H)`` pair tensor, and every admissible bound the
search needs — node bounds, all child bounds of the branching variable,
forward-check wipeouts — comes from masked reductions of those arrays.
On the factored (Eq.-12) path the reductions depend only on which
columns are still free and which variables are still unassigned, so
they run once per such pair of sets and the rest of each node is Python
float arithmetic over the branching variable's candidates.

That factored bound maximizes each variable's unary and pair terms
separately, and it alone orders the children. A child it keeps must
also pass a second, coupled (Gilmore–Lawler-style) bound, which for
every other open variable maximizes unary, placed-pair, branching-pair
and half of each open-pair term *together* over the free columns (see
:meth:`VectorSearch._coupled_bounds`). It only drops children, never
reorders them. The coupled bound is summed in another order than the
leaf values it bounds, so it is compared with a margin of
:data:`COUPLED_MARGIN` times the model's score magnitude: that covers
the rounding of any two summation orders of a leaf, so a dropped child
never holds a leaf the search would have recorded.

:class:`VectorSearch` runs the depth-first search over column indices.
It breaks no value symmetries: calibrated noise makes every hardware
qubit distinct, so no topology automorphism and no pair of columns is
an exact invariance of a calibrated model.

Apart from the coupled bound's margin, all comparisons are exact (no
epsilon), and the bounds alone fix the exploration order, so the
returned assignment is a deterministic function of the model and the
warm start. It need not be the first leaf in that order attaining the
float maximum: the warm start's value is summed in term order
(:meth:`AssignmentMatrices.value`) and a leaf's along its search path,
and a dense-path bound can fall an ulp or two below the path sum of a
leaf under it. Which of several optima equal to within rounding is
returned can therefore depend on the warm start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

_NEG_INF = -np.inf

#: Finite stand-in for -inf in factored bounds (0 * -inf is NaN; a
#: pair with a zero base coefficient must contribute zero instead).
_BIG_NEG = -1e300

#: Entry cap of a factored search's free-set memo (see
#: :meth:`VectorSearch._terms`). A full memo is cleared; an evicted
#: entry recomputes to the same floats.
MEMO_ENTRIES = 1024

#: Relative margin of the coupled bound, times the model's score
#: magnitude (each term's largest finite ``|score|``, summed): far above
#: the rounding of re-summing a leaf's terms, far below any real gap.
COUPLED_MARGIN = 1e-9


#: One additive score term: ``(i, -1, scores)`` scores variable ``i`` at
#: column ``c`` as ``scores[c]``; ``(i, j, scores)`` scores variables
#: ``i`` at ``a`` and ``j`` at ``b`` as ``scores[a, b]``.
Term = Tuple[int, int, np.ndarray]


@dataclass
class AssignmentMatrices:
    """Cost structure of an assignment problem.

    Attributes:
        var_names: Variable names in branching-preference order.
        values: Sorted raw values; column ``c`` of every matrix
            corresponds to raw value ``values[c]``.
        domain_mask: ``(n, H)`` bool — value ``c`` allowed for var ``i``.
        unary: ``(n, H)`` float — summed unary scores, ``-inf`` outside
            the variable's domain.
        pair_vars: One ``(i, j)`` (``i < j``, variable indices) per pair
            tensor slice.
        pair_tensor: ``(T, H, H)`` float — entry ``[t, a, b]`` is the
            summed score of pair ``t`` with var ``i`` at column ``a``
            and var ``j`` at column ``b``. The diagonal and any
            combination outside the two domains is ``-inf`` (no two
            variables share a column).
        pair_base / pair_x / pair_y / pair_slack: Optional scaled-base
            factorization of the pair tensor (see
            :func:`_factor_pair_tensor`): every slice satisfies
            ``pair_tensor[t] <= pair_x[t] * B + pair_y[t] * B.T +
            pair_slack[t]`` elementwise with near-zero slack. Present
            whenever the slices share one underlying score matrix up to
            per-pair direction weights — the shape of every Eq.-12
            model, where each slice is ``count_fwd * L + count_rev *
            L.T`` for the device's CNOT log-reliability table ``L``.
            The search then derives all T row/column maxima from the
            ``H x H`` base instead of masking the full ``T x H x H``
            tensor at every node.
        terms: The :data:`Term` list the matrices were summed from
            (:func:`assignment_matrices`), which :meth:`value` re-sums.
    """

    var_names: List[str]
    values: np.ndarray
    domain_mask: np.ndarray
    unary: np.ndarray
    pair_vars: List[Tuple[int, int]]
    pair_tensor: np.ndarray
    pair_base: Optional[np.ndarray] = None
    pair_x: Optional[np.ndarray] = None
    pair_y: Optional[np.ndarray] = None
    pair_slack: Optional[np.ndarray] = None
    terms: List[Term] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_cols(self) -> int:
        return int(self.values.shape[0])

    def columns(self, assignment: Mapping[str, int]) -> Optional[List[int]]:
        """The columns of a complete *assignment* of raw values, by
        variable, or ``None`` when it is infeasible: a variable missing
        or unknown, a value outside its domain, or two values equal."""
        col_of = {int(v): c for c, v in enumerate(self.values)}
        try:
            cols = [col_of[assignment[name]] for name in self.var_names]
        except KeyError:
            return None
        if (len(assignment) != len(cols) or len(set(cols)) != len(cols)
                or not self.domain_mask[range(len(cols)), cols].all()):
            return None
        return cols

    def value(self, cols: Sequence[int]) -> float:
        """Objective of the placement *cols*: the terms' scores summed
        in term order, as Python floats.

        A warm start is seeded with this float. Among optima equal to
        within rounding it decides which one the search returns (see the
        module docstring), so it is not read from the merged matrices,
        whose sum can round differently.
        """
        return sum(float(scores[cols[i]] if j < 0
                         else scores[cols[i], cols[j]])
                   for i, j, scores in self.terms)


def assignment_matrices(var_names: Sequence[str], values: np.ndarray,
                        domain_mask: np.ndarray,
                        terms: Sequence[Term]) -> AssignmentMatrices:
    """Sum score *terms* into the matrices of an assignment problem.

    Args:
        var_names: Variable names in branching-preference order.
        values: Sorted raw values, one per column.
        domain_mask: ``(n, H)`` bool — column ``c`` allowed for var ``i``.
        terms: Unary and pair :data:`Term` s over those variables and
            columns (a pair's two variables differ).

    Unary rows start at ``0.0``. Each pair slice is ``-inf`` on its
    diagonal and outside the two domains, is stored with its lower
    variable index first (transposed when ``i > j``), and a second slice
    for the same pair adds its finite entries to the first.
    """
    unary = np.where(domain_mask, 0.0, _NEG_INF)
    pair_slices: Dict[Tuple[int, int], np.ndarray] = {}
    for i, j, scores in terms:
        if j < 0:
            unary[i] += np.where(domain_mask[i], scores, 0.0)
            continue
        region = np.logical_and.outer(domain_mask[i], domain_mask[j])
        np.fill_diagonal(region, False)
        mat = np.where(region, scores, _NEG_INF)
        if i > j:
            i, j = j, i
            mat = mat.T
        if (i, j) in pair_slices:
            pair_slices[i, j] = pair_slices[i, j] + np.where(
                np.isfinite(mat), mat, 0.0)
        else:
            pair_slices[i, j] = mat
    pair_vars = sorted(pair_slices)
    if pair_vars:
        pair_tensor = np.stack([pair_slices[k] for k in pair_vars])
    else:
        pair_tensor = np.empty((0, len(values), len(values)))
    factored = _factor_pair_tensor(pair_tensor)
    base, xs, ys, slack = factored if factored is not None \
        else (None, None, None, None)
    return AssignmentMatrices(
        var_names=list(var_names), values=values, domain_mask=domain_mask,
        unary=unary, pair_vars=pair_vars, pair_tensor=pair_tensor,
        pair_base=base, pair_x=xs, pair_y=ys, pair_slack=slack,
        terms=list(terms))


def _factor_pair_tensor(PT: np.ndarray) -> Optional[Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Fit every pair slice as a nonnegative ``x*B + y*B.T`` combo.

    The Eq.-12 model builds each slice from one device-wide CNOT
    log-reliability matrix ``L``: slice ``t`` for interacting pair
    ``(qc, qt)`` is ``count_fwd * L + count_rev * L.T`` (ordered-pair
    counts of the two CNOT directions). The whole tensor therefore
    lives in the two-dimensional span of any one asymmetric slice and
    its transpose. Detecting that lets :meth:`VectorSearch._terms`
    compute the free-set maxima of all ``T`` slices from ``H x H``
    masked reductions of the base instead of ``T x H x H`` ones.

    Safety: the returned ``(B, x, y, s)`` guarantees
    ``PT[t] <= x[t]*B + y[t]*B.T + s[t]`` elementwise (so every bound
    built from it stays admissible), with relative slack below 1e-9
    (so pruning power is unchanged in practice). Returns ``None`` —
    keeping the exact dense path — when the slices do not share the
    structure: mismatched feasibility patterns, negative fitted
    coefficients, or slack above the tightness threshold.
    """
    T = PT.shape[0]
    if T < 2:
        return None
    finite = np.isfinite(PT)
    pattern = finite[0]
    if not np.array_equal(pattern, pattern.T):
        return None
    if not (finite == pattern[None]).all():
        return None
    if not pattern.any():
        return None
    # Base: the most asymmetric slice, so span{B, B.T} is as close to
    # two-dimensional as this tensor allows (a symmetric base could
    # never express asymmetric siblings).
    asym = np.abs(np.where(pattern, PT, 0.0)
                  - np.where(pattern, PT, 0.0).transpose(0, 2, 1))
    t0 = int(np.argmax(asym.reshape(T, -1).max(axis=1)))
    base = PT[t0]
    flat = PT[:, pattern]
    b1 = base[pattern]
    b2 = base.T[pattern]
    design = np.stack([b1, b2], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, flat.T, rcond=None)
    xs, ys = coeffs[0], coeffs[1]
    scale = np.abs(flat).max(axis=1)
    tol = 1e-9 * np.maximum(scale, 1e-300)
    if (xs < -tol).any() or (ys < -tol).any():
        return None
    xs = np.maximum(xs, 0.0)
    ys = np.maximum(ys, 0.0)
    diff = flat - (xs[:, None] * b1[None, :] + ys[:, None] * b2[None, :])
    if (np.abs(diff).max(axis=1) > tol).any():
        return None
    slack = np.maximum(diff.max(axis=1), 0.0)
    return base, xs, ys, slack


class _TimeUp(Exception):
    """Internal: the time or node budget interrupted the search."""


def _by_bound(cols: List[int], bounds: List[float]) -> List[int]:
    """``cols`` by descending bound, ties in column order: the order of
    ``np.argsort(-bounds, kind="stable")`` (a reversed Python sort stays
    stable)."""
    order = sorted(range(len(cols)), key=bounds.__getitem__, reverse=True)
    return [cols[k] for k in order]


class VectorSearch:
    """Depth-first branch-and-bound over compiled assignment matrices.

    The search maximizes; all incumbent comparisons are exact.
    """

    def __init__(self, mats: AssignmentMatrices,
                 time_limit: Optional[float] = None,
                 node_limit: Optional[int] = None,
                 start: Optional[float] = None) -> None:
        self.m = mats
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.start = time.perf_counter() if start is None else start
        self.best_cols: Optional[np.ndarray] = None
        self.best_value = _NEG_INF
        self.nodes = 0
        self.prunes = 0
        self.incumbents = 0
        self.truncated = False
        self._pair_i = np.array([i for i, _ in mats.pair_vars], dtype=np.intp)
        self._pair_j = np.array([j for _, j in mats.pair_vars], dtype=np.intp)
        self._buf: Optional[np.ndarray] = None  # dense-path scratch
        self._fact = mats.pair_base is not None and len(self._pair_i) > 0
        if self._fact:
            # Factored fast path: per-pair bookkeeping lives in plain
            # Python containers — at mapping sizes (H <= 36, T <= ~60)
            # scalar loops over a variable's incident pairs beat numpy's
            # per-call overhead by an order of magnitude. numpy runs
            # only on a memo miss (see _terms).
            T = len(self._pair_i)
            self._stl = [0] * T  # bit 0: var i assigned; bit 1: var j
            self._incl_i = [np.where(self._pair_i == v)[0].tolist()
                            for v in range(mats.n_vars)]
            self._incl_j = [np.where(self._pair_j == v)[0].tolist()
                            for v in range(mats.n_vars)]
            self._xl = mats.pair_x.tolist()
            self._yl = mats.pair_y.tolist()
            self._sl = mats.pair_slack.tolist()
            self._pil = self._pair_i.tolist()
            self._pjl = self._pair_j.tolist()
            self._PTl = mats.pair_tensor.tolist()
            self._unary_l = mats.unary.tolist()
            self._asg = [-1] * mats.n_vars  # mirror of ``assigned``
            # Bound aggregates over pair categories, maintained by
            # _fact_push/_fact_pop with exact (saved-value) restoration
            # so the state at a node is a pure function of the
            # assignment path:
            # * ``_wp[c]``/``_wq[c]``: coefficient mass multiplying
            #   ``P[c]``/``Q[c]`` for half-assigned pairs whose fixed
            #   endpoint sits at column ``c``;
            # * ``_s_half``: slack mass of half-assigned pairs;
            # * ``_xf``/``_yf``/``_sf``: coefficient mass of fully
            #   unassigned pairs.
            self._wp = [0.0] * mats.n_cols
            self._wq = [0.0] * mats.n_cols
            self._s_half = 0.0
            self._xf = float(mats.pair_x.sum())
            self._yf = float(mats.pair_y.sum())
            self._sf = float(mats.pair_slack.sum())
            # The node's sets as one int: bit ``v`` marks an unassigned
            # variable, bit ``n_vars + c`` a free column. It keys the
            # memo of everything a node computes from those two sets.
            self._nv = mats.n_vars
            self._open = (1 << mats.n_vars) - 1
            self._key = ((1 << mats.n_cols) - 1) << mats.n_vars | self._open
            self._memo: Dict[int, tuple] = {}
            # Every clamped base maximum is a base entry or the clamp
            # value: memo entries share these float objects.
            self._pool = {v: v for v in mats.pair_base.ravel().tolist()}
            self._pool[_BIG_NEG] = _BIG_NEG
            # Coupled-bound data (see _coupled_bounds). Slice
            # ``_slices[v, i]`` of ``_oriented`` holds, at ``[c, l]``,
            # the score of the pair of ``v`` and ``i`` with ``v`` at
            # column ``c`` and ``i`` at ``l``: pair ``t`` from its first
            # variable, ``T + t`` from its second, and for two variables
            # without a pair the last slice, zeros with a -inf diagonal.
            PT, H = mats.pair_tensor, mats.n_cols
            apart = np.zeros((1, H, H))
            np.fill_diagonal(apart[0], _NEG_INF)
            self._oriented = np.concatenate(
                [PT, PT.transpose(0, 2, 1), apart])
            self._slices = np.full((mats.n_vars, mats.n_vars), 2 * T,
                                   dtype=np.intp)
            self._slices[self._pair_i, self._pair_j] = np.arange(T)
            self._slices[self._pair_j, self._pair_i] = T + np.arange(T)
            # ``_rows[i, l]``: variable i's exact score at column l
            # against the placed variables (unary plus placed pairs),
            # maintained by _fact_push/_fact_pop like ``_wp``/``_wq``.
            self._rows = mats.unary.copy()
            # ``_coef[i, :, j]``: the P, Q and slack coefficients of the
            # pair of i and j seen from i (x and y swap when i is the
            # pair's second variable); zero without a pair.
            coef = np.zeros((mats.n_vars, 3, mats.n_vars))
            coef[self._pair_i, :, self._pair_j] = np.stack(
                [mats.pair_x, mats.pair_y, mats.pair_slack], axis=1)
            coef[self._pair_j, :, self._pair_i] = np.stack(
                [mats.pair_y, mats.pair_x, mats.pair_slack], axis=1)
            self._coef = coef
            self._ones = np.ones(mats.n_cols)

            def magnitude(a: np.ndarray) -> np.ndarray:
                return np.where(np.isfinite(a), np.abs(a), 0.0)
            self._margin = COUPLED_MARGIN * float(
                magnitude(mats.unary).max(axis=1).sum()
                + magnitude(PT).max(axis=(1, 2)).sum())

    # ------------------------------------------------------------------
    def seed(self, cols: np.ndarray, value: float) -> None:
        """Warm-start incumbent (validated by the caller)."""
        self.best_cols = np.asarray(cols, dtype=np.intp).copy()
        self.best_value = float(value)
        self.incumbents += 1

    def root_var(self) -> int:
        """The variable branched at the root (deterministic)."""
        counts = self.m.domain_mask.sum(axis=1)
        return int(np.argmin(counts))

    def root_candidates(self) -> np.ndarray:
        """Root candidate columns in canonical exploration order.

        Ordered by child bound descending with column-ascending
        tie-break — the order :meth:`run` explores them in.
        """
        assigned = np.full(self.m.n_vars, -1, dtype=np.intp)
        free = np.ones(self.m.n_cols, dtype=bool)
        sel = self.root_var()
        cand = np.where(self.m.domain_mask[sel])[0]
        if len(cand) <= 1:
            return cand
        if self._fact:
            # Same routine as _node, so the root orders its children
            # exactly as every other node does.
            _, cols, bounds = self._child_plan(0.0)
            return np.array(_by_bound(cols, bounds), dtype=np.intp)
        RM, CM = self._edge_maxima(free)
        bounds = self._child_bounds(sel, assigned, free, 0.0, RM, CM)
        order = np.argsort(-bounds[cand], kind="stable")
        return cand[order]

    def run(self) -> bool:
        """Search; returns False when the budget interrupted it."""
        assigned = np.full(self.m.n_vars, -1, dtype=np.intp)
        free = np.ones(self.m.n_cols, dtype=bool)
        sel = self.root_var()
        try:
            for col in self.root_candidates().tolist():
                self._descend(sel, col, assigned, free, 0.0)
            return True
        except _TimeUp:
            return False

    # ------------------------------------------------------------------
    def _fact_push(self, var: int, col: int) -> Tuple[float, tuple]:
        """Commit ``var := col`` into the factored bookkeeping.

        Returns the objective delta of the assignment plus an opaque
        token for :meth:`_fact_pop`. Every variable's row of ``_rows``
        gains its score against ``var`` at ``col``. Aggregate
        restoration is by saved value (the column weight lists and
        ``_rows`` are copied on write), not inverse
        arithmetic — floating-point ``(w + a) - a`` need not equal
        ``w``. So the state at a node depends only on the assignment
        path, never on sibling subtrees explored before it, and every
        bound equals ``tests/vector_reference.py``'s float for float.
        """
        stl, asg = self._stl, self._asg
        xl, yl, sl = self._xl, self._yl, self._sl
        pil, pjl, PTl = self._pil, self._pjl, self._PTl
        saved = (self._xf, self._yf, self._sf, self._s_half,
                 self._wp, self._wq, self._rows)
        xf, yf, sf, s_half = saved[:4]
        wp = self._wp = self._wp[:]
        wq = self._wq = self._wq[:]
        self._rows = self._rows + self._oriented[self._slices[var], col]
        delta = self._unary_l[var][col]
        for t in self._incl_i[var]:
            s0 = stl[t]
            if s0 == 2:  # completing: partner j already placed
                b = asg[pjl[t]]
                delta += PTl[t][col][b]
                wp[b] -= yl[t]
                wq[b] -= xl[t]
                s_half -= sl[t]
            else:  # both free -> half-assigned with i at col
                xf -= xl[t]
                yf -= yl[t]
                sf -= sl[t]
                wp[col] += xl[t]
                wq[col] += yl[t]
                s_half += sl[t]
            stl[t] = s0 | 1
        for t in self._incl_j[var]:
            s0 = stl[t]
            if s0 == 1:
                a = asg[pil[t]]
                delta += PTl[t][a][col]
                wp[a] -= xl[t]
                wq[a] -= yl[t]
                s_half -= sl[t]
            else:
                xf -= xl[t]
                yf -= yl[t]
                sf -= sl[t]
                wp[col] += yl[t]
                wq[col] += xl[t]
                s_half += sl[t]
            stl[t] = s0 | 2
        self._xf, self._yf, self._sf, self._s_half = xf, yf, sf, s_half
        asg[var] = col
        self._key ^= 1 << var | 1 << (self._nv + col)
        return delta, saved

    def _fact_pop(self, var: int, token: tuple) -> None:
        """Exact-restore the factored bookkeeping of one assignment."""
        stl = self._stl
        for t in self._incl_i[var]:
            stl[t] &= ~1
        for t in self._incl_j[var]:
            stl[t] &= ~2
        (self._xf, self._yf, self._sf, self._s_half,
         self._wp, self._wq, self._rows) = token
        self._key ^= 1 << var | 1 << (self._nv + self._asg[var])
        self._asg[var] = -1

    def _descend(self, var: int, col: int, assigned: np.ndarray,
                 free: np.ndarray, fixed: float) -> None:
        """Assign ``var := col`` and expand the child node."""
        token = None
        if self._fact:
            delta, token = self._fact_push(var, col)
        else:
            delta = float(self.m.unary[var, col])
            PT, pi, pj = self.m.pair_tensor, self._pair_i, self._pair_j
            if len(pi):
                t_i = np.where((pi == var) & (assigned[pj] >= 0))[0]
                if len(t_i):
                    delta += float(PT[t_i, col, assigned[pj[t_i]]].sum())
                t_j = np.where((pj == var) & (assigned[pi] >= 0))[0]
                if len(t_j):
                    delta += float(PT[t_j, assigned[pi[t_j]], col].sum())
        assigned[var] = col
        free[col] = False
        self._node(assigned, free, fixed + delta)
        assigned[var] = -1
        free[col] = True
        if token is not None:
            self._fact_pop(var, token)

    def _node(self, assigned: np.ndarray, free: np.ndarray,
              fixed: float) -> None:
        self._tick()
        if self._fact:
            if not self._key & self._open:
                self._leaf(assigned, fixed)
                return
            # Per-candidate bounds via aggregated base maxima; the
            # child-level prune below subsumes the node-level one (the
            # node bound dominates every child bound, so a prunable node
            # has no live candidates).
            plan = self._child_plan(fixed)
            if plan is None:
                return
            sel, cand, bounds = plan
            best = self.best_value
            unseeded = self.best_cols is None
            live = [(b, c) for c, b in zip(cand, bounds)
                    if unseeded or b > best]
            self.prunes += len(cand) - len(live)
            live.sort(key=itemgetter(0), reverse=True)
            if live:
                coupled = self._coupled_bounds(fixed, [c for _, c in live])
                if coupled is not None:
                    # _expand tests the lower of the two bounds against
                    # the live incumbent; the factored one keeps the order.
                    live = [(min(b, u), c)
                            for (b, c), u in zip(live, coupled)]
            self._expand(sel, live, assigned, free, fixed)
            return
        unassigned = np.where(assigned < 0)[0]
        if len(unassigned) == 0:
            self._leaf(assigned, fixed)
            return
        avail = self.m.domain_mask[unassigned] & free
        counts = avail.sum(axis=1)
        if counts.min() == 0:
            return
        sel_pos = int(np.argmin(counts))
        sel = int(unassigned[sel_pos])
        RM, CM = self._edge_maxima(free)
        bound = self._node_bound(assigned, free, fixed, unassigned,
                                 avail, RM, CM)
        if self.best_cols is not None and bound <= self.best_value:
            self.prunes += 1
            return
        bounds = self._child_bounds(sel, assigned, free, fixed, RM, CM)
        cand = np.where(avail[sel_pos])[0]
        cb = bounds[cand]
        if self.best_cols is not None:
            live = cb > self.best_value
            self.prunes += int(len(cand) - int(live.sum()))
            cand, cb = cand[live], cb[live]
        order = np.argsort(-cb, kind="stable")
        self._expand(sel, zip(cb[order].tolist(), cand[order].tolist()),
                     assigned, free, fixed)

    def _leaf(self, assigned: np.ndarray, fixed: float) -> None:
        if fixed > self.best_value:
            self.best_value = fixed
            self.best_cols = assigned.copy()
            self.incumbents += 1

    def _expand(self, sel: int, children, assigned: np.ndarray,
                free: np.ndarray, fixed: float) -> None:
        """Descend into ``(bound, col)`` children in the given order,
        re-checking each bound against the incumbent as it improves."""
        for bound, col in children:
            if self.best_cols is not None and bound <= self.best_value:
                self.prunes += 1
                continue
            self._descend(sel, col, assigned, free, fixed)

    # ------------------------------------------------------------------
    def _edge_maxima(self, free: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Row/column maxima of every pair slice over free columns/rows.

        ``RM[t, a]`` bounds pair ``t`` when var *i* sits at column *a*
        and var *j* is anywhere free (the -inf diagonal excludes the
        collision); ``CM[t, b]`` is the mirror for a fixed *j*. Only the
        dense path calls this; a factored model with pairs never does.
        """
        m = self.m
        PT = m.pair_tensor
        if PT.shape[0] == 0:
            empty = np.empty((0, m.n_cols))
            return empty, empty
        if self._buf is None:
            self._buf = np.empty_like(PT)
        buf = self._buf
        np.copyto(buf, PT)
        buf[:, :, ~free] = _NEG_INF
        RM = buf.max(axis=2)
        np.copyto(buf, PT)
        buf[:, ~free, :] = _NEG_INF
        CM = buf.max(axis=1)
        return RM, CM

    def _node_bound(self, assigned: np.ndarray, free: np.ndarray,
                    fixed: float, unassigned: np.ndarray,
                    avail: np.ndarray, RM: np.ndarray,
                    CM: np.ndarray) -> float:
        bound = fixed + float(np.where(avail, self.m.unary[unassigned],
                                       _NEG_INF).max(axis=1).sum())
        if len(self._pair_i) == 0:
            return bound
        ai = assigned[self._pair_i]
        aj = assigned[self._pair_j]
        i_only = np.where((ai >= 0) & (aj < 0))[0]
        j_only = np.where((ai < 0) & (aj >= 0))[0]
        both = np.where((ai < 0) & (aj < 0))[0]
        if len(i_only):
            bound += float(RM[i_only, ai[i_only]].sum())
        if len(j_only):
            bound += float(CM[j_only, aj[j_only]].sum())
        if len(both):
            bound += float(np.where(free, RM[both], _NEG_INF)
                           .max(axis=1).sum())
        return bound

    def _child_bounds(self, sel: int, assigned: np.ndarray,
                      free: np.ndarray, fixed: float, RM: np.ndarray,
                      CM: np.ndarray) -> np.ndarray:
        """Admissible bound for every candidate column of ``sel``.

        One vectorized pass: pairs touching ``sel`` contribute exact
        per-column vectors, everything else an optimistic constant over
        the parent's free set (a superset of any child's — admissible).
        """
        m = self.m
        bounds = fixed + m.unary[sel].astype(float, copy=True)
        unassigned = np.where(assigned < 0)[0]
        others = unassigned[unassigned != sel]
        if len(others):
            o_avail = m.domain_mask[others] & free
            bounds += float(np.where(o_avail, m.unary[others], _NEG_INF)
                            .max(axis=1).sum())
        if len(self._pair_i) == 0:
            return bounds
        PT, pi, pj = m.pair_tensor, self._pair_i, self._pair_j
        ai, aj = assigned[pi], assigned[pj]
        sel_i = pi == sel
        sel_j = pj == sel
        t = np.where(sel_i & (aj >= 0))[0]
        if len(t):
            bounds += PT[t, :, aj[t]].sum(axis=0)
        t = np.where(sel_j & (ai >= 0))[0]
        if len(t):
            bounds += PT[t, ai[t], :].sum(axis=0)
        t = np.where(sel_i & (aj < 0))[0]
        if len(t):
            bounds += RM[t].sum(axis=0)
        t = np.where(sel_j & (ai < 0))[0]
        if len(t):
            bounds += CM[t].sum(axis=0)
        rest_i = np.where(~sel_i & ~sel_j & (ai >= 0) & (aj < 0))[0]
        if len(rest_i):
            bounds += float(RM[rest_i, ai[rest_i]].sum())
        rest_j = np.where(~sel_i & ~sel_j & (ai < 0) & (aj >= 0))[0]
        if len(rest_j):
            bounds += float(CM[rest_j, aj[rest_j]].sum())
        rest_b = np.where(~sel_i & ~sel_j & (ai < 0) & (aj < 0))[0]
        if len(rest_b):
            bounds += float(np.where(free, RM[rest_b], _NEG_INF)
                            .max(axis=1).sum())
        return bounds

    def _terms(self) -> tuple:
        """Everything the node computes from its two sets, memoized.

        The branching variable, its candidate columns, the clamped base
        maxima ``P``/``Q`` over all columns and their maxima over free
        columns, and the numpy sum ``S`` of the unassigned rows' unary
        maxima with the branching row's own maximum ``r`` (kept apart,
        so that ``(fixed + S) - r`` rounds as in the numpy formulation),
        then the coupled bound's terms (:meth:`_coupled_terms`).
        Empty on a wipeout (some unassigned variable has no free column
        left). Nothing here depends on the assignment's columns or the
        incumbent, so an entry holds for every node with the same key.
        """
        key = self._key
        terms = self._memo.get(key)
        if terms is not None:
            return terms
        m = self.m
        n = m.n_vars
        unassigned = np.array([v for v in range(n) if key >> v & 1],
                              dtype=np.intp)
        free = np.array([key >> (n + c) & 1 for c in range(m.n_cols)],
                        dtype=bool)
        avail = m.domain_mask[unassigned] & free
        counts = avail.sum(axis=1)
        if counts.min() == 0:
            terms = ()
        else:
            sel_pos = int(np.argmin(counts))
            sel = int(unassigned[sel_pos])
            cand = np.where(avail[sel_pos])[0]
            B = m.pair_base
            P = np.where(free, B, _NEG_INF).max(axis=1)
            Q = np.where(free[:, None], B, _NEG_INF).max(axis=0)
            # Clamp impossible rows to a huge finite negative: 0 * -inf
            # is NaN, while 0 * -1e300 is the correct zero contribution
            # of a pair whose coefficient on that base component is zero.
            np.maximum(P, _BIG_NEG, out=P)
            np.maximum(Q, _BIG_NEG, out=Q)
            # Every row max is finite: counts.min() > 0.
            rowmax = np.where(avail, m.unary[unassigned],
                              _NEG_INF).max(axis=1)
            pool = self._pool
            terms = (sel, cand.tolist(),
                     [pool[v] for v in P.tolist()],
                     [pool[v] for v in Q.tolist()],
                     float(rowmax.sum()), float(rowmax[sel_pos]),
                     pool[float(P[free].max())], pool[float(Q[free].max())],
                     self._coupled_terms(sel, unassigned, P, Q))
        if len(self._memo) >= MEMO_ENTRIES:
            self._memo.clear()
        self._memo[key] = terms
        return terms

    def _coupled_terms(self, sel: int, unassigned: np.ndarray,
                       P: np.ndarray, Q: np.ndarray
                       ) -> Optional[Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]]:
        """The free-set part of :meth:`_coupled_bounds`, for the memo.

        ``None`` when ``sel`` is the last open variable (its children
        are leaves, whose factored bound is already exact). Otherwise the
        other open variables, their slice indices against ``sel``, and
        ``half[k, l]``: half of every pair between the k-th of them and
        another of them (``sel`` excluded), each at its half-pair bound
        ``x*P[l] + y*Q[l] + s`` (x and y swapped on the pair's second
        variable). Each such pair scores at most each endpoint's bound,
        so at most half their sum. O(n*H) from the clamped base maxima
        ``P``/``Q``: nothing here reduces over the pair tensor. Placed
        columns need no mask: every slice has a -inf diagonal, so
        ``_rows`` is -inf there (a finite one would only loosen the
        bound).
        """
        others = unassigned[unassigned != sel]
        if not len(others):
            return None
        inner = np.zeros(self.m.n_vars)
        inner[others] = 1.0
        half = 0.5 * self._coef[others].dot(inner).dot(
            np.array((P, Q, self._ones)))
        return others, self._slices[sel, others], half

    def _coupled_bounds(self, fixed: float,
                        cols: List[int]) -> Optional[List[float]]:
        """Coupled bounds, margin included, of children ``sel := c``.

        For each column ``c`` of ``cols`` (free domain columns of the
        node's branching variable ``sel``):
        ``fixed + rows[sel, c] + sum_i max_l (rows[i, l] + half[i, l] +
        pair(i at l, sel at c))`` over the other open variables ``i``
        and free columns ``l != c``, where ``rows`` holds the exact
        scores against placed variables (see :meth:`_fact_push`) and
        ``half`` the memoized open-pair halves (:meth:`_coupled_terms`).
        The parent's free set contains every child's, so the bound holds
        for every leaf below the child. ``None`` when the children are
        leaves.
        """
        terms = self._terms()
        if terms[8] is None:
            return None
        sel, (others, slices, half) = terms[0], terms[8]
        rows = self._rows
        at = np.array(cols, dtype=np.intp)
        scores = self._oriented[slices, at[:, None]]
        scores += half + rows[others]
        bounds = scores.max(axis=2).sum(axis=1)
        bounds += rows[sel][at]
        bounds += fixed + self._margin
        return bounds.tolist()

    def _child_plan(self, fixed: float
                    ) -> Optional[Tuple[int, List[int], List[float]]]:
        """Branching variable, candidate columns and their bounds.

        ``None`` on a wipeout; the node must not be a leaf. Bounds come
        from the factored pair tensor in Python floats, with the memoized
        free-set terms of :meth:`_terms`, grouped by the incremental
        assignment status ``_stl`` (see :meth:`_fact_push`):

        * pairs touching ``sel`` with an assigned partner contribute
          their exact tensor column/row;
        * pairs touching ``sel`` with a free partner contribute
          ``sum(x)*P + sum(y)*Q`` (per candidate);
        * half-assigned pairs elsewhere contribute the scalar
          ``x*P[a] + y*Q[a]`` at their fixed endpoint;
        * fully-free pairs elsewhere contribute the decoupled scalar
          ``x*max(P) + y*max(Q)`` over free columns — the one place
          this path is (admissibly) looser than the dense maxima.

        Every operation runs in the order of the numpy formulation in
        ``tests/vector_reference.py``, so every bound is the same float
        as there. These bounds alone order the children and make the
        first, exact prune. :meth:`_node` then also tests each child they
        keep against its coupled bound (:meth:`_coupled_bounds`), which
        carries a margin of :data:`COUPLED_MARGIN` times the model's
        score magnitude because it sums a leaf's terms in another order:
        the child is dropped when that bound is <= the incumbent. Only
        prunes change, never the order, so the search records the same
        incumbents as without it.
        """
        terms = self._terms()
        if not terms:
            return None
        sel, cand, Pl, Ql, S, r, pmax, qmax, _ = terms
        stl, asg = self._stl, self._asg
        xl, yl, sl = self._xl, self._yl, self._sl
        pil, pjl, PTl = self._pil, self._pjl, self._PTl
        # One scalar pass over sel's incident pairs: exact categories
        # collect tensor rows, free-partner categories accumulate
        # coefficient sums, and ``sub`` removes sel's own pairs from
        # the node-level half-assigned aggregates below.
        exact_i: List[Tuple[int, int]] = []
        exact_j: List[Tuple[int, int]] = []
        cxi = cyi = csi = cxj = cyj = csj = 0.0
        sub = 0.0
        for t in self._incl_i[sel]:
            if stl[t] == 2:
                b = asg[pjl[t]]
                exact_i.append((t, b))
                sub += yl[t] * Pl[b] + xl[t] * Ql[b] + sl[t]
            else:
                cxi += xl[t]
                cyi += yl[t]
                csi += sl[t]
        for t in self._incl_j[sel]:
            if stl[t] == 1:
                a = asg[pil[t]]
                exact_j.append((t, a))
                sub += xl[t] * Pl[a] + yl[t] * Ql[a] + sl[t]
            else:
                cxj += xl[t]
                cyj += yl[t]
                csj += sl[t]
        # Half-assigned pairs elsewhere: the maintained column weights
        # against P/Q, minus sel's own contributions.
        half = self._s_half - sub
        for w, p in zip(self._wp, Pl):
            if w:
                half += w * p
        for w, q in zip(self._wq, Ql):
            if w:
                half += w * q
        rxf = self._xf - cxi - cxj
        ryf = self._yf - cyi - cyj
        rsf = self._sf - csi - csj
        if rxf or ryf:
            rest = half + rxf * pmax + ryf * qmax + rsf
        else:
            rest = half + rsf
        base_c = fixed + S - r + rest + csi + csj
        coef_p = cxi + cyj
        coef_q = cyi + cxj
        ul = self._unary_l[sel]
        if coef_p or coef_q:
            bounds = [ul[c] + ((coef_p * Pl[c] + coef_q * Ql[c]) + base_c)
                      for c in cand]
        else:
            bounds = [ul[c] + base_c for c in cand]
        # Each exact group is summed from zero, row by row, then added
        # (numpy's axis-0 sum of the gathered rows).
        if exact_i:
            acc = repeat(0.0)
            for t, b in exact_i:
                rows = PTl[t]
                acc = map(add, acc, [rows[c][b] for c in cand])
            bounds = list(map(add, bounds, acc))
        if exact_j:
            acc = repeat(0.0)
            for t, a in exact_j:
                acc = map(add, acc, map(PTl[t][a].__getitem__, cand))
            bounds = list(map(add, bounds, acc))
        return sel, cand, bounds

    def _tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            self.truncated = True
            raise _TimeUp
        if self.time_limit is not None and self.nodes % 256 == 0:
            if time.perf_counter() - self.start > self.time_limit:
                raise _TimeUp
