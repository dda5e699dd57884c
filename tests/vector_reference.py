"""Reference numpy bounds for the factored vector kernel (test oracle).

``VectorSearch`` computes each node's per-candidate bounds in Python
floats from terms memoized per (free columns, unassigned variables)
set. The functions here are the numpy formulation it replaced: two
masked ``H x H`` reductions of the pair base per node, the unary
row-max sum, and vector arithmetic over all ``H`` columns. They read
the search's incremental bookkeeping (``_stl``, ``_asg``, the column
weights and the free-pair aggregates) exactly as the kernel did, so a
test can push an assignment through ``_fact_push`` and compare the two
bound by bound. ``root_candidates`` rebuilds the root plan on top of
them. ``coupled_bounds`` is the coupled bound that drops kept
children, written from its definition with per-pair loops instead of
the kernel's incremental rows and memoized halves.
"""

from typing import List

import numpy as np

_NEG_INF = -np.inf
_BIG_NEG = -1e300


def child_bounds_factored(search, sel: int, sel_pos: int,
                          unassigned: np.ndarray, avail: np.ndarray,
                          assigned: np.ndarray, free: np.ndarray,
                          fixed: float) -> np.ndarray:
    """Per-column bounds of ``sel``'s children (all ``H`` columns)."""
    m = search.m
    B = m.pair_base
    P = np.where(free, B, _NEG_INF).max(axis=1)
    Q = np.where(free[:, None], B, _NEG_INF).max(axis=0)
    np.maximum(P, _BIG_NEG, out=P)
    np.maximum(Q, _BIG_NEG, out=Q)
    rowmax = np.where(avail, m.unary[unassigned], _NEG_INF).max(axis=1)
    const = fixed + float(rowmax.sum()) - float(rowmax[sel_pos])
    Pl, Ql = P.tolist(), Q.tolist()
    stl, asg = search._stl, search._asg
    xl, yl, sl = search._xl, search._yl, search._sl
    pil, pjl = search._pil, search._pjl
    exact_i: List[int] = []
    exact_i_at: List[int] = []
    exact_j: List[int] = []
    exact_j_at: List[int] = []
    cxi = cyi = csi = cxj = cyj = csj = 0.0
    sub = 0.0
    for t in search._incl_i[sel]:
        if stl[t] == 2:
            b = asg[pjl[t]]
            exact_i.append(t)
            exact_i_at.append(b)
            sub += yl[t] * Pl[b] + xl[t] * Ql[b] + sl[t]
        else:
            cxi += xl[t]
            cyi += yl[t]
            csi += sl[t]
    for t in search._incl_j[sel]:
        if stl[t] == 1:
            a = asg[pil[t]]
            exact_j.append(t)
            exact_j_at.append(a)
            sub += xl[t] * Pl[a] + yl[t] * Ql[a] + sl[t]
        else:
            cxj += xl[t]
            cyj += yl[t]
            csj += sl[t]
    half = search._s_half - sub
    for w, p in zip(search._wp, Pl):
        if w:
            half += w * p
    for w, q in zip(search._wq, Ql):
        if w:
            half += w * q
    rxf = search._xf - cxi - cxj
    ryf = search._yf - cyi - cyj
    rsf = search._sf - csi - csj
    if rxf or ryf:
        rest = (half + rxf * float(P[free].max())
                + ryf * float(Q[free].max()) + rsf)
    else:
        rest = half + rsf
    base_c = const + rest + csi + csj
    coef_p = cxi + cyj
    coef_q = cyi + cxj
    if coef_p or coef_q:
        bounds = m.unary[sel] + (coef_p * P + coef_q * Q + base_c)
    else:
        bounds = m.unary[sel] + base_c
    if exact_i:
        bounds = bounds + m.pair_tensor[exact_i, :, exact_i_at].sum(axis=0)
    if exact_j:
        bounds = bounds + m.pair_tensor[exact_j, exact_j_at, :].sum(axis=0)
    return bounds


def node_children(search, assigned: np.ndarray, free: np.ndarray,
                  fixed: float):
    """``(sel, cand, bounds)`` of a non-leaf node, ``None`` on a wipeout.

    ``cand`` holds the branching variable's free domain columns in
    ascending order and ``bounds`` their bounds, in that order.
    """
    unassigned = np.where(assigned < 0)[0]
    avail = search.m.domain_mask[unassigned] & free
    counts = avail.sum(axis=1)
    if counts.min() == 0:
        return None
    sel_pos = int(np.argmin(counts))
    sel = int(unassigned[sel_pos])
    bounds = child_bounds_factored(search, sel, sel_pos, unassigned, avail,
                                   assigned, free, fixed)
    cand = np.where(avail[sel_pos])[0]
    return sel, cand, bounds[cand]


def root_candidates(search) -> np.ndarray:
    """The root plan: candidates by bound descending, stable on ties."""
    n, H = search.m.n_vars, search.m.n_cols
    sel = search.root_var()
    cand = np.where(search.m.domain_mask[sel])[0]
    if len(cand) <= 1:
        return cand
    _, cand, bounds = node_children(search, np.full(n, -1, dtype=np.intp),
                                    np.ones(H, dtype=bool), 0.0)
    return cand[np.argsort(-bounds, kind="stable")]


def _oriented(m, i: int, j: int) -> np.ndarray:
    """``[l, k]``: score of the pair of ``i`` and ``j`` with ``i`` at
    column ``l`` and ``j`` at ``k``; zeros with a -inf diagonal (no two
    variables share a column) when the model has no such pair."""
    if (i, j) in m.pair_vars:
        return m.pair_tensor[m.pair_vars.index((i, j))]
    if (j, i) in m.pair_vars:
        return m.pair_tensor[m.pair_vars.index((j, i))].T
    out = np.zeros((m.n_cols, m.n_cols))
    np.fill_diagonal(out, _NEG_INF)
    return out


def coupled_bounds(search, sel: int, assigned: np.ndarray,
                   free: np.ndarray, fixed: float, cols) -> np.ndarray:
    """The coupled bound of children ``sel := c``, ``c`` in ``cols``,
    straight from its definition and without the margin; ``None`` when
    ``sel`` is the last unassigned variable.

    ``fixed + ps[sel][c] + sum_i max_l (U_i[l] + ps[i][l] + P_i,sel[l, c])``
    over the other unassigned ``i`` and free ``l``, where ``ps[i][l]`` is
    i's unary plus its pair scores against the placed variables, and
    ``U_i[l]`` adds half of ``x*P[l] + y*Q[l] + s`` (x, y swapped on the
    pair's second variable) for every pair of i with another unassigned
    variable other than ``sel``.
    """
    m = search.m
    placed = [j for j in range(m.n_vars) if assigned[j] >= 0]
    others = [i for i in range(m.n_vars) if assigned[i] < 0 and i != sel]
    if not others:
        return None
    B = m.pair_base
    P = np.maximum(np.where(free, B, _NEG_INF).max(axis=1), _BIG_NEG)
    Q = np.maximum(np.where(free[:, None], B, _NEG_INF).max(axis=0),
                   _BIG_NEG)

    def ps(i):
        row = m.unary[i].copy()
        for j in placed:
            if (i, j) in m.pair_vars or (j, i) in m.pair_vars:
                row += _oriented(m, i, j)[:, assigned[j]]
        return row

    rows = {}
    for i in others:
        row = ps(i)
        for t, (a, b) in enumerate(m.pair_vars):
            x, y, s = m.pair_x[t], m.pair_y[t], m.pair_slack[t]
            if a == i and b in others:
                row += 0.5 * (x * P + y * Q + s)
            elif b == i and a in others:
                row += 0.5 * (y * P + x * Q + s)
        row[~free] = _NEG_INF
        rows[i] = row
    ps_sel = ps(sel)
    return np.array([
        fixed + ps_sel[c] + sum(float((rows[i] + _oriented(m, i, sel)[:, c])
                                      .max()) for i in others)
        for c in cols])
