"""Tests for the factored vector kernel's per-node bounds and answers.

* After any partial assignment pushed through ``_fact_push``, the
  branching variable, candidate columns and per-candidate bounds of
  ``VectorSearch._child_plan`` equal the numpy formulation in
  ``vector_reference`` float for float, on random factored models and
  on real ``reliability_model`` instances at H = 9 and H = 16; the root
  plan equals the reference's too.
* The coupled bound that drops kept children equals its definition in
  ``vector_reference`` to rounding, and, margin included, is at least
  the float the kernel records for every leaf below the child, found by
  brute force; the search with it finds the same incumbents as the
  search without it, seeded or not.
* Shrinking the free-set memo to one or two entries changes no node,
  prune, placement or objective, and the coupled terms live under the
  same cap.
* R-SMT* placements, objectives, node and prune counts on the 12
  Table-2 programs over fig6's 7 daily snapshots, and on the random
  circuits perfbench's ``scale_ladder`` compiles, equal the values
  pinned in ``rsmt_golden.json``.
"""

import functools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.compiler import CompilerOptions
from repro.compiler.mapping.smt import (
    ReliabilitySmtMapper,
    _greedy_warm_start,
    reliability_model,
)
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    ibmq16_topology,
    square_topology,
)
from repro.programs import benchmark_names, get_benchmark, random_circuit
from repro.solver import BranchAndBoundSolver
from repro.solver import bounds as bounds_mod
from repro.solver.bounds import (
    AssignmentMatrices,
    VectorSearch,
    compile_assignment,
)

import vector_reference as ref

_GOLDEN = os.path.join(os.path.dirname(__file__), "rsmt_golden.json")


@st.composite
def _factored_models(draw) -> AssignmentMatrices:
    """Random factored assignment models.

    Scores mix magnitudes so summation order shows in the last bits;
    coefficients and slack may be zero, and base entries off the
    diagonal may be -inf, so the clamped ``0 * -1e300`` terms and
    columns without a feasible partner are exercised.
    """
    n = draw(st.integers(2, 6))
    H = draw(st.integers(n, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, H)) < draw(st.sampled_from([1.0, 0.8, 0.6]))
    for i in range(n):
        mask[i, rng.integers(H)] = True
    scale = 10.0 ** rng.integers(-3, 3, size=(n, H))
    unary = np.where(mask, -rng.random((n, H)) * scale, -np.inf)
    base = -rng.random((H, H)) * 10.0 ** rng.integers(-3, 2, size=(H, H))
    holes = rng.random((H, H)) < draw(st.sampled_from([0.0, 0.2]))
    base[holes | holes.T] = -np.inf
    np.fill_diagonal(base, -np.inf)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = sorted(set(draw(st.lists(st.integers(0, len(pairs) - 1),
                                    min_size=1, max_size=len(pairs)))))
    pair_vars = [pairs[k] for k in keep]
    T = len(pair_vars)

    def coefficients():
        c = rng.random(T) * 4.0
        c[rng.random(T) < 0.25] = 0.0
        return c

    xs, ys = coefficients(), coefficients()
    slack = np.where(rng.random(T) < 0.5, 0.0, rng.random(T) * 1e-10)
    finite = np.isfinite(base)
    with np.errstate(invalid="ignore"):
        fitted = (xs[:, None, None] * base + ys[:, None, None] * base.T)
    tensor = np.where(finite, fitted, -np.inf)
    return AssignmentMatrices(
        var_names=[f"q{i}" for i in range(n)],
        values=np.arange(H, dtype=np.int64), domain_mask=mask,
        unary=unary, pair_vars=pair_vars, pair_tensor=tensor,
        pair_base=base, pair_x=xs, pair_y=ys, pair_slack=slack)


@functools.lru_cache(maxsize=None)
def _real_mats(topology: str, n_qubits: int, n_gates: int,
               seed: int) -> AssignmentMatrices:
    topo = {"sq9": lambda: square_topology(8),
            "sq16": lambda: square_topology(16)}[topology]()
    calibration = CalibrationGenerator(topo, seed=2019).snapshot(0)
    model, _ = reliability_model(random_circuit(n_qubits, n_gates,
                                                seed=seed),
                                 calibration, ReliabilityTables(calibration),
                                 0.5)
    mats = compile_assignment(model)
    assert mats is not None and mats.pair_base is not None
    return mats


_REAL = [("sq9", 8, 128, 2019 + 8 * 10000 + 128), ("sq9", 6, 64, 7),
         ("sq16", 8, 96, 11), ("sq16", 5, 40, 3)]


def _push_random(search, data, fixed: float, max_open: int = None):
    """Push a random partial assignment (each var into its free domain),
    leaving at most ``max_open`` variables open, and return the
    reference arrays plus the pop stack."""
    m = search.m
    assigned = np.full(m.n_vars, -1, dtype=np.intp)
    free = np.ones(m.n_cols, dtype=bool)
    stack = []
    order = data.draw(st.permutations(range(m.n_vars)))
    low = 0 if max_open is None else max(0, m.n_vars - max_open)
    depth = data.draw(st.integers(low, m.n_vars - 1))
    for var in order[:depth]:
        cols = np.where(m.domain_mask[var] & free)[0]
        if len(cols) == 0:
            break
        col = int(cols[data.draw(st.integers(0, len(cols) - 1))])
        delta, token = search._fact_push(var, col)
        fixed += delta
        assigned[var] = col
        free[col] = False
        stack.append((var, token))
    return assigned, free, fixed, stack


def _assert_plan_matches(search, data):
    fixed = data.draw(st.floats(-50.0, 0.0))
    root_key = search._key
    assigned, free, fixed, stack = _push_random(search, data, fixed)
    expect = ref.node_children(search, assigned, free, fixed)
    plan = search._child_plan(fixed)
    if expect is None:
        assert plan is None
    else:
        sel, cand, bounds = expect
        assert plan[0] == sel
        assert plan[1] == cand.tolist()
        assert_array_equal(np.array(plan[2]), bounds)
    for var, token in reversed(stack):
        search._fact_pop(var, token)
    assert search._key == root_key
    assert not any(search._wp) and not any(search._wq)


class TestBoundOracle:
    @given(mats=_factored_models(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_models(self, mats, data):
        search = VectorSearch(mats)
        for _ in range(3):
            _assert_plan_matches(search, data)

    @given(real=st.sampled_from(_REAL), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_reliability_models(self, real, data):
        search = VectorSearch(_real_mats(*real))
        for _ in range(3):
            _assert_plan_matches(search, data)

    @given(mats=_factored_models())
    @settings(max_examples=100, deadline=None)
    def test_root_plan_random(self, mats):
        search = VectorSearch(mats)
        assert_array_equal(search.root_candidates(),
                           ref.root_candidates(search))

    @pytest.mark.parametrize("real", _REAL)
    def test_root_plan_real(self, real):
        search = VectorSearch(_real_mats(*real))
        assert_array_equal(search.root_candidates(),
                           ref.root_candidates(search))


def _leaf_values(search, fixed: float):
    """The float the kernel records for every leaf below the current
    node, found by branching as the kernel does, without pruning."""
    if not search._key & search._open:
        return [fixed]
    plan = search._child_plan(fixed)
    if plan is None:
        return []
    sel, cand, _ = plan
    out = []
    for col in cand:
        delta, token = search._fact_push(sel, col)
        out += _leaf_values(search, fixed + delta)
        search._fact_pop(sel, token)
    return out


def _assert_coupled_admissible(search, data):
    # At most four open variables keep the brute force small; two open
    # make the bound exact, so only the margin separates it from the
    # re-summed leaves.
    assigned, free, fixed, stack = _push_random(search, data, 0.0,
                                                max_open=4)
    plan = search._child_plan(fixed)
    if plan is not None:
        sel, cand, _ = plan
        coupled = search._coupled_bounds(fixed, cand)
        expect = ref.coupled_bounds(search, sel, assigned, free, fixed,
                                    cand)
        if expect is None:
            assert coupled is None
        else:
            np.testing.assert_allclose(
                np.array(coupled) - search._margin, expect, rtol=1e-12,
                atol=search._margin * 1e-3)
            for col, bound in zip(cand, coupled):
                delta, token = search._fact_push(sel, col)
                for leaf in _leaf_values(search, fixed + delta):
                    assert leaf <= bound, (col, leaf, bound)
                search._fact_pop(sel, token)
    for var, token in reversed(stack):
        search._fact_pop(var, token)


def _solve(mats, coupled: bool, seed=None) -> VectorSearch:
    search = VectorSearch(mats)
    if not coupled:
        search._coupled_bounds = lambda fixed, cols: None
    if seed is not None:
        search.seed(*seed)
    assert search.run()
    return search


class TestCoupledBound:
    @given(mats=_factored_models(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_admissible_random_models(self, mats, data):
        search = VectorSearch(mats)
        for _ in range(2):
            _assert_coupled_admissible(search, data)

    @given(real=st.sampled_from(_REAL[:2]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_admissible_reliability_models(self, real, data):
        _assert_coupled_admissible(VectorSearch(_real_mats(*real)), data)

    @given(mats=_factored_models(), seeded=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_incumbents_as_factored_only(self, mats, seeded):
        first = VectorSearch(mats, first_solution_only=True)
        first.run()
        if first.best_cols is None:
            return
        seed = (first.best_cols, first.best_value) if seeded else None
        plain = _solve(mats, coupled=False, seed=seed)
        both = _solve(mats, coupled=True, seed=seed)
        assert both.best_value == plain.best_value
        if plain.best_cols is None:
            assert both.best_cols is None
        else:
            assert_array_equal(both.best_cols, plain.best_cols)
        assert both.incumbents == plain.incumbents
        assert both.nodes <= plain.nodes


class TestMemoCap:
    @pytest.mark.parametrize("cap", [1, 2])
    def test_tiny_memo_same_search(self, monkeypatch, cap):
        n, gates = 8, 128
        circuit = random_circuit(n, gates, seed=2019 + n * 10000 + gates)
        calibration = CalibrationGenerator(square_topology(n),
                                           seed=2019).snapshot(0)
        tables = ReliabilityTables(calibration)
        model, search_qubits = reliability_model(circuit, calibration,
                                                 tables, 0.5)
        warm = _greedy_warm_start(circuit, calibration, tables,
                                  search_qubits)
        solver = BranchAndBoundSolver(engine="vector")
        full = solver.solve(model, initial=warm)
        monkeypatch.setattr(bounds_mod, "MEMO_ENTRIES", cap)
        coupled = VectorSearch._coupled_bounds
        checked = []

        def capped(search, fixed, cols):
            out = coupled(search, fixed, cols)
            assert len(search._memo) <= cap
            checked.append(out is not None)
            return out

        monkeypatch.setattr(VectorSearch, "_coupled_bounds", capped)
        tiny = solver.solve(model, initial=warm)
        assert any(checked)
        assert full.optimal and tiny.optimal
        assert tiny.nodes == full.nodes
        assert tiny.stats.prunes == full.stats.prunes
        assert tiny.assignment == full.assignment
        assert tiny.objective == full.objective


def _pin(result, n_qubits):
    return {"nodes": result.nodes, "prunes": result.stats["prunes"],
            "objective": result.objective,
            "placement": [result.placement[q] for q in range(n_qubits)]}


class TestPinnedAnswers:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(_GOLDEN) as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def mapper(self):
        return ReliabilitySmtMapper(CompilerOptions.r_smt_star(omega=0.5))

    @pytest.mark.parametrize("day", range(7))
    def test_fig6_week(self, golden, mapper, day):
        calibration = CalibrationGenerator(ibmq16_topology(),
                                           seed=2019).snapshot(day)
        tables = ReliabilityTables(calibration)
        pins = golden["fig6_week"][str(day)]
        assert list(pins) == benchmark_names()
        for name in benchmark_names():
            circuit = get_benchmark(name).build()
            result = mapper.run(circuit, calibration, tables)
            assert result.optimal, name
            assert _pin(result, circuit.n_qubits) == pins[name], name

    @pytest.mark.parametrize("n_qubits,n_gates",
                             [(n, g) for n in (4, 8) for g in (128, 256, 512)])
    def test_scale_ladder(self, golden, mapper, n_qubits, n_gates):
        calibration = CalibrationGenerator(
            square_topology(max(n_qubits, 4)), seed=2019).snapshot(0)
        circuit = random_circuit(n_qubits, n_gates,
                                 seed=2019 + n_qubits * 10000 + n_gates)
        result = mapper.run(circuit, calibration,
                            ReliabilityTables(calibration))
        assert result.optimal
        assert _pin(result, n_qubits) \
            == golden["scale_ladder"][f"{n_qubits}q/{n_gates}g"]
