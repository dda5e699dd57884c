"""Tests for the vectorized solver fast path.

Covers the determinism contracts the mapping pipeline relies on:

* the vector engine returns the same optimum as the generic reference
  engine on random assignment problems;
* the rank-2 pair-tensor factorization is admissible and rejects
  tensors it cannot represent;
* warm starts are validated (garbage falls back to a cold search) and
  interrupted searches still return the best incumbent.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions
from repro.compiler.mapping import smt as smt_mod
from repro.compiler.mapping.smt import ReliabilitySmtMapper, reliability_model
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    square_topology,
)
from repro.programs import random_circuit
from repro.solver import (
    AllDifferent,
    BranchAndBoundSolver,
    Model,
    PairTerm,
    SumObjective,
    UnaryTerm,
)
from repro.solver.bounds import _factor_pair_tensor, compile_assignment


def _random_qap(seed: int, n_vars: int = 4, n_vals: int = 6) -> Model:
    rng = np.random.default_rng(seed)
    unary = rng.uniform(0, 10, size=(n_vars, n_vals))
    pair = rng.uniform(0, 10, size=(n_vals, n_vals))
    m = Model()
    for i in range(n_vars):
        m.add_variable(f"q{i}", range(n_vals))
    m.add_constraint(AllDifferent([f"q{i}" for i in range(n_vars)]))
    terms = [UnaryTerm(f"q{i}", lambda v, i=i: float(unary[i][v]))
             for i in range(n_vars)]
    for i in range(n_vars - 1):
        terms.append(PairTerm(f"q{i}", f"q{i + 1}",
                              lambda a, b: float(pair[a][b])))
    m.objective = SumObjective(terms)
    return m


def _mapping_instance(n: int = 6, gates: int = 96, seed: int = 2019):
    circ = random_circuit(n, gates, seed=seed)
    topo = square_topology(max(n, 4))
    cal = CalibrationGenerator(topo, seed=2019).snapshot(0)
    tables = ReliabilityTables(cal)
    model, search_qubits = reliability_model(circ, cal, tables, 0.5)
    return circ, cal, tables, model, search_qubits


class TestEngineParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_vector_matches_generic_optimum(self, seed):
        m = _random_qap(seed)
        generic = BranchAndBoundSolver(engine="generic").solve(m)
        vector = BranchAndBoundSolver(engine="vector").solve(m)
        assert generic.optimal and vector.optimal
        assert vector.objective == pytest.approx(generic.objective,
                                                 abs=1e-9)
        assert vector.stats is not None
        assert vector.stats.engine == "vector"

    def test_auto_routes_assignment_models_to_vector(self):
        m = _random_qap(7)
        result = BranchAndBoundSolver(engine="auto").solve(m)
        assert result.stats is not None and result.stats.engine == "vector"

    def test_vector_matches_generic_on_mapping_model(self):
        _, _, _, model, _ = _mapping_instance()
        generic = BranchAndBoundSolver(engine="generic").solve(model)
        vector = BranchAndBoundSolver(engine="vector").solve(model)
        assert generic.optimal and vector.optimal
        assert vector.objective == pytest.approx(generic.objective,
                                                 abs=1e-9)


class TestPairFactorization:
    def test_rank2_tensor_recovered(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(-5, 0, size=(5, 5))
        np.fill_diagonal(base, -np.inf)
        xs = rng.uniform(0.5, 3.0, size=4)
        ys = rng.uniform(0.0, 2.0, size=4)
        tensor = xs[:, None, None] * base + ys[:, None, None] * base.T
        fact = _factor_pair_tensor(tensor)
        assert fact is not None
        fb, fx, fy, fs = fact
        finite = np.isfinite(base)
        fit = (fx[:, None, None] * fb + fy[:, None, None] * fb.T
               + fs[:, None, None])
        # Admissibility: fit + slack dominates every finite entry.
        assert np.all(fit[:, finite] >= tensor[:, finite] - 1e-9)
        assert np.allclose(fit[:, finite], tensor[:, finite], atol=1e-6)

    def test_unrelated_slices_rejected(self):
        rng = np.random.default_rng(6)
        t0 = rng.uniform(-5, 0, size=(4, 4))
        t1 = rng.uniform(-5, 0, size=(4, 4))
        tensor = np.stack([t0, t1])
        assert _factor_pair_tensor(tensor) is None

    def test_mapping_model_factorizes(self):
        """R-SMT* tensors are count_fwd*L + count_rev*L.T by design."""
        _, _, _, model, _ = _mapping_instance()
        mats = compile_assignment(model)
        assert mats is not None
        assert mats.pair_base is not None
        assert np.all(mats.pair_slack >= 0.0)


class TestWarmStartAndBudget:
    def test_invalid_warm_start_falls_back_cold(self):
        m = _random_qap(21)
        cold = BranchAndBoundSolver(engine="vector").solve(m)
        garbage = {f"q{i}": 0 for i in range(4)}  # violates AllDifferent
        warm = BranchAndBoundSolver(engine="vector").solve(
            m, initial=garbage)
        assert warm.optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)

    def test_mapper_survives_garbage_warm_start(self, monkeypatch):
        circ, cal, tables, model, sq = _mapping_instance()
        expect = ReliabilitySmtMapper(CompilerOptions()).run(circ, cal, tables)
        monkeypatch.setattr(
            smt_mod, "_greedy_warm_start",
            lambda *a, **k: {smt_mod._var(q): 0 for q in sq})
        out = ReliabilitySmtMapper(CompilerOptions()).run(circ, cal, tables)
        assert out.optimal
        assert out.objective == pytest.approx(expect.objective, abs=1e-9)

    def test_node_budget_returns_best_incumbent(self):
        circ, cal, tables, model, sq = _mapping_instance(gates=128)
        warm = smt_mod._greedy_warm_start(circ, cal, tables, sq)
        warm_value = model.objective.value(warm)
        result = BranchAndBoundSolver(engine="vector", node_limit=5).solve(
            model, initial=warm)
        assert not result.optimal
        assert result.assignment is not None
        assert result.objective >= warm_value - 1e-12
