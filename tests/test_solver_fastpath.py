"""Tests for the vectorized solver fast path.

Covers the determinism contracts the mapping pipeline relies on:

* R-SMT*'s cost matrices, built directly from the snapshot's tables,
  equal byte for byte (dtype included) the reference compile of the
  closure model kept in ``solver_reference``, on fig6's week, the
  scale_ladder circuits and random circuits at four readout weights;
  the warm start's value is the reference objective's float, bit for
  bit;
* the vector engine on the matrices returns the same optimum as the
  generic engine on the reference model, for random assignment
  problems and a mapping instance;
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
    ibmq16_topology,
    square_topology,
)
from repro.ir.circuit import Circuit
from repro.programs import benchmark_names, get_benchmark, random_circuit
from repro.solver import BranchAndBoundSolver, Model, assignment_matrices
from repro.solver.bounds import _factor_pair_tensor

from solver_reference import (
    PairTerm,
    SumObjective,
    UnaryTerm,
    compile_assignment,
    reliability_sum_model,
)

_OMEGAS = [0, 0.3, 0.5, 1]


def _random_qap(seed: int, n_vars: int = 4, n_vals: int = 6):
    """One random assignment problem twice: as a reference closure model
    and as the matrices summed from the same score tables."""
    rng = np.random.default_rng(seed)
    unary = rng.uniform(0, 10, size=(n_vars, n_vals))
    pair = rng.uniform(0, 10, size=(n_vals, n_vals))
    m = Model()
    for i in range(n_vars):
        m.add_variable(f"q{i}", range(n_vals))
    terms = [UnaryTerm(f"q{i}", lambda v, i=i: float(unary[i][v]))
             for i in range(n_vars)]
    for i in range(n_vars - 1):
        terms.append(PairTerm(f"q{i}", f"q{i + 1}",
                              lambda a, b: float(pair[a][b])))
    m.objective = SumObjective(terms)
    mats = assignment_matrices(
        [f"q{i}" for i in range(n_vars)], np.arange(n_vals, dtype=np.int64),
        np.ones((n_vars, n_vals), dtype=bool),
        [(i, -1, unary[i]) for i in range(n_vars)]
        + [(i, i + 1, pair) for i in range(n_vars - 1)])
    return m, mats


def _mapping_instance(n: int = 6, gates: int = 96, seed: int = 2019):
    circ = random_circuit(n, gates, seed=seed)
    topo = square_topology(max(n, 4))
    cal = CalibrationGenerator(topo, seed=2019).snapshot(0)
    tables = ReliabilityTables(cal)
    mats, search_qubits = reliability_model(circ, cal, tables, 0.5)
    return circ, cal, tables, mats, search_qubits


class TestEngineParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_vector_matches_generic_optimum(self, seed):
        model, mats = _random_qap(seed)
        generic = BranchAndBoundSolver().solve(model)
        vector = BranchAndBoundSolver().solve(mats)
        assert generic.optimal and vector.optimal
        assert vector.objective == pytest.approx(generic.objective,
                                                 abs=1e-9)
        assert generic.stats.engine == "generic"
        assert vector.stats.engine == "vector"

    def test_vector_matches_generic_on_mapping_model(self):
        circ, cal, tables, mats, _ = _mapping_instance()
        model, _ = reliability_sum_model(circ, cal, tables, 0.5)
        generic = BranchAndBoundSolver().solve(model)
        vector = BranchAndBoundSolver().solve(mats)
        assert generic.optimal and vector.optimal
        assert generic.stats.engine == "generic"
        assert vector.stats.engine == "vector"
        assert vector.objective == pytest.approx(generic.objective,
                                                 abs=1e-9)


_FIELDS = ("values", "domain_mask", "unary", "pair_tensor", "pair_base",
           "pair_x", "pair_y", "pair_slack")


def _assert_reference_build(circuit, calibration, tables, omega):
    """The direct matrices are the reference compile's, byte for byte,
    and value the greedy and identity warm starts as its objective does,
    bit for bit."""
    mats, search_qubits = reliability_model(circuit, calibration, tables,
                                            omega)
    model, ref_qubits = reliability_sum_model(circuit, calibration, tables,
                                              omega)
    ref = compile_assignment(model)
    assert search_qubits == ref_qubits
    assert mats.var_names == ref.var_names
    assert mats.pair_vars == ref.pair_vars
    for name in _FIELDS:
        got, want = getattr(mats, name), getattr(ref, name)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for warm in (smt_mod._greedy_warm_start(circuit, calibration, tables,
                                            search_qubits),
                 smt_mod._identity_warm_start(search_qubits)):
        cols = mats.columns(warm)
        assert (cols is None) == (not model.validate(warm))
        if cols is not None:
            value = mats.value(cols)
            assert type(value) is float
            assert value.hex() == model.objective.value(warm).hex()
    return mats


class TestDirectMatrices:
    """``reliability_model`` against ``solver_reference``'s compile."""

    @pytest.mark.parametrize("day", range(7))
    def test_fig6_week(self, day):
        calibration = CalibrationGenerator(ibmq16_topology(),
                                           seed=2019).snapshot(day)
        tables = ReliabilityTables(calibration)
        for name in benchmark_names():
            circuit = get_benchmark(name).build()
            for omega in _OMEGAS:
                _assert_reference_build(circuit, calibration, tables, omega)

    @pytest.mark.parametrize("n_qubits,n_gates",
                             [(n, g) for n in (4, 8) for g in (128, 256, 512)])
    def test_scale_ladder(self, n_qubits, n_gates):
        calibration = CalibrationGenerator(
            square_topology(max(n_qubits, 4)), seed=2019).snapshot(0)
        circuit = random_circuit(n_qubits, n_gates,
                                 seed=2019 + n_qubits * 10000 + n_gates)
        _assert_reference_build(circuit, calibration,
                                ReliabilityTables(calibration), 0.5)

    @pytest.mark.parametrize("omega", _OMEGAS)
    def test_random_circuits(self, omega):
        for n in range(2, 9):
            calibration = CalibrationGenerator(
                square_topology(max(n, 4)), seed=7 + n).snapshot(n % 3)
            tables = ReliabilityTables(calibration)
            for seed in range(3):
                circuit = random_circuit(n, 8 * n, seed=100 * n + seed)
                _assert_reference_build(circuit, calibration, tables, omega)

    def test_no_cnot(self):
        """No interacting pair: one search qubit, T = 0, dense path."""
        circuit = Circuit(3, 3)
        for q in range(3):
            circuit.h(q)
            circuit.measure(q)
        calibration = CalibrationGenerator(ibmq16_topology(),
                                           seed=2019).snapshot(0)
        mats = _assert_reference_build(circuit, calibration,
                                       ReliabilityTables(calibration), 0.5)
        assert mats.pair_tensor.shape == (0, 16, 16)
        assert mats.pair_base is None

    def test_one_pair_both_directions(self):
        """T = 1 (dense path), its slice merged from both directions."""
        circuit = Circuit(2, 2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(0, 1)
        circuit.measure(1)
        calibration = CalibrationGenerator(ibmq16_topology(),
                                           seed=2019).snapshot(3)
        mats = _assert_reference_build(circuit, calibration,
                                       ReliabilityTables(calibration), 0.3)
        assert mats.pair_vars == [(0, 1)] and mats.pair_base is None


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
        _, _, _, mats, _ = _mapping_instance()
        assert mats.pair_base is not None
        assert np.all(mats.pair_slack >= 0.0)


class TestWarmStartAndBudget:
    def test_invalid_warm_start_falls_back_cold(self):
        _, mats = _random_qap(21)
        cold = BranchAndBoundSolver().solve(mats)
        garbage = {f"q{i}": 0 for i in range(4)}  # values not distinct
        assert mats.columns(garbage) is None
        warm = BranchAndBoundSolver().solve(mats, initial=garbage)
        assert warm.optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)

    def test_mapper_survives_garbage_warm_start(self, monkeypatch):
        circ, cal, tables, _, sq = _mapping_instance()
        expect = ReliabilitySmtMapper(CompilerOptions()).run(circ, cal, tables)
        monkeypatch.setattr(
            smt_mod, "_greedy_warm_start",
            lambda *a, **k: {smt_mod._var(q): 0 for q in sq})
        out = ReliabilitySmtMapper(CompilerOptions()).run(circ, cal, tables)
        assert out.optimal
        assert out.objective == pytest.approx(expect.objective, abs=1e-9)

    def test_node_budget_returns_best_incumbent(self):
        circ, cal, tables, mats, sq = _mapping_instance(gates=128)
        warm = smt_mod._greedy_warm_start(circ, cal, tables, sq)
        warm_value = mats.value(mats.columns(warm))
        result = BranchAndBoundSolver(node_limit=5).solve(mats, initial=warm)
        assert not result.optimal
        assert result.assignment is not None
        assert result.objective >= warm_value - 1e-12
