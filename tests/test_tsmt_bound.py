"""Tests for the compiled T-SMT critical-path bound and its answers.

* The bound of ``TimeSmtMapper``'s objective returns the same float as
  the per-gate reference in ``tsmt_reference`` on random circuits and
  random partial assignments, for ``t-smt`` and ``t-smt*``, on IBMQ16
  and on a square grid; its ``probe`` returns, value by value, the same
  float as the reference bound of each extended assignment.
* The dense tables of :class:`ReliabilityTables` equal the per-pair
  accessors they replace (the reliability table in the floored log
  form R-SMT* reads).
* T-SMT* placements, objectives and node counts on the 12 Table-2
  programs over fig6's 7 daily snapshots, and T-SMT's on snapshot 0,
  equal the values pinned in ``tsmt_golden.json``.
"""

import functools
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions
from repro.compiler.mapping.smt import (
    TimeSmtMapper,
    _interacting_qubits,
    _MakespanObjective,
    _var,
)
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    ibmq16_topology,
    square_topology,
)
from repro.ir.circuit import Circuit
from repro.programs import benchmark_names, get_benchmark

from tsmt_reference import reference_bound

_GOLDEN = os.path.join(os.path.dirname(__file__), "tsmt_golden.json")

_TOPOLOGIES = {"ibmq16": ibmq16_topology,
               "grid3x3": lambda: square_topology(9)}
_VARIANTS = {"t-smt": CompilerOptions.t_smt,
             "t-smt*": lambda: CompilerOptions.t_smt_star(routing="1bp")}


@functools.lru_cache(maxsize=None)
def _machine(topology: str, day: int):
    calibration = CalibrationGenerator(_TOPOLOGIES[topology](),
                                       seed=2019).snapshot(day)
    return calibration, ReliabilityTables(calibration)


@st.composite
def _circuits(draw) -> Circuit:
    """Up to 6 qubits of 1q gates, CNOTs, measures and barriers."""
    n = draw(st.integers(2, 6))
    circuit = Circuit(n, n)
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["h", "rz", "cx", "cx", "measure",
                                     "barrier"]))
        if kind == "cx":
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            circuit.cx(a, b)
        elif kind == "barrier":
            circuit.barrier(*draw(st.lists(st.integers(0, n - 1),
                                           min_size=1, unique=True)))
        elif kind == "measure":
            circuit.measure(draw(st.integers(0, n - 1)))
        elif kind == "rz":
            circuit.add("rz", draw(st.integers(0, n - 1)), param=0.5)
        else:
            circuit.h(draw(st.integers(0, n - 1)))
    return circuit


def _objective(circuit, topology, variant, day):
    calibration, tables = _machine(topology, day)
    options = _VARIANTS[variant]()
    objective = _MakespanObjective(circuit, calibration, tables, options,
                                   _interacting_qubits(circuit))
    return objective, calibration, tables, options


def _assert_probe_equals_reference(circuit, topology, variant, day, var,
                                   assignment, values):
    objective, calibration, tables, options = _objective(
        circuit, topology, variant, day)
    before = dict(assignment)
    probed = objective.probe(var, values, assignment, {})
    assert assignment == before
    expected = [reference_bound(circuit, {**assignment, var: value},
                                calibration, tables, options)
                for value in values]
    assert [b.hex() for b in probed] == [b.hex() for b in expected]


class TestCompiledBound:
    @given(circuit=_circuits(), data=st.data(),
           topology=st.sampled_from(sorted(_TOPOLOGIES)),
           variant=st.sampled_from(sorted(_VARIANTS)),
           day=st.integers(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_bound_equals_reference(self, circuit, data, topology,
                                    variant, day):
        objective, calibration, tables, options = _objective(
            circuit, topology, variant, day)
        n_hw = calibration.topology.n_qubits
        # Random partial assignment; locations may collide, which the
        # bound must handle like the reference (one placed endpoint).
        assignment = {
            _var(q): data.draw(st.integers(0, n_hw - 1))
            for q in range(circuit.n_qubits) if data.draw(st.booleans())}
        compiled = objective.bound(assignment, {})
        expected = reference_bound(circuit, assignment, calibration, tables,
                                   options)
        assert compiled.hex() == expected.hex()

    @given(circuit=_circuits(), data=st.data(),
           topology=st.sampled_from(sorted(_TOPOLOGIES)),
           variant=st.sampled_from(sorted(_VARIANTS)),
           day=st.integers(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_probe_equals_reference(self, circuit, data, topology, variant,
                                    day):
        n_hw = _machine(topology, day)[0].topology.n_qubits
        var = _var(data.draw(st.integers(0, circuit.n_qubits - 1)))
        assignment = {
            _var(q): data.draw(st.integers(0, n_hw - 1))
            for q in range(circuit.n_qubits)
            if _var(q) != var and data.draw(st.booleans())}
        # Candidates may repeat and may collide with a placed endpoint.
        placed = sorted(set(assignment.values())) or [0]
        values = data.draw(st.lists(
            st.one_of(st.integers(0, n_hw - 1), st.sampled_from(placed)),
            min_size=1, max_size=2 * n_hw))
        _assert_probe_equals_reference(circuit, topology, variant, day, var,
                                       assignment, values)

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    @pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
    def test_probe_edge_cases(self, topology, variant):
        n_hw = _machine(topology, 0)[0].topology.n_qubits
        every = list(range(n_hw)) + [0, n_hw - 1]
        # No gates: every bound is minus an empty maximum.
        _assert_probe_equals_reference(Circuit(3, 3), topology, variant, 0,
                                       _var(0), {}, every)
        # A barrier with three predecessors: two CNOTs on the probed
        # variable (one to a placed endpoint) and one gate that cannot
        # depend on it; a later CNOT to a placed endpoint as target.
        circuit = Circuit(5, 5)
        circuit.cx(0, 1).h(2).cx(3, 0).h(4)
        circuit.barrier(0, 1, 2, 3)
        circuit.cx(4, 0).measure(0).measure(4)
        _assert_probe_equals_reference(circuit, topology, variant, 0,
                                       _var(0), {_var(1): 2, _var(4): 0},
                                       every)

    @pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
    def test_dense_tables_equal_pair_accessors(self, topology):
        _, tables = _machine(topology, 0)
        delta = tables.delta_table()
        log_rel = tables.log_reliability_table()
        n = tables.topology.n_qubits
        for c in range(n):
            for t in range(n):
                if c == t:
                    assert delta[c, t] == float("inf")
                    assert log_rel[c, t] == math.log(1e-12)
                else:
                    assert delta[c, t] == tables.delta(c, t)
                    assert log_rel[c, t] == math.log(max(
                        tables.best_one_bend(c, t).reliability, 1e-12))

    def test_dense_tables_are_built_lazily_once(self):
        calibration, _ = _machine("ibmq16", 0)
        tables = ReliabilityTables(calibration)
        assert tables._dense is None
        assert tables.delta_table() is tables.delta_table()
        assert (tables.log_reliability_table()
                is tables.log_reliability_table())
        assert not tables.delta_table().flags.writeable


def _solve_all(options, calibration, tables):
    mapper = TimeSmtMapper(options)
    return {name: mapper.run(get_benchmark(name).build(), calibration,
                             tables)
            for name in benchmark_names()}


def _assert_pinned(results, pins):
    assert sorted(results) == sorted(pins)
    for name, result in results.items():
        pin = pins[name]
        assert result.optimal, name
        assert result.nodes == pin["nodes"], name
        assert result.objective == pin["objective"], name
        assert [result.placement[q] for q in range(len(pin["placement"]))] \
            == pin["placement"], name


class TestPinnedAnswers:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(_GOLDEN) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("day", range(7))
    def test_tsmt_star_fig6_week(self, golden, day):
        calibration, tables = _machine("ibmq16", day)
        results = _solve_all(CompilerOptions.t_smt_star(routing="1bp"),
                             calibration, tables)
        _assert_pinned(results, golden["t-smt*"][str(day)])

    def test_tsmt_snapshot0(self, golden):
        calibration, tables = _machine("ibmq16", 0)
        results = _solve_all(CompilerOptions.t_smt(), calibration, tables)
        _assert_pinned(results, golden["t-smt"])
