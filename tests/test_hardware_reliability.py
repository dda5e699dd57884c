"""Tests for routing cost tables (EC/Delta matrices, best paths).

Best-Path rows are checked entry for entry, under ``==``, against
re-scoring each entry's own path with :func:`route_cost` and against the
per-target path walk in ``best_path_reference``: on IBMQ16, calibrated
and uniform, and on the 12x11 grid perfbench's ``scale_ladder`` routes
its 128-qubit programs on.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.hardware.calibration import uniform_calibration
from repro.hardware.calibration_gen import (
    CalibrationGenerator,
    default_ibmq16_calibration,
)
from repro.hardware.reliability import ReliabilityTables, route_cost
from repro.hardware.topology import ibmq16_topology, square_topology

from best_path_reference import reference_row


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def tables(cal):
    return ReliabilityTables(cal)


class TestRouteCost:
    def test_adjacent_cnot(self, cal):
        cost = route_cost(cal, [0, 1])
        assert cost.n_swaps == 0
        assert cost.reliability == pytest.approx(cal.cnot_reliability(0, 1))
        assert cost.duration == pytest.approx(cal.cnot_duration(0, 1))

    def test_one_swap_path(self, cal):
        cost = route_cost(cal, [0, 1, 2])
        expected_rel = cal.swap_reliability(0, 1) * cal.cnot_reliability(1, 2)
        assert cost.n_swaps == 1
        assert cost.reliability == pytest.approx(expected_rel)
        expected_dur = 2 * cal.swap_duration(0, 1) + cal.cnot_duration(1, 2)
        assert cost.duration == pytest.approx(expected_dur)

    def test_round_trip_charges_swaps_twice(self, cal):
        cost = route_cost(cal, [0, 1, 2])
        assert cost.round_trip_reliability == pytest.approx(
            cal.swap_reliability(0, 1) ** 2 * cal.cnot_reliability(1, 2))

    def test_paper_footnote3_example(self):
        """0.9^3 swap x 0.9 CNOT = 0.656 overall (paper footnote 3)."""
        cal = uniform_calibration(ibmq16_topology(), cnot_error=0.1)
        cost = route_cost(cal, [0, 1, 2])
        assert cost.reliability == pytest.approx(0.9 ** 4)

    def test_non_adjacent_step_rejected(self, cal):
        with pytest.raises(TopologyError):
            route_cost(cal, [0, 2])

    def test_short_path_rejected(self, cal):
        with pytest.raises(TopologyError):
            route_cost(cal, [0])


class TestOneBendTables:
    def test_adjacent_pair_both_junctions_equal(self, tables, cal):
        a = tables.one_bend(0, 1, 0)
        assert a.path == (0, 1)

    def test_best_one_bend_picks_max_reliability(self, tables):
        best = tables.best_one_bend(0, 10)
        r0 = tables.one_bend(0, 10, 0).reliability
        r1 = tables.one_bend(0, 10, 1).reliability
        assert best.reliability == pytest.approx(max(r0, r1))

    def test_delta_picks_min_duration(self, tables):
        d0 = tables.one_bend(0, 10, 0).duration
        d1 = tables.one_bend(0, 10, 1).duration
        assert tables.delta(0, 10) == pytest.approx(min(d0, d1))

    def test_same_qubit_rejected(self, tables):
        with pytest.raises(TopologyError):
            tables.best_one_bend(3, 3)
        with pytest.raises(TopologyError):
            tables.delta(3, 3)

    def test_log_reliability_negative(self, tables):
        assert tables.log_reliability_table()[0, 10] < 0.0

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_reliability_in_unit_interval(self, tables, a, b):
        if a == b:
            return
        cost = tables.best_one_bend(a, b)
        assert 0.0 < cost.reliability <= 1.0
        assert cost.round_trip_reliability <= cost.reliability + 1e-12


class TestBestPaths:
    def test_best_path_cost_consistent_with_route_cost(self, tables, cal):
        """Every entry equals re-evaluating its own path, float for
        float, and the reference search's entry. Uniform data ties
        every path of one length, so the search's tie-breaks show."""
        grid = CalibrationGenerator(square_topology(128),
                                    seed=2019).snapshot(0)
        assert (grid.topology.mx, grid.topology.my) == (12, 11)
        uniform = uniform_calibration(ibmq16_topology())
        for calibration, table in ((cal, tables),
                                   (grid, ReliabilityTables(grid)),
                                   (uniform, ReliabilityTables(uniform))):
            n = calibration.topology.n_qubits
            for a in range(n):
                reference = reference_row(calibration, a)
                for b in range(n):
                    if a == b:
                        continue
                    cost = table.best_path(a, b)
                    assert cost == route_cost(calibration, list(cost.path))
                    assert cost == reference[b]

    @pytest.mark.parametrize("control,target", [
        (3, 3), (3, 16), (3, -1), (16, 3), (-1, 3)])
    def test_best_path_rejects_bad_endpoints(self, cal, control, target):
        tables = ReliabilityTables(cal)
        with pytest.raises(TopologyError):
            tables.best_path(control, target)
        assert tables.best_path(15, 3) == reference_row(cal, 15)[3]

    def test_best_path_endpoints(self, tables):
        cost = tables.best_path(0, 15)
        assert cost.path[0] == 0 and cost.path[-1] == 15

    def test_best_path_adjacent_is_direct(self, tables, cal):
        # With uniform data the direct edge is optimal; with real data a
        # detour could beat a terrible edge, so check with uniform.
        uni = ReliabilityTables(uniform_calibration(ibmq16_topology()))
        assert uni.best_path(0, 1).path == (0, 1)

    def test_uniform_duration_formula(self, tables):
        # distance 3 -> 2*(3-1) swaps * 3tau + tau = 12tau + tau
        assert tables.uniform_duration(0, 3, tau_cnot=3.0) == \
            pytest.approx(2 * 2 * 9.0 + 3.0)

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_best_path_symmetric_under_uniform_errors(self, a, b):
        """With identical edges the cost model is direction-symmetric."""
        if a == b:
            return
        uni = ReliabilityTables(uniform_calibration(ibmq16_topology()))
        fwd = uni.best_path(a, b)
        rev = uni.best_path(b, a)
        assert fwd.reliability == pytest.approx(rev.reliability)
        assert fwd.duration == pytest.approx(rev.duration)

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_best_path_valid_chain(self, tables, cal, a, b):
        """Best paths are simple chains of coupling edges."""
        if a == b:
            return
        path = tables.best_path(a, b).path
        assert len(set(path)) == len(path)
        for u, v in zip(path, path[1:]):
            assert cal.topology.is_adjacent(u, v)
