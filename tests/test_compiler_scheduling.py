"""Tests for routing policies and the list scheduler.

The scheduler must return the :class:`Schedule` of the min-scan
reference in ``scheduler_reference`` on random circuits and placements
under every routing and duration model: the same gates, starts, routes,
makespan and coherence violations, or the same error.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, Router, schedule_circuit
from repro.compiler.scheduling.list_scheduler import gate_durations
from repro.exceptions import CompilationError, SchedulingError
from repro.hardware import (
    READOUT_SLOTS,
    SINGLE_QUBIT_SLOTS,
    ReliabilityTables,
    default_ibmq16_calibration,
    ibmq16_topology,
    square_topology,
    uniform_calibration,
)
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG
from repro.programs import build_benchmark, random_circuit

from scheduler_reference import reference_schedule


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def tables(cal):
    return ReliabilityTables(cal)


class TestRouter:
    def test_one_bend_reserves_path(self, tables):
        router = Router(tables, "1bp", prefer="reliability")
        route = router.route(0, 10)
        assert set(route.reserved) == set(route.path)
        assert route.path[0] == 0 and route.path[-1] == 10

    def test_rectangle_reserves_bounding_box(self, tables):
        router = Router(tables, "rr", prefer="duration")
        route = router.route(0, 10)
        assert set(route.reserved) == {0, 1, 2, 8, 9, 10}

    def test_best_path_policy(self, tables):
        router = Router(tables, "best", prefer="reliability")
        route = router.route(0, 15)
        assert route.path[0] == 0 and route.path[-1] == 15

    def test_fixed_preference_is_deterministic_junction0(self, tables):
        router = Router(tables, "1bp", prefer="fixed")
        route = router.route(0, 10)
        assert route.path == tuple(
            tables.topology.one_bend_path(0, 10, 0))

    def test_same_qubit_rejected(self, tables):
        router = Router(tables, "1bp")
        with pytest.raises(CompilationError):
            router.route(3, 3)

    def test_unknown_policy_rejected(self, tables):
        with pytest.raises(CompilationError):
            Router(tables, "1bp", prefer="vibes")

    def test_reliability_preference_picks_better_junction(self, tables):
        router = Router(tables, "1bp", prefer="reliability")
        route = router.route(0, 10)
        r0 = tables.one_bend(0, 10, 0).reliability
        r1 = tables.one_bend(0, 10, 1).reliability
        assert route.reliability == pytest.approx(max(r0, r1))


class TestGateDurations:
    def test_single_qubit_and_readout_durations(self, cal, tables):
        circuit = Circuit(2, 2).h(0).measure(0)
        placement = {0: 0, 1: 1}
        router = Router(tables, "1bp")
        per_gate = gate_durations(circuit, placement, router, cal)
        assert per_gate[0][0] == SINGLE_QUBIT_SLOTS
        assert per_gate[1][0] == READOUT_SLOTS

    def test_uniform_cnot_duration_formula(self, cal, tables):
        circuit = Circuit(2).cx(0, 1)
        placement = {0: 0, 1: 3}  # distance 3
        router = Router(tables, "1bp", prefer="fixed")
        per_gate = gate_durations(circuit, placement, router, cal,
                                  uniform_cnot_slots=3.0)
        assert per_gate[0][0] == pytest.approx(2 * 2 * 9.0 + 3.0)


class TestListScheduler:
    def schedule(self, circuit, placement, cal, tables, options=None):
        return schedule_circuit(circuit, placement, cal, tables,
                                options or CompilerOptions.r_smt_star())

    def test_dependencies_respected(self, cal, tables):
        circuit = build_benchmark("BV4")
        placement = {0: 1, 1: 9, 2: 11, 3: 10}
        schedule = self.schedule(circuit, placement, cal, tables)
        dag = DependencyDAG.from_circuit(circuit)
        finish = {g.index: g.finish for g in schedule.gates}
        start = {g.index: g.start for g in schedule.gates}
        for i, preds in enumerate(dag.preds):
            for p in preds:
                assert start[i] >= finish[p] - 1e-9

    def test_no_spatial_overlap(self, cal, tables):
        """Gates reserving a common qubit never overlap in time."""
        circuit = build_benchmark("HS6")
        placement = {q: q for q in range(6)}
        schedule = self.schedule(circuit, placement, cal, tables)
        for a in schedule.gates:
            for b in schedule.gates:
                if a.index >= b.index:
                    continue
                if set(a.hw_qubits) & set(b.hw_qubits):
                    assert (a.finish <= b.start + 1e-9
                            or b.finish <= a.start + 1e-9)

    def test_makespan_is_last_finish(self, cal, tables):
        circuit = build_benchmark("Toffoli")
        placement = {0: 0, 1: 1, 2: 2}
        schedule = self.schedule(circuit, placement, cal, tables)
        assert schedule.makespan == pytest.approx(
            max(g.finish for g in schedule.gates))

    def test_swap_count_zero_for_adjacent_placement(self, cal, tables):
        circuit = Circuit(2).cx(0, 1)
        schedule = self.schedule(circuit, {0: 0, 1: 1}, cal, tables)
        assert schedule.swap_count() == 0

    def test_swap_count_for_distant_placement(self, cal, tables):
        circuit = Circuit(2).cx(0, 1)
        schedule = self.schedule(circuit, {0: 0, 1: 7}, cal, tables)
        assert schedule.swap_count() == 6  # distance 7 -> 6 one-way swaps

    def test_coherence_violation_detected(self, tables):
        """A very long program on a short-coherence machine violates the
        deadline; enforce_coherence turns that into an error."""
        topo = ibmq16_topology()
        cal = uniform_calibration(topo, t2_us=0.8)  # 10 slots only
        tbl = ReliabilityTables(cal)
        circuit = Circuit(2, 2)
        for _ in range(20):
            circuit.cx(0, 1)
        circuit.measure_all()
        options = CompilerOptions.r_smt_star()
        schedule = schedule_circuit(circuit, {0: 0, 1: 1}, cal, tbl, options)
        assert not schedule.coherence_ok
        with pytest.raises(SchedulingError):
            schedule_circuit(circuit, {0: 0, 1: 1}, cal, tbl,
                             options.with_(enforce_coherence=True))

    def test_noise_unaware_uses_static_bound(self, tables):
        """T-SMT checks the MT constant, not per-qubit coherence."""
        topo = ibmq16_topology()
        cal = uniform_calibration(topo, t2_us=0.8)
        tbl = ReliabilityTables(cal)
        circuit = Circuit(2, 2).cx(0, 1).measure_all()
        options = CompilerOptions.t_smt()  # MT = 1000 slots
        schedule = schedule_circuit(circuit, {0: 0, 1: 1}, cal, tbl, options)
        assert schedule.coherence_ok

    def test_parallel_cnots_overlap_when_disjoint(self, cal, tables):
        """Two CNOTs on disjoint regions run concurrently under 1BP."""
        circuit = Circuit(4).cx(0, 1).cx(2, 3)
        placement = {0: 0, 1: 1, 2: 4, 3: 5}
        schedule = self.schedule(circuit, placement, cal, tables)
        starts = {g.index: g.start for g in schedule.gates}
        assert starts[0] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(0.0)

    def test_rectangle_blocks_more_than_one_bend(self, cal, tables):
        """RR serializes CNOTs whose rectangles overlap even when their
        1BP paths would not."""
        circuit = Circuit(4).cx(0, 1).cx(2, 3)
        placement = {0: 0, 1: 10, 2: 2, 3: 8}  # crossing rectangles
        opts_rr = CompilerOptions.t_smt_star(routing="rr")
        opts_bp = CompilerOptions.t_smt_star(routing="1bp")
        rr = schedule_circuit(circuit, placement, cal, tables, opts_rr)
        bp = schedule_circuit(circuit, placement, cal, tables, opts_bp)
        rr_starts = sorted(g.start for g in rr.gates)
        assert rr_starts[1] > 0.0  # serialized
        assert bp.makespan <= rr.makespan + 1e-9

    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_random_schedules_are_consistent(self, cal, tables, seed):
        circuit = random_circuit(5, 25, seed=seed)
        placement = {0: 0, 1: 1, 2: 9, 3: 10, 4: 2}
        schedule = schedule_circuit(circuit, placement, cal, tables,
                                    CompilerOptions.greedy_e())
        assert len(schedule.gates) == len(circuit.gates)
        assert all(g.start >= 0 for g in schedule.gates)
        assert schedule.makespan > 0


#: Calibrated IBMQ16, and a uniform 3x3 grid whose equal gate times tie
#: many starts (so the index tie-break decides) and whose 25-slot
#: coherence time most schedules overrun.
_MACHINES = {
    "ibmq16": default_ibmq16_calibration,
    "uniform3x3": lambda: uniform_calibration(square_topology(9),
                                              t2_us=2.0),
}
_VARIANTS = {
    "t-smt": CompilerOptions.t_smt,
    "t-smt* 1bp": lambda: CompilerOptions.t_smt_star(routing="1bp"),
    "t-smt* rr": lambda: CompilerOptions.t_smt_star(routing="rr"),
    "r-smt*": CompilerOptions.r_smt_star,
    "greedye*": CompilerOptions.greedy_e,
}


@functools.lru_cache(maxsize=None)
def _machine(name):
    calibration = _MACHINES[name]()
    return calibration, ReliabilityTables(calibration)


@st.composite
def _circuits(draw) -> Circuit:
    """Up to 6 qubits, CNOT-heavy, with measures and barriers."""
    n = draw(st.integers(2, 6))
    circuit = Circuit(n, n)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["h", "rz", "cx", "cx", "cx",
                                     "measure", "barrier"]))
        if kind == "cx":
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            circuit.cx(a, b)
        elif kind == "barrier":
            circuit.barrier(*draw(st.lists(st.integers(0, n - 1),
                                           unique=True)))
        elif kind == "measure":
            circuit.measure(draw(st.integers(0, n - 1)))
        elif kind == "rz":
            circuit.rz(0.5, draw(st.integers(0, n - 1)))
        else:
            circuit.h(draw(st.integers(0, n - 1)))
    return circuit


def _outcome(schedule_fn, *args):
    try:
        return schedule_fn(*args)
    except SchedulingError as exc:
        return str(exc)


class TestSchedulerOracle:
    @given(circuit=_circuits(), data=st.data(),
           machine=st.sampled_from(sorted(_MACHINES)),
           variant=st.sampled_from(sorted(_VARIANTS)),
           enforce=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_schedule_equals_reference(self, circuit, data, machine,
                                       variant, enforce):
        calibration, tables = _machine(machine)
        hw = data.draw(st.permutations(
            range(calibration.topology.n_qubits)))
        placement = dict(enumerate(hw[:circuit.n_qubits]))
        options = _VARIANTS[variant]().with_(enforce_coherence=enforce)
        args = (circuit, placement, calibration, tables, options)
        assert _outcome(schedule_circuit, *args) \
            == _outcome(reference_schedule, *args)
