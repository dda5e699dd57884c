"""Tests for the mapping passes: trivial, SMT variants, greedy variants."""

import itertools
import math

import pytest

from repro.compiler import (
    CompilerOptions,
    GreedyEdgeMapper,
    GreedyVertexMapper,
    ReliabilitySmtMapper,
    TimeSmtMapper,
    TrivialMapper,
    mapper_for,
)
from repro.exceptions import MappingError
from repro.hardware import (
    ReliabilityTables,
    default_ibmq16_calibration,
    ibmq16_topology,
    uniform_calibration,
)
from repro.ir.circuit import Circuit
from repro.programs import build_benchmark


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def tables(cal):
    return ReliabilityTables(cal)


ALL_MAPPERS = [
    ("trivial", lambda: TrivialMapper()),
    ("t-smt", lambda: TimeSmtMapper(CompilerOptions.t_smt())),
    ("t-smt*", lambda: TimeSmtMapper(CompilerOptions.t_smt_star())),
    ("r-smt*", lambda: ReliabilitySmtMapper(CompilerOptions.r_smt_star())),
    ("greedyv*", lambda: GreedyVertexMapper()),
    ("greedye*", lambda: GreedyEdgeMapper()),
]


class TestAllMappers:
    @pytest.mark.parametrize("label,factory", ALL_MAPPERS)
    @pytest.mark.parametrize("bench", ["BV4", "HS4", "Toffoli", "Adder"])
    def test_valid_injective_placement(self, label, factory, bench,
                                       cal, tables):
        circuit = build_benchmark(bench)
        result = factory().run(circuit, cal, tables)
        values = list(result.placement.values())
        assert len(result.placement) == circuit.n_qubits
        assert len(set(values)) == len(values)
        assert all(0 <= h < 16 for h in values)

    @pytest.mark.parametrize("label,factory", ALL_MAPPERS)
    def test_program_too_large_rejected(self, label, factory, cal, tables):
        circuit = Circuit(17)
        circuit.h(16)
        with pytest.raises(MappingError):
            factory().run(circuit, cal, tables)


class TestTrivialMapper:
    def test_lexicographic(self, cal, tables):
        result = TrivialMapper().run(build_benchmark("BV4"), cal, tables)
        assert result.placement == {0: 0, 1: 1, 2: 2, 3: 3}
        assert not result.optimal


class TestReliabilitySmt:
    def test_star_benchmarks_get_zero_swap_mappings(self, cal, tables):
        """BV/HS/QFT/Adder admit adjacent placements; R-SMT* finds them."""
        for bench in ("BV4", "BV8", "HS6", "QFT", "Adder"):
            circuit = build_benchmark(bench)
            result = ReliabilitySmtMapper(
                CompilerOptions.r_smt_star()).run(circuit, cal, tables)
            for gate in circuit.cnots:
                hc = result.placement[gate.control]
                ht = result.placement[gate.target]
                assert cal.topology.is_adjacent(hc, ht), bench

    def test_matches_brute_force_on_small_program(self, tables):
        """Exactness: enumerate all placements of a 3-qubit program on a
        2x2 machine and compare objectives."""
        topo_cal = default_ibmq16_calibration()
        # Use a 2x3 machine so brute force is tiny.
        from repro.hardware import CalibrationGenerator, GridTopology
        small_cal = CalibrationGenerator(GridTopology(3, 2), seed=3) \
            .snapshot(0)
        small_tables = ReliabilityTables(small_cal)
        circuit = Circuit(3, 3).cx(0, 1).cx(1, 2).measure_all()
        options = CompilerOptions.r_smt_star(omega=0.5)
        result = ReliabilitySmtMapper(options).run(circuit, small_cal,
                                                   small_tables)
        assert result.optimal

        def objective(placement):
            score = 0.0
            for q in range(3):
                score += 0.5 * math.log(
                    small_cal.readout_reliability(placement[q]))
            for (qc, qt) in [(0, 1), (1, 2)]:
                rel = small_tables.best_one_bend(
                    placement[qc], placement[qt]).reliability
                score += 0.5 * math.log(rel)
            return score

        brute = max(objective(dict(zip(range(3), perm)))
                    for perm in itertools.permutations(range(6), 3))
        assert result.objective == pytest.approx(brute, abs=1e-9)

    def test_omega_one_optimizes_readouts(self, cal, tables):
        """With omega=1 the chosen readout qubits are the global best."""
        circuit = build_benchmark("BV4")
        options = CompilerOptions.r_smt_star(omega=1.0)
        result = ReliabilitySmtMapper(options).run(circuit, cal, tables)
        measured_hw = [result.placement[g.qubits[0]]
                       for g in circuit.measurements]
        rels = sorted((cal.readout_reliability(h)
                       for h in cal.topology.iter_qubits()), reverse=True)
        chosen = sorted((cal.readout_reliability(h) for h in measured_hw),
                        reverse=True)
        assert chosen == pytest.approx(rels[:len(chosen)])

    def test_interacting_only_search_still_places_everything(self, cal,
                                                             tables):
        """BV8 has 4 non-interacting (but measured) qubits."""
        circuit = build_benchmark("BV8")
        result = ReliabilitySmtMapper(
            CompilerOptions.r_smt_star()).run(circuit, cal, tables)
        assert len(result.placement) == 8


class TestTimeSmt:
    def test_rejects_wrong_variant(self):
        with pytest.raises(MappingError):
            TimeSmtMapper(CompilerOptions.r_smt_star())

    def test_uniform_variant_ignores_calibration(self, tables):
        """T-SMT must produce the same placement for any calibration with
        the same topology (it is noise-blind)."""
        from repro.hardware import CalibrationGenerator
        circuit = build_benchmark("Toffoli")
        placements = []
        for seed in (1, 2):
            cal = CalibrationGenerator(ibmq16_topology(),
                                       seed=seed).snapshot(0)
            mapper = TimeSmtMapper(CompilerOptions.t_smt())
            placements.append(mapper.run(circuit, cal,
                                         ReliabilityTables(cal)).placement)
        interacting = {0, 1, 2}
        assert {q: placements[0][q] for q in interacting} == \
            {q: placements[1][q] for q in interacting}

    def test_finds_adjacent_chain_for_line_program(self, cal, tables):
        circuit = Circuit(3, 3).cx(0, 1).cx(1, 2).measure_all()
        result = TimeSmtMapper(
            CompilerOptions.t_smt_star()).run(circuit, cal, tables)
        assert cal.topology.is_adjacent(result.placement[0],
                                        result.placement[1])
        assert cal.topology.is_adjacent(result.placement[1],
                                        result.placement[2])
        assert result.optimal


class TestGreedy:
    def test_greedy_edge_handles_disconnected_graph(self, cal, tables):
        """HS6 is a perfect matching: each pair must land adjacent."""
        circuit = build_benchmark("HS6")
        result = GreedyEdgeMapper().run(circuit, cal, tables)
        for (a, b) in circuit.interaction_graph():
            assert cal.topology.is_adjacent(result.placement[a],
                                            result.placement[b])

    def test_greedy_vertex_handles_disconnected_graph(self, cal, tables):
        circuit = build_benchmark("HS6")
        result = GreedyVertexMapper().run(circuit, cal, tables)
        for (a, b) in circuit.interaction_graph():
            assert cal.topology.is_adjacent(result.placement[a],
                                            result.placement[b])

    def test_greedy_is_fast(self, cal, tables):
        from repro.programs import random_circuit
        circuit = random_circuit(16, 500, seed=0)
        result = GreedyEdgeMapper().run(circuit, cal, tables)
        assert result.solve_time < 2.0

    def test_circuit_without_cnots(self, cal, tables):
        circuit = Circuit(3, 3).h(0).h(1).h(2).measure_all()
        for mapper in (GreedyEdgeMapper(), GreedyVertexMapper()):
            result = mapper.run(circuit, cal, tables)
            assert len(result.placement) == 3


class TestMapperFor:
    @pytest.mark.parametrize("options,expected", [
        (CompilerOptions.qiskit(), TrivialMapper),
        (CompilerOptions.t_smt(), TimeSmtMapper),
        (CompilerOptions.t_smt_star(), TimeSmtMapper),
        (CompilerOptions.r_smt_star(), ReliabilitySmtMapper),
        (CompilerOptions.greedy_v(), GreedyVertexMapper),
        (CompilerOptions.greedy_e(), GreedyEdgeMapper),
    ])
    def test_dispatch(self, options, expected):
        assert isinstance(mapper_for(options), expected)
