"""Tests for the batched execution engine (trace + vectorized sampler).

The batched engine must be distribution-identical (in law) to the
per-trial loop in ``trial_reference``: fixed-seed runs of both are
compared under a TVD bound, batched runs must be deterministic per
seed, and the error-plan dedup cache must reproduce uncached
trajectory simulation exactly. Golden digests pin absolute counts, and
the reference implementations in ``batch_reference`` pin the
injections and the outcome draws bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.batch as batch
from repro.backend import ENGINES
from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import SimulationError
from repro.hardware import (CalibrationGenerator, default_ibmq16_calibration,
                            ibmq16_topology)
from repro.ir.circuit import Circuit
from repro.programs import (benchmark_names, build_benchmark,
                            expected_output, random_circuit)
from repro.simulator import (
    CompactProgram,
    NoiseModel,
    ProgramTrace,
    empirical_distribution,
    execute,
    total_variation_distance,
)
from repro.simulator.batch import batch_plan_probabilities, run_batched
from repro.simulator.noise import _PAULIS_1Q, _PAULIS_2Q

from batch_reference import (plan_events, plan_matrix, plan_probabilities,
                             reference_plan_probabilities,
                             reference_sample_noisy, site_events)
from trial_reference import reference_execute, run_state

TRIALS = 4096
BENCHMARKS = ["BV4", "Toffoli", "HS2"]


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def programs(cal):
    return {name: compile_circuit(build_benchmark(name), cal,
                                  CompilerOptions.r_smt_star())
            for name in BENCHMARKS}


def aliased_cbit_program(cal):
    """Two measures writing the same cbit."""
    circuit = Circuit(2, 1).h(0).x(1).measure(0, 0).measure(1, 0)
    return compile_circuit(circuit, cal, CompilerOptions.greedy_e())


class TestEngineAgreement:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_tvd_bound(self, cal, programs, name):
        """The batched engine and the per-trial oracle agree within
        TVD <= 0.05."""
        kwargs = {"trials": TRIALS, "seed": 11,
                  "expected": expected_output(name)}
        legacy = reference_execute(programs[name], cal, **kwargs)
        batched = execute(programs[name], cal, engine="batched", **kwargs)
        tvd = total_variation_distance(
            empirical_distribution(legacy.counts),
            empirical_distribution(batched.counts))
        assert tvd <= 0.05
        assert abs(legacy.success_rate - batched.success_rate) <= 0.05

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_ideal_distribution_matches_legacy(self, cal, programs, name):
        a = reference_execute(programs[name], cal, trials=8, seed=0)
        b = execute(programs[name], cal, trials=8, seed=0, engine="batched")
        assert set(a.ideal_distribution) == set(b.ideal_distribution)
        for outcome, p in a.ideal_distribution.items():
            assert b.ideal_distribution[outcome] == pytest.approx(p)

    def test_unknown_engine_rejected(self, cal, programs):
        with pytest.raises(SimulationError):
            execute(programs["BV4"], cal, trials=8, engine="bogus")

    def test_accessor_override_honored_by_every_engine(self, cal, programs):
        """A NoiseModel subclass shapes the law through its probability
        accessors, on every engine and in the per-trial oracle."""

        class SilentGates(NoiseModel):
            def gate_error_probability(self, gate, concurrent_neighbors=0):
                return 0.0

        bv4 = programs["BV4"]
        kwargs = {"trials": 128, "seed": 0, "expected": expected_output("BV4")}
        gates_only = NoiseModel(cal, decoherence=False, readout_errors=False)
        assert execute(bv4, cal, noise_model=gates_only,
                       **kwargs).success_rate < 1.0
        silent = SilentGates(cal, decoherence=False, readout_errors=False)
        for engine in ENGINES:
            assert execute(bv4, cal, noise_model=silent, engine=engine,
                           **kwargs).success_rate == 1.0, engine
        assert reference_execute(bv4, cal, noise_model=silent,
                                 **kwargs).success_rate == 1.0


class TestTrialOracle:
    """``trial_reference`` is the retired ``"trial"`` engine, moved
    under ``tests/``: its counts and ideal distributions must hash to
    what ``execute(engine="trial")`` returned, recorded before the
    engine was removed."""

    DIGEST = ("29f48169ed21b360bf4f697c563af4253cd9c4ac"
              "5fe971e1d2d5c856ee831e6c")

    def test_reproduces_trial_engine(self, cal, programs):
        subjects = dict(programs, aliased=aliased_cbit_program(cal))
        digest = hashlib.sha256()
        for name in sorted(subjects):
            for seed in (0, 11):
                result = reference_execute(subjects[name], cal,
                                           trials=2048, seed=seed)
                digest.update(repr((
                    name, seed, sorted(result.counts.items()),
                    sorted(result.ideal_distribution.items()))).encode())
        assert digest.hexdigest() == self.DIGEST


class TestDeterminism:
    def test_batched_reproducible(self, cal, programs):
        kwargs = {"trials": 512, "seed": 23,
                  "expected": expected_output("BV4")}
        a = execute(programs["BV4"], cal, engine="batched", **kwargs)
        b = execute(programs["BV4"], cal, engine="batched", **kwargs)
        assert a.counts == b.counts

    def test_seeds_differ(self, cal, programs):
        a = execute(programs["BV4"], cal, trials=512, seed=1,
                    engine="batched")
        b = execute(programs["BV4"], cal, trials=512, seed=2,
                    engine="batched")
        assert a.counts != b.counts

    def test_counts_sum_to_trials(self, cal, programs):
        result = execute(programs["Toffoli"], cal, trials=777, seed=5,
                         engine="batched")
        assert sum(result.counts.values()) == 777


def counts_digest(counts) -> str:
    """Short sha256 of a counts dict, order-independent."""
    text = repr(sorted(counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestGoldenCounts:
    """Absolute counts of every Table-2 program under T-SMT* and
    R-SMT* on the seed-2019 IBMQ16 snapshot, 1024 shots at seed 1,
    plus two ZNE-rescaled traces.

    BV8 (8 qubits) samples trajectories and is pinned on the
    signed-permutation injection sampler: a change to its law, the RNG
    stream or any nonzero trajectory amplitude moves its digest. Every
    other subject is at or under ``EXACT_MAX_QUBITS`` and is pinned on
    one multinomial draw from its exact outcome law.
    """

    VARIANTS = {"t-smt*": lambda: CompilerOptions.t_smt_star(routing="1bp"),
                "r-smt*": lambda: CompilerOptions.r_smt_star(omega=0.5)}

    GOLDEN = {
        ("BV4", "t-smt*"): "1d7a05d0cb85ad17",
        ("BV4", "r-smt*"): "1d7a05d0cb85ad17",
        ("BV6", "t-smt*"): "d063c7991c0ce5ab",
        ("BV6", "r-smt*"): "d063c7991c0ce5ab",
        ("BV8", "t-smt*"): "6422ef9a4d1fb7be",
        ("BV8", "r-smt*"): "6422ef9a4d1fb7be",
        ("HS2", "t-smt*"): "2ea285af8de90603",
        ("HS2", "r-smt*"): "2ea285af8de90603",
        ("HS4", "t-smt*"): "e3d9bdc26c083240",
        ("HS4", "r-smt*"): "1ba950846255b9fe",
        ("HS6", "t-smt*"): "fe40697197ad9d28",
        ("HS6", "r-smt*"): "91708fd94f32fe86",
        ("Toffoli", "t-smt*"): "fa75a1f2312ead53",
        ("Toffoli", "r-smt*"): "30dcbb9a891dceff",
        ("Fredkin", "t-smt*"): "69375f0448463e5a",
        ("Fredkin", "r-smt*"): "99d3ccbf4c81b3ed",
        ("Or", "t-smt*"): "96d30f276e9d36b5",
        ("Or", "r-smt*"): "3896d94e39d98cc2",
        ("Peres", "t-smt*"): "a0fc6036eabb89ee",
        ("Peres", "r-smt*"): "ffb97ea9a14c96da",
        ("QFT", "t-smt*"): "a2fb9c99b5f0f1d0",
        ("QFT", "r-smt*"): "480ee16d02deb806",
        ("Adder", "t-smt*"): "353a17fb71fc5e3b",
        ("Adder", "r-smt*"): "976fc2ed4d9c22aa",
    }
    #: (program, scale, scale_readout) -> digest, R-SMT* programs.
    GOLDEN_RESCALED = {
        ("HS6", 3.0, False): "40994610ab8d2907",
        ("Adder", 2.0, True): "8b5cf2a3b4d179fd",
    }

    @pytest.fixture(scope="class")
    def snapshot(self):
        return CalibrationGenerator(ibmq16_topology(), seed=2019).snapshot(0)

    def compile(self, snapshot, name, variant):
        return compile_circuit(build_benchmark(name), snapshot,
                               self.VARIANTS[variant]())

    @pytest.mark.parametrize("variant", ["t-smt*", "r-smt*"])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_table2_counts(self, snapshot, name, variant):
        program = self.compile(snapshot, name, variant)
        result = execute(program, snapshot, trials=1024, seed=1)
        assert counts_digest(result.counts) == self.GOLDEN[(name, variant)]

    @pytest.mark.parametrize("name,scale,scale_readout",
                             sorted(GOLDEN_RESCALED))
    def test_rescaled_trace_counts(self, snapshot, name, scale,
                                   scale_readout):
        program = self.compile(snapshot, name, "r-smt*")
        compact = CompactProgram(program.physical.circuit,
                                 program.physical.times,
                                 topology=snapshot.topology)
        trace = ProgramTrace(compact, NoiseModel(snapshot))
        counts = run_batched(trace.rescaled(scale, scale_readout),
                             1024, np.random.default_rng(1))
        assert counts_digest(counts) == \
            self.GOLDEN_RESCALED[(name, scale, scale_readout)]


class TestPlanDedup:
    """The dedup cache must equal uncached per-plan simulation."""

    @pytest.fixture(scope="class")
    def trace(self, cal, programs):
        compiled = programs["BV4"]
        compact = CompactProgram(compiled.physical.circuit,
                                 compiled.physical.times,
                                 topology=cal.topology)
        return ProgramTrace(compact, NoiseModel(cal))

    def test_batched_plans_match_single_plan_simulation(self, trace):
        rng = np.random.default_rng(3)
        events = site_events(trace)
        plans = []
        for _ in range(6):
            k = int(rng.integers(1, 4))
            sites = np.sort(rng.choice(trace.n_sites, size=k, replace=False))
            choices = np.array([
                rng.integers(len(events[s])) for s in sites])
            plans.append((sites, choices))
        batched = batch_plan_probabilities(trace, plan_matrix(plans))
        for row, (sites, choices) in enumerate(plans):
            single = plan_probabilities(
                trace, plan_events(trace, sites, choices))
            assert np.allclose(batched[row], single)

    def test_plan_simulation_matches_legacy_run_state(self, trace):
        """Trace-level trajectory sim equals the per-trial run_state."""
        rng = np.random.default_rng(4)
        sites = np.sort(rng.choice(trace.n_sites, size=3, replace=False))
        events = site_events(trace)
        choices = np.array([rng.integers(len(events[s])) for s in sites])
        plan = plan_events(trace, sites, choices)
        legacy_plan = [list(plan.get(i, []))
                       for i in range(len(trace.compact.gates))]
        state = run_state(trace.compact, legacy_plan)
        probs = state.probabilities()
        legacy_pattern = np.bincount(
            trace.basis_codes, weights=probs,
            minlength=1 << trace.n_measures)
        assert np.allclose(plan_probabilities(trace, plan), legacy_pattern)

    def test_duplicate_plans_share_one_distribution(self, trace):
        plan = ([0], [0])
        batched = batch_plan_probabilities(trace, plan_matrix([plan] * 3))
        assert np.allclose(batched[0], batched[1])
        assert np.allclose(batched[1], batched[2])


def lowered(compiled, cal) -> ProgramTrace:
    compact = CompactProgram(compiled.physical.circuit,
                             compiled.physical.times, topology=cal.topology)
    return ProgramTrace(compact, NoiseModel(cal))


def random_plans(trace, rng, n_plans):
    """(sites, choices) plans firing every site of a few gates at once
    or a random subset of them, so events stack on one qubit."""
    gates = np.unique(trace.site_gate)
    events = site_events(trace)
    plans = []
    for _ in range(n_plans):
        picked = rng.choice(gates, size=min(gates.size, 3), replace=False)
        fire = np.isin(trace.site_gate, picked[:int(rng.integers(1, 4))])
        if rng.random() < 0.5:
            fire &= rng.random(trace.n_sites) < 0.6
        sites = np.nonzero(fire)[0]
        choices = [int(rng.integers(len(events[s]))) for s in sites]
        plans.append((sites, choices))
    return plans


class TestInjectionOracle:
    """Signed-permutation injections against the tensordot reference
    in ``batch_reference``: equal pattern matrices, not just close."""

    def check(self, trace, plans, chunk):
        # On traces of 3+ qubits the reference runs every plan in one
        # chunk, so the check also pins chunk invariance. A two-qubit
        # gate on a two-qubit trace leaves each plan one column of the
        # BLAS product, and an odd-sized chunk may round a last bit
        # differently; there the reference runs the batch's chunks.
        ref_chunk = chunk if chunk and trace.n_qubits < 3 else len(plans)
        expected = reference_plan_probabilities(
            trace, [plan_events(trace, *plan) for plan in plans],
            chunk=ref_chunk)
        got = batch_plan_probabilities(trace, plan_matrix(plans),
                                       chunk=chunk)
        np.testing.assert_array_equal(got, expected)

    @given(seed=st.integers(0, 10_000), n_qubits=st.integers(2, 5),
           n_gates=st.integers(3, 24), n_plans=st.integers(1, 12),
           chunk=st.sampled_from([1, 3, None]))
    @settings(max_examples=40, deadline=None)
    def test_random_traces_and_plans(self, cal, seed, n_qubits, n_gates,
                                     n_plans, chunk):
        circuit = random_circuit(n_qubits, n_gates, seed=seed)
        trace = lowered(compile_circuit(circuit, cal,
                                        CompilerOptions.greedy_e()), cal)
        if not trace.n_sites:
            return
        rng = np.random.default_rng(seed)
        self.check(trace, random_plans(trace, rng, n_plans), chunk)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_stacked_y_and_pair_events(self, cal, programs, chunk):
        """Idle Y then a (Y, X) pair on one two-qubit gate: three
        events, two of them Y on the same qubit."""
        trace = lowered(programs["Toffoli"], cal)
        pair_y_x = _PAULIS_2Q.index(("y", "x"))
        idle_y = _PAULIS_1Q.index("y")
        plans = []
        for s, choices in enumerate(site_events(trace)):
            idle = [t for t in range(s)
                    if trace.site_gate[t] == trace.site_gate[s]
                    and trace.site_pair[t, 0] == trace.site_pair[s, 0]]
            if len(choices) == len(_PAULIS_2Q) and idle:
                plans.append(([idle[0], s], [idle_y, pair_y_x]))
                plans.append(([s], [pair_y_x]))
                plans.append(([idle[0]], [idle_y]))
        assert len(plans) >= 3
        self.check(trace, plans, chunk)


class TestVectorizedDraws:
    """One ``rng.random`` over all noisy trials must reproduce the
    per-plan ``rng.choice`` loop: same outcomes, same RNG end state."""

    @given(seed=st.integers(0, 10_000), n_plans=st.integers(1, 6),
           width_bits=st.integers(0, 5), n_rows=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_plan_choice(self, seed, n_plans, width_bits,
                                     n_rows):
        data = np.random.default_rng(seed)
        patterns = data.random((n_plans, 1 << width_bits))
        patterns[data.random(patterns.shape) < 0.3] = 0.0
        patterns[:, 0] += 1e-3
        patterns /= patterns.sum(axis=1, keepdims=True)
        plan_of_row = data.integers(n_plans, size=n_rows)
        ours, theirs = (np.random.default_rng(seed + 1) for _ in range(2))
        drawn = batch._draw_outcomes(patterns, plan_of_row, ours)
        expected = np.empty(n_rows, dtype=np.int64)
        for plan in range(n_plans):
            rows = np.nonzero(plan_of_row == plan)[0]
            expected[rows] = theirs.choice(patterns.shape[1],
                                           size=rows.size, p=patterns[plan])
        np.testing.assert_array_equal(drawn, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("subject", ["BV8", "random8"])
    def test_run_batched_matches_reference_sampler(self, cal, subject,
                                                   monkeypatch):
        """Above ``EXACT_MAX_QUBITS``, run_batched samples trajectories:
        swapping in the reference sampler keeps counts and RNG state."""
        circuit = (build_benchmark(subject) if subject == "BV8"
                   else random_circuit(8, 40, seed=8))
        trace = lowered(compile_circuit(circuit, cal,
                                        CompilerOptions.greedy_e()), cal)
        if subject != "BV8":
            trace = trace.rescaled(3.0)
        assert trace.n_qubits > batch.EXACT_MAX_QUBITS
        ours = np.random.default_rng(7)
        counts = run_batched(trace, 2048, ours)
        calls = []

        def reference(*args):
            calls.append(args[1].shape[0])
            return reference_sample_noisy(*args)

        monkeypatch.setattr(batch, "_sample_noisy", reference)
        theirs = np.random.default_rng(7)
        assert run_batched(trace, 2048, theirs) == counts
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert calls and calls[0] > 0  # the patched sampler ran

    @pytest.mark.parametrize("row", [[0.5, np.nan], [1.2, -0.2],
                                     [0.5, 0.4], [np.inf, 0.0]])
    def test_broken_distribution_raises(self, row):
        patterns = np.array([[0.25, 0.75], row])
        with pytest.raises(SimulationError, match="probability vector"):
            batch._draw_outcomes(patterns, np.array([0, 1, 1]),
                                 np.random.default_rng(0))


class _RecordingRng:
    """A generator that records the shape of every ``random`` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def random(self, shape):
        self.shapes.append(tuple(shape))
        return self.rng.random(shape)


class TestOccurrenceDraw:
    """The occurrence matrix, drawn in blocks of whole rows, equals one
    ``(trials, sites)`` draw: same matrix and the same RNG end state,
    so the counts of both samplers do not move."""

    @staticmethod
    def assert_one_draw(site_prob, trials, seed=3):
        ours = _RecordingRng(seed)
        theirs = np.random.default_rng(seed)
        drawn = batch.draw_occurrences(site_prob, trials, ours)
        expected = theirs.random((trials, site_prob.size)) < site_prob
        assert drawn.dtype == bool and drawn.shape == expected.shape
        np.testing.assert_array_equal(drawn, expected)
        assert ours.rng.bit_generator.state == theirs.bit_generator.state
        return ours.shapes

    @pytest.mark.parametrize("trials,sites,budget,blocks", [
        (11, 10, 64, [4, 4, 3]),         # not a multiple of the block
        (8, 10, 64, [4, 4]),
        (5, 100, 64, [1] * 5),           # a row is wider than a block
        (7, 0, 64, []),                  # no sites: nothing is drawn
        (0, 5, 64, []),                  # no trials
        (1000, 37, 1 << 20, [1000]),     # one block
    ])
    def test_blocks_equal_one_draw(self, monkeypatch, trials, sites,
                                   budget, blocks):
        monkeypatch.setattr(batch, "_OCCURRENCE_BUDGET", budget)
        site_prob = np.random.default_rng(sites).random(sites) * 0.3
        shapes = self.assert_one_draw(site_prob, trials)
        assert shapes == [(rows, sites) for rows in blocks]

    def test_block_is_the_most_rows_in_8_mib(self):
        """963 sites draw 1,024 rows per block, and 2,500 trials end on
        a partial block; at any width a block is the largest
        power-of-two row count whose float64s fit in 8 MiB."""
        shapes = self.assert_one_draw(np.full(963, 0.01), 2500)
        assert shapes == [(1024, 963), (1024, 963), (452, 963)]
        for sites in (1, 3, 963, 4096, 100_000):
            recorder = _RecordingRng(0)
            batch.draw_occurrences(np.zeros(sites), (1 << 20) // sites + 1,
                                   recorder)
            rows = recorder.shapes[0][0]
            assert rows & (rows - 1) == 0
            assert rows * sites * 8 <= 8 << 20 < 2 * rows * sites * 8

    def test_more_sites_than_one_block(self):
        """Past 2**20 sites every block is a single row."""
        shapes = self.assert_one_draw(np.full((1 << 20) + 1, 0.5), 2)
        assert shapes == [(1, (1 << 20) + 1)] * 2


class TestNoiseMechanisms:
    def test_readout_asymmetry_honored(self, cal, programs):
        """Batched readout flips respect the per-bit probabilities."""
        from repro.hardware import (Calibration, QubitCalibration,
                                    ibmq16_topology, uniform_calibration)
        topo = ibmq16_topology()
        base = uniform_calibration(topo, cnot_error=0.0,
                                   single_qubit_error=0.0)
        skewed = {q: QubitCalibration(t1_us=90, t2_us=70, readout_error=0.1,
                                      single_qubit_error=0.0,
                                      readout_asymmetry=0.9)
                  for q in topo.iter_qubits()}
        asym = Calibration(topology=topo, qubits=skewed, edges=base.edges)
        circuit = Circuit(2, 2).x(0).x(1).measure_all()
        program = compile_circuit(circuit, asym, CompilerOptions.greedy_e())
        noise = NoiseModel(asym, gate_errors=False, decoherence=False)
        result = execute(program, asym, trials=4000, seed=1, expected="11",
                         noise_model=noise, engine="batched")
        assert result.success_rate == pytest.approx(0.81 ** 2, abs=0.04)

    def test_aliased_cbits_keep_all_trials(self, cal):
        """Two measures writing the same cbit must not drop counts."""
        program = aliased_cbit_program(cal)
        legacy = reference_execute(program, cal, trials=1000, seed=0)
        batched = execute(program, cal, trials=1000, seed=0,
                          engine="batched")
        assert sum(batched.counts.values()) == 1000
        assert sum(batched.ideal_distribution.values()) == \
            pytest.approx(1.0)
        assert batched.ideal_distribution == legacy.ideal_distribution
        tvd = total_variation_distance(
            empirical_distribution(legacy.counts),
            empirical_distribution(batched.counts))
        assert tvd <= 0.06

    def test_ideal_noise_gives_perfect_success(self, cal, programs):
        from repro.simulator import ideal_noise_model
        result = execute(programs["BV4"], cal, trials=256, seed=0,
                         expected=expected_output("BV4"),
                         noise_model=ideal_noise_model(cal),
                         engine="batched")
        assert result.success_rate == pytest.approx(1.0)
