"""Tests for the exact outcome law (``repro.simulator.exact``).

The batched engine draws the counts of every trace of at most
``EXACT_MAX_QUBITS`` qubits from the trace's exact law. These tests pin
that law against two independent oracles — the sum over every error
plan of its probability times its trajectory distribution, then the
readout chain (exact, on traces with few sites), and the trajectory
sampler itself (statistical) — and check where the law is cached: on
the trace, dropped by rescaled clones, carried by every cache ``put``
and stored by the disk trace tier.
"""

import itertools

import numpy as np
import pytest

import repro.simulator.batch as batch
from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import SimulationError
from repro.hardware import (Calibration, CalibrationGenerator,
                            QubitCalibration, default_ibmq16_calibration,
                            ibmq16_topology, uniform_calibration)
from repro.ir.circuit import Circuit
from repro.mitigation import ZneStrategy
from repro.mitigation.strategy import MitigationContext
from repro.mitigation.zne import ScaledNoiseModel
from repro.programs import build_benchmark, expected_output, random_circuit
from repro.runtime import TraceCache
from repro.runtime.diskcache import DiskStore
from repro.simulator import (CompactProgram, NoiseModel, ProgramTrace,
                             execute, total_variation_distance)
from repro.simulator.batch import (EXACT_MAX_QUBITS,
                                   batch_plan_probabilities, run_batched)
from repro.simulator.exact import cached_ptm, outcome_law
from repro.simulator.trace import pack_arrays, unpack_arrays

from batch_reference import plan_matrix


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def snapshot():
    return CalibrationGenerator(ibmq16_topology(), seed=2019).snapshot(0)


def lowered(compiled, cal, noise=None) -> ProgramTrace:
    compact = CompactProgram(compiled.physical.circuit,
                             compiled.physical.times, topology=cal.topology)
    return ProgramTrace(compact, noise or NoiseModel(cal))


def plan_sum_law(trace) -> np.ndarray:
    """Sum of P(plan) x the plan's pattern distribution over every
    error plan, then each cbit's readout chain."""
    weights = np.diff(np.concatenate(
        [np.zeros((trace.n_sites, 1)), trace.site_cum,
         np.ones((trace.n_sites, 1))], axis=1), axis=1)
    options = [[(None, 1.0 - trace.site_prob[s])]
               + [(c, trace.site_prob[s] * w)
                  for c, w in enumerate(weights[s]) if w > 0.0]
               for s in range(trace.n_sites)]
    plans, probs = [], []
    for combo in itertools.product(*options):
        plans.append(([s for s, (c, _) in enumerate(combo) if c is not None],
                      [c for c, _ in combo if c is not None]))
        probs.append(np.prod([p for _, p in combo]))
    pattern = np.asarray(probs) @ batch_plan_probabilities(
        trace, plan_matrix(plans))
    law = np.zeros(1 << len(trace.measured_cbits))
    for code, p in enumerate(pattern):
        rendered = np.ones(1)
        for j, measures in enumerate(trace.measures_for_cbit):
            bit = (code >> trace.last_measure_for_cbit[j]) & 1
            dist = np.eye(2)[bit]
            for m in measures:
                p0, p1 = trace.readout_p0[m], trace.readout_p1[m]
                dist = np.array([[1 - p0, p1], [p0, 1 - p1]]) @ dist
            rendered = np.kron(dist, rendered)  # slot j is code bit j
        law += p * rendered
    return law


def skewed_calibration():
    topo = ibmq16_topology()
    base = uniform_calibration(topo)
    qubits = {q: QubitCalibration(t1_us=90, t2_us=70, readout_error=0.1,
                                  single_qubit_error=0.01,
                                  readout_asymmetry=0.7)
              for q in topo.iter_qubits()}
    return Calibration(topology=topo, qubits=qubits, edges=base.edges)


class TestPauliTransferMatrices:
    @pytest.mark.parametrize("name,param", [("h", None), ("t", None),
                                            ("rx", 0.3), ("cx", None),
                                            ("swap", None), ("cz", None)])
    def test_orthogonal_and_trace_preserving(self, name, param):
        ptm = cached_ptm(name, param)
        np.testing.assert_allclose(ptm @ ptm.T, np.eye(len(ptm)),
                                   atol=1e-12)
        assert ptm[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(ptm[0, 1:], 0.0, atol=1e-15)
        assert not ptm.flags.writeable

    def test_x_flips_z(self):
        np.testing.assert_allclose(cached_ptm("x"),
                                   np.diag([1.0, 1.0, -1.0, -1.0]),
                                   atol=1e-15)


class TestExactOracle:
    """The law equals the plan-sum oracle to 1e-12."""

    NOISES = {
        "gates": dict(decoherence=False),
        "idle": dict(gate_errors=False),
    }

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("n_qubits", [2, 3])
    @pytest.mark.parametrize("seed", range(25))
    def test_random_circuits(self, cal, seed, n_qubits, noise):
        circuit = random_circuit(n_qubits, 4, seed=seed)
        program = compile_circuit(circuit, cal, CompilerOptions.greedy_e())
        trace = lowered(program, cal, NoiseModel(cal, **self.NOISES[noise]))
        assert trace.n_sites <= 4  # few enough plans to enumerate
        np.testing.assert_allclose(outcome_law(trace), plan_sum_law(trace),
                                   rtol=0, atol=1e-12)

    def test_aliased_cbits(self, cal):
        circuit = Circuit(2, 1).h(0).x(1).measure(0, 0).measure(1, 0)
        trace = lowered(compile_circuit(circuit, cal,
                                        CompilerOptions.greedy_e()), cal)
        assert trace.measures_for_cbit == [[0, 1]]
        np.testing.assert_allclose(outcome_law(trace), plan_sum_law(trace),
                                   rtol=0, atol=1e-12)

    def test_asymmetric_readout(self):
        skewed = skewed_calibration()
        circuit = Circuit(3, 3).h(0).cx(0, 1).x(2).measure_all()
        program = compile_circuit(circuit, skewed, CompilerOptions.greedy_e())
        trace = lowered(program, skewed,
                        NoiseModel(skewed, decoherence=False))
        assert trace.n_sites <= 4
        assert not np.allclose(trace.readout_p0, trace.readout_p1)
        np.testing.assert_allclose(outcome_law(trace), plan_sum_law(trace),
                                   rtol=0, atol=1e-12)

    def test_program_without_measures(self, cal):
        program = compile_circuit(Circuit(2, 2).h(0).cx(0, 1), cal,
                                  CompilerOptions.greedy_e())
        trace = lowered(program, cal)
        np.testing.assert_array_equal(trace.outcome_law, [1.0])
        result = execute(program, cal, trials=64, seed=0)
        assert result.counts == {"00": 64}


class TestAgainstTrajectories:
    """The trajectory sampler, forced on the same trace, draws from the
    same law."""

    SHOTS = 200_000

    @pytest.mark.parametrize("name", ["BV4", "Toffoli", "HS6", "Adder"])
    def test_tvd(self, snapshot, name, monkeypatch):
        program = compile_circuit(build_benchmark(name), snapshot,
                                  CompilerOptions.r_smt_star())
        trace = lowered(program, snapshot)
        assert trace.n_qubits <= EXACT_MAX_QUBITS
        exact = {trace.outcome_string(c): p
                 for c, p in enumerate(trace.outcome_law) if p > 0.0}
        monkeypatch.setattr(batch, "EXACT_MAX_QUBITS", 0)
        counts = run_batched(trace, self.SHOTS, np.random.default_rng(5))
        empirical = {o: n / self.SHOTS for o, n in counts.items()}
        assert total_variation_distance(exact, empirical) <= 0.01

    def test_counts_are_one_multinomial_draw(self, snapshot):
        program = compile_circuit(build_benchmark("HS4"), snapshot,
                                  CompilerOptions.r_smt_star())
        trace = lowered(program, snapshot)
        ours, theirs = (np.random.default_rng(3) for _ in range(2))
        counts = run_batched(trace, 1024, ours)
        drawn = theirs.multinomial(1024, trace.outcome_law)
        assert counts == {trace.outcome_string(c): int(drawn[c])
                          for c in np.flatnonzero(drawn)}
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestRescaling:
    @pytest.mark.parametrize("scale,scale_readout", [(3.0, False),
                                                     (2.0, True)])
    def test_clone_law_equals_fresh_scaled_lowering(self, snapshot, scale,
                                                    scale_readout):
        program = compile_circuit(build_benchmark("HS6"), snapshot,
                                  CompilerOptions.r_smt_star())
        base = lowered(program, snapshot)
        base_law = base.outcome_law
        _ = base.ideal_distribution
        clone = base.rescaled(scale, scale_readout=scale_readout)
        assert "outcome_law" not in clone.__dict__
        assert clone.__dict__["_ideal"] is base.__dict__["_ideal"]
        fresh = lowered(program, snapshot, ScaledNoiseModel(
            NoiseModel(snapshot), scale, scale_readout=scale_readout))
        np.testing.assert_allclose(clone.outcome_law, fresh.outcome_law,
                                   rtol=0, atol=1e-12)
        assert not np.allclose(clone.outcome_law, base_law)
        assert base.outcome_law is base_law


class TestCachePuts:
    """Every put of a dense trace at or under the cap carries its law;
    nothing above the cap, or on the stabilizer engine, builds one."""

    def cached_traces(self, cache):
        return list(cache._traces.values())

    def test_batched_engine_put(self, cal):
        cache = TraceCache()
        for name in ("BV4", "BV8"):
            program = compile_circuit(build_benchmark(name), cal,
                                      CompilerOptions.r_smt_star())
            execute(program, cal, trials=64, seed=0, trace_cache=cache)
        by_size = {t.n_qubits: t for t in self.cached_traces(cache)}
        assert "outcome_law" in by_size[4].__dict__
        assert "outcome_law" not in by_size[8].__dict__
        assert "_ideal" in by_size[8].__dict__

    def test_zne_primed_and_base_traces(self, cal):
        program = compile_circuit(build_benchmark("Toffoli"), cal,
                                  CompilerOptions.r_smt_star())
        cache = TraceCache()
        ctx = MitigationContext(
            compiled=program, calibration=cal, trace_cache=cache,
            baseline=execute(program, cal, trials=64, seed=0,
                             expected=expected_output("Toffoli")))
        # The baseline ran without the cache, so base_trace lowers it.
        assert ctx.base_trace() is not None
        ZneStrategy().mitigate(ctx)
        traces = self.cached_traces(cache)
        assert len(traces) == 3  # the base and two scaled clones
        assert all("outcome_law" in t.__dict__ for t in traces)

    def test_stabilizer_engine_builds_no_law(self, cal):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star())
        cache = TraceCache()
        execute(program, cal, trials=64, seed=0, engine="stabilizer",
                trace_cache=cache)
        (trace,) = self.cached_traces(cache)
        assert "outcome_law" not in trace.__dict__


class TestDiskTier:
    @pytest.fixture
    def stored(self, cal, tmp_path):
        """The trace one execution stored, and a loader that reads it
        back through a fresh cache, optionally after tampering with its
        stored arrays."""
        program = compile_circuit(build_benchmark("Toffoli"), cal,
                                  CompilerOptions.r_smt_star())
        noise = NoiseModel(cal)
        writer = TraceCache(DiskStore(tmp_path))
        execute(program, cal, trials=64, seed=0, trace_cache=writer)
        (written,) = writer._traces.values()
        key = repr(writer._key(program, noise, cal))

        def load(tamper=None):
            store = DiskStore(tmp_path)
            if tamper is not None:
                arrays = unpack_arrays(store.load_blob("trace", key))
                tamper(arrays)
                store.store_blob("trace", key, pack_arrays(arrays))
            return TraceCache(DiskStore(tmp_path)).get(
                program, noise, cal)

        return written, load

    def test_round_trips_the_law(self, stored):
        written, load = stored
        loaded = load()
        assert "outcome_law" in loaded.__dict__
        np.testing.assert_array_equal(loaded.outcome_law,
                                      written.outcome_law)
        rngs = [np.random.default_rng(9) for _ in range(2)]
        assert run_batched(loaded, 512, rngs[0]) == \
            run_batched(written, 512, rngs[1])

    @pytest.mark.parametrize("damage", ["wrong-shape", "nan", "negative"])
    def test_bad_stored_law_is_a_miss(self, stored, damage):
        def tamper(arrays):
            law = arrays["outcome_law"].copy()
            if damage == "wrong-shape":
                law = law[:-1]
            elif damage == "nan":
                law[0] = np.nan
            else:  # still sums to 1
                law[:2] = [-0.25, law[0] + law[1] + 0.25]
            arrays["outcome_law"] = law

        _, load = stored
        assert load() is not None
        assert load(tamper) is None

    def test_law_never_stored_above_the_cap(self, cal, tmp_path):
        program = compile_circuit(build_benchmark("BV8"), cal,
                                  CompilerOptions.r_smt_star())
        cache = TraceCache(DiskStore(tmp_path))
        execute(program, cal, trials=64, seed=0, trace_cache=cache)
        (trace,) = cache._traces.values()
        assert trace.n_qubits > EXACT_MAX_QUBITS
        assert "outcome_law" not in trace.to_arrays()


def test_broken_law_raises(cal):
    program = compile_circuit(build_benchmark("BV4"), cal,
                              CompilerOptions.r_smt_star())
    trace = lowered(program, cal)
    trace.site_prob = np.full_like(trace.site_prob, np.nan)
    with pytest.raises(SimulationError, match="probability vector"):
        outcome_law(trace)
