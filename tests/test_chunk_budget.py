"""Chunk-budget tests: the amplitude budget, its ``REPRO_CHUNK_MIB``
override and ``--chunk-mib`` flag, and the chunk-invariance contract.

Chunks only bound peak memory: on programs of three or more qubits (BV4
here) the batched pass gives bit-identical results at every chunk size
and budget.
"""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import ReproError, SimulationError
from repro.hardware import default_ibmq16_calibration
from repro.programs import build_benchmark, expected_output
from repro.runtime import SweepCell, cell_fingerprint
from repro.simulator import CompactProgram, NoiseModel, ProgramTrace
from repro.simulator.batch import (
    CHUNK_ENV,
    amplitude_budget,
    batch_plan_probabilities,
)

from batch_reference import plan_matrix


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def bv4_trace(cal):
    compiled = compile_circuit(build_benchmark("BV4"), cal,
                               CompilerOptions.r_smt_star())
    compact = CompactProgram(compiled.physical.circuit,
                             compiled.physical.times,
                             topology=cal.topology)
    return ProgramTrace(compact, NoiseModel(cal))


def sample_plans(trace, n_plans=10, seed=9):
    """A reproducible batch of non-trivial error plans for *trace*."""
    rng = np.random.default_rng(seed)
    occurred = rng.random((256, trace.n_sites)) < trace.site_prob
    plans = []
    for row in np.nonzero(occurred.any(axis=1))[0]:
        sites = np.nonzero(occurred[row])[0]
        choices = np.zeros(sites.size, dtype=np.int64)
        plans.append((sites, choices))
        if len(plans) == n_plans:
            break
    assert len(plans) == n_plans
    return plan_matrix(plans)


class TestAmplitudeBudget:
    def test_numpy_native_budget_is_64_mib(self, monkeypatch):
        # 64 MiB of complex128 = the old _CHUNK_AMPLITUDES constant.
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert amplitude_budget() == 1 << 22

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "1")
        assert amplitude_budget() == 65536

    def test_env_override_validation(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "zero")
        with pytest.raises(SimulationError, match="number of MiB"):
            amplitude_budget()
        monkeypatch.setenv(CHUNK_ENV, "-3")
        with pytest.raises(SimulationError, match="positive"):
            amplitude_budget()
        # float() parses these, but no buffer has a non-finite size.
        for raw in ("nan", "inf", "1e400"):
            monkeypatch.setenv(CHUNK_ENV, raw)
            with pytest.raises(SimulationError, match="finite"):
                amplitude_budget()

    def test_budget_does_not_change_results(self, bv4_trace, monkeypatch):
        plans = sample_plans(bv4_trace)
        baseline = batch_plan_probabilities(bv4_trace, plans)
        monkeypatch.setenv(CHUNK_ENV, "0.001")  # a handful of plans
        squeezed = batch_plan_probabilities(bv4_trace, plans)
        np.testing.assert_array_equal(baseline, squeezed)


class TestChunkInvariance:
    def test_chunk_sizes_agree_exactly(self, bv4_trace):
        plans = sample_plans(bv4_trace)
        default = batch_plan_probabilities(bv4_trace, plans)
        for chunk in (1, 3):
            chunked = batch_plan_probabilities(bv4_trace, plans,
                                               chunk=chunk)
            np.testing.assert_array_equal(default, chunked)

    def test_chunk_must_be_positive(self, bv4_trace):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            batch_plan_probabilities(bv4_trace, sample_plans(bv4_trace, 2),
                                     chunk=0)


class TestSweepCellArrayBackend:
    """``SweepCell.array_backend`` accepts only the one array library
    and stays out of the result fingerprint."""

    def make_cell(self, cal, array_backend):
        return SweepCell(circuit=build_benchmark("BV4"), calibration=cal,
                         options=CompilerOptions.r_smt_star(),
                         expected=expected_output("BV4"), trials=128,
                         seed=0, array_backend=array_backend)

    def test_fingerprint_excludes_array_backend(self, cal):
        assert cell_fingerprint(self.make_cell(cal, None)) == \
            cell_fingerprint(self.make_cell(cal, "numpy"))

    @pytest.mark.parametrize("name", ["torch", "cupy", "NumPy", ""])
    def test_other_array_backends_rejected(self, cal, name):
        with pytest.raises(ReproError, match="must be None or 'numpy'"):
            self.make_cell(cal, name)


GHZ17 = "\n".join(
    ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[17];",
     "creg c[17];", "h q[0];"]
    + [f"cx q[{i}],q[{i + 1}];" for i in range(16)]
    + [f"measure q[{i}] -> c[{i}];" for i in range(17)] + [""])


@pytest.fixture
def unset_chunk_env(monkeypatch):
    """Start without ``REPRO_CHUNK_MIB`` and restore it afterwards:
    ``--chunk-mib`` writes ``os.environ``. The setenv records the
    original state for monkeypatch to put back."""
    monkeypatch.setenv(CHUNK_ENV, "64")
    monkeypatch.delenv(CHUNK_ENV)


class TestChunkMibFlag:
    def run_ghz17(self, tmp_path, *flags):
        path = tmp_path / "ghz17.qasm"
        path.write_text(GHZ17)
        out = io.StringIO()
        code = main(["run", "--qasm", str(path), "--device", "falcon27",
                     "--variant", "greedye*", "--engine", "batched",
                     "--trials", "64", *flags], out=out)
        return code, out.getvalue()

    def test_small_chunk_refuses_a_17_qubit_program(self, tmp_path,
                                                    unset_chunk_env,
                                                    capsys):
        code, _ = self.run_ghz17(tmp_path, "--chunk-mib", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: engine='batched' needs a dense "
                              "statevector")
        assert "at most 16 qubits" in err

    def test_default_budget_runs_it(self, tmp_path, unset_chunk_env):
        code, text = self.run_ghz17(tmp_path)
        assert code == 0
        assert "distribution overlap" in text

    def test_engines_listing_reads_the_budget(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "1")
        out = io.StringIO()
        assert main(["engines"], out=out) == 0
        batched = [line for line in out.getvalue().splitlines()
                   if line.split()[:1] == ["batched"]]
        assert len(batched) == 1 and "<= 16 qubits" in batched[0]
