"""Tests for device presets and the command-line interface."""

import io
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.backend import get_backend
from repro.cli import _VARIANT_OPTIONS, _grid_cells, build_parser, main
from repro.compiler import ALL_VARIANTS
from repro.exceptions import TopologyError
from repro.hardware import ibmq5_topology, ibmq20_topology, linear_topology
from repro.mitigation import strategy_from_spec
from repro.simulator.batch import CHUNK_ENV


class TestDevices:
    def test_registry_lookup(self):
        assert get_backend("ibmq16").topology.n_qubits == 16
        assert get_backend("IBMQ20").topology.n_qubits == 20
        assert get_backend("ibmq5").topology.n_qubits == 5

    def test_unknown_device(self):
        with pytest.raises(TopologyError):
            get_backend("quantum-toaster")

    def test_linear_topology_is_a_chain(self):
        topo = linear_topology(6)
        assert topo.n_qubits == 6
        assert len(topo.edges()) == 5
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(3) == [2, 4]

    def test_linear_rejects_zero(self):
        with pytest.raises(TopologyError):
            linear_topology(0)

    def test_presets_shape(self):
        assert (ibmq5_topology().mx, ibmq5_topology().my) == (5, 1)
        assert (ibmq20_topology().mx, ibmq20_topology().my) == (5, 4)

    def test_device_calibration(self):
        cal = get_backend("ibmq20").calibration(2)
        assert cal.topology.n_qubits == 20
        assert cal.label == "day2"

    def test_compile_on_linear_device(self):
        """All variants work on the ion-trap-style chain."""
        from repro.compiler import CompilerOptions, compile_circuit
        from repro.hardware import CalibrationGenerator
        from repro.programs import build_benchmark

        cal = CalibrationGenerator(linear_topology(8), seed=4).snapshot(0)
        program = compile_circuit(build_benchmark("Toffoli"), cal,
                                  CompilerOptions.r_smt_star())
        assert len(program.placement) == 3


class TestCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_benchmarks_listing(self):
        code, text = self.run_cli("benchmarks")
        assert code == 0
        assert "BV4" in text and "Adder" in text

    def test_passes_listing(self):
        """The seven passes in pipeline order, each with a description,
        then the six variants in ``ALL_VARIANTS`` order with their
        mappers."""
        code, text = self.run_cli("passes")
        assert code == 0
        passes, variants = text.split("\n\n")
        rows = [row.split(maxsplit=1) for row in passes.splitlines()[1:]]
        assert [name for name, _ in rows] == [
            "mapping", "schedule", "swap-insert", "peephole",
            "reliability", "verify", "fold"]
        assert all(description.strip() for _, description in rows)
        assert [row.split() for row in variants.splitlines()[1:]] == [
            [variant, "->", mapper] for variant, mapper in zip(
                ALL_VARIANTS,
                ["TrivialMapper", "TimeSmtMapper", "TimeSmtMapper",
                 "ReliabilitySmtMapper", "GreedyVertexMapper",
                 "GreedyEdgeMapper"], strict=True)]

    def test_calibration_summary(self):
        code, text = self.run_cli("calibration", "--device", "ibmq16",
                                  "--day", "1")
        assert code == 0
        assert "mean CNOT error" in text

    def test_calibration_json_output(self, tmp_path):
        out_file = tmp_path / "cal.json"
        code, _ = self.run_cli("calibration", "--output", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert len(data["qubits"]) == 16

    @pytest.mark.parametrize("argv", [
        ("calibration", "--day", "2"),
        ("compile", "--benchmark", "BV4"),
        ("run", "--benchmark", "BV4", "--variant", "greedye*",
         "--trials", "128"),
        ("sweep", "--benchmarks", "BV4", "--variants", "greedye*",
         "--trials", "128"),
        ("mitigate", "--benchmarks", "BV4", "--variant", "greedye*",
         "--trials", "128"),
    ], ids=lambda argv: argv[0])
    def test_calibration_seed_reaches_every_command(self, argv):
        """--calibration-seed reseeds the backend each command compiles
        and executes on: the backend's own seed changes nothing, another
        seed changes the output."""
        def output(*flags):
            code, text = self.run_cli(*argv, *flags)
            assert code == 0
            # Drop the lines that report wall-clock times.
            return [line for line in text.splitlines()
                    if "compile=" not in line and " cells in " not in line]

        own = str(get_backend("ibmq16").calibration_seed)
        assert output("--calibration-seed", own) == output()
        assert output("--calibration-seed", "7") != output()

    def test_non_finite_chunk_budget_is_an_error(self, monkeypatch, capsys):
        """A non-finite REPRO_CHUNK_MIB fails like any bad input: one
        ``error:`` line and exit code 1, not a traceback."""
        for raw in ("nan", "inf", "1e400"):
            monkeypatch.setenv(CHUNK_ENV, raw)
            code, _ = self.run_cli("run", "--benchmark", "BV4",
                                   "--variant", "greedye*", "--trials", "8")
            assert code == 1
            assert (f"error: {CHUNK_ENV} must be a finite number of MiB, "
                    f"got {raw!r}") in capsys.readouterr().err

    def test_compile_benchmark_to_stdout(self):
        code, text = self.run_cli("compile", "--benchmark", "BV4",
                                  "--variant", "greedye*")
        assert code == 0
        assert text.startswith("OPENQASM 2.0;")

    def test_compile_with_verification(self, tmp_path):
        out_file = tmp_path / "bv4.qasm"
        code, _ = self.run_cli("compile", "--benchmark", "BV4",
                               "--variant", "r-smt*", "--verify",
                               "--output", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("OPENQASM 2.0;")

    def test_compile_scaffir_file(self, tmp_path):
        src = tmp_path / "prog.scaffir"
        src.write_text("qubits 2\ncbits 2\nh q0\ncx q0, q1\n"
                       "measure q0 -> c0\nmeasure q1 -> c1\n")
        code, text = self.run_cli("compile", "--scaffir", str(src),
                                  "--variant", "greedyv*")
        assert code == 0
        assert "cx" in text

    def test_compile_qasm_file(self, tmp_path):
        src = tmp_path / "prog.qasm"
        src.write_text("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
                       "h q[0];\ncx q[0], q[1];\n"
                       "measure q[0] -> c[0];\n")
        code, text = self.run_cli("compile", "--qasm", str(src))
        assert code == 0
        assert "measure" in text

    def test_run_benchmark(self):
        code, text = self.run_cli("run", "--benchmark", "BV4",
                                  "--variant", "greedye*",
                                  "--trials", "128")
        assert code == 0
        assert "success rate:" in text

    def test_run_with_peephole(self):
        code, text = self.run_cli("run", "--benchmark", "Toffoli",
                                  "--variant", "qiskit", "--peephole",
                                  "--trials", "128")
        assert code == 0
        assert "success rate:" in text

    def test_experiment_table2(self):
        code, text = self.run_cli("experiment", "table2")
        assert code == 0
        assert "BV4" in text

    def test_experiment_fig1(self):
        code, text = self.run_cli("experiment", "fig1", "--days", "3")
        assert code == 0
        assert "T2" in text

    def test_experiment_fig8(self):
        code, text = self.run_cli("experiment", "fig8")
        assert code == 0
        assert "est.reliability" in text

    def test_unknown_device_is_an_error(self):
        code, _ = self.run_cli("calibration", "--device", "toaster")
        assert code == 1

    def test_mitigate_reports_a_failed_cell(self):
        """BV8 does not fit ibmq5's 5 qubits: BV4's row is still
        tabulated, the failure is reported, and the exit code says so."""
        code, text = self.run_cli("mitigate", "--device", "ibmq5",
                                  "--benchmarks", "BV4", "BV8",
                                  "--trials", "64")
        assert code == 1
        lines = text.splitlines()
        assert [line.split()[0] for line in lines[2:3]] == ["BV4"]
        assert "improved on" in text and "/1 benchmarks" in text
        assert "1/2 cells failed:" in lines
        assert any(line.startswith("  cell 'BV8'")
                   and "MappingError" in line for line in lines)

    def test_variant_table_covers_every_variant(self):
        """``--variant`` offers ``ALL_VARIANTS``; each name must have a
        constructor, or argparse accepts it and the lookup fails."""
        assert list(_VARIANT_OPTIONS) == list(ALL_VARIANTS)
        for name, build in _VARIANT_OPTIONS.items():
            assert build(0.25).variant == name
        assert _VARIANT_OPTIONS["r-smt*"](0.25).omega == 0.25

    @pytest.mark.parametrize("spec", ["zne", "readout", "readout+zne",
                                      "readout+readout", " readout + zne"])
    def test_strategy_accepts_what_the_library_accepts(self, spec):
        args = build_parser().parse_args(["mitigate", "--strategy", spec])
        assert args.strategy == spec
        strategy_from_spec(args.strategy)

    @pytest.mark.parametrize("spec,message", [
        ("zne+readout", "put it last (e.g. readout+zne, not zne+readout)"),
        ("zne+zne", "put it last"),
        ("bogus", "unknown mitigation strategy 'bogus'"),
        ("readout+", "unknown mitigation strategy ''"),
    ])
    def test_strategy_rejects_with_the_library_message(self, capsys, spec,
                                                       message):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("mitigate", "--strategy", spec)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --strategy: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("compile", "--benchmark", "HS6", "--time-limit"),
        ("run", "--benchmark", "BV4", "--time-limit"),
        ("sweep", "--batch-timeout"),
        ("serve", "--batch-timeout"),
        ("serve", "--batch-window"),
        ("submit", "--deadline"),
        ("mitigate", "--scales"),
    ], ids=lambda argv: "-".join(argv[::len(argv) - 1]))
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e400"])
    def test_float_flags_must_be_finite_and_positive(self, capsys, argv,
                                                     value):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(*argv, value)
        assert exc.value.code == 2
        assert "must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("calibration",), ("compile", "--benchmark", "BV4"),
        ("profile", "--benchmark", "BV4"), ("run", "--benchmark", "BV4"),
        ("mitigate", "--benchmarks", "BV4"),
    ], ids=lambda argv: argv[0])
    def test_calibration_day_must_be_non_negative(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(*argv, "--day", "-1")
        assert exc.value.code == 2
        assert "must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--days"), ("sweep", "--seeds"), ("sweep", "--trials"),
        ("experiment", "fig6", "--days"), ("experiment", "fig6", "--trials"),
        ("run", "--benchmark", "BV4", "--trials"),
        ("mitigate", "--trials"),
    ], ids=lambda argv: "-".join(argv[::len(argv) - 1]))
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_flags_must_be_positive(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(*argv, value)
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err


class TestGridArgs:
    GRID = ["--device", "ibmq16", "ibmq5", "--calibration-seed", "3",
            "--benchmarks", "BV4", "HS2", "--variants", "qiskit",
            "greedye*", "--routing", "rr", "--days", "2", "--seeds", "2",
            "--seed", "11", "--trials", "64", "--engine", "batched",
            "--omega", "0.25"]
    FLAGS = ("device", "calibration_seed", "benchmarks", "variants",
             "routing", "days", "seeds", "seed", "trials", "engine",
             "omega")

    @pytest.mark.parametrize("grid", [GRID, []], ids=["given", "defaults"])
    def test_sweep_and_submit_parse_one_grid(self, grid):
        """``repro sweep`` and ``repro submit`` read the same grid from
        the same flags, so a served grid is the in-process one."""
        parser = build_parser()
        sweep = parser.parse_args(["sweep"] + grid)
        submit = parser.parse_args(["submit"] + grid)
        assert {f: getattr(sweep, f) for f in self.FLAGS} == \
            {f: getattr(submit, f) for f in self.FLAGS}
        assert [c.key for c in _grid_cells(sweep)] == \
            [c.key for c in _grid_cells(submit)]


class TestProfileCli:
    """``repro profile``: one compile under the profiler."""

    PASSES = ["mapping[r-smt*]", "schedule", "swap-insert", "reliability"]

    def run_profile(self, *flags):
        out = io.StringIO()
        code = main(["profile", "--benchmark", "BV4", *flags], out=out)
        assert code == 0
        return out.getvalue()

    def test_json_reports_each_pass_once_and_the_solver(self):
        report = json.loads(self.run_profile("--json"))
        passes = report["passes"]
        assert list(passes) == self.PASSES
        assert all(p["calls"] == 1 and p["cache_hits"] == 0
                   for p in passes.values())
        assert passes["mapping[r-smt*]"]["peak_bytes"] > 0
        assert list(report["solver"]) == ["engine", "nodes", "prunes",
                                          "incumbents"]
        assert report["solver"]["engine"] == "vector"
        assert not tracemalloc.is_tracing()

    def test_no_alloc_traces_nothing(self):
        passes = json.loads(self.run_profile("--no-alloc", "--json"))[
            "passes"]
        assert list(passes) == self.PASSES
        assert all(p["alloc_bytes"] == 0 and p["peak_bytes"] == 0
                   for p in passes.values())
        assert not tracemalloc.is_tracing()

    @pytest.mark.parametrize("variant", ["r-smt*", "greedye*"])
    def test_table_columns_fit_the_longest_pass_name(self, variant, capsys):
        """``repro profile`` and ``repro compile --timing`` print one
        table."""
        assert main(["compile", "--benchmark", "BV4", "--variant", variant,
                     "--timing"], out=io.StringIO()) == 0
        timed = capsys.readouterr().err.splitlines()[1:]  # after summary
        profiled = self.run_profile("--variant", variant).splitlines()
        width = len(f"mapping[{variant}]")
        for lines in (profiled, timed):
            header, rows = lines[0], lines[2:7]
            assert header.split() == ["pass", "calls", "hits", "seconds",
                                      "alloc", "peak"]
            assert header.index("calls") == width + 1
            assert {row[:width].rstrip() for row in rows} == {
                f"mapping[{variant}]", "schedule", "swap-insert",
                "reliability", "total"}
            for row in rows[:-1]:
                assert row[width:width + 12].split() == ["1", "0"]
                assert row[width + 12] == " "
            for row in rows:
                float(row[width + 13:width + 22])
