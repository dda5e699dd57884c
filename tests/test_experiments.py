"""Tests for the per-figure experiment harnesses (small configurations)."""

import pytest

from repro.experiments import (
    geometric_mean,
    format_table,
    run_fig1,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_table2,
)


class TestCommon:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "0.125" in text


class TestFig1:
    def test_series_shapes(self):
        result = run_fig1(days=5)
        assert result.days == 5
        for series in result.t2_series.values():
            assert len(series) == 5
        for series in result.cnot_series.values():
            assert len(series) == 5

    def test_variation_is_meaningful(self):
        result = run_fig1(days=15)
        assert result.t2_variation > 2.0
        assert result.cnot_variation > 2.0
        assert result.readout_variation > 1.5

    def test_to_text_renders(self):
        assert "T2 Q0" in run_fig1(days=3).to_text()


class TestTable2:
    def test_all_rows_present(self):
        result = run_table2()
        assert len(result.rows) == 12
        assert "BV4" in result.to_text()

    def test_counts_within_decomposition_tolerance(self):
        for row in run_table2().rows:
            assert row.qubits == row.paper_qubits
            assert abs(row.gates - row.paper_gates) <= 8
            assert abs(row.cnots - row.paper_cnots) <= 3


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(trials=192, subset=["BV4", "HS4", "Toffoli"])

    def test_structure(self, result):
        assert set(result.runs) == {"BV4", "HS4", "Toffoli"}
        assert result.variants == ["qiskit", "t-smt*", "r-smt*"]

    def test_r_smt_beats_qiskit(self, result):
        for bench in result.runs:
            assert result.success(bench, "r-smt*") >= \
                result.success(bench, "qiskit") - 0.05

    def test_improvement_accessors(self, result):
        ratios = result.improvement_over("qiskit", "r-smt*")
        assert set(ratios) == set(result.runs)
        assert result.geomean_improvement("qiskit", "r-smt*") > 0.9

    def test_to_text(self, result):
        assert "geomean" in result.to_text()


class TestFig6:
    def test_weekly_series(self):
        result = run_fig6(days=2, trials=128, benchmarks=("BV4",))
        assert result.days == 2
        assert len(result.success["BV4"]["r-smt*"]) == 2
        assert 0 <= result.days_r_beats_t("BV4") <= 2
        assert "day0" in result.to_text()


class TestFig7:
    def test_omega_sweep(self):
        result = run_fig7(trials=128, benchmarks=("BV4",),
                          omegas=(0.0, 0.5))
        assert set(result.labels) == {"t-smt*", "r-smt*(w=0)",
                                      "r-smt*(w=0.5)"}
        for label in result.labels:
            assert 0 <= result.success("BV4", label) <= 1
            assert result.duration("BV4", label) > 0
            assert result.compile_time("BV4", label) < 60
        assert "success rate" in result.to_text()


class TestFig8:
    def test_mappings(self):
        result = run_fig8()
        assert set(result.compiled) == {"qiskit", "t-smt*", "r-smt*(w=1)",
                                        "r-smt*(w=0.5)"}
        art = result.grid_art("qiskit")
        assert "[p0]" in art
        assert result.compiled["qiskit"].swap_count > 0
        assert result.compiled["r-smt*(w=0.5)"].swap_count == 0
        assert "est.reliability" in result.to_text()


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9(subset=["BV4", "Toffoli", "QFT"])

    def test_labels(self, result):
        assert result.labels == ["t-smt(rr)", "t-smt*(rr)", "t-smt*(1bp)",
                                 "r-smt*(1bp)"]

    def test_calibrated_durations_never_worse(self, result):
        for bench in result.runs:
            assert result.duration(bench, "t-smt*(rr)") <= \
                result.duration(bench, "t-smt(rr)") + 1e-9

    def test_r_smt_duration_near_optimal(self, result):
        """Paper: R-SMT* duration is close to T-SMT*'s optimum."""
        for bench in result.runs:
            assert result.duration(bench, "r-smt*(1bp)") <= \
                1.5 * result.duration(bench, "t-smt*(1bp)")

    def test_to_text(self, result):
        assert "geomean" in result.to_text()


class TestFig10:
    def test_heuristics_close_to_optimal(self):
        result = run_fig10(trials=192, subset=["BV4", "HS4"])
        for bench in result.runs:
            ratio = (result.success(bench, "greedye*")
                     / max(result.success(bench, "r-smt*"), 1e-9))
            assert ratio > 0.7
        assert result.geomean_ratio("greedye*") > 0.7


class TestFig11:
    def test_scaling_trend(self):
        result = run_fig11(smt_qubits=(4,), greedy_qubits=(4, 16),
                           gate_counts=(64, 128), smt_time_cap=5.0)
        greedy_times = [p.compile_time for p in result.points
                        if p.variant == "greedye*"]
        assert all(t < 1.0 for t in greedy_times)
        smt_times = [p.compile_time for p in result.points
                     if p.variant == "r-smt*"]
        assert smt_times  # R-SMT* samples recorded
        assert "greedye*" in result.to_text()

    def test_series_accessor(self):
        result = run_fig11(smt_qubits=(), greedy_qubits=(4,),
                           gate_counts=(64, 128))
        series = result.series("greedye*", 4)
        assert [g for g, _ in series] == [64, 128]


class TestReportMain:
    def test_missing_output_directory_fails_before_generating(
            self, tmp_path, monkeypatch, capsys):
        from repro.experiments import report

        def generate(*args, **kwargs):
            raise AssertionError("report generated despite a bad path")
        monkeypatch.setattr(report, "generate_report", generate)
        missing = tmp_path / "missing"
        assert report.main([str(missing / "x.md")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []
