"""Full-evaluation report generator.

Runs every experiment harness at publication settings and renders a
markdown report in the EXPERIMENTS.md format: one section per paper
table/figure with the regenerated rows/series and a paper-vs-measured
note. ``python -m repro.experiments.report [output.md]`` writes it,
and beside it ``output.json``: the data behind every figure, read off
each result dataclass at the fixed seeds. The JSON leaves out wall
times (compile times) and fig11's R-SMT* points, whose ``truncated``
flag depends on the solver's wall-clock cap, so two runs of one
version write byte-identical files. The repository commits the file
as ``EXPERIMENTS.json``; a change that moves a paper number shows up
as a diff of it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, TextIO

from repro.experiments import (
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
from repro.experiments.ablations import (
    run_convention_ablation,
    run_omega_sweep,
    run_peephole_ablation,
)

#: Trials per execution for the report (the paper runs 8192 shots).
REPORT_TRIALS = 2048


def _section(out: TextIO, title: str, paper_claim: str, body: str,
             observed: str) -> None:
    out.write(f"\n## {title}\n\n")
    out.write(f"**Paper:** {paper_claim}\n\n")
    out.write("```\n" + body + "\n```\n\n")
    out.write(f"**Measured here:** {observed}\n")


def _runs_table(runs, value) -> Dict[str, Dict[str, object]]:
    """``{benchmark: {label: value(run)}}`` over a BenchmarkRun grid."""
    return {bench: {label: value(run) for label, run in by_label.items()}
            for bench, by_label in runs.items()}


def generate_report(out: TextIO, trials: int = REPORT_TRIALS,
                    progress: Optional[TextIO] = None,
                    data: Optional[Dict[str, object]] = None) -> None:
    """Run the full evaluation and write the markdown report to *out*.

    When *data* is given, it is filled with every figure's series (see
    the module docstring), one key per section.
    """
    if data is None:
        data = {}
    def log(msg: str) -> None:
        if progress is not None:
            progress.write(msg + "\n")
            progress.flush()

    start = time.time()
    out.write("# EXPERIMENTS — paper vs. this reproduction\n\n")
    out.write(
        "Regenerated by `python -m repro.experiments.report`. Absolute\n"
        "numbers come from the noisy simulator driven by synthetic\n"
        "IBMQ16 calibration (see the README's \"Substitutions\"); the\n"
        "*shape* of each result is what reproduces the paper.\n"
        f"Executions use {trials} simulated trials (paper: 8192\n"
        "hardware shots).\n")

    log("fig1 ...")
    fig1 = run_fig1(days=25)
    _section(
        out, "Figure 1 — daily calibration variation",
        "T2 varies up to 9.2x, CNOT error up to 9.0x, readout error up "
        "to 5.9x across qubits and calibration cycles.",
        fig1.to_text(),
        f"T2 {fig1.t2_variation:.1f}x, CNOT {fig1.cnot_variation:.1f}x, "
        f"readout {fig1.readout_variation:.1f}x over 25 synthetic days — "
        "same order, same autocorrelated daily wander.")
    data["fig1"] = {
        "days": fig1.days,
        "t2_series": {str(q): series
                      for q, series in fig1.t2_series.items()},
        "cnot_series": {f"{a},{b}": series
                        for (a, b), series in fig1.cnot_series.items()},
        "t2_variation": fig1.t2_variation,
        "cnot_variation": fig1.cnot_variation,
        "readout_variation": fig1.readout_variation,
    }

    log("table2 ...")
    table2 = run_table2()
    _section(
        out, "Table 2 — benchmark characteristics",
        "12 benchmarks, 2-8 qubits, 12-42 gates, 2-10 CNOTs.",
        table2.to_text(),
        "Qubit counts match exactly; CNOT counts match except Adder "
        "(13 vs 10 — our Cuccaro/Margolus construction; see the README's "
        "\"Substitutions\"); "
        "gate totals are within a few gates (we count measurements and "
        "use textbook decompositions).")
    data["table2"] = [vars(row) for row in table2.rows]

    log("fig5 ...")
    fig5 = run_fig5(trials=trials)
    gm = fig5.geomean_improvement("qiskit", "r-smt*")
    ratios = [r for r in fig5.improvement_over("qiskit", "r-smt*").values()
              if r != float("inf")]
    _section(
        out, "Figure 5 — success rate vs Qiskit",
        "R-SMT* beats Qiskit on every benchmark: geomean 2.9x, up to "
        "18x; R-SMT* also beats T-SMT* everywhere.",
        fig5.to_text(),
        f"geomean {gm:.2f}x, max {max(ratios):.1f}x; R-SMT* >= Qiskit on "
        "every benchmark; zero-movement benchmarks (BV/HS/QFT/Adder) "
        "are the most reliable, the triangle-shaped Toffoli family the "
        "least — both as in the paper.")
    data["fig5"] = {
        "success": _runs_table(fig5.runs, lambda r: r.success_rate),
        "swaps": _runs_table(fig5.runs, lambda r: r.compiled.swap_count),
        "r_smt_over_qiskit_geomean": gm,
        "r_smt_over_qiskit_max": max(ratios),
    }

    log("fig6 ...")
    fig6 = run_fig6(days=7, trials=trials)
    resilience = {b: fig6.days_r_beats_t(b) for b in fig6.success}
    _section(
        out, "Figure 6 — one week of daily executions",
        "Success rates change daily; R-SMT* is more resilient than "
        "T-SMT* on every day shown.",
        fig6.to_text(),
        f"days R-SMT* >= T-SMT*: {resilience} of 7 — the reliability "
        "objective re-adapts to each day's error map while T-SMT* "
        "re-uses whatever hardware its duration objective likes.")
    data["fig6"] = {"success": fig6.success,
                    "days_r_beats_t": resilience}

    log("fig7 ...")
    fig7 = run_fig7(trials=trials)
    _section(
        out, "Figure 7 — choice of objective (omega)",
        "w=0.5 gives the best success rate (up to 9.25x over T-SMT*); "
        "R-SMT* durations are near T-SMT*'s optimum; all compiles < 1 "
        "minute.",
        fig7.to_text(),
        "w=0.5 is best or near-best on every benchmark; w=1 (readout "
        "only) pays for its SWAP-heavy mappings; durations track "
        "T-SMT* closely; compile times are well under a minute.")
    data["fig7"] = {
        "success": _runs_table(fig7.runs, lambda r: r.success_rate),
        "duration": _runs_table(fig7.runs, lambda r: r.duration),
    }

    log("fig8 ...")
    fig8 = run_fig8()
    _section(
        out, "Figure 8 — BV4 mappings by objective",
        "Qiskit maps lexicographically (SWAPs, bad readouts); T-SMT* "
        "avoids SWAPs but may use a bad CNOT; w=1 chases readouts with "
        "long SWAP paths; w=0.5 avoids SWAPs and bad hardware.",
        fig8.to_text(),
        "same four regimes: Qiskit needs SWAPs, T-SMT* and w=0.5 are "
        "SWAP-free, w=1 wanders for readouts, and w=0.5 attains the "
        "best estimated reliability.")
    data["fig8"] = {
        label: {"placement": {str(q): h for q, h
                              in sorted(program.placement.items())},
                "swaps": program.swap_count,
                "estimated_success": program.estimated_success,
                "duration": program.duration}
        for label, program in fig8.compiled.items()}

    log("fig9 ...")
    fig9 = run_fig9()
    _section(
        out, "Figure 9 — execution duration",
        "Calibrated gate times improve duration up to 1.68x; RR vs 1BP "
        "indistinguishable at these sizes; R-SMT* close to T-SMT*.",
        fig9.to_text(),
        f"calibrated times are geomean "
        f"{fig9.geomean_gain_over_uniform():.2f}x shorter and never "
        "worse; routing policy is a wash; R-SMT* stays within ~25% of "
        "the duration-optimal schedules. Our gain is smaller than the "
        "paper's because our uniform-duration assumption equals the "
        "true mean (the paper's static assumption was more "
        "conservative).")
    data["fig9"] = {
        "duration": _runs_table(fig9.runs, lambda r: r.duration),
        "gain_over_uniform_geomean": fig9.geomean_gain_over_uniform(),
    }

    log("fig10 ...")
    fig10 = run_fig10(trials=trials)
    _section(
        out, "Figure 10 — heuristics vs optimal",
        "GreedyE* comparable to R-SMT* on most benchmarks "
        "(occasionally better, since w=0.5 is not always ideal); "
        "edge-based beats vertex-based.",
        fig10.to_text(),
        f"GreedyE* at {fig10.geomean_ratio('greedye*'):.2f}x of R-SMT* "
        f"(geomean), GreedyV* at {fig10.geomean_ratio('greedyv*'):.2f}x "
        "— comparable, with E* >= V*, as in the paper.")
    data["fig10"] = {
        "success": _runs_table(fig10.runs, lambda r: r.success_rate),
        "ratio_to_r_smt_geomean": {
            v: fig10.geomean_ratio(v) for v in ("greedye*", "greedyv*")},
    }

    log("fig11 ...")
    fig11 = run_fig11()
    _section(
        out, "Figure 11 — compile-time scalability",
        "R-SMT* compile time explodes (3 hours at 32 qubits / 384 "
        "gates); greedy compiles everything in under a second.",
        fig11.to_text(),
        "greedy stays in the milliseconds out to 128 qubits / 2048 "
        "gates; the branch-and-bound mapper hits its time cap at 32 "
        "qubits (truncated=True marks lower bounds) — the same "
        "exponential-vs-flat contrast.")
    data["fig11"] = {"stabilizer_success": [
        {"n_qubits": p.n_qubits, "n_gates": p.n_gates,
         "success": p.success}
        for p in fig11.points if p.variant == "stabilizer"]}

    log("ablations ...")
    omega = run_omega_sweep(trials=trials)
    _section(
        out, "Ablation — dense omega sweep (not in paper)",
        "The paper samples omega in {0, 0.5, 1} only.",
        omega.to_text(),
        "w=1 (readout only) is the worst setting everywhere; the best "
        "omega below it is benchmark-dependent (on some benchmarks the "
        "settings below 1 sit within shot noise of each other), "
        "consistent with the paper's note that 0.5 'may not be the "
        "optimal value for every benchmark'.")
    data["omega_sweep"] = {
        "success": {bench: {f"{w:g}": v for w, v in by_omega.items()}
                    for bench, by_omega in omega.success.items()},
        "best_omega": {bench: omega.best_omega(bench)
                       for bench in omega.success},
    }

    peephole = run_peephole_ablation(trials=trials)
    _section(
        out, "Ablation — peephole cancellation (not in paper)",
        "No such pass in the paper or in Qiskit 0.5.7.",
        peephole.to_text(),
        "cancelling swap-back/swap-forward pairs removes movement "
        "CNOTs on route-repeating programs and never hurts success.")
    data["peephole"] = [
        {"benchmark": b, "cnots": before, "cnots_peephole": after,
         "success": s_before, "success_peephole": s_after}
        for b, before, after, s_before, s_after in peephole.rows]

    convention = run_convention_ablation(trials=trials)
    _section(
        out, "Ablation — swap-return reliability convention (not in paper)",
        "The paper's objective charges one-way swaps (footnote 3) while "
        "its duration model charges the round trip.",
        convention.to_text(),
        "the paper's one-way convention predicts measured success "
        "better than the executed-cost round-trip product: errors on "
        "the return swaps often fail to reach a measured qubit, so "
        "charging them fully overcounts. This vindicates the paper's "
        "footnote-3 objective; both conventions rank mappings "
        "identically in any case.")
    data["convention"] = [
        {"benchmark": b, "one_way": one_way, "round_trip": round_trip,
         "measured": measured}
        for b, one_way, round_trip, measured in convention.rows]

    elapsed = time.time() - start
    out.write(f"\n---\nGenerated in {elapsed / 60.0:.1f} minutes.\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "EXPERIMENTS.md"
    data: Dict[str, object] = {}
    with open(path, "w") as handle:
        generate_report(handle, progress=sys.stderr, data=data)
    json_path = os.path.splitext(path)[0] + ".json"
    with open(json_path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True, allow_nan=False)
        handle.write("\n")
    print(f"wrote {path} and {json_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
