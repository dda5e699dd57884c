"""Bench: the noise-adaptive mapping solvers on the fig11 ladder and Table 2.

Compares three R-SMT* solver configurations on the Figure-11
random-program ladder (the paper's compile-time scalability sweep):

* **seed** — the pre-fast-path configuration: the generic engine, which
  bounds each candidate value with its own ``SumObjective`` bound, with
  an identity warm start;
* **cold** — the vectorized engine, started cold;
* **warm** — the compile fast path: vectorized engine + greedy warm
  start (what ``ReliabilitySmtMapper`` runs).

Node counts are bit-deterministic and pinned exactly against
``solver_baseline.json``; wall clock is machine-dependent and asserted
only as an aggregate seed/warm ratio (skipped in smoke mode). The table
also prints the cold and warm vector engine's cost per node. Points
past 8 qubits are node-capped: the seed engine cannot finish them (the
paper reports hours at 32 qubits), so equal node budgets compare cost
per node in the scaling regime. Optimality is asserted unchanged on
every uncapped point.

The T-SMT* rung solves each Table-2 program on the default IBMQ16
snapshot exactly as ``TimeSmtMapper`` does in a compile (generic
engine, greedy warm start, and a critical-path bound compiled against
the snapshot's Delta table that probes every candidate of a node in one
walk), pins every node count and objective exactly, and prints the cost
per node.
"""

import json
import os
import time

from conftest import SMOKE, record

from repro.compiler import CompilerOptions
from repro.compiler.mapping.smt import (
    TimeSmtMapper,
    _greedy_warm_start,
    _identity_warm_start,
    reliability_model,
)
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    default_ibmq16_calibration,
    square_topology,
)
from repro.programs import benchmark_names, get_benchmark, random_circuit
from repro.solver import BranchAndBoundSolver

_BASELINE = os.path.join(os.path.dirname(__file__), "solver_baseline.json")


def _instance(n_qubits: int, n_gates: int):
    circuit = random_circuit(n_qubits, n_gates,
                             seed=2019 + n_qubits * 10000 + n_gates)
    topology = square_topology(max(n_qubits, 4))
    calibration = CalibrationGenerator(topology, seed=2019).snapshot(0)
    tables = ReliabilityTables(calibration)
    model, search_qubits = reliability_model(circuit, calibration,
                                             tables, 0.5)
    warm = _greedy_warm_start(circuit, calibration, tables, search_qubits)
    identity = _identity_warm_start(search_qubits)
    return model, warm, identity


def _timed(solver, model, **kwargs):
    start = time.perf_counter()
    result = solver.solve(model, **kwargs)
    return result, time.perf_counter() - start


def _run_ladder(points):
    rows = []
    for spec in points:
        cap = spec["node_cap"]
        model, warm, identity = _instance(spec["qubits"], spec["gates"])
        seed, t_seed = _timed(
            BranchAndBoundSolver(engine="generic", node_limit=cap),
            model, initial=identity)
        cold, t_cold = _timed(
            BranchAndBoundSolver(engine="vector", node_limit=cap), model)
        fast, t_warm = _timed(
            BranchAndBoundSolver(engine="vector", node_limit=cap),
            model, initial=warm)
        rows.append({"spec": spec, "seed": seed, "cold": cold,
                     "warm": fast, "t_seed": t_seed, "t_cold": t_cold,
                     "t_warm": t_warm})
    return rows


def test_solver_ladder(benchmark):
    with open(_BASELINE) as fh:
        baseline = json.load(fh)
    tier = "smoke" if SMOKE else "full"
    points = baseline[tier]
    rows = benchmark.pedantic(_run_ladder, args=(points,),
                              rounds=1, iterations=1)

    lines = ["fig11 solver ladder (seed vs vectorized fast path)",
             f"{'point':>14} {'seed':>12} {'cold':>12} {'warm':>12} "
             f"{'speedup':>8} {'cold us/node':>12} {'warm us/node':>12}"]
    total_seed = total_warm = 0.0
    for row in rows:
        spec = row["spec"]
        seed, cold, warm = row["seed"], row["cold"], row["warm"]
        # Node counts are deterministic: pin them exactly.
        assert seed.nodes == spec["seed_nodes"], spec
        assert cold.nodes == spec["cold_nodes"], spec
        assert warm.nodes == spec["warm_nodes"], spec
        if spec["node_cap"] is None:
            # Unchanged optimality: every configuration proves the
            # same optimum.
            assert seed.optimal and cold.optimal and warm.optimal
            assert abs(seed.objective - warm.objective) < 1e-9
            assert abs(seed.objective - cold.objective) < 1e-9
        else:
            # Node-capped scaling points: the fast path's incumbent is
            # never worse under the identical budget.
            assert warm.objective >= seed.objective - 1e-9
        # The greedy warm start never costs nodes over a cold start.
        assert warm.nodes <= cold.nodes
        total_seed += row["t_seed"]
        total_warm += row["t_warm"]
        label = (f"{spec['qubits']}q/{spec['gates']}g"
                 + ("*" if spec["node_cap"] else ""))
        lines.append(
            f"{label:>14} {row['t_seed'] * 1e3:>10.1f}ms "
            f"{row['t_cold'] * 1e3:>10.1f}ms "
            f"{row['t_warm'] * 1e3:>10.1f}ms "
            f"{row['t_seed'] / row['t_warm']:>7.2f}x "
            f"{row['t_cold'] * 1e6 / cold.nodes:>12.1f} "
            f"{row['t_warm'] * 1e6 / warm.nodes:>12.1f}")
    speedup = total_seed / total_warm
    lines.append(f"{'aggregate':>14} {total_seed * 1e3:>10.1f}ms "
                 f"{'':>12} {total_warm * 1e3:>10.1f}ms "
                 f"{speedup:>7.2f}x  (* = node-capped)")
    floor = baseline["speedup_floor"][tier]
    if floor is not None:
        assert speedup >= floor, (
            f"fast-path aggregate speedup {speedup:.2f}x fell below the "
            f"pinned {floor}x floor")
    record(benchmark, "\n".join(lines))


def _run_tsmt_rung():
    calibration = default_ibmq16_calibration()
    tables = ReliabilityTables(calibration)
    mapper = TimeSmtMapper(CompilerOptions.t_smt_star(routing="1bp"))
    return [(name, mapper.run(get_benchmark(name).build(), calibration,
                              tables))
            for name in benchmark_names()]


def test_tsmt_star_rung(benchmark):
    """T-SMT* on Table 2: node counts and objectives pinned exactly."""
    with open(_BASELINE) as fh:
        pins = json.load(fh)["tsmt_star"]
    rows = benchmark.pedantic(_run_tsmt_rung, rounds=1, iterations=1)
    assert [name for name, _ in rows] == list(pins)

    lines = ["T-SMT* on Table 2 (default IBMQ16 snapshot, generic engine)",
             f"{'program':>10} {'nodes':>6} {'objective':>12} "
             f"{'solve':>10} {'us/node':>8}"]
    total_s = total_nodes = 0
    for name, result in rows:
        pin = pins[name]
        assert result.optimal, name
        assert result.nodes == pin["nodes"], name
        assert result.objective == pin["objective"], name
        total_s += result.solve_time
        total_nodes += result.nodes
        lines.append(f"{name:>10} {result.nodes:>6} "
                     f"{result.objective:>12.4f} "
                     f"{result.solve_time * 1e3:>8.1f}ms "
                     f"{result.solve_time * 1e6 / result.nodes:>8.1f}")
    lines.append(f"{'total':>10} {total_nodes:>6} {'':>12} "
                 f"{total_s * 1e3:>8.1f}ms "
                 f"{total_s * 1e6 / total_nodes:>8.1f}")
    record(benchmark, "\n".join(lines))
