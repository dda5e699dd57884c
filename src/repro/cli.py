"""Command-line interface.

Entry points (also available as ``python -m repro``):

* ``repro compile``     — compile a benchmark or ScaffIR/QASM file and
  print the optimized OpenQASM (the paper's toolflow output);
* ``repro run``         — compile and execute on the noisy simulator,
  reporting the measured success rate;
* ``repro calibration`` — print (or save) a day's calibration snapshot;
* ``repro experiment``  — regenerate one of the paper's figures/tables
  (``--workers N`` fans the underlying sweep out over N processes);
* ``repro sweep``       — run a declarative (benchmark x variant x
  calibration-day x seed) scenario grid on the sweep runtime, with
  ``--workers`` parallelism and cross-cell compile/trace caching;
* ``repro mitigate``    — compile, execute, and apply an
  error-mitigation strategy (zero-noise extrapolation, readout
  inversion, or a stack), reporting raw vs mitigated success;
* ``repro serve``       — run the compile service daemon: accepts
  ``repro submit`` grids over a length-prefixed JSON socket protocol
  with admission control (bounded queue, per-tenant caps, coalescing),
  graceful SIGTERM drain, and a ``--health`` probe;
* ``repro submit``      — submit a sweep grid to a running ``repro
  serve`` daemon with per-request deadlines, exponential backoff, and
  idempotent retry — the served counterpart of ``repro sweep``;
* ``repro backends``    — list the machine presets
  (:data:`repro.backend.BACKENDS`);
* ``repro engines``     — list the execution engines
  (:data:`repro.backend.ENGINES`);
* ``repro passes``      — list the compiler passes and mapper variants
  behind the pass-manager pipeline;
* ``repro benchmarks``  — list the registered Table-2 benchmarks.

Choice lists come from the tables that implement them (``ALL_VARIANTS``,
``ALL_ROUTES``, ``ZNE_FITS``, ``ZNE_AMPLIFIERS``, ``BACKENDS``),
``mitigate --strategy`` is checked by ``strategy_from_spec`` itself, and
subcommands, experiments and variants dispatch through one dict each.

Every executing subcommand takes ``--device`` (a backend preset name;
``repro sweep`` accepts several and runs the grid per device), and
``repro run``, ``repro sweep`` and ``repro submit`` take ``--engine``
(one of the three execution engines). ``repro run``, ``repro sweep``
and ``repro mitigate`` accept
``--cache-dir DIR`` to persist the compile, stage and trace caches on
disk, so repeated invocations reuse compilations and lowered traces
across processes.

``repro sweep`` runs on the fault-tolerant runtime: failed cells are
reported, not fatal (``--strict`` restores abort-on-first-error with a
non-zero exit), ``--resume`` skips cells already checkpoint-journaled
in ``--cache-dir``, and ``--max-retries``/``--batch-timeout`` tune the
supervised pool's worker-death retry and watchdog policies. Setting
``REPRO_FAULTS=1`` with a ``REPRO_FAULT_SPEC`` arms the
fault-injection harness (:mod:`repro.runtime.faults`) for chaos
drills.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.backend import BACKENDS, ENGINES, engine_name, get_backend
from repro.compiler import (
    ALL_ROUTES,
    ALL_VARIANTS,
    MAPPERS,
    CompilerOptions,
    build_pipeline,
    mapper_for,
)
from repro.exceptions import MitigationError, ReproError
from repro.ir import parse_scaffir, qasm_to_circuit
from repro.mitigation import (
    ZNE_AMPLIFIERS,
    ZNE_FITS,
    FoldingPass,
    strategy_from_spec,
)
from repro.programs import benchmark_names, expected_output, get_benchmark
from repro.simulator import execute
from repro.simulator.batch import CHUNK_ENV, amplitude_budget

#: ``repro experiment`` name -> harness call, given the
#: :mod:`repro.experiments` package (imported on first use) and the
#: parsed arguments. The keys are the command's choices.
_EXPERIMENTS = {
    "fig1": lambda ex, a: ex.run_fig1(days=a.days or 25, backend=a.device),
    "table2": lambda ex, a: ex.run_table2(),
    "fig5": lambda ex, a: ex.run_fig5(trials=a.trials, workers=a.workers,
                                      backend=a.device),
    "fig6": lambda ex, a: ex.run_fig6(days=a.days or 7, trials=a.trials,
                                      workers=a.workers, backend=a.device),
    "fig7": lambda ex, a: ex.run_fig7(trials=a.trials, workers=a.workers,
                                      backend=a.device),
    "fig8": lambda ex, a: ex.run_fig8(workers=a.workers, backend=a.device),
    "fig9": lambda ex, a: ex.run_fig9(workers=a.workers, backend=a.device),
    "fig10": lambda ex, a: ex.run_fig10(trials=a.trials, workers=a.workers,
                                        backend=a.device),
    "fig11": lambda ex, a: ex.run_fig11(workers=a.workers),
    "mitigation": lambda ex, a: ex.run_mitigation_study(
        trials=a.trials, workers=a.workers, backend=a.device),
}

#: Each ``ALL_VARIANTS`` name -> its named ``CompilerOptions``
#: constructor, given ``--omega`` (only R-SMT* reads it).
_VARIANT_OPTIONS = {
    "qiskit": lambda omega: CompilerOptions.qiskit(),
    "t-smt": lambda omega: CompilerOptions.t_smt(),
    "t-smt*": lambda omega: CompilerOptions.t_smt_star(),
    "r-smt*": lambda omega: CompilerOptions.r_smt_star(omega=omega),
    "greedyv*": lambda omega: CompilerOptions.greedy_v(),
    "greedye*": lambda omega: CompilerOptions.greedy_e(),
}


def _nonnegative_int(text: str) -> int:
    """Argparse type: an int >= 0 (workers, retries, days, seeds)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type: an int >= 1 (capacities, trials, days, seeds)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a finite float > 0 (time limits, timeouts,
    deadlines, windows)."""
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {value}")
    return value


def _strategy_spec(text: str) -> str:
    """Argparse type: a mitigation spec :func:`strategy_from_spec`
    accepts (``zne``, ``readout`` and ``+`` stacks, estimator last),
    rejected with the library's own message."""
    try:
        strategy_from_spec(text)
    except MitigationError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _port_type(lowest: int):
    """Argparse type factory: a TCP port in ``lowest``-65535."""
    def port(text: str) -> int:
        value = int(text)
        if not lowest <= value <= 65535:
            raise argparse.ArgumentTypeError(
                f"must be a port in {lowest}-65535, got {value}")
        return value
    return port


def add_grid_args(parser: argparse.ArgumentParser) -> None:
    """The (device x benchmark x variant x day x seed) grid flags that
    ``repro sweep`` and ``repro submit`` share; :func:`_grid_cells`
    builds the grid from them."""
    parser.add_argument("--device", nargs="+", default=["ibmq16"],
                        metavar="NAME",
                        help="backend presets — the same grid runs "
                             "per device (default: ibmq16)")
    parser.add_argument("--calibration-seed", type=int, default=None,
                        help="calibration generator seed (default: "
                             "each backend's own)")
    parser.add_argument("--benchmarks", nargs="+", metavar="NAME",
                        default=["BV4", "HS6", "Toffoli"],
                        choices=benchmark_names(include_large_n=True),
                        help="benchmarks to sweep (default: BV4 HS6 "
                             "Toffoli)")
    parser.add_argument("--variants", nargs="+", metavar="VARIANT",
                        default=["t-smt*", "r-smt*"],
                        choices=ALL_VARIANTS,
                        help="compiler variants (default: t-smt* r-smt*)")
    parser.add_argument("--routing", default=None, choices=ALL_ROUTES,
                        help="routing policy override (default: each "
                             "variant's own)")
    parser.add_argument("--days", type=_positive_int, default=1,
                        help="calibration days 0..N-1 (default: 1)")
    parser.add_argument("--seeds", type=_positive_int, default=1,
                        help="executor seeds per configuration "
                             "(default: 1)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base executor seed (default: 7)")
    parser.add_argument("--trials", type=_positive_int, default=1024)
    parser.add_argument("--engine", default=None,
                        help="execution engine for every cell "
                             "(default: each backend's own; "
                             "stabilizer/auto unlock the large-n "
                             "Clifford tier)")
    parser.add_argument("--omega", type=float, default=0.5,
                        help="readout weight for r-smt* (default: 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Noise-adaptive compiler mappings for NISQ computers "
                    "(ASPLOS 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--device", default="ibmq16",
                       help="backend preset (default: ibmq16; see "
                            "`repro backends`)")
        p.add_argument("--day", type=_nonnegative_int, default=0,
                       help="calibration day (default: 0)")
        p.add_argument("--calibration-seed", type=int, default=None,
                       help="calibration generator seed (default: the "
                            "backend's own)")

    def add_compile_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--variant", default="r-smt*", choices=ALL_VARIANTS)
        p.add_argument("--routing", default=None, choices=ALL_ROUTES,
                       help="routing policy (default: variant's own)")
        p.add_argument("--omega", type=float, default=0.5,
                       help="readout weight for r-smt* (default: 0.5)")
        p.add_argument("--time-limit", type=_positive_float, default=60.0,
                       help="solver time limit in seconds")
        p.add_argument("--peephole", action="store_true",
                       help="apply adjacent-inverse cancellation")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--benchmark",
                           choices=benchmark_names(include_large_n=True),
                           help="a registered benchmark (Table 2 or the "
                                "large-n Clifford tier)")
        group.add_argument("--scaffir", type=Path,
                           help="path to a ScaffIR program")
        group.add_argument("--qasm", type=Path,
                           help="path to an OpenQASM 2.0 program")

    compile_p = sub.add_parser("compile", help="compile to OpenQASM")
    add_machine_args(compile_p)
    add_compile_args(compile_p)
    compile_p.add_argument("--output", type=Path, default=None,
                           help="write QASM here instead of stdout")
    compile_p.add_argument("--verify", action="store_true",
                           help="append the verify pass to the pipeline")
    compile_p.add_argument("--timing", action="store_true",
                           help="print a per-pass timing breakdown")

    profile_p = sub.add_parser(
        "profile",
        help="compile once and report per-pass wall time, "
             "allocations, and solver search counters")
    add_machine_args(profile_p)
    add_compile_args(profile_p)
    profile_p.add_argument("--no-alloc", action="store_true",
                           help="skip allocation tracing (tracemalloc "
                                "slows the compile it measures)")
    profile_p.add_argument("--json", action="store_true",
                           help="emit the profile as JSON instead of a "
                                "table")

    def add_cache_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="persist the caches (and a sweep's cell "
                            "journal) in this directory, reused across "
                            "invocations")

    def add_chunk_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--chunk-mib", type=_positive_int, default=None,
                       metavar="MIB",
                       help="cap the per-chunk statevector buffer at "
                            "this many MiB of complex128 (sets "
                            "REPRO_CHUNK_MIB; default: 64). Results are "
                            "chunk-invariant")

    run_p = sub.add_parser("run", help="compile and simulate")
    add_machine_args(run_p)
    add_compile_args(run_p)
    run_p.add_argument("--trials", type=_positive_int, default=1024)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--engine", default=None,
                       help="execution engine (default: the backend's "
                            f"own; one of {', '.join(ENGINES)}; see "
                            "`repro engines`)")
    run_p.add_argument("--expected", default=None,
                       help="expected outcome string (default: the "
                            "benchmark's registered answer)")
    add_chunk_arg(run_p)
    add_cache_dir(run_p)

    cal_p = sub.add_parser("calibration", help="print calibration data")
    add_machine_args(cal_p)
    cal_p.add_argument("--output", type=Path, default=None,
                       help="write JSON here instead of a summary")

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper figure/table")
    exp_p.add_argument("name", choices=_EXPERIMENTS)
    exp_p.add_argument("--trials", type=_positive_int, default=1024)
    exp_p.add_argument("--days", type=_positive_int, default=None,
                       help="days for fig1/fig6")
    exp_p.add_argument("--device", default=None,
                       help="run the study on this backend preset "
                            "instead of the paper's IBMQ16 (ignored by "
                            "the device-independent table2/fig11)")
    exp_p.add_argument("--workers", type=_nonnegative_int, default=0,
                       help="sweep worker processes (0 = in-process; "
                            "ignored by fig1/table2)")
    add_chunk_arg(exp_p)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a scenario grid on the parallel sweep runtime",
        description="Execute a (device x benchmark x variant x "
                    "calibration-day x seed) grid through the sweep "
                    "runtime. Cells sharing a configuration reuse one "
                    "compilation and one lowered execution trace (cache "
                    "keys hold each device's calibration content, so "
                    "devices with different snapshots never share an "
                    "entry); --workers >= 2 fans the grid out "
                    "over a process pool with results bit-identical to "
                    "the serial run.")
    add_grid_args(sweep_p)
    sweep_p.add_argument("--workers", type=_nonnegative_int,
                         default=0,
                         help="worker processes (0 = in-process serial)")
    sweep_p.add_argument("--strict", action="store_true",
                         help="abort on the first failed cell (non-zero "
                              "exit) instead of reporting partial "
                              "results plus a failure report")
    sweep_p.add_argument("--resume", action="store_true",
                         help="skip cells already checkpoint-journaled "
                              "in --cache-dir (resume an interrupted "
                              "sweep; bit-identical to an uninterrupted "
                              "run)")
    sweep_p.add_argument("--max-retries", type=_nonnegative_int,
                         default=2,
                         help="worker-death retries per cell before the "
                              "suspect cell is quarantined as failed "
                              "(default: 2)")
    sweep_p.add_argument("--batch-timeout", type=_positive_float,
                         default=None,
                         metavar="SECONDS",
                         help="watchdog: kill and resubmit a worker "
                              "making no progress for this long "
                              "(default: disabled)")
    add_chunk_arg(sweep_p)
    add_cache_dir(sweep_p)

    mit_p = sub.add_parser(
        "mitigate",
        help="execute with an error-mitigation strategy",
        description="Compile the selected benchmarks, execute them on "
                    "the noisy simulator, and apply an error-mitigation "
                    "strategy — zero-noise extrapolation (zne), "
                    "readout-confusion inversion (readout), or a '+' "
                    "stack — reporting raw vs mitigated success "
                    "probability per benchmark. Scaled-noise executions "
                    "share the compiled program and its lowered trace; "
                    "nothing is recompiled.")
    add_machine_args(mit_p)
    mit_p.add_argument("--benchmarks", nargs="+", metavar="NAME",
                       default=["BV4", "BV6", "HS2", "Toffoli"],
                       choices=benchmark_names(include_large_n=True),
                       help="benchmarks to mitigate (default: BV4 BV6 "
                            "HS2 Toffoli)")
    mit_p.add_argument("--variant", default="r-smt*", choices=ALL_VARIANTS)
    mit_p.add_argument("--omega", type=float, default=0.5,
                       help="readout weight for r-smt* (default: 0.5)")
    mit_p.add_argument("--strategy", default="zne", type=_strategy_spec,
                       help="mitigation strategy (zne, readout) or a "
                            "'+' stack of them, estimator last, e.g. "
                            "readout+zne (default: zne)")
    mit_p.add_argument("--scales", nargs="+", type=_positive_float,
                       default=None, metavar="S",
                       help="ZNE noise scales (default: 1 1.5 2)")
    mit_p.add_argument("--fit", default="linear", choices=ZNE_FITS,
                       help="ZNE extrapolation fit (default: linear)")
    mit_p.add_argument("--amplifier", default="trace",
                       choices=ZNE_AMPLIFIERS,
                       help="ZNE noise amplifier: scale the lowered "
                            "trace (no recompilation) or fold gates "
                            "through the pipeline (default: trace)")
    mit_p.add_argument("--trials", type=_positive_int, default=1024)
    mit_p.add_argument("--seed", type=int, default=7)
    mit_p.add_argument("--workers", type=_nonnegative_int, default=0,
                       help="worker processes (0 = in-process serial)")
    add_cache_dir(mit_p)

    serve_p = sub.add_parser(
        "serve",
        help="run the compile service daemon (or probe its health)",
        description="Start a long-lived compilation-as-a-service "
                    "daemon: clients submit sweep cells over a "
                    "length-prefixed JSON socket protocol; admitted "
                    "cells are batched through the fault-tolerant "
                    "sweep runtime and each result is streamed back "
                    "to every client waiting on its fingerprint. "
                    "Admission control bounds the queue and each "
                    "tenant's in-flight requests, shedding the excess "
                    "with Retry-After hints; identical submissions "
                    "coalesce onto one execution. SIGTERM drains "
                    "gracefully: in-flight cells finish and are "
                    "journaled, new work is refused, the process "
                    "exits 0. With --health, probe a running server "
                    "and print its health report instead.")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default: loopback; "
                              "the protocol carries pickled payloads — "
                              "bind trusted interfaces only)")
    serve_p.add_argument("--port", type=_port_type(0), default=7781,
                         help="TCP port (default: 7781; 0 = OS-picked, "
                              "announced on stderr)")
    serve_p.add_argument("--health", action="store_true",
                         help="query a running server's health and "
                              "exit (0 healthy, 1 unreachable)")
    serve_p.add_argument("--workers", type=_nonnegative_int, default=0,
                         help="sweep pool width per batch (0 = "
                              "in-process; >= 2 enables supervised "
                              "worker-death recovery)")
    serve_p.add_argument("--queue-capacity", type=_positive_int,
                         default=64, metavar="K",
                         help="max distinct queued cells before "
                              "shedding (default: 64)")
    serve_p.add_argument("--tenant-cap", type=_positive_int, default=16,
                         metavar="M",
                         help="max outstanding requests per tenant "
                              "(default: 16)")
    serve_p.add_argument("--batch-window", type=_positive_float,
                         default=0.05, metavar="SECONDS",
                         help="burst-coalescing window per executor "
                              "batch (default: 0.05)")
    serve_p.add_argument("--batch-max", type=_positive_int, default=32,
                         help="max distinct cells per executor batch "
                              "(default: 32)")
    serve_p.add_argument("--max-retries", type=_nonnegative_int,
                         default=2,
                         help="worker-death retries per cell "
                              "(default: 2)")
    serve_p.add_argument("--batch-timeout", type=_positive_float,
                         default=None, metavar="SECONDS",
                         help="watchdog: kill and resubmit a worker "
                              "making no progress for this long "
                              "(default: disabled)")
    add_cache_dir(serve_p)

    submit_p = sub.add_parser(
        "submit",
        help="submit a scenario grid to a running compile service",
        description="The client side of `repro serve`: build the same "
                    "(device x benchmark x variant x day x seed) grid "
                    "as `repro sweep` and submit it cell by cell over "
                    "the socket protocol, with per-request deadlines, "
                    "exponential backoff with jitter, idempotent "
                    "resubmission, and a circuit breaker. Results are "
                    "bit-identical to running the grid in-process.")
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=_port_type(1), default=7781)
    submit_p.add_argument("--tenant", default="cli",
                          help="admission-control identity "
                               "(default: cli)")
    submit_p.add_argument("--deadline", type=_positive_float,
                          default=None, metavar="SECONDS",
                          help="per-request wall-clock budget "
                               "(default: none)")
    submit_p.add_argument("--max-attempts", type=_positive_int,
                          default=8,
                          help="tries per request, first included "
                               "(default: 8)")
    add_grid_args(submit_p)

    sub.add_parser("backends", help="list machine presets")

    sub.add_parser("engines", help="list execution engines")

    sub.add_parser("passes", help="list compiler passes and variants")

    sub.add_parser("benchmarks", help="list registered benchmarks")
    return parser


def _load_circuit(args: argparse.Namespace):
    if args.benchmark:
        return (get_benchmark(args.benchmark).build(),
                expected_output(args.benchmark))
    if args.scaffir:
        return parse_scaffir(args.scaffir.read_text(),
                             name=args.scaffir.stem), None
    return qasm_to_circuit(args.qasm.read_text(), name=args.qasm.stem), None


def _variant_options(variant: str, omega: float,
                     routing: Optional[str] = None) -> CompilerOptions:
    """The CLI-wide variant name -> CompilerOptions map (one source of
    truth for ``compile``, ``run`` and ``sweep``)."""
    options = _VARIANT_OPTIONS[variant](omega)
    if routing is not None:
        options = options.with_(routing=routing)
    return options


def _backend(name: str, args: argparse.Namespace):
    """Backend preset *name*, with ``--calibration-seed`` applied."""
    backend = get_backend(name)
    if args.calibration_seed is not None:
        backend = backend.with_(calibration_seed=args.calibration_seed)
    return backend


def _options(args: argparse.Namespace) -> CompilerOptions:
    return _variant_options(args.variant, args.omega, args.routing).with_(
        solver_time_limit=args.time_limit, peephole=args.peephole)


def _cmd_compile(args: argparse.Namespace, out) -> int:
    circuit, _ = _load_circuit(args)
    calibration = _backend(args.device, args).calibration(args.day)
    options = _options(args)
    pipeline = build_pipeline(options, verify=args.verify)
    program = pipeline.run(circuit, calibration, options)
    print(program.summary(), file=sys.stderr)
    if args.verify:
        print(f"verification OK "
              f"({len(program.verification.checks_run)} checks)",
              file=sys.stderr)
    if args.timing:
        print(program.timing_report(), file=sys.stderr)
    text = program.qasm()
    if args.output:
        args.output.write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        out.write(text)
    return 0


def _cmd_profile(args: argparse.Namespace, out) -> int:
    import json as _json
    import tracemalloc

    circuit, _ = _load_circuit(args)
    calibration = _backend(args.device, args).calibration(args.day)
    options = _options(args)
    # The pipeline logs allocations while tracemalloc traces; stop only
    # tracing this command started.
    started = not args.no_alloc and not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        program = build_pipeline(options).run(circuit, calibration, options)
    finally:
        if started:
            tracemalloc.stop()
    if args.json:
        passes = {t.name: {"calls": int(not t.cached), "seconds": t.seconds,
                           "alloc_bytes": t.alloc_bytes,
                           "peak_bytes": t.peak_bytes,
                           "cache_hits": int(t.cached)}
                  for t in program.pass_timings}
        solver = program.mapping.stats if program.mapping else None
        out.write(_json.dumps({"passes": passes, "solver": solver,
                               "compile_time": program.compile_time},
                              indent=2) + "\n")
        return 0
    print(program.summary(), file=sys.stderr)
    out.write(program.timing_report() + "\n")
    return 0


def _compile_cache(args: argparse.Namespace):
    """The compile cache an invocation should use (disk-backed when
    ``--cache-dir`` was given, fresh in-memory otherwise)."""
    from repro.runtime import CompileCache, DiskStore

    return CompileCache(DiskStore(args.cache_dir)
                        if args.cache_dir is not None else None)


def _chunk_setup(args: argparse.Namespace) -> None:
    """Apply ``--chunk-mib`` as ``REPRO_CHUNK_MIB`` (inherited by
    fork-spawned pool workers)."""
    if args.chunk_mib is not None:
        os.environ[CHUNK_ENV] = str(args.chunk_mib)


def _cmd_run(args: argparse.Namespace, out) -> int:
    circuit, registered_answer = _load_circuit(args)
    backend = _backend(args.device, args)
    # Resolve the engine before compiling: an engine typo should fail
    # in milliseconds, not after the SMT solve.
    engine = args.engine or backend.default_engine
    engine_name(engine)
    _chunk_setup(args)
    calibration = backend.calibration(args.day)
    program, cache_hit = _compile_cache(args).get_or_compile(
        circuit, calibration, _options(args))
    if cache_hit:
        print("compilation served from cache", file=sys.stderr)
    expected = args.expected or registered_answer
    result = execute(program, calibration, trials=args.trials,
                     seed=args.seed, expected=expected, engine=engine)
    out.write(program.summary() + "\n")
    if expected is not None:
        out.write(f"success rate: {result.success_rate:.4f} "
                  f"({result.counts.get(expected, 0)}/{result.trials} "
                  f"trials correct)\n")
    out.write(f"distribution overlap: {result.overlap:.4f}\n")
    top = sorted(result.counts.items(), key=lambda kv: -kv[1])[:5]
    out.write("top outcomes: "
              + ", ".join(f"{o}:{c}" for o, c in top) + "\n")
    return 0


def _cmd_calibration(args: argparse.Namespace, out) -> int:
    calibration = _backend(args.device, args).calibration(args.day)
    if args.output:
        args.output.write_text(calibration.to_json())
        print(f"wrote {args.output}", file=sys.stderr)
        return 0
    out.write(f"{calibration.topology.name} {calibration.label}\n")
    out.write(f"mean CNOT error:    {calibration.mean_cnot_error():.4f}\n")
    out.write(f"mean readout error: {calibration.mean_readout_error():.4f}\n")
    out.write(f"mean CNOT duration: "
              f"{calibration.mean_cnot_duration():.2f} slots\n")
    out.write(f"worst coherence:    "
              f"{calibration.worst_coherence_slots():.0f} slots\n")
    return 0


def _cmd_experiment(args: argparse.Namespace, out) -> int:
    from repro import experiments

    _chunk_setup(args)
    if args.device is not None and args.name in ("table2", "fig11"):
        print(f"note: {args.name} is device-independent; --device ignored",
              file=sys.stderr)
    result = _EXPERIMENTS[args.name](experiments, args)
    out.write(result.to_text() + "\n")
    return 0


def _grid_cells(args: argparse.Namespace):
    """The (device x benchmark x variant x day x seed) grid both
    ``repro sweep`` (in-process) and ``repro submit`` (served) build —
    one source of truth, so the bit-identity contract between the two
    paths is a property of the runtime, not of argument plumbing."""
    from repro.runtime import SweepCell

    backends = [_backend(name, args) for name in args.device]
    specs = {name: get_benchmark(name) for name in args.benchmarks}
    circuits = {name: spec.build() for name, spec in specs.items()}
    return [SweepCell(circuit=circuits[bench],
                      backend=backend, day=day,
                      options=_variant_options(variant, args.omega,
                                               args.routing),
                      expected=specs[bench].expected_output,
                      trials=args.trials, seed=args.seed + s,
                      engine=args.engine,
                      key=(backend.name, bench, variant, day,
                           args.seed + s))
            for backend in backends
            for day in range(args.days)
            for bench in args.benchmarks
            for variant in args.variants
            for s in range(args.seeds)]


def _grid_table(results, out) -> None:
    """Render per-cell grid results (shared by sweep and submit)."""
    from repro.experiments.common import format_table

    rows = []
    for result in results:
        device, bench, variant, day, seed = result.key
        if result.ok:
            rows.append([device, bench, variant, day, seed,
                         result.success_rate,
                         result.compiled.swap_count,
                         f"{result.compiled.duration:.0f}"])
        else:
            rows.append([device, bench, variant, day, seed,
                         "FAILED", "-", "-"])
    out.write(format_table(
        ["device", "benchmark", "variant", "day", "seed", "success",
         "swaps", "duration"], rows) + "\n")


def _cmd_sweep(args: argparse.Namespace, out) -> int:
    from repro.runtime import FaultPlan, run_sweep

    _chunk_setup(args)
    cells = _grid_cells(args)
    sweep = run_sweep(cells, workers=args.workers,
                      cache_dir=args.cache_dir, strict=args.strict,
                      resume=args.resume, max_retries=args.max_retries,
                      batch_timeout=args.batch_timeout,
                      faults=FaultPlan.from_env())
    _grid_table(sweep, out)
    out.write(sweep.summary() + "\n")
    if not sweep.ok:
        out.write(sweep.failure_report() + "\n")
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.runtime import FaultPlan
    from repro.service import ServerConfig, ServiceClient
    from repro.service.server import serve

    if args.health:
        with ServiceClient(args.host, args.port) as client:
            report = client.health()
        for field in ("status", "uptime", "queue_depth", "in_flight",
                      "capacity", "tenant_cap", "served", "resumed",
                      "failed", "quarantined", "coalesced", "shed",
                      "degraded", "redeemed", "journal", "workers",
                      "batches"):
            out.write(f"{field}: {report.get(field)}\n")
        return 0 if report.get("status") in ("ok", "draining") else 1
    config = ServerConfig(
        host=args.host, port=args.port, cache_dir=args.cache_dir,
        workers=args.workers, queue_capacity=args.queue_capacity,
        tenant_cap=args.tenant_cap, batch_window=args.batch_window,
        batch_max=args.batch_max, max_retries=args.max_retries,
        batch_timeout=args.batch_timeout)

    def announce(host: str, port: int) -> None:
        print(f"repro serve: listening on {host}:{port} "
              f"(queue={args.queue_capacity}, tenant-cap="
              f"{args.tenant_cap}, workers={args.workers}, journal="
              f"{'on' if args.cache_dir else 'off'})",
              file=sys.stderr, flush=True)

    return serve(config, faults=FaultPlan.from_env(), announce=announce)


def _cmd_submit(args: argparse.Namespace, out) -> int:
    from repro.service import RetryPolicy, ServiceClient

    cells = _grid_cells(args)
    retry = RetryPolicy(max_attempts=args.max_attempts)
    with ServiceClient(args.host, args.port, tenant=args.tenant,
                       deadline=args.deadline, retry=retry) as client:
        results = client.submit_many(cells)
        stats = dict(client.stats)
    _grid_table(results, out)
    failures = [r for r in results if not r.ok]
    out.write(f"{len(results)} cells served by {args.host}:{args.port} "
              f"({stats['retries']} retries, {stats['sheds']} sheds, "
              f"{stats['transport_failures']} transport failures, "
              f"{stats['coalesced']} coalesced, "
              f"{stats['journal_hits']} journal hits)\n")
    if stats["degraded_responses"]:
        out.write("warning: server reported memory-only cache "
                  "degradation\n")
    if failures:
        out.write(f"{len(failures)}/{len(results)} cells failed "
                  f"server-side:\n")
        for result in failures:
            out.write("  " + result.failure.describe() + "\n")
        return 1
    return 0


def _cmd_mitigate(args: argparse.Namespace, out) -> int:
    from repro.experiments.common import format_table
    from repro.runtime import SweepCell, run_sweep

    backend = _backend(args.device, args)
    options = _variant_options(args.variant, args.omega)
    strategy = strategy_from_spec(args.strategy,
                                  scales=args.scales or (),
                                  fit=args.fit, amplifier=args.amplifier)
    specs = {name: get_benchmark(name) for name in args.benchmarks}
    cells = [SweepCell(circuit=specs[name].build(), backend=backend,
                       day=args.day, options=options,
                       expected=specs[name].expected_output,
                       trials=args.trials, seed=args.seed,
                       mitigation=strategy, key=name)
             for name in args.benchmarks]
    sweep = run_sweep(cells, workers=args.workers,
                      cache_dir=args.cache_dir)

    outcomes = [(r.key, r.mitigation) for r in sweep if r.ok]
    out.write(format_table(
        ["benchmark", "raw", "mitigated", "gain", "extra execs"],
        [[key, o.raw_success, o.mitigated_success, o.gain, o.executions]
         for key, o in outcomes]) + "\n")
    if outcomes:
        mean_raw = sum(o.raw_success for _, o in outcomes) / len(outcomes)
        mean_mit = sum(o.mitigated_success
                       for _, o in outcomes) / len(outcomes)
        improved = sum(o.gain > 0.0 for _, o in outcomes)
        out.write(f"strategy {strategy.fingerprint()}: mean success "
                  f"{mean_raw:.4f} -> {mean_mit:.4f}, improved on "
                  f"{improved}/{len(outcomes)} benchmarks\n")
    out.write(sweep.summary() + "\n")
    if not sweep.ok:
        out.write(sweep.failure_report() + "\n")
        return 1
    return 0


def _cmd_backends(args: argparse.Namespace, out) -> int:
    out.write(f"{'name':10s} {'qubits':>6} {'grid':>6} {'cal.seed':>8} "
              f"{'engine':>8}  description\n")
    for name, backend in BACKENDS.items():
        grid = f"{backend.topology.mx}x{backend.topology.my}"
        out.write(f"{name:10s} {backend.n_qubits:>6} {grid:>6} "
                  f"{backend.calibration_seed:>8} "
                  f"{backend.default_engine:>8}  {backend.description}\n")
    out.write("\nregistered execution engines: "
              + ", ".join(ENGINES) + "\n")
    return 0


def _cmd_engines(args: argparse.Namespace, out) -> int:
    dense_qubits = max(1, amplitude_budget()).bit_length() - 1
    out.write("registered execution engines:\n")
    out.write(f"  {'name':10s} {'family':10s} {'capacity':34s} "
              f"description\n")
    for name, (family, capacity, description) in ENGINES.items():
        capacity = capacity.format(dense_qubits=dense_qubits)
        out.write(f"  {name:10s} {family:10s} {capacity:34s} "
                  f"{description}\n")
    return 0


def _cmd_passes(args: argparse.Namespace, out) -> int:
    probe = CompilerOptions.r_smt_star().with_(peephole=True)
    passes = [*build_pipeline(probe, verify=True).passes, FoldingPass()]
    out.write("registered passes (canonical pipeline order):\n")
    for p in passes:
        doc = (type(p).__doc__ or "").strip()
        first_line = doc.splitlines()[0] if doc else ""
        out.write(f"  {type(p).name:12s} {first_line}\n")
    out.write("\nregistered mapping variants:\n")
    for variant in MAPPERS:
        mapper = mapper_for(probe.with_(variant=variant))
        out.write(f"  {variant:10s} -> {type(mapper).__name__}\n")
    return 0


def _cmd_benchmarks(args: argparse.Namespace, out) -> int:
    out.write(f"{'name':10s} {'qubits':>6} {'gates':>6} {'CNOTs':>6} "
              f"{'answer':>10}\n")
    for name in benchmark_names(include_large_n=True):
        spec = get_benchmark(name)
        circuit = spec.build()
        answer = spec.expected_output
        if len(answer) > 10:
            answer = answer[:7] + "..."
        out.write(f"{name:10s} {circuit.n_qubits:>6} "
                  f"{circuit.gate_count():>6} {circuit.cnot_count():>6} "
                  f"{answer:>10}\n")
    return 0


#: Subcommand -> handler; each takes the parsed arguments and the
#: output stream and returns the exit code.
_COMMANDS = {
    "compile": _cmd_compile,
    "profile": _cmd_profile,
    "run": _cmd_run,
    "calibration": _cmd_calibration,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "mitigate": _cmd_mitigate,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "backends": _cmd_backends,
    "engines": _cmd_engines,
    "passes": _cmd_passes,
    "benchmarks": _cmd_benchmarks,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
