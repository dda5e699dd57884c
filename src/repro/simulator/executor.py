"""Monte-Carlo noisy execution of compiled programs.

Stands in for the paper's 8192-trial runs on IBMQ16: each trial executes
the physical circuit on a statevector, with stochastic Pauli errors
sampled per gate, idle decoherence sampled per waiting window (computed
from the compiled schedule's start times), and readout bit flips on
measurement. The fraction of trials returning the benchmark's known
answer is the measured success rate.

Engines are pluggable strategies registered with
:func:`repro.backend.engines.register_engine`; :func:`execute` resolves
its ``engine`` argument through that registry, so new engines (the
``"analytic"`` estimator in :mod:`repro.simulator.analytic`, future GPU
statevector backends) register themselves without touching this
module. The two Monte-Carlo built-ins sample the same law:

* ``engine="batched"`` (default, :class:`BatchedEngine`) lowers the
  program once into a :class:`~repro.simulator.trace.ProgramTrace` and
  samples all trials with array-level numpy operations
  (:mod:`repro.simulator.batch`): one Bernoulli matrix for every error
  site, a single vectorized draw for all error-free trials, and one
  statevector simulation per *distinct* noisy error plan.
* ``engine="trial"`` (:class:`TrialEngine`) is the legacy per-trial
  loop, kept for cross-validation (the batched engine is tested to
  agree with it within a TVD bound) and for exotic
  :class:`NoiseModel` subclasses that override the sampling methods
  rather than the probability accessors — :func:`execute` detects
  such models and falls back to it automatically.

Trials with no sampled error events short-circuit to a draw from the
ideal output distribution, which keeps thousand-trial runs fast without
changing the sampled law.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backend.engines import ExecutionEngine, get_engine, register_engine
from repro.compiler.compile import CompiledProgram
from repro.exceptions import SimulationCapacityError, SimulationError
from repro.hardware.calibration import Calibration
from repro.simulator.batch import run_batched
from repro.simulator.noise import NoiseModel, PauliEvent
from repro.simulator.statevector import StateVector
from repro.simulator.success import distribution_overlap
from repro.simulator.trace import CompactProgram, ProgramTrace
from repro.simulator.xp import resolve_array_backend


@dataclass
class ExecutionResult:
    """Outcome of a Monte-Carlo run.

    Attributes:
        counts: Measured classical strings (cbit 0 first) -> frequency.
        trials: Number of trials executed.
        expected: The benchmark's known answer, when provided.
        ideal_distribution: Noise-free outcome distribution.
    """

    counts: Dict[str, int]
    trials: int
    expected: Optional[str] = None
    ideal_distribution: Dict[str, float] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        """Fraction of trials measuring the expected answer."""
        if self.expected is None:
            raise SimulationError("no expected outcome recorded")
        return self.counts.get(self.expected, 0) / self.trials

    @property
    def overlap(self) -> float:
        """Distribution overlap sum_o min(p_ideal, p_measured)."""
        empirical = {o: c / self.trials for o, c in self.counts.items()}
        return distribution_overlap(self.ideal_distribution, empirical)

    def top_outcome(self) -> str:
        """Most frequent measured string."""
        return max(self.counts, key=lambda o: (self.counts[o], o))


#: The per-trial sampling extension points of :class:`NoiseModel`. The
#: batched engine lowers error sites from the probability accessors
#: only, so a subclass overriding one of these must run per-trial.
_SAMPLING_HOOKS = ("sample_gate_error", "sample_idle_error",
                   "sample_readout_flip")


def _overrides_sampling_hooks(noise: NoiseModel) -> bool:
    return any(getattr(type(noise), hook) is not getattr(NoiseModel, hook)
               for hook in _SAMPLING_HOOKS)


#: (noise-model class, engine name) pairs already warned about — the
#: behavior is correct but easy to miss in sweep timings/results, so
#: each combination is called out once per process.
_WARNED_FALLBACK_CLASSES: Set[Tuple[type, str]] = set()


def _overridden_hooks(cls: type) -> List[str]:
    return [hook for hook in _SAMPLING_HOOKS
            if getattr(cls, hook) is not getattr(NoiseModel, hook)]


def _warn_trial_fallback(noise: NoiseModel, engine_name: str) -> None:
    cls = type(noise)
    if (cls, engine_name) in _WARNED_FALLBACK_CLASSES:
        return
    _WARNED_FALLBACK_CLASSES.add((cls, engine_name))
    warnings.warn(
        f"{cls.__name__} overrides the per-trial sampling hook(s) "
        f"{', '.join(_overridden_hooks(cls))}; "
        f"execute(engine={engine_name!r}) falls back to the slower "
        f"engine='trial' for it. Subclass via the probability accessors "
        f"(gate_error_probability / idle_rates / "
        f"readout_flip_probability) to keep the batched engine, and "
        f"define trace_key() to stay trace-cacheable.",
        RuntimeWarning, stacklevel=3)


def _warn_hooks_ignored(noise: NoiseModel, engine_name: str) -> None:
    """An accessor-lowering engine with no fallback cannot honor the
    model's custom sampling — say so once instead of silently dropping
    it (the analytic engine is the in-tree case)."""
    cls = type(noise)
    if (cls, engine_name) in _WARNED_FALLBACK_CLASSES:
        return
    _WARNED_FALLBACK_CLASSES.add((cls, engine_name))
    warnings.warn(
        f"{cls.__name__} overrides the per-trial sampling hook(s) "
        f"{', '.join(_overridden_hooks(cls))}, but "
        f"engine={engine_name!r} derives its error law from the "
        f"probability accessors only and has no per-trial fallback; "
        f"the custom sampling is ignored.",
        RuntimeWarning, stacklevel=3)


#: Engine names already warned about dropping an explicit array-backend
#: selection (engines without a dense contraction have nothing to run
#: on it; the selection is harmless but worth saying once).
_WARNED_ARRAY_IGNORED: Set[str] = set()


def _warn_array_backend_ignored(engine_name: str) -> None:
    if engine_name in _WARNED_ARRAY_IGNORED:
        return
    _WARNED_ARRAY_IGNORED.add(engine_name)
    warnings.warn(
        f"engine={engine_name!r} does not run a pluggable array-backend "
        f"contraction; the array_backend selection is ignored (results "
        f"are unaffected — counts are array-backend-independent).",
        RuntimeWarning, stacklevel=3)


def check_dense_capacity(n_qubits: int, budget: int,
                         engine_name: str) -> None:
    """Refuse a dense run that cannot fit the amplitude budget.

    A ``2**n_qubits`` complex statevector beyond
    :meth:`~repro.simulator.xp.ArrayBackend.amplitude_budget` would
    die in the allocator (or swap the host to death) long after the
    user could do anything about it; fail fast with the remedy
    instead.
    """
    if (1 << n_qubits) > budget:
        ceiling = max(0, budget).bit_length() - 1
        raise SimulationCapacityError(
            f"engine={engine_name!r} needs a dense statevector of "
            f"2**{n_qubits} amplitudes for this {n_qubits}-qubit "
            f"program, but the array backend's amplitude budget allows "
            f"at most {ceiling} qubits (raise it with REPRO_CHUNK_MIB "
            f"or --chunk-mib); try `--engine stabilizer` for Clifford "
            f"circuits, or `--engine auto` to route automatically.")


def _dense_event(event: PauliEvent, mapping: Dict[int, int]) -> Tuple[int, str]:
    return mapping[event.qubit], event.name


def _run_state(compact: CompactProgram,
               error_plan: Optional[List[List[Tuple[int, str]]]]
               ) -> StateVector:
    """Execute the gate list; apply planned Pauli events after each gate."""
    state = StateVector(compact.n_qubits)
    for i, gate in enumerate(compact.gates):
        if gate.name == "barrier" or gate.is_measure:
            pass
        else:
            dense = tuple(compact.hw_to_dense[q] for q in gate.qubits)
            state.apply_gate(gate.name, dense, param=gate.param)
        if error_plan is not None:
            for dense_q, pauli in error_plan[i]:
                state.apply_gate(pauli, (dense_q,))
    return state


def _ideal_distribution(compact: CompactProgram) -> Dict[str, float]:
    """Noise-free distribution over classical strings."""
    state = _run_state(compact, None)
    probs = state.probabilities()
    out: Dict[str, float] = {}
    n = compact.n_qubits
    for index, p in enumerate(probs):
        if p < 1e-12:
            continue
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        string = _classical_string(compact, bits)
        out[string] = out.get(string, 0.0) + float(p)
    return out


def _classical_string(compact: CompactProgram, bits: Sequence[int]) -> str:
    chars = ["0"] * compact.n_cbits
    for _, dense, cbit in compact.measures:
        chars[cbit] = str(bits[dense])
    return "".join(chars)


@register_engine
class BatchedEngine(ExecutionEngine):
    """Vectorized Monte-Carlo over a lowered :class:`ProgramTrace`.

    Lowers error sites from the noise model's probability accessors
    (never the per-trial ``sample_*`` hooks — hence the declared
    fallback) and samples every trial with array-level operations; see
    :mod:`repro.simulator.batch`. The statevector contraction runs on
    the selected :class:`~repro.simulator.xp.ArrayBackend` (numpy by
    default) while every RNG draw stays on the host, so counts are
    bit-identical across array backends.
    """

    name = "batched"
    uses_probability_accessors = True
    fallback = "trial"
    accepts_array_backend = True

    def run(self, compiled: CompiledProgram, calibration: Calibration,
            noise: NoiseModel, *, trials: int, seed: int,
            expected: Optional[str] = None,
            trace_cache=None, array_backend=None) -> ExecutionResult:
        xb = resolve_array_backend(array_backend)
        check_dense_capacity(len(compiled.physical.circuit.used_qubits()),
                             xb.amplitude_budget(), self.name)
        rng = np.random.default_rng(seed)
        trace = (trace_cache.get(compiled, noise, calibration)
                 if trace_cache is not None else None)
        if trace is None:
            compact = CompactProgram(compiled.physical.circuit,
                                     compiled.physical.times,
                                     topology=calibration.topology)
            trace = ProgramTrace(compact, noise)
            if trace_cache is not None:
                # Materialize the ideal distribution (needed below
                # anyway) before caching, so a persistent trace tier
                # captures the dense simulation — the dominant lowering
                # cost — not just the site tables.
                _ = trace.ideal_distribution
                trace_cache.put(compiled, noise, calibration, trace)
        counts = run_batched(trace, trials, rng, array_backend=xb)
        return ExecutionResult(counts=counts, trials=trials,
                               expected=expected,
                               ideal_distribution=trace.ideal_distribution)


@register_engine
class TrialEngine(ExecutionEngine):
    """The legacy per-trial Monte-Carlo loop.

    Samples one error plan per trial through the noise model's
    ``sample_*`` hooks, so it honors subclasses that customize the
    sampling itself; kept as the cross-validation reference for the
    batched engine.
    """

    name = "trial"

    def run(self, compiled: CompiledProgram, calibration: Calibration,
            noise: NoiseModel, *, trials: int, seed: int,
            expected: Optional[str] = None,
            trace_cache=None) -> ExecutionResult:
        check_dense_capacity(
            len(compiled.physical.circuit.used_qubits()),
            resolve_array_backend("numpy").amplitude_budget(), self.name)
        rng = np.random.default_rng(seed)
        compact = CompactProgram(compiled.physical.circuit,
                                 compiled.physical.times,
                                 topology=calibration.topology)

        ideal = _ideal_distribution(compact)
        ideal_outcomes = sorted(ideal)
        ideal_probs = np.array([ideal[o] for o in ideal_outcomes])
        ideal_probs = ideal_probs / ideal_probs.sum()

        counts = {}
        for _ in range(trials):
            plan, any_error = _sample_error_plan(compact, noise, rng)
            if not any_error:
                outcome = ideal_outcomes[
                    int(rng.choice(len(ideal_outcomes), p=ideal_probs))]
            else:
                state = _run_state(compact, plan)
                bits = state.sample(rng)
                outcome = _classical_string(compact, bits)
            # Readout flips are sampled against the true measured bit so
            # the calibration's readout asymmetry is honored.
            chars = list(outcome)
            for hw, _, cbit in compact.measures:
                if noise.sample_readout_flip(hw, rng, bit=int(chars[cbit])):
                    chars[cbit] = "1" if chars[cbit] == "0" else "0"
            outcome = "".join(chars)
            counts[outcome] = counts.get(outcome, 0) + 1

        return ExecutionResult(counts=counts, trials=trials,
                               expected=expected, ideal_distribution=ideal)


def execute(compiled: CompiledProgram, calibration: Calibration,
            trials: int = 1024, seed: int = 0,
            expected: Optional[str] = None,
            noise_model: Optional[NoiseModel] = None,
            engine: str = "batched",
            trace_cache=None, array_backend=None) -> ExecutionResult:
    """Run *compiled* for *trials* shots on the noisy simulator.

    Args:
        compiled: Output of :func:`repro.compiler.compile_circuit`.
        calibration: The machine snapshot to execute under (normally the
            one the program was compiled against; pass a different day's
            snapshot to model stale-calibration compilation).
        trials: Shot count (the paper uses 8192).
        seed: Master RNG seed; results are reproducible.
        expected: The benchmark's known answer string.
        noise_model: Override the default all-mechanisms model.
        engine: Name of a registered
            :class:`~repro.backend.engines.ExecutionEngine` —
            ``"batched"`` (vectorized, default), ``"trial"`` (legacy
            per-trial loop; samples the same law), ``"analytic"``
            (deterministic closed-form estimate), or any third-party
            registration. For noise models overriding the per-trial
            ``sample_*`` hooks, an accessor-lowering engine reroutes
            to its declared fallback (``batched`` → ``trial``); an
            engine without one (``analytic``) runs anyway and warns
            that the custom sampling is ignored.
        trace_cache: Optional :class:`repro.runtime.cache.TraceCache`
            (or anything with the same ``get``/``put`` signature).
            When given, the batched engine reuses a previously lowered
            :class:`ProgramTrace` for the same (compiled program, noise
            model) pair instead of re-lowering, which is the dominant
            per-call cost when sweeping seeds or trial counts.
        array_backend: Registered
            :class:`~repro.simulator.xp.ArrayBackend` name (or
            instance) for engines that run their statevector
            contraction on a pluggable array library (``batched``,
            ``gpu``). ``None`` means the process default (numpy unless
            :func:`~repro.simulator.xp.set_default_array_backend` says
            otherwise); counts are bit-identical across backends, only
            throughput differs. Engines that don't contract dense
            statevectors (``trial``, ``analytic``) ignore it with a
            one-time warning.

    Returns:
        Counts plus success-rate/overlap accessors.
    """
    if trials < 1:
        raise SimulationError("need at least one trial")
    resolved = get_engine(engine)
    noise = noise_model or NoiseModel(calibration)
    if resolved.uses_probability_accessors \
            and _overrides_sampling_hooks(noise):
        # A subclass that customizes the per-trial sampling hooks (not
        # just the probability accessors the trace reads) would be
        # silently ignored by an accessor-lowering engine; honor it
        # via the declared fallback when there is one (saying so once
        # — the per-trial loop is orders of magnitude slower, which is
        # easy to misattribute in sweep timings), and warn that the
        # hooks are dropped when there isn't.
        if resolved.fallback:
            _warn_trial_fallback(noise, resolved.name)
            resolved = get_engine(resolved.fallback)
        else:
            _warn_hooks_ignored(noise, resolved.name)
    if resolved.accepts_array_backend:
        return resolved.run(compiled, calibration, noise, trials=trials,
                            seed=seed, expected=expected,
                            trace_cache=trace_cache,
                            array_backend=array_backend)
    if array_backend is not None:
        _warn_array_backend_ignored(resolved.name)
    return resolved.run(compiled, calibration, noise, trials=trials,
                        seed=seed, expected=expected,
                        trace_cache=trace_cache)


def _sample_error_plan(compact: CompactProgram, noise: NoiseModel,
                       rng: np.random.Generator
                       ) -> Tuple[List[List[Tuple[int, str]]], bool]:
    """Sample gate + idle Pauli events for one trial."""
    plan: List[List[Tuple[int, str]]] = []
    any_error = False
    for i, (gate, gaps) in enumerate(zip(compact.gates,
                                         compact.idle_before)):
        events: List[Tuple[int, str]] = []
        for qubit, idle in gaps:
            for ev in noise.sample_idle_error(qubit, idle, rng):
                events.append(_dense_event(ev, compact.hw_to_dense))
        for ev in noise.sample_gate_error(
                gate, rng,
                concurrent_neighbors=compact.concurrent_neighbors[i]):
            events.append(_dense_event(ev, compact.hw_to_dense))
        if events:
            any_error = True
        plan.append(events)
    return plan, any_error
