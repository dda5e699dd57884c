"""The disk trace tier's flat record (``pack_arrays``/``unpack_arrays``).

A stored trace is one record: the header's byte length, a JSON list of
``[name, dtype, shape]`` triples, then the arrays' bytes back to back.
Every trace one ``mitigation_cached`` grid pass stores (perfbench's
workload: Table 2 x {T-SMT*, R-SMT*} x {zne, readout, readout+zne} at
device seed 2019) must round-trip byte for byte and sample the same
counts after a reload. A record is input from outside the process, so
every hostile record below must raise ``SimulationError`` before any
array is built, be a miss in ``TraceCache.get``, and leave the cell to
re-lower to its clean counts.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import SimulationError
from repro.hardware import CalibrationGenerator, ibmq16_topology
from repro.mitigation import ZneStrategy, strategy_from_spec
from repro.programs import benchmark_names, get_benchmark
from repro.runtime import (CompileCache, DiskStore, SweepCell, TraceCache,
                           run_sweep)
from repro.simulator import NoiseModel, ProgramTrace, execute, run_batched
from repro.simulator.batch import EXACT_MAX_QUBITS
from repro.simulator.trace import pack_arrays, unpack_arrays


@pytest.fixture(scope="module")
def cal():
    return CalibrationGenerator(ibmq16_topology(), seed=2019).snapshot(0)


@pytest.fixture(scope="module")
def grid_pass(cal, tmp_path_factory):
    """One mitigation_cached grid pass on a fresh store: the store's
    root and every trace the pass put, by trace-cache key."""
    root = tmp_path_factory.mktemp("grid-store")
    store = DiskStore(root)
    traces = TraceCache(store)
    cells = [SweepCell(circuit=spec.build(), calibration=cal,
                       options=options, expected=spec.expected_output,
                       trials=1024, seed=1, mitigation=strategy,
                       key=(spec.name, options.variant, strategy.name),
                       engine="batched")
             for spec in map(get_benchmark, benchmark_names())
             for options in (CompilerOptions.t_smt_star(routing="1bp"),
                             CompilerOptions.r_smt_star(omega=0.5))
             for strategy in (ZneStrategy(), strategy_from_spec("readout"),
                              strategy_from_spec("readout+zne"))]
    sweep = run_sweep(cells, compile_cache=CompileCache(store),
                      trace_cache=traces)
    assert sweep.ok
    stored = {key: trace for key, trace in traces._traces.items()
              if type(trace) is ProgramTrace}
    return root, stored


def assert_same_arrays(got, want):
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name


class TestRoundTrip:
    def test_grid_pass_stores_every_trace_as_a_record(self, grid_pass):
        root, stored = grid_pass
        assert len(stored) == 72
        assert any(t.n_qubits > EXACT_MAX_QUBITS for t in stored.values())
        store = DiskStore(root)
        for key, trace in stored.items():
            assert store.load_blob("trace", repr(key)) == \
                pack_arrays(trace.to_arrays())

    def test_every_stored_trace_round_trips(self, grid_pass):
        _, stored = grid_pass
        for trace in stored.values():
            arrays = trace.to_arrays()
            back = unpack_arrays(pack_arrays(arrays))
            assert_same_arrays(back, arrays)
            for array in back.values():
                assert array.flags.writeable and array.flags.aligned

    def test_loaded_traces_sample_the_written_counts(self, grid_pass):
        root, stored = grid_pass
        reader = TraceCache(DiskStore(root))
        for key, written in stored.items():
            loaded = reader._load(key)
            assert loaded is not None, key
            assert run_batched(loaded, 512, np.random.default_rng(11)) == \
                run_batched(written, 512, np.random.default_rng(11))

    def test_empty_mapping_and_empty_arrays(self):
        assert pack_arrays({}) == (2).to_bytes(4, "little") + b"[]"
        assert unpack_arrays(pack_arrays({})) == {}
        arrays = {"none": np.zeros((0, 14)), "text": np.array(["", "ab"]),
                  "ints": np.arange(3, dtype=np.int64)}
        assert_same_arrays(unpack_arrays(pack_arrays(arrays)), arrays)

    @pytest.mark.parametrize("array", [
        np.array([True]), np.array([1], dtype=np.int32),
        np.array([1.0], dtype=">f8"), np.array([None], dtype=object),
        np.array([1 + 2j])])
    def test_pack_refuses_other_dtypes(self, array):
        with pytest.raises(SimulationError, match="not allowed"):
            pack_arrays({"a": array})


def _record(entries, body=b""):
    """A record with the given header entries, raw."""
    head = json.dumps(entries).encode()
    return len(head).to_bytes(4, "little") + head + body


def _header(text: bytes, body=b""):
    return len(text).to_bytes(4, "little") + text + body


def _legacy_npz():
    buf = io.BytesIO()
    np.savez_compressed(buf, site_prob=np.zeros(3))
    return buf.getvalue()


HOSTILE = {
    "empty": b"",
    "short-length": b"\x01\x00",
    "length-past-end": (1000).to_bytes(4, "little") + b"[]",
    "not-utf8": _header(b"\xff\xfe"),
    "not-json": _header(b"[not json"),
    "deep-json": _header(b"[" * 100_000),
    "not-a-list": _header(b'{"a": ["a", "<f8", [1]]}'),
    "pair": _record([["a", "<f8"]]),
    "name-not-str": _record([[1, "<f8", [1]]], bytes(8)),
    "dtype-not-str": _record([["a", 8, [1]]], bytes(8)),
    "shape-not-list": _record([["a", "<f8", 1]], bytes(8)),
    "entry-not-list": _record(["a"]),
    "duplicate-name": _record([["a", "<f8", [1]], ["a", "<f8", [1]]],
                              bytes(16)),
    "dtype-object": _record([["a", "|O", [1]]], bytes(8)),
    "dtype-bool": _record([["a", "|b1", [1]]], bytes(1)),
    "dtype-big-endian": _record([["a", ">f8", [1]]], bytes(8)),
    "dtype-empty-string": _record([["a", "<U0", [1]]]),
    "dtype-void": _record([["a", "|V8", [1]]], bytes(8)),
    "dtype-huge-string": _record([["a", "<U999999999", [0]]]),
    "shape-negative": _record([["a", "<f8", [-1]]]),
    "shape-float": _record([["a", "<f8", [1.0]]], bytes(8)),
    "shape-bool": _record([["a", "<f8", [True]]], bytes(8)),
    "shape-too-many-dims": _record([["a", "<f8", [1] * 33]], bytes(8)),
    "shape-dim-past-blob": _record([["a", "<f8", [0, 2**70]]]),
    "size-past-blob": _record([["a", "<f8", [2**62]]], bytes(8)),
    "short-body": _record([["a", "<f8", [2]]], bytes(8)),
    "trailing-bytes": _record([["a", "<f8", [1]]], bytes(9)),
    "legacy-npz": _legacy_npz(),
}


class TestHostileRecords:
    @pytest.fixture(scope="class")
    def program(self, cal):
        return compile_circuit(get_benchmark("Toffoli").build(), cal,
                               CompilerOptions.r_smt_star())

    def run(self, program, cal, cache):
        return execute(program, cal, trials=2048, seed=1,
                       trace_cache=cache).counts

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_unpack_raises_before_allocating(self, case):
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError):
                unpack_arrays(HOSTILE[case])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def assert_miss(self, program, cal, tmp_path, damage):
        """Store ``damage(written record)`` under the trace's key: the
        entry is a miss and the cell re-lowers to its clean counts."""
        noise = NoiseModel(cal)
        writer = TraceCache(DiskStore(tmp_path))
        clean = self.run(program, cal, writer)
        key = repr(writer._key(program, noise, cal))
        store = DiskStore(tmp_path)
        store.store_blob("trace", key, damage(store.load_blob("trace", key)))
        assert TraceCache(DiskStore(tmp_path)).get(program, noise,
                                                   cal) is None
        assert self.run(program, cal, TraceCache(DiskStore(tmp_path))) \
            == clean

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_entry_is_a_miss(self, program, cal, tmp_path, case):
        self.assert_miss(program, cal, tmp_path, lambda _: HOSTILE[case])

    def test_trailing_byte_on_a_trace_record_is_a_miss(self, program, cal,
                                                        tmp_path):
        self.assert_miss(program, cal, tmp_path, lambda blob: blob + b"\0")

    @pytest.mark.parametrize("name,dtype", [("readout_p0", "<f4"),
                                            ("gate_cbits", "<i4"),
                                            ("site_pair", "|i1")])
    def test_other_dtype_in_a_trace_record_is_a_miss(
            self, program, cal, tmp_path, name, dtype):
        """A record that carries one array in a dtype to_arrays never
        writes is refused, though ``from_arrays`` would convert it."""
        def retype(blob):
            arrays = unpack_arrays(blob)
            arrays[name] = arrays[name].astype(dtype)
            return _record([[n, a.dtype.str, list(a.shape)]
                            for n, a in arrays.items()],
                           b"".join(a.tobytes() for a in arrays.values()))

        self.assert_miss(program, cal, tmp_path, retype)
