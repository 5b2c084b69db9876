"""The traced run: per-layer spans and counts, recorded from outside.

Wrappers replace each layer's public functions for the length of one run
and record a span per call: name, start, end, parent span and the
operation it belongs to. Spans stay in memory, in flat arrays, and are
written to one file when the run ends. The per-layer metrics are then
folded from the spans plus the layers' own counters (block cache, tracker,
placer, compaction and device statistics), taken as deltas over the
measured phase.

Two kinds of wrapper exist. *Instance* wrappers go onto one database's
attributes (``db.read_lane``, ``db.executor.maybe_compact``,
``db.wal.append``...) and must be in place before ``WorkloadRunner`` builds
its lanes, because a lane binds those handles once. *Class* wrappers
replace a method for every instance (``SSTable.get``, ``Device.read``...).
Database-level spans are recorded only inside ``WorkloadRunner.run``; the
harness and fleet spans around it are always recorded.

The traced run must not change what is simulated: :func:`traced_run`
compares its artifact with an untraced run of the same seed.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from repro.bench import harness
from repro.fleet import merge as fleet_merge
from repro.fleet import pool as fleet_pool
from repro.fleet import runner as fleet_runner
from repro.lsm.block_cache import BlockCache, BlockType
from repro.lsm.bloom import BloomFilter
from repro.lsm.compaction import CompactionExecutor
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.storage.device import Device

import workloads
from speed import SpeedProbe

#: Spans that are one user operation each; their children share its op id.
OP_SPANS = ("db.read", "db.write", "db.scan")
TECHS = ("nvm", "tlc", "qlc")
LEVEL_SOURCES = ("memtable", "L0", "L1", "L2", "L3", "L4", "miss")


class SpanRecorder:
    """Spans in flat arrays: name id, parent index, op id, start and end (ns)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        #: Database-level wrappers record only while this is true.
        self.active = False
        self.current_op = -1
        self.ops = 0
        #: name -> Counter of outcomes reported by the wrapped calls.
        self.tallies: dict[str, Counter] = {}
        #: Indices of ``db.write`` spans whose put flushed the memtable.
        self.flush_spans: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.tallies[name] = Counter()
        return nid

    def wrap(self, name: str, fn, *, always: bool = False, outcome=None):
        """``fn`` with a span around each call.

        ``outcome(tally, index, result)`` sees each call's result.
        """
        nid = self.name_id(name)
        opens_op = name in OP_SPANS
        tally = self.tallies[name]
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        recorder = self

        def traced(*args, **kwargs):
            if not (always or recorder.active):
                return fn(*args, **kwargs)
            index = len(starts)
            if opens_op:
                recorder.current_op = recorder.ops
                recorder.ops += 1
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(recorder.current_op)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if outcome is not None:
                outcome(tally, index, result)
            return result

        return traced

    def durations(self) -> dict[str, array]:
        """name -> span durations in ns, in start order."""
        by_name = [array("q") for _ in self.names]
        for nid, start, end in zip(self.name, self.start, self.end):
            by_name[nid].append(end - start)
        return dict(zip(self.names, by_name))

    def child_time(self) -> array:
        """span index -> ns covered by its direct children."""
        covered = array("q", [0]) * len(self.start)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def write(self, path: Path) -> None:
        """Header line (JSON) followed by the five raw arrays, gzip level 1."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["op", "i"], ["start", "q"], ["end", "q"]],
            "clock": "perf_counter_ns",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.op, self.start, self.end):
                fh.write(column.tobytes())


class Instrumentation:
    """Installs wrappers and removes them again; collects layer-stat deltas."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object, bool]] = []
        #: Sum over measured phases of each layer counter's delta.
        self.deltas: Counter = Counter()
        self.tracker_fill: list[float] = []
        self.timeline_samples = 0

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self.recorder.wrap(name, original, **kwargs))

    def remove(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # ------------------------------------------------------------------
    def install_classes(self, fleet: bool) -> None:
        """Class-level wrappers (every instance of the layer)."""
        rec = self.recorder
        self.patch(SSTable, "get", "sstable.get", outcome=_sstable_outcome)
        self.patch(SSTableBuilder, "finish", "sstable.finish")
        self.patch(BlockCache, "get_or_load_decoded", "block_cache.lookup")
        self.patch(BloomFilter, "add_many", "bloom.add_many")
        self.patch(BloomFilter, "may_contain", "bloom.may_contain")
        self.patch(CompactionExecutor, "execute", "compaction.execute")
        self.patch(Device, "read", "device.read")
        self.patch(Device, "write", "device.write")
        self.patch(harness.WorkloadRunner, "result", "obs.result", always=True,
                   outcome=self._result_outcome)
        run = harness.WorkloadRunner.run
        self._undo.append((harness.WorkloadRunner, "run", run, True))
        harness.WorkloadRunner.run = rec.wrap("harness.run", self._measured(run), always=True)
        if fleet:
            self.patch(fleet_runner, "run_shard", "fleet.shard", always=True)
            self.patch(fleet_runner, "encode_result", "fleet.encode", always=True,
                       outcome=_blob_outcome)
            self.patch(fleet_runner, "decode_result", "fleet.decode", always=True)
            self.patch(fleet_merge.ShardAccumulator, "add", "fleet.merge", always=True)
            self.patch(fleet_merge.ShardAccumulator, "finish", "fleet.merge", always=True)
            self.patch(fleet_pool.DevicePool, "contention", "fleet.pool", always=True)
            build = fleet_runner.build_system
            self._undo.append((fleet_runner, "build_system", build, True))

            def build_instrumented(*args, **kwargs):
                db = build(*args, **kwargs)
                self.install_db(db)
                return db

            fleet_runner.build_system = build_instrumented

    def install_db(self, db) -> None:
        """Instance wrappers on one database, before its lanes exist."""
        rec = self.recorder
        read_lane, write_lane = db.read_lane, db.write_lane
        db.read_lane = lambda: rec.wrap("db.read", read_lane(), outcome=_read_outcome)
        db.write_lane = lambda: rec.wrap("db.write", write_lane(), outcome=self._write_outcome)
        self.patch(db, "scan", "db.scan", outcome=_scan_outcome)
        self.patch(db.executor, "maybe_compact", "compaction.maybe_compact")
        if db.wal is not None:
            self.patch(db.wal, "append", "wal.append")
        tracker = getattr(db, "tracker", None)
        if tracker is not None:
            self.patch(tracker, "on_read", "tracker.on_read")
            self.patch(tracker, "run_evictions", "tracker.run_evictions")
            self.patch(db.placer, "route_up_key", "placer.route_up_key")

    def _measured(self, run):
        """``WorkloadRunner.run`` with database spans on and stat deltas taken."""
        instrumentation = self

        def measured_run(runner, workload):
            before = layer_counters(runner.db)
            instrumentation.recorder.active = True
            try:
                return run(runner, workload)
            finally:
                instrumentation.recorder.active = False
                after = layer_counters(runner.db)
                for key, value in after.items():
                    instrumentation.deltas[key] += value - before.get(key, 0)
                tracker = getattr(runner.db, "tracker", None)
                if tracker is not None:
                    instrumentation.tracker_fill.append(len(tracker) / tracker.capacity)

        return measured_run

    def _write_outcome(self, tally, index, result) -> None:
        if result.triggered_flush:
            self.recorder.flush_spans.append(index)

    def _result_outcome(self, tally, index, result) -> None:
        self.timeline_samples += len(result.timeline.get("t_ms", ()))


def _sstable_outcome(tally, index, result) -> None:
    record, _, filtered = result
    if filtered:
        tally["filtered"] += 1
    elif record is not None:
        tally["hit"] += 1


def _read_outcome(tally, index, result) -> None:
    tally[result.served_by] += 1


def _scan_outcome(tally, index, result) -> None:
    tally["rows"] += len(result.items)


def _blob_outcome(tally, index, result) -> None:
    tally["bytes"] += len(result)


def layer_counters(db) -> dict[str, float]:
    """Cumulative layer statistics of one database, by flat name."""
    cache = db.cache.stats
    compaction = db.executor.stats
    counters = {
        "cache.hits": sum(cache.hits.values()),
        "cache.misses": sum(cache.misses.values()),
        "cache.data_hits": cache.hits.get(BlockType.DATA, 0),
        "cache.data_misses": cache.misses.get(BlockType.DATA, 0),
        "cache.evictions": cache.evictions,
        "compaction.records_in": compaction.records_in,
        "compaction.records_out": compaction.records_out,
        "compaction.bytes_written": compaction.bytes_written,
    }
    devices = {id(tier.device): tier for tier in db.layout.tiers}
    for tier in devices.values():
        tech = tier.spec.name.lower()
        counters[f"device.{tech}.read_bytes"] = tier.device.stats.bytes_read
        counters[f"device.{tech}.write_bytes"] = tier.device.stats.bytes_written
    tracker = getattr(db, "tracker", None)
    if tracker is not None:
        counters["tracker.evictions"] = tracker.stats.evictions
        placer = db.placer.stats
        counters["placer.considered"] = placer.considered
        counters["placer.pinned"] = placer.pinned
        counters["placer.pulled_up"] = placer.pulled_up
    return counters


# ----------------------------------------------------------------------
# Folding spans into metrics
# ----------------------------------------------------------------------
def _pct(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return float(ordered[max(1, int(rank)) - 1])


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec: SpanRecorder, inst: Instrumentation) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit)."""
    ns = rec.durations()
    ids = {name: nid for nid, name in enumerate(rec.names)}
    names, parents, starts, ends = rec.name, rec.parent, rec.start, rec.end

    def calls(name: str) -> int:
        return len(ns.get(name, ()))

    def total_us(name: str) -> float:
        return sum(ns.get(name, ())) / 1e3

    def mean_us(name: str) -> float:
        return _ratio(total_us(name), calls(name))

    def pct_us(name: str, q: float) -> float:
        return _pct(ns.get(name, ()), q) / 1e3

    def children_of(child: str, parent: str):
        """(parent index, child duration ns) for each ``child`` span directly under a ``parent`` span."""
        cid, pid = ids.get(child), ids.get(parent)
        if cid is None or pid is None:
            return
        for nid, p, start, end in zip(names, parents, starts, ends):
            if nid == cid and p >= 0 and names[p] == pid:
                yield p, end - start

    run_us = total_us("harness.run")
    covered = rec.child_time()
    run_id = ids.get("harness.run")
    run_self_ns = sum(
        end - start - covered[i]
        for i, (nid, start, end) in enumerate(zip(names, starts, ends))
        if nid == run_id
    )
    m: dict[str, tuple[float, str]] = {}
    # bench.harness: run time outside the database calls, per operation.
    m["harness.self_us_per_op"] = (_ratio(run_self_ns / 1e3, rec.ops), "us")

    # lsm.db read.
    reads = calls("db.read")
    sources = rec.tallies.get("db.read", Counter())
    m["db.read.calls"] = (reads, "count")
    m["db.read.us_p50"] = (pct_us("db.read", 50), "us")
    m["db.read.us_p99"] = (pct_us("db.read", 99), "us")
    m["db.read.share"] = (_ratio(total_us("db.read"), run_us), "fraction")
    m["db.read.tables_per_read"] = (
        _ratio(sum(1 for _ in children_of("sstable.get", "db.read")), reads), "count")
    for source in LEVEL_SOURCES:
        m[f"db.read.source_frac.{source}"] = (_ratio(sources[source], reads), "fraction")

    # lsm.db write: puts that did not flush, and the flush stall of those
    # that did (their time minus the compactions they triggered).
    flushed = set(rec.flush_spans)
    compact_ns = Counter()
    for parent, took in children_of("compaction.maybe_compact", "db.write"):
        if parent in flushed:
            compact_ns[parent] += took
    write_id = ids.get("db.write")
    plain_ns, flush_ms = array("q"), []
    for i, (nid, start, end) in enumerate(zip(names, starts, ends)):
        if nid == write_id:
            if i in flushed:
                flush_ms.append((end - start - compact_ns[i]) / 1e6)
            else:
                plain_ns.append(end - start)
    m["db.write.calls"] = (calls("db.write"), "count")
    m["db.write.us_p50"] = (_pct(plain_ns, 50) / 1e3, "us")
    m["db.write.flush_calls"] = (len(flush_ms), "count")
    m["db.write.flush_ms_p50"] = (_pct(flush_ms, 50), "ms")
    m["db.write.flush_ms_max"] = (max(flush_ms, default=0.0), "ms")

    # lsm.db scan.
    rows = rec.tallies.get("db.scan", Counter())["rows"]
    m["db.scan.calls"] = (calls("db.scan"), "count")
    m["db.scan.us_p50"] = (pct_us("db.scan", 50), "us")
    m["db.scan.us_p99"] = (pct_us("db.scan", 99), "us")
    m["db.scan.rows_per_call"] = (_ratio(rows, calls("db.scan")), "count")
    m["db.scan.us_per_row"] = (_ratio(total_us("db.scan"), rows), "us")

    # lsm.wal.
    m["wal.append.calls"] = (calls("wal.append"), "count")
    m["wal.append.us_mean"] = (mean_us("wal.append"), "us")

    # lsm.sstable.
    gets = calls("sstable.get")
    outcomes = rec.tallies.get("sstable.get", Counter())
    m["sstable.get.calls"] = (gets, "count")
    m["sstable.get.us_mean"] = (mean_us("sstable.get"), "us")
    m["sstable.get.bloom_skip_frac"] = (_ratio(outcomes["filtered"], gets), "fraction")
    m["sstable.get.hit_frac"] = (_ratio(outcomes["hit"], gets), "fraction")
    m["sstable.finish.calls"] = (calls("sstable.finish"), "count")
    m["sstable.finish.ms_mean"] = (mean_us("sstable.finish") / 1e3, "ms")

    # lsm.block_cache.
    d = inst.deltas
    m["block_cache.lookup.calls"] = (calls("block_cache.lookup"), "count")
    m["block_cache.lookup.us_mean"] = (mean_us("block_cache.lookup"), "us")
    m["block_cache.hit_rate"] = (
        _ratio(d["cache.hits"], d["cache.hits"] + d["cache.misses"]), "fraction")
    m["block_cache.data_hit_rate"] = (
        _ratio(d["cache.data_hits"], d["cache.data_hits"] + d["cache.data_misses"]), "fraction")
    m["block_cache.evictions"] = (d["cache.evictions"], "count")

    # lsm.bloom.
    m["bloom.add_many.calls"] = (calls("bloom.add_many"), "count")
    m["bloom.add_many.ms_mean"] = (mean_us("bloom.add_many") / 1e3, "ms")
    m["bloom.may_contain.calls"] = (calls("bloom.may_contain"), "count")

    # lsm.compaction.
    m["compaction.jobs"] = (calls("compaction.execute"), "count")
    m["compaction.execute_ms_p50"] = (pct_us("compaction.execute", 50) / 1e3, "ms")
    m["compaction.execute_ms_max"] = (pct_us("compaction.execute", 100) / 1e3, "ms")
    m["compaction.share"] = (_ratio(total_us("compaction.execute"), run_us), "fraction")
    m["compaction.records_in"] = (d["compaction.records_in"], "count")
    m["compaction.records_out"] = (d["compaction.records_out"], "count")
    m["compaction.us_per_record_out"] = (
        _ratio(total_us("compaction.execute"), d["compaction.records_out"]), "us")
    m["compaction.bytes_written"] = (d["compaction.bytes_written"], "bytes")

    # core.tracker and core.placer (PrismDB only; zero on RocksDB shards).
    m["tracker.on_read.us_mean"] = (mean_us("tracker.on_read"), "us")
    m["tracker.run_evictions.us_mean"] = (mean_us("tracker.run_evictions"), "us")
    m["tracker.evictions"] = (d["tracker.evictions"], "count")
    m["tracker.occupancy"] = (
        _ratio(sum(inst.tracker_fill), len(inst.tracker_fill)), "fraction")
    m["placer.route_up_key.calls"] = (calls("placer.route_up_key"), "count")
    m["placer.route_up_key.us_mean"] = (mean_us("placer.route_up_key"), "us")
    m["placer.pinned_frac"] = (_ratio(d["placer.pinned"], d["placer.considered"]), "fraction")
    m["placer.pulled_up"] = (d["placer.pulled_up"], "count")

    # storage.device.
    m["device.read.calls"] = (calls("device.read"), "count")
    m["device.write.calls"] = (calls("device.write"), "count")
    m["device.us_total"] = (total_us("device.read") + total_us("device.write"), "us")
    for tech in TECHS:
        m[f"device.{tech}.read_bytes"] = (d[f"device.{tech}.read_bytes"], "bytes")
        m[f"device.{tech}.write_bytes"] = (d[f"device.{tech}.write_bytes"], "bytes")

    # obs.
    m["obs.result_ms"] = (total_us("obs.result") / 1e3, "ms")
    m["obs.timeline.samples"] = (inst.timeline_samples, "count")

    # fleet (zero on the single-instance workloads).
    m["fleet.shard.s_mean"] = (mean_us("fleet.shard") / 1e6, "s")
    m["fleet.shard.s_max"] = (pct_us("fleet.shard", 100) / 1e6, "s")
    m["fleet.codec.encode_ms"] = (total_us("fleet.encode") / 1e3, "ms")
    m["fleet.codec.decode_ms"] = (total_us("fleet.decode") / 1e3, "ms")
    m["fleet.blob_bytes"] = (rec.tallies.get("fleet.encode", Counter())["bytes"], "bytes")
    m["fleet.merge.ms"] = (total_us("fleet.merge") / 1e3, "ms")
    m["fleet.pool.ms"] = (total_us("fleet.pool") / 1e3, "ms")
    return m


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
class _PassSpeed:
    """Machine speed sampled right before and after a timed pass.

    The traced run keeps the speed probe out of its passes (its samples
    would land in spans), so ``trace.overhead_frac`` compares two passes
    by their wall time over the kernel time around them.
    """

    def __init__(self) -> None:
        self._probe = SpeedProbe()

    def sample(self, count: int = 15) -> None:
        for _ in range(count):
            self._probe.sample()

    def kernel_s(self) -> float:
        kernels = sorted(cpu for _, cpu, _ in self._probe.marks)
        return kernels[len(kernels) // 2]


def _overhead(traced_s: float, traced: _PassSpeed, untraced_s: float, untraced: _PassSpeed) -> float:
    """Traced over untraced pass time, each scaled by its machine speed, minus 1."""
    return _ratio(traced_s / traced.kernel_s(), untraced_s / untraced.kernel_s()) - 1.0


def _same_artifact(reference, traced, what: str, outcome) -> None:
    if reference is not None and reference.to_json() != traced.to_json():
        outcome.problems.append(f"traced artifact differs from the {what}")


def _traced_ycsb(name: str, seed: int, seconds: int, inst: Instrumentation):
    """The first repeat untraced, then the same store and inputs traced.

    Returns (outcome, overhead, extra metrics). The speed probe is off in
    both, so that its samples land in no span.
    """
    spec = workloads.YCSB_SPECS[name]
    workload, input_gen_s = workloads.prepare_ycsb(
        spec, workloads.repeat_seed(seed, 0), workloads.repeat_operations(spec, seconds)
    )
    workload.probe = None
    outcome = workloads.Outcome(input_gen_s=input_gen_s)
    reference_speed, traced_speed = _PassSpeed(), _PassSpeed()
    config, db, runner, _ = workloads.setup_ycsb(spec, workload)
    reference_speed.sample()
    reference = workloads.measure_ycsb(config, runner, workload, outcome)
    reference_speed.sample()
    db = runner = None
    inst.install_classes(fleet=False)
    try:
        config, db, runner, _ = workloads.setup_ycsb(spec, workload, instrument=inst.install_db)
        traced_speed.sample()
        traced = workloads.measure_ycsb(config, runner, workload, outcome)
        traced_speed.sample()
    finally:
        inst.remove()
    if reference is None or traced is None:
        return outcome, 0.0, {}
    untraced_result, outcome.results = outcome.results[0], outcome.results[1:]
    _same_artifact(untraced_result, outcome.result, "untraced run", outcome)
    workloads.verify_ycsb(db, workload, outcome)
    return outcome, _overhead(traced[0], traced_speed, reference[0], reference_speed), {}


def _traced_fleet(name: str, seed: int, seconds: int, inst: Instrumentation):
    """jobs=2 and jobs=1 untraced fleets, then jobs=1 traced in this process."""
    spec = workloads.FLEET_SPECS[name]
    config = workloads.fleet_config(
        spec, workloads.repeat_seed(seed, 0), workloads.repeat_operations(spec, seconds)
    )
    outcome = workloads.Outcome()
    parallel, parallel_s = workloads.wall_timed_fleet(config, workloads.FLEET_JOBS, outcome)
    serial_speed, traced_speed = _PassSpeed(), _PassSpeed()
    serial_speed.sample()
    serial, serial_s = workloads.wall_timed_fleet(config, 1, outcome)
    serial_speed.sample()
    inst.install_classes(fleet=True)
    try:
        traced_speed.sample()
        traced, traced_s = workloads.wall_timed_fleet(config, 1, outcome)
        traced_speed.sample()
    finally:
        inst.remove()
    if traced is None:
        return outcome, 0.0, {}
    outcome.results.append(traced)
    _same_artifact(parallel, traced, f"jobs={workloads.FLEET_JOBS} run", outcome)
    _same_artifact(serial, traced, "untraced jobs=1 run", outcome)
    workloads.check_fleet(traced, config, outcome)
    efficiency = _ratio(serial_s, workloads.FLEET_JOBS * parallel_s)
    overhead = _overhead(traced_s, traced_speed, serial_s, serial_speed)
    return outcome, overhead, {"fleet.parallel_eff": (efficiency, "fraction")}


def traced_run(name: str, seed: int, seconds: int, out_dir: Path):
    """Run ``name`` traced; returns (outcome, per-layer metrics) and writes the spans."""
    recorder = SpanRecorder()
    inst = Instrumentation(recorder)
    run = _traced_fleet if name in workloads.FLEET_SPECS else _traced_ycsb
    outcome, overhead, extra = run(name, seed, seconds, inst)
    metrics = layer_metrics(recorder, inst)
    metrics.setdefault("fleet.parallel_eff", (0.0, "fraction"))
    metrics.update(extra)
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["trace.spans"] = (len(recorder.start), "count")
    recorder.write(out_dir / f"{name}.spans.gz")
    return outcome, metrics
