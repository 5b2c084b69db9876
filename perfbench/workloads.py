"""The benchmark's three workloads and their untraced (end-to-end) runs.

Every workload drives the simulator only through its public entry points:
``build_system`` plus ``WorkloadRunner.load/warmup/run`` for the two YCSB
workloads, and ``repro.fleet.run_fleet`` for the fleet. Sizes and the load
model are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import multiprocessing.resource_tracker
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.bench.harness import RunResult, SystemConfig, WorkloadRunner, build_system
from repro.fleet import FleetConfig, TenantSpec, run_fleet
from repro.workloads.ycsb import OP_INSERT, OP_UPDATE, YCSBConfig, YCSBWorkload
from speed import BackgroundProbe, SpeedProbe, reference_cpu_seconds

#: Simulated closed-loop clients (the SimClock advances by latency / 8).
CLIENTS = 8
#: Independent set-ups and measurements per untraced run, each from its
#: own seed; the reported times and simulated metrics are their medians.
#: On ycsb-a-churn the amount of compaction in a window depends on the
#: seed, so the median of five short windows on five stores spreads far
#: less across seeds than one long window or three (see README.md).
REPEATS = 5
#: Processes for the untraced fleet run: the core count of the 2-core
#: machine the run lengths were sized on.
FLEET_JOBS = 2


@dataclass(frozen=True)
class YcsbSpec:
    """One single-instance PrismDB workload."""

    read_proportion: float
    warmup_ops: int
    #: Measured operations per second of ``--seconds``, shared by the
    #: repeats; the run length never depends on wall time.
    ops_per_second: int
    record_count: int = 60_000
    value_bytes: int = 100
    #: Block cache as a fraction of the data set: 5 % (about 0.39 MB), so
    #: the working set does not fit.
    cache_fraction: float = 0.05


@dataclass(frozen=True)
class FleetSpec:
    """The sharded RocksDB fleet workload."""

    warmup_ops: int
    #: Measured operations per second of ``--seconds``, shared by the
    #: repeats, as on YCSB.
    ops_per_second: int
    shards: int = 4
    keys_per_tenant: int = 20_000
    #: Each shard's data fits its block cache.
    cache_fraction: float = 1.0
    group_commit: int = 8


YCSB_SPECS = {
    "ycsb-b-hot": YcsbSpec(read_proportion=0.95, warmup_ops=20_000, ops_per_second=20_000),
    "ycsb-a-churn": YcsbSpec(read_proportion=0.50, warmup_ops=20_000, ops_per_second=18_000),
}
FLEET_SPECS = {
    "fleet-scan-fit": FleetSpec(warmup_ops=20_000, ops_per_second=20_000),
}
WORKLOADS = tuple(YCSB_SPECS) + tuple(FLEET_SPECS)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def ycsb_config(spec: YcsbSpec, seed: int, operations: int) -> YCSBConfig:
    return YCSBConfig(
        record_count=spec.record_count,
        operation_count=operations,
        read_proportion=spec.read_proportion,
        update_proportion=1.0 - spec.read_proportion,
        distribution="zipfian",
        zipf_theta=0.99,
        value_bytes=spec.value_bytes,
        warmup_operations=spec.warmup_ops,
        seed=seed,
    )


def system_config(spec: YcsbSpec, seed: int) -> SystemConfig:
    return SystemConfig(
        system="prismdb",
        layout_code="NNNTQ",
        cache_fraction=spec.cache_fraction,
        tracker_fraction=0.10,
        wal_sync_every=1,
        clients=CLIENTS,
        seed=seed,
    )


class MaterializedWorkload:
    """A YCSB workload whose load, warm-up and run batches exist up front.

    The runner reads the same ``*_batches`` protocol as from
    :class:`YCSBWorkload`, but no request is generated inside a timed
    phase, and the same inputs serve every set-up of one run. Between
    batches, ``probe`` samples the machine's speed; the traced run sets it
    to None, so that no sampling lands inside its spans.
    """

    def __init__(self, config: YCSBConfig) -> None:
        source = YCSBWorkload(config)
        self.config = config
        self.probe: SpeedProbe | None = SpeedProbe()
        self._data_bytes = source.total_data_bytes()
        self._load = list(source.load_batches())
        self._warmup = list(source.warmup_batches())
        self._run = list(source.run_batches())

    def total_data_bytes(self) -> int:
        return self._data_bytes

    def _batches(self, batches):
        return iter(batches) if self.probe is None else self.probe.probed(batches)

    def load_batches(self):
        return self._batches(self._load)

    def warmup_batches(self):
        return self._batches(self._warmup)

    def run_batches(self):
        return self._batches(self._run)

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """(wall, reference) seconds of ``[start, end]``; unprobed, both are wall."""
        if self.probe is None:
            return end - start, end - start
        return self.probe.reference_seconds(start, end)

    def oracle(self) -> dict[bytes, bytes]:
        """Key -> last value written, over every phase in order."""
        expected: dict[bytes, bytes] = {}
        for batches in (self._load, self._warmup, self._run):
            for batch in batches:
                for kind, key, value in zip(batch.kinds, batch.keys, batch.values):
                    if kind == OP_UPDATE or kind == OP_INSERT:
                        expected[key] = value
        return expected


def fleet_config(spec: FleetSpec, seed: int, operations: int) -> FleetConfig:
    tenants = (
        TenantSpec(
            "scan",
            spec.keys_per_tenant,
            read_proportion=0.0,
            update_proportion=0.10,
            scan_proportion=0.90,
            max_scan_length=50,
        ),
        TenantSpec("point", spec.keys_per_tenant),
    )
    return FleetConfig(
        system="rocksdb",
        layout_code="NNNTQ",
        shards=spec.shards,
        tenants=tenants,
        total_operations=operations,
        warmup_operations=spec.warmup_ops,
        clients=CLIENTS,
        seed=seed,
        group_commit=spec.group_commit,
        cache_fraction=spec.cache_fraction,
    )


# ----------------------------------------------------------------------
# Outcome of one run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Everything one workload run reports."""

    #: One artifact per distinct measured phase (per repeat on YCSB; the
    #: fleet's repeats are one artifact by contract).
    results: list[RunResult] = field(default_factory=list)
    #: Median measured phase in wall seconds and in reference seconds
    #: (wall time scaled to the reference machine speed; see speed.py).
    run_wall_s: float = 0.0
    run_ref_s: float = 0.0
    #: Median set-up, in reference seconds and in wall seconds.
    setup_s: float = 0.0
    setup_wall_s: float = 0.0
    input_gen_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Checks that failed, as messages (empty when correct).
    problems: list[str] = field(default_factory=list)

    @property
    def result(self) -> RunResult | None:
        return self.results[-1] if self.results else None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and bool(self.results)

    def sim(self) -> dict[str, float]:
        """Each simulated metric's median over the measured phases."""
        rows = [sim_metrics(result) for result in self.results]
        return {name: statistics.median(row[name] for row in rows) for name in rows[0]}

    def set_times(self, setups: list[tuple[float, float]], runs: list[tuple[float, float]]) -> None:
        """Medians of (wall, reference) seconds of set-ups and measured phases."""
        self.setup_wall_s = statistics.median(wall for wall, _ in setups)
        self.setup_s = statistics.median(ref for _, ref in setups)
        self.run_wall_s = statistics.median(wall for wall, _ in runs)
        self.run_ref_s = statistics.median(ref for _, ref in runs)


def sim_metrics(result: RunResult) -> dict[str, float]:
    """The simulated end-to-end metrics (deterministic for a seed)."""
    return {
        "sim_kops": result.throughput_kops,
        "sim_update_mean_us": result.update_latency.mean,
        "sim_read_p50_us": result.read_latency.p50,
        "sim_read_p99_us": result.read_latency.p99,
        "sim_update_p99_us": result.update_latency.p99,
        "sim_write_amp": result.write_amplification,
    }


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size in MiB (Linux reports ru_maxrss in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _report_exception(what: str, outcome: Outcome) -> None:
    traceback.print_exc(file=sys.stderr)
    outcome.problems.append(f"{what} raised {sys.exc_info()[1]!r}")


# ----------------------------------------------------------------------
# YCSB workloads
# ----------------------------------------------------------------------
def repeat_seed(seed: int, index: int) -> int:
    """The seed of repeat ``index``; distinct ``--seed`` values never share one."""
    return seed * REPEATS + index


def prepare_ycsb(spec: YcsbSpec, seed: int, operations: int) -> tuple[MaterializedWorkload, float]:
    """Generate every input from the seed; returns (workload, seconds taken)."""
    start = time.perf_counter()
    workload = MaterializedWorkload(ycsb_config(spec, seed, operations))
    return workload, time.perf_counter() - start


def setup_ycsb(spec: YcsbSpec, workload: MaterializedWorkload, instrument=None):
    """Build, load and warm up one system.

    Returns (config, db, runner, (wall seconds, reference seconds)).
    ``instrument(db)`` runs right after construction, before the runner
    builds any lane.
    """
    gc.collect()
    start = time.perf_counter()
    config = system_config(spec, workload.config.seed)
    db = build_system(config, workload)
    if instrument is not None:
        instrument(db)
    runner = WorkloadRunner(db, clients=CLIENTS)
    runner.load(workload)
    runner.warmup(workload)
    return config, db, runner, workload.seconds(start, time.perf_counter())


def measure_ycsb(
    config, runner: WorkloadRunner, workload: MaterializedWorkload, outcome: Outcome
) -> tuple[float, float] | None:
    """Run the measured phase and keep its artifact in ``outcome``.

    Returns its (wall, reference) seconds, or None when it raised.
    """
    operations = workload.config.operation_count
    outcome.attempted += operations
    try:
        start = time.perf_counter()
        elapsed = runner.run(workload)
        took = workload.seconds(start, time.perf_counter())
        result = runner.result(f"perfbench/{config.system}", config, elapsed)
    except Exception:
        outcome.failed += operations
        _report_exception("measured phase", outcome)
        return None
    outcome.results.append(result)
    if result.operations != operations:
        outcome.problems.append(f"ran {result.operations} operations, expected {operations}")
    return took


def verify_ycsb(db, workload: MaterializedWorkload, outcome: Outcome) -> None:
    """Restart the store and compare every written key with a dict oracle."""
    expected = workload.oracle()
    outcome.attempted += len(expected)
    try:
        reopened = db.reopen()
        reopened.check_invariants()
    except Exception:
        outcome.failed += len(expected)
        _report_exception("reopen", outcome)
        return
    get = reopened.get
    mismatches = 0
    for key, value in expected.items():
        try:
            if get(key).value != value:
                mismatches += 1
        except Exception:
            mismatches += 1
            _report_exception(f"get({key!r}) after reopen", outcome)
            break
    outcome.failed += mismatches
    if mismatches:
        outcome.problems.append(f"{mismatches} of {len(expected)} keys wrong after reopen")


def repeat_operations(spec: YcsbSpec | FleetSpec, seconds: int) -> int:
    """Measured operations of each repeat."""
    return seconds * spec.ops_per_second // REPEATS


def run_ycsb(name: str, seed: int, seconds: int) -> Outcome:
    """The untraced run: ``REPEATS`` stores, each set up and measured once.

    All inputs are generated first. The last store is then restarted and
    checked against the oracle.
    """
    spec = YCSB_SPECS[name]
    outcome = Outcome()
    prepared = [
        prepare_ycsb(spec, repeat_seed(seed, index), repeat_operations(spec, seconds))
        for index in range(REPEATS)
    ]
    outcome.input_gen_s = sum(took for _, took in prepared)
    setups, runs = [], []
    for workload, _ in prepared:
        db = runner = None  # free the previous store before building the next
        config, db, runner, took = setup_ycsb(spec, workload)
        setups.append(took)
        took = measure_ycsb(config, runner, workload, outcome)
        if took is None:
            return outcome
        runs.append(took)
    outcome.set_times(setups, runs)
    verify_ycsb(db, workload, outcome)
    return outcome


# ----------------------------------------------------------------------
# Fleet workload
# ----------------------------------------------------------------------
def check_fleet(result: RunResult, config: FleetConfig, outcome: Outcome) -> None:
    """Each shard ran what the router sent it, and the shards add up to the total."""
    ran = [row["operations"] for row in result.fleet["per_shard"]]
    routed = result.fleet["operations_per_shard"]
    if len(ran) != config.shards or ran != routed:
        outcome.failed += sum(abs(a - b) for a, b in zip(ran, routed)) or 1
        outcome.problems.append(f"shards ran {ran} operations, the router sent {routed}")
    if sum(routed) != config.total_operations or result.operations != config.total_operations:
        outcome.failed += abs(result.operations - config.total_operations) or 1
        outcome.problems.append(
            f"fleet ran {result.operations} operations ({sum(routed)} routed),"
            f" expected {config.total_operations}"
        )


def _cpu_seconds() -> float:
    """CPU time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_fleet(config: FleetConfig, jobs: int, outcome: Outcome) -> RunResult | None:
    outcome.attempted += config.total_operations
    try:
        return run_fleet(config, jobs=jobs)
    except Exception:
        outcome.failed += config.total_operations or 1
        _report_exception(f"run_fleet(jobs={jobs})", outcome)
        return None


def timed_fleet(
    config: FleetConfig, jobs: int, outcome: Outcome
) -> tuple[RunResult | None, tuple[float, float]]:
    """One ``run_fleet`` call: (result, (wall seconds, reference seconds)).

    Reference seconds come from the CPU time of this process and its
    workers (the pool reaps them before ``run_fleet`` returns), scaled by
    the machine speed a thread samples beside them. Failures land in
    ``outcome``.
    """
    gc.collect()
    probe = SpeedProbe()
    with BackgroundProbe(probe):
        cpu = _cpu_seconds()
        start = time.perf_counter()
        result = _run_fleet(config, jobs, outcome)
        end = time.perf_counter()
        cpu = _cpu_seconds() - cpu
    return result, (end - start, reference_cpu_seconds(probe, start, end, cpu))


def wall_timed_fleet(
    config: FleetConfig, jobs: int, outcome: Outcome
) -> tuple[RunResult | None, float]:
    """One ``run_fleet`` call and its wall seconds, with no speed probe."""
    gc.collect()
    start = time.perf_counter()
    result = _run_fleet(config, jobs, outcome)
    return result, time.perf_counter() - start


def stop_helper_processes() -> None:
    """Stop the resource-tracker process that a spawn pool starts, and wait
    for it to end.

    ``run_fleet`` joins its shard workers, but the tracker it starts for
    the pool's semaphores outlives the pool and, left alone, only ends
    after this process has exited. Collecting garbage first releases the
    pool's semaphores, so the tracker has nothing left to clean up.
    """
    gc.collect()
    tracker = multiprocessing.resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def run_fleet_workload(name: str, seed: int, seconds: int) -> Outcome:
    """The untraced fleet run: ``REPEATS`` zero-op fleets for set-up time,
    then ``REPEATS`` measured ones, each from its repeat's seed; times are
    medians.

    Fleet inputs are generated inside the shard workers from the seed, so
    ``input_gen_s`` is 0 and set-up time includes that generation.
    """
    spec = FLEET_SPECS[name]
    outcome = Outcome()
    operations = repeat_operations(spec, seconds)
    setups, runs = [], []
    for measured, times in ((0, setups), (operations, runs)):
        for index in range(REPEATS):
            config = fleet_config(spec, repeat_seed(seed, index), measured)
            result, took = timed_fleet(config, FLEET_JOBS, outcome)
            if result is None:
                return outcome
            check_fleet(result, config, outcome)
            if measured:
                outcome.results.append(result)
            times.append(took)
    outcome.set_times(setups, runs)
    return outcome
