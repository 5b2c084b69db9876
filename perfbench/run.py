#!/usr/bin/env python3
"""Benchmark of the PrismDB simulator's own speed, end to end and per layer.

Run it from the repository root:

    python3 perfbench/run.py --workload ycsb-b-hot --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the run with every layer's public functions wrapped
from outside and reports the per-layer metrics instead. Both print a
readable report, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The workloads,
metrics and load model are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Where span files and the repeat-check records go (inside the checkout).
OUT_DIR = ROOT / ".perfbench_out"

# Spawned fleet workers re-import this file as their main module, so the
# import path is set here and everything else waits for main().
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: End-to-end metrics in BENCHMARK.json, name -> (unit, better). Wall
#: times are in reference seconds (speed.py). ``sim_*`` values come from
#: the simulated clock and repeat exactly for a seed.
E2E = {
    "run_kops": ("kop/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_kops": ("sim_kop/s", "higher"),
    "sim_update_mean_us": ("sim_us", "lower"),
    "sim_write_amp": ("ratio", "lower"),
}
#: Printed beside them but not gated (README.md says why), name -> (unit,
#: better); diagnostics have no better direction.
PRINTED = {
    "sim_read_p50_us": ("sim_us", "lower"),
    "sim_read_p99_us": ("sim_us", "lower"),
    "sim_update_p99_us": ("sim_us", "lower"),
    "failed_frac": ("fraction", "lower"),
    "wall_kops": ("kop/s", "higher"),
    "setup_wall_s": ("s", "lower"),
    "calib.loop_ms": ("ms", None),
    "input_gen_s": ("s", None),
}


def calibrate_ms(repeats: int = 25) -> float:
    """Median wall time of the speed probe's fixed kernel: the machine's
    speed when the run started, printed so that drift between runs made
    at different times is visible."""
    from speed import kernel

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def source_digest() -> str:
    """Hash of the simulator's and the benchmark's sources: repeat records
    are per version of both, since the benchmark sets sizes and seeds."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_check(key: str, values: dict[str, float]) -> list[str]:
    """Compare ``values`` with an earlier run of the same key; record them if new.

    Simulated metrics and per-layer counts are deterministic for a seed,
    so any difference from an earlier run of the same sources is a fault.
    """
    path = OUT_DIR / "repeats.json"
    try:
        records = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        records = {}
    previous = records.get(key)
    if previous is None:
        records[key] = values
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records, indent=1, sort_keys=True))
        return []
    return [
        f"{name} was {previous[name]!r} in an earlier run, now {value!r}"
        for name, value in values.items()
        if name in previous and previous[name] != value
    ]


def e2e_metrics(outcome, fleet: bool) -> dict[str, float]:
    """Every end-to-end value of an untraced run: the gated ones
    (``E2E``) and those printed only (``PRINTED``)."""
    from workloads import peak_rss_mb

    operations = outcome.result.operations
    values = {
        "run_kops": operations / outcome.run_ref_s / 1e3,
        "setup_s": outcome.setup_s,
        "peak_rss_mb": peak_rss_mb(include_children=fleet),
        "wall_kops": operations / outcome.run_wall_s / 1e3,
        "setup_wall_s": outcome.setup_wall_s,
    }
    values.update(outcome.sim())
    return values


def report(outcome, metrics: dict[str, tuple[float, str]], extra: dict[str, float]) -> None:
    """Readable lines, then the one-line JSON result."""
    result = outcome.result
    if result is not None:
        print(
            f"samples: reads={result.read_latency.count} updates={result.update_latency.count}"
            f" scans={result.scan_latency.count}"
        )
    for name, value in extra.items():
        unit, better = PRINTED[name]
        note = f" ({better} is better; not gated)" if better else ""
        print(f"{name:32s} {value:.6g} {unit}{note}")
    for name, (value, unit) in metrics.items():
        better = E2E.get(name, (unit, None))[1]
        note = f" ({better} is better)" if better else ""
        print(f"{name:32s} {value:.6g} {unit}{note}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    # A SIGTERM ends the run through the ``finally`` below, so helper
    # processes are stopped on that way out too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(argv)
    finally:
        if "workloads" in sys.modules:
            sys.modules["workloads"].stop_helper_processes()


def run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    fleet = args.workload in workloads.FLEET_SPECS
    key = f"{source_digest()}|{args.workload}|seed={args.seed}|seconds={args.seconds}"
    calib = calibrate_ms()
    if args.trace:
        import layers

        outcome, metrics = layers.traced_run(args.workload, args.seed, args.seconds, OUT_DIR)
        metrics["calib.loop_ms"] = (calib, "ms")
        metrics["input_gen_s"] = (outcome.input_gen_s, "s")
        counts = {name: value for name, (value, unit) in metrics.items() if unit in ("count", "bytes")}
        outcome.problems.extend(repeat_check(key + "|counts", counts))
        extra = {}
    else:
        run = workloads.run_fleet_workload if fleet else workloads.run_ycsb
        outcome = run(args.workload, args.seed, args.seconds)
        metrics, extra = {}, {}
        if outcome.run_ref_s > 0:
            extra = e2e_metrics(outcome, fleet)
            metrics = {name: (extra.pop(name), unit) for name, (unit, _) in E2E.items()}
        extra.update({"calib.loop_ms": calib, "input_gen_s": outcome.input_gen_s})
    for index, result in enumerate(outcome.results):
        sim = workloads.sim_metrics(result)
        outcome.problems.extend(repeat_check(f"{key}|repeat={index}|sim", sim))
    extra["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    report(outcome, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
