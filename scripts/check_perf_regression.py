#!/usr/bin/env python
"""Executor performance regression gate.

Two gates, both on speedup *ratios* rather than absolute seconds (CI
machines are slower and noisier than the machine that recorded the
baseline, but relative advantages survive any machine):

1. **Batching gate** — wall-clock of ``pipeline_per_record`` divided by
   ``pipeline_batched`` must retain ``threshold`` x the baseline ratio.
2. **Scaling gate** — *simulated* makespan of ``scale_sequential`` divided
   by ``scale_sharded4`` must retain ``scale_threshold`` x the baseline
   ratio.  Simulated time is deterministic (virtual clock), so this ratio
   is noise-free: a drop means the sharded executor genuinely stopped
   fanning the shardable prefix out.  Within the current run, the
   *wall-clock* seconds of ``scale_sharded4`` must also stay within
   ``SCALE_WALL_RATIO`` x those of ``scale_sequential``: modelling four
   shards must not cost real time over the sequential run.
3. **Incremental gate** — the ``incr_delta1pct`` workload's recorded
   ``speedup_cost`` and ``speedup_llm_time`` (simulated, deterministic)
   must each be >= ``incremental_floor`` (default 5x): an incremental
   re-run after a ~1% corpus delta that is not at least 5x cheaper than
   a cold run means replay stopped reusing the base run's calls.
4. **Serving gate** — ``server_turns_concurrent.turns_per_sec`` divided
   by ``server_turns_sequential.turns_per_sec`` must retain
   ``server_threshold`` x the baseline ratio: concurrent tenants
   collapsing below the sequential baseline means the service layer
   started serializing tenants against each other (a lost lock-scope
   fight in the session store).

Any gate failing exits 1.  A gate whose workloads are missing from the
baseline passes vacuously (first recording).

Usage:
    PYTHONPATH=src python scripts/perf_snapshot.py --quick \
        --output /tmp/perf_current.json
    python scripts/check_perf_regression.py --current /tmp/perf_current.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_perf.json"

#: The workloads the batching gate needs; runs without them are skipped.
REQUIRED = ("pipeline_per_record", "pipeline_batched")

#: The workloads the scaling gate needs.
SCALE_REQUIRED = ("scale_sequential", "scale_sharded4")

#: Ceiling on scale_sharded4 wall seconds over scale_sequential wall
#: seconds, both from the current run (a within-run ratio, so it holds on
#: slow machines too).
SCALE_WALL_RATIO = 1.1

#: The workload the incremental gate needs.
INCR_REQUIRED = ("incr_delta1pct",)

#: The workloads the serving gate needs.
SERVER_REQUIRED = ("server_turns_sequential", "server_turns_concurrent")


def latest_run_with(path: Path, names=REQUIRED) -> dict | None:
    """The most recent run in ``path`` containing every named workload."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    for run in reversed(payload.get("runs", [])):
        workloads = run.get("workloads", {})
        if all(name in workloads for name in names):
            return run
    return None


def speedup(run: dict) -> float:
    workloads = run["workloads"]
    per_record = workloads["pipeline_per_record"]["wall_seconds"]
    batched = workloads["pipeline_batched"]["wall_seconds"]
    if batched <= 0:
        return float("inf")
    return per_record / batched


def scale_speedup(run: dict) -> float:
    """Simulated sharded-over-sequential speedup (deterministic)."""
    workloads = run["workloads"]
    sequential = workloads["scale_sequential"]["sim_seconds"]
    sharded = workloads["scale_sharded4"]["sim_seconds"]
    if sharded <= 0:
        return float("inf")
    return sequential / sharded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed benchmark history (BENCH_perf.json)")
    parser.add_argument("--current", type=Path, required=True,
                        help="snapshot file from a fresh perf_snapshot run")
    parser.add_argument("--threshold", type=float, default=0.8,
                        help="minimum fraction of the baseline speedup the "
                             "current run must retain")
    parser.add_argument("--scale-threshold", type=float, default=0.8,
                        help="minimum fraction of the baseline sharded "
                             "(simulated) speedup the current run must "
                             "retain")
    parser.add_argument("--incremental-floor", type=float, default=5.0,
                        help="absolute minimum simulated speedup (cost AND "
                             "LLM time) an incremental re-run must show "
                             "over a cold run at a ~1%% delta")
    parser.add_argument("--server-threshold", type=float, default=0.7,
                        help="minimum fraction of the baseline concurrent/"
                             "sequential serving throughput ratio the "
                             "current run must retain")
    args = parser.parse_args(argv)

    current = latest_run_with(args.current)
    if current is None:
        print(f"FAIL: {args.current} has no run with {REQUIRED} workloads")
        return 1

    baseline = latest_run_with(args.baseline)
    if baseline is None:
        print(
            f"note: {args.baseline} has no executor benchmarks yet; "
            "recording the first — gate passes vacuously"
        )
        return 0

    base_speedup = speedup(baseline)
    cur_speedup = speedup(current)
    floor = args.threshold * base_speedup

    def _row(label: str, run: dict) -> str:
        workloads = run["workloads"]
        parts = [f"{label:>9}:"]
        for name in (
            "pipeline_per_record", "pipeline_threaded", "pipeline_batched",
        ):
            seconds = workloads.get(name, {}).get("wall_seconds")
            text = f"{seconds:.4f}s" if seconds is not None else "-"
            parts.append(f"{name.split('pipeline_')[1]}={text}")
        return "  ".join(parts)

    print(_row("baseline", baseline),
          f" speedup={base_speedup:.2f}x (rev {baseline.get('git_rev')})")
    print(_row("current", current), f" speedup={cur_speedup:.2f}x")
    print(f"gate: current speedup must be >= {floor:.2f}x "
          f"({args.threshold:.0%} of baseline)")

    if cur_speedup < floor:
        print("FAIL: batched execution regressed against the per-record path")
        return 1
    print("OK: batching gate passed")

    return _scaling_gate(args)


def _scaling_gate(args) -> int:
    baseline = latest_run_with(args.baseline, SCALE_REQUIRED)
    if baseline is None:
        print(
            f"note: {args.baseline} has no scale-out benchmarks yet; "
            "scaling gate passes vacuously"
        )
        return 0
    current = latest_run_with(args.current, SCALE_REQUIRED)
    if current is None:
        print(
            f"FAIL: baseline has scale-out benchmarks but {args.current} "
            f"has no run with {SCALE_REQUIRED} workloads"
        )
        return 1

    base_speedup = scale_speedup(baseline)
    cur_speedup = scale_speedup(current)
    floor = args.scale_threshold * base_speedup

    def _row(label: str, run: dict) -> str:
        workloads = run["workloads"]
        parts = [f"{label:>9}:"]
        for name in (
            "scale_sequential", "scale_sharded2", "scale_sharded4",
            "scale_sharded8", "scale_async4",
        ):
            seconds = workloads.get(name, {}).get("sim_seconds")
            text = f"{seconds:.1f}s" if seconds is not None else "-"
            parts.append(f"{name.split('scale_')[1]}={text}")
        return "  ".join(parts)

    print(_row("baseline", baseline),
          f" sharded4 speedup={base_speedup:.2f}x "
          f"(rev {baseline.get('git_rev')})")
    print(_row("current", current),
          f" sharded4 speedup={cur_speedup:.2f}x")
    print(f"gate: current simulated speedup must be >= {floor:.2f}x "
          f"({args.scale_threshold:.0%} of baseline)")

    if cur_speedup < floor:
        print("FAIL: sharded execution stopped scaling over sequential")
        return 1
    print("OK: scaling gate passed")

    workloads = current["workloads"]
    sequential_wall = workloads["scale_sequential"]["wall_seconds"]
    sharded_wall = workloads["scale_sharded4"]["wall_seconds"]
    print(f"wall: sequential={sequential_wall:.3f}s  "
          f"sharded4={sharded_wall:.3f}s  "
          f"(gate: sharded4 <= {SCALE_WALL_RATIO:.2f}x sequential)")
    if sharded_wall > SCALE_WALL_RATIO * sequential_wall:
        print("FAIL: sharded execution costs more wall time than "
              "sequential")
        return 1
    print("OK: scale wall gate passed")

    return _incremental_gate(args)


def _incremental_gate(args) -> int:
    """Absolute floor on the incremental-vs-cold simulated speedup.

    Unlike the relative gates above, this one needs no baseline: the
    speedups are computed on the virtual clock inside one snapshot run,
    so they are deterministic and machine-independent.
    """
    current = latest_run_with(args.current, INCR_REQUIRED)
    if current is None:
        baseline = latest_run_with(args.baseline, INCR_REQUIRED)
        if baseline is None:
            print(
                f"note: no incremental benchmarks in {args.current} or the "
                "baseline yet; incremental gate passes vacuously"
            )
            return 0
        print(
            f"FAIL: baseline has incremental benchmarks but {args.current} "
            f"has no run with {INCR_REQUIRED} workloads"
        )
        return 1

    workload = current["workloads"]["incr_delta1pct"]
    speedup_cost = workload.get("speedup_cost", 0.0)
    speedup_time = workload.get("speedup_llm_time", 0.0)
    print(
        f"incremental: delta={workload.get('delta_docs')} docs  "
        f"mode={workload.get('mode')}  "
        f"replayed={workload.get('replayed_calls')}  "
        f"fresh={workload.get('fresh_calls')}  "
        f"speedup cost={speedup_cost:.1f}x llm-time={speedup_time:.1f}x"
    )
    print(f"gate: both speedups must be >= {args.incremental_floor:.1f}x")
    if (speedup_cost < args.incremental_floor
            or speedup_time < args.incremental_floor):
        print("FAIL: incremental re-run is no longer >= "
              f"{args.incremental_floor:.1f}x cheaper than a cold run")
        return 1
    print("OK: incremental gate passed")

    return _server_gate(args)


def _server_ratio(run: dict) -> float:
    """Concurrent-over-sequential serving throughput (turns/sec)."""
    workloads = run["workloads"]
    sequential = workloads["server_turns_sequential"]["turns_per_sec"]
    concurrent = workloads["server_turns_concurrent"]["turns_per_sec"]
    if sequential <= 0:
        return float("inf")
    return concurrent / sequential


def _server_gate(args) -> int:
    baseline = latest_run_with(args.baseline, SERVER_REQUIRED)
    if baseline is None:
        print(
            f"note: {args.baseline} has no serving benchmarks yet; "
            "serving gate passes vacuously"
        )
        return 0
    current = latest_run_with(args.current, SERVER_REQUIRED)
    if current is None:
        print(
            f"FAIL: baseline has serving benchmarks but {args.current} "
            f"has no run with {SERVER_REQUIRED} workloads"
        )
        return 1

    base_ratio = _server_ratio(baseline)
    cur_ratio = _server_ratio(current)
    floor = args.server_threshold * base_ratio

    def _row(label: str, run: dict) -> str:
        workloads = run["workloads"]
        parts = [f"{label:>9}:"]
        for name in SERVER_REQUIRED:
            tps = workloads.get(name, {}).get("turns_per_sec")
            text = f"{tps:.2f} turns/s" if tps is not None else "-"
            parts.append(f"{name.split('server_turns_')[1]}={text}")
        return "  ".join(parts)

    print(_row("baseline", baseline),
          f" concurrent/sequential={base_ratio:.2f}x "
          f"(rev {baseline.get('git_rev')})")
    print(_row("current", current),
          f" concurrent/sequential={cur_ratio:.2f}x")
    print(f"gate: current ratio must be >= {floor:.2f}x "
          f"({args.server_threshold:.0%} of baseline)")

    if cur_ratio < floor:
        print("FAIL: concurrent tenants regressed against the sequential "
              "serving baseline")
        return 1
    print("OK: serving gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
