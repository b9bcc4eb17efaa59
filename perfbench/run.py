#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload chat_short --seed 1 --seconds 30 \\
        --trace 0

Run it from the repository root.  Workloads:

* ``chat_short``     -- the paper's three demo conversations over HTTP;
* ``chat_long``      -- long iterative sessions over HTTP;
* ``corpus_refresh`` -- scale corpus cold run, ~1% drift, incremental
  re-run, each recorded in the run registry;
* ``corpus_sharded`` -- the same on the sharded executor (4 shards).

``--trace 0`` measures the end-to-end metrics with no probes installed;
``--trace 1`` installs timing probes around each layer's public entry
points and reports the per-layer metrics.  Outputs are checked against
``pins.json`` in both modes.  Human-readable lines go first; the last
line of standard output is the JSON result.  A failed output check
exits 1, a run that could not be made exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import WORK_NAME, CheckoutError, checkout_root  # noqa: E402

WORKLOADS = ("chat_short", "chat_long", "corpus_refresh", "corpus_sharded")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "turn_p50_ms": "ms",
    "turn_p95_ms": "ms",
    "turns_per_s": "1/s",
    "session_p50_ms": "ms",
    "read_p50_ms": "ms",
    "docs_per_s": "1/s",
    "rerun_s": "s",
}


def load_pins(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_chat(args, root, work, pins):
    import chat_load

    result = chat_load.run(args.workload, args.seed, args.seconds,
                           args.trace, root, work, pins["chat"])
    counts = chat_load.counts(result["phases"])
    failures = [f for phase in result["phases"] for c in phase["stats"]
                for f in c.failures]
    keep_alive = counts["connections"] == counts["clients"]
    turns = sum(len(c.turns) for phase in result["phases"]
                for c in phase["stats"])
    lines = [
        f"closed loop: {chat_load.client_count()} client threads per "
        f"phase x {len(result['phases'])} phase(s), one persistent "
        f"connection each",
        f"requests sent {counts['sent']}, succeeded {counts['succeeded']}, "
        f"failed {counts['failed']}; connections opened "
        f"{counts['connections']} (keep-alive "
        f"{'working' if keep_alive else 'NOT working'})",
        f"samples: {turns} turns, {len(result['setups'])} set-ups",
    ]
    lines += [f"failure: {f}" for f in failures]
    ok = counts["failed"] == 0 and keep_alive
    return {"correct": ok, "attempted": counts["sent"],
            "failed": counts["failed"] + (0 if keep_alive else 1),
            "metrics": result["metrics"], "lines": lines}


def run_corpus(args, root, work, pins):
    import corpus_load
    import inputs
    import layers
    from common import metric
    from spans import median, percentile

    report = corpus_load.run(args.workload, args.seed, args.seconds,
                             args.trace, root, work)
    failures = []
    for outcome in report["outcomes"]:
        outcome = dict(outcome)
        phase, executor = outcome.pop("phase"), outcome.pop("executor")
        key = inputs.corpus_pin_key(report["inputs"], executor)
        want = pins["corpus"].get(key, {}).get(phase)
        if want != outcome:
            failures.append(f"{key} {phase}: got {outcome}, pinned {want}")
    phase = report["phase"]
    cold, rerun = phase["cold"], phase["rerun"]
    walls = cold + rerun
    lines = [
        f"inputs: {report['inputs']}",
        f"samples: {len(cold)} cold runs, {len(rerun)} re-runs, "
        f"{len(report['samples']['reads'])} page reads, "
        f"{len(report['setups'])} set-ups",
        f"runs checked {len(report['outcomes'])}, failed {len(failures)}",
        "cold walls (s): " + " ".join(f"{s:.3f}" for s in cold),
        "re-run walls (s): " + " ".join(f"{s:.3f}" for s in rerun),
    ]
    lines += [f"failure: {f}" for f in failures[:5]]
    if args.trace:
        metrics = layers.corpus(args.workload, report)
        shares = metrics.pop("_layers")
        lines.append("self time per cold run by layer: " + ", ".join(
            f"{name} {seconds:.3f}s" for name, seconds in shares.items()))
    else:
        metrics = {
            "setup_s": metric(median(report["setups"]), "s"),
            "peak_rss_mb": metric(report["peak_rss_kb"] / 1024, "MiB"),
            "turn_p50_ms": metric(median(walls) * 1e3, "ms"),
            "turn_p95_ms": metric(percentile(walls, 95) * 1e3, "ms"),
            "turns_per_s": metric(len(walls) / phase["seconds"], "1/s"),
            "session_p50_ms": metric(
                median(report["samples"]["source"]) * 1e3, "ms"),
            "read_p50_ms": metric(
                median(report["samples"]["reads"]) * 1e3, "ms"),
            "docs_per_s": metric(report["n_docs"] / median(cold), "1/s"),
            "rerun_s": metric(median(rerun), "s"),
        }
    return {"correct": not failures, "attempted": len(report["outcomes"]),
            "failed": len(failures), "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = checkout_root()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import layers

    work = root / WORK_NAME / args.workload
    pins = load_pins(HERE / "pins.json")
    started = time.perf_counter()
    runner = run_chat if args.workload.startswith("chat") else run_corpus
    try:
        outcome = runner(args, root, work, pins)
    except Exception as exc:  # report and fail; never print a result
        import traceback

        traceback.print_exc()
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    for line in outcome.pop("lines"):
        print(line)
    metrics = outcome["metrics"]
    wanted = layers.UNITS if args.trace else END_TO_END
    for name, unit in wanted.items():
        if metrics[name]["unit"] != unit:
            raise AssertionError(f"{name}: unit {metrics[name]['unit']}")
        print(f"{name:34s} {metrics[name]['value']:14.4f} {unit}")
    if args.trace:
        holds = metrics["prediction.holds"]["value"]
        print(f"prediction ({args.workload}): "
              f"{layers.PREDICTIONS[args.workload]}; observed "
              f"{metrics['prediction.value']['value']:.3f} -> "
              f"{'holds' if holds else 'FAILS'}")
        coverage = metrics["trace.coverage"]["value"]
        print(f"tracing overhead: "
              f"{metrics['trace.overhead_pct']['value']:+.1f}% ; coverage "
              f"of wall by layer self times: {coverage:.3f} "
              f"({'within' if coverage >= layers.MIN_COVERAGE else 'OUTSIDE'}"
              f" {1 - layers.MIN_COVERAGE:.0%} of wall)")
    print(f"wall {time.perf_counter() - started:.1f}s")
    outcome["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
