#!/usr/bin/env python3
"""Regenerate ``pins.json``: the expected outputs the benchmark checks.

    python3 perfbench/make_pins.py

Run from the repository root, on the commit whose outputs are the
reference.  Chat pins map ``dataset|pipeline|policy`` to the record count
and result fingerprint of an execute (or re-run) turn; they are
collected by driving one session per key through a real server, twice,
and must agree.  Corpus pins map ``executor|docs|variant`` to the cold
run's and the re-run's record count, digest, simulated makespan and
cost, for every input variant a seed can select.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from common import WORK_NAME, checkout_root  # noqa: E402


def chat_pins(root: Path) -> dict:
    import chat_load

    sessions = []
    for name, script in sorted(inputs.SCRIPTS.items()):
        for policy in sorted(inputs.POLICIES):
            turns = [inputs._turn(
                kind, text.format(policy=inputs.POLICIES[policy]),
                script["dataset"],
                inputs.pin_key(script["dataset"], "extract", policy)
                if kind in ("execute", "rerun") else None)
                for kind, text in script["turns"]]
            sessions.append({"tenant": "t0", "turns": turns,
                             "opens": 1, "detail_every": 0})
    for dataset in sorted(inputs.LONG_FILTERS):
        for policy in sorted(inputs.POLICIES):
            turns = [
                inputs._turn("load", f"Load the {dataset} dataset",
                             dataset),
                inputs._turn("filter", inputs.LONG_FILTERS[dataset],
                             dataset),
                inputs._turn("execute", f"{inputs.POLICIES[policy]} and run "
                             "the pipeline", dataset,
                             inputs.pin_key(dataset, "filter", policy)),
            ]
            sessions.append({"tenant": "t1", "turns": turns,
                             "opens": 1, "detail_every": 0})
    observed = []
    for attempt in range(2):
        server = chat_load.Server(root, root / WORK_NAME / "pins" /
                                  f"server{attempt}", trace=False)
        try:
            stats = chat_load.drive(server.port, [iter(sessions)], None)[0]
        finally:
            server.stop()
        if stats.failed:
            raise SystemExit(f"pin run failed: {stats.failures}")
        observed.append(stats.observed)
    if observed[0] != observed[1]:
        raise SystemExit("chat outputs differ between two runs")
    return dict(sorted(observed[0].items()))


def corpus_pins(root: Path) -> dict:
    import corpus_load

    pins = {}
    with tempfile.TemporaryDirectory(dir=root / WORK_NAME) as work:
        for variant in range(inputs.CORPUS_VARIANTS):
            args = argparse.Namespace(seed=variant, workdir=work)
            worker = corpus_load.Worker(args)
            for executor in (None, "sharded"):
                worker.outcomes = []
                worker.cycle(executor)
                for outcome in worker.outcomes:
                    outcome = dict(outcome)
                    phase = outcome.pop("phase")
                    key = inputs.corpus_pin_key(worker.inputs,
                                                outcome.pop("executor"))
                    pins.setdefault(key, {})[phase] = outcome
            print(f"variant {variant}: {worker.inputs}", flush=True)
    return pins


def main() -> int:
    root = checkout_root()
    sys.path.insert(0, str(root / "src"))
    (root / WORK_NAME).mkdir(exist_ok=True)
    pins = {"chat": chat_pins(root), "corpus": corpus_pins(root)}
    path = HERE / "pins.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}: {len(pins['chat'])} chat keys, "
          f"{len(pins['corpus'])} corpus keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
