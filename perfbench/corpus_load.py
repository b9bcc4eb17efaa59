"""corpus_refresh and corpus_sharded: the engine over the scale corpus.

A worker process (``python corpus_load.py ...``) is the process under
test.  It imports ``repro``, builds the seeded scale corpus, prints
``READY``, then repeats *cycles* until ``--seconds`` have passed:

1. cold: ``Execute`` filter+convert with the chat ``execute_pipeline``
   tool's flags (trace, provenance, capture_calls) and
   ``RunRegistry.record`` the run; read three result pages back;
2. drift: apply the seeded ~1% drift (adds, edits, drops);
3. re-run: ``Execute(incremental=True)`` from the cold run, as the
   chat ``rerun_pipeline`` tool does, and record it; read pages back.

Text memos are cleared before each cycle so every cold run is cold.
The parent side (:func:`run`) spawns set-up probes and the worker, and
turns the worker's JSON report into the benchmark's result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

import inputs  # noqa: E402
from common import (dir_bytes, fresh_dir, python_child,  # noqa: E402
                    stop_child)

SETUP_SPAWNS = 5
PAGE = 20


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

def outcome(snapshot) -> Dict[str, Any]:
    """What is pinned about one recorded run."""
    meta = snapshot.meta
    return {
        "records": meta["records_out"],
        "digest": inputs.fingerprint(snapshot.records),
        "result_fp": meta["result_fp"],
        "makespan_s": meta["total_time_seconds"],
        "cost_usd": meta["total_cost_usd"],
    }


class Worker:
    def __init__(self, args):
        import repro as pz
        from repro.corpora import scale
        from repro.llm.memo import clear_memos, memo_stats
        from repro.obs.registry import RunRegistry

        self.pz = pz
        self.scale = scale
        self.clear_memos = clear_memos
        self.memo_stats = memo_stats
        self.RunRegistry = RunRegistry
        self.args = args
        self.inputs = inputs.corpus_inputs(args.seed)
        self.dataset_id = f"bench-scale-v{self.inputs['variant']}"
        self.schema = pz.make_schema("ScaleNote", "scale note",
                                     scale.SCALE_FIELDS)
        self.imported = time.perf_counter()
        self.build_source()
        self.ready = time.perf_counter()
        self.samples: Dict[str, List[float]] = {"source": [], "reads": []}
        self.outcomes: List[Dict[str, Any]] = []
        self.memo: Dict[str, int] = {"hits": 0, "lookups": 0}
        self.replay = [0, 0]
        self.registry_bytes = 0
        #: Probe counters accumulated inside traced cold runs only.
        self.cold_counters: Dict[str, float] = {}

    def build_source(self):
        return self.scale.generate_scale_source(
            self.inputs["n_docs"], seed=self.inputs["corpus_seed"],
            dataset_id=self.dataset_id)

    def pipeline(self, source):
        return (self.pz.Dataset(source)
                .filter(self.scale.SCALE_PREDICATE)
                .convert(self.schema))

    def execute(self, source, executor: str, **extra):
        options = {"executor": executor}
        if executor == "sharded":
            options["shards"] = 4
        return self.pz.Execute(
            self.pipeline(source), policy=self.pz.MaxQuality(),
            trace=True, provenance=True, **options, **extra)

    def read_pages(self, registry, snapshot) -> None:
        for offset in (0, PAGE, 2 * PAGE):
            started = time.perf_counter()
            page = registry.handle(snapshot.run_id).slice(offset, PAGE)
            self.samples["reads"].append(time.perf_counter() - started)
            if page != snapshot.records[offset:offset + PAGE]:
                raise AssertionError(f"result page at {offset} differs")

    def cycle(self, executor: str, recorder=None, rerun: bool = True):
        """One cold run (+ drift + incremental re-run); returns walls."""
        from contextlib import nullcontext

        def span(name):
            return recorder.span(name) if recorder else nullcontext()

        runs = Path(self.args.workdir) / "runs"
        shutil.rmtree(runs, ignore_errors=True)
        registry = self.RunRegistry(str(runs))
        self.clear_memos()
        started = time.perf_counter()
        source = self.build_source()
        self.samples["source"].append(time.perf_counter() - started)
        before = self.memo_stats()
        counted = dict(recorder.counters) if recorder else {}
        with span("bench.cold"):
            started = time.perf_counter()
            records, stats = self.execute(source, executor,
                                          capture_calls=True)
            cold = registry.record(records, stats)
            cold_s = time.perf_counter() - started
        self._memo_delta(before)
        if recorder:
            for name, value in recorder.counters.items():
                self.cold_counters[name] = (self.cold_counters.get(name, 0)
                                            + value - counted.get(name, 0))
        label = executor or "sequential"
        self.outcomes.append({"phase": "cold", "executor": label,
                              **outcome(cold)})
        self.read_pages(registry, cold)
        if not rerun:
            return cold_s, None
        drifted = self.scale.mutate_scale_source(
            self.inputs["n_docs"], seed=self.inputs["corpus_seed"],
            adds=self.inputs["adds"], edits=self.inputs["edits"],
            drops=self.inputs["drops"], dataset_id=self.dataset_id)
        with span("bench.rerun"):
            started = time.perf_counter()
            records, stats = self.execute(drifted, executor,
                                          incremental=True, base_run=cold)
            again = registry.record(records, stats)
            rerun_s = time.perf_counter() - started
        report = stats.incremental
        self.replay[0] += report.replayed_calls
        self.replay[1] += report.replayed_calls + report.fresh_calls
        self.outcomes.append({"phase": "rerun", "executor": label,
                              **outcome(again)})
        self.read_pages(registry, again)
        self.registry_bytes = dir_bytes(runs)
        return cold_s, rerun_s

    def _memo_delta(self, before) -> None:
        after = self.memo_stats()
        for name in ("count_tokens", "fingerprint_text"):
            hits = after[name]["hits"] - before[name]["hits"]
            misses = after[name]["misses"] - before[name]["misses"]
            self.memo["hits"] += hits
            self.memo["lookups"] += hits + misses

    def measure(self, executor: str, deadline: float, recorder=None,
                minimum: int = 1):
        """Cycles until ``deadline`` (at least ``minimum``)."""
        phase = {"cold": [], "rerun": [], "started": time.perf_counter()}
        while True:
            cold_s, rerun_s = self.cycle(executor, recorder)
            phase["cold"].append(cold_s)
            phase["rerun"].append(rerun_s)
            if (len(phase["cold"]) >= minimum
                    and time.perf_counter() >= deadline):
                break
        phase["seconds"] = time.perf_counter() - phase["started"]
        return phase


def worker_main(args) -> int:
    worker = Worker(args)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    executor = "sharded" if args.workload == "corpus_sharded" else None
    deadline = worker.ready + args.seconds
    report: Dict[str, Any] = {
        "import_s": worker.imported - STARTED,
        "source_build_s": worker.ready - worker.imported,
        "inputs": worker.inputs,
        "n_docs": worker.inputs["n_docs"],
    }
    if not args.trace:
        report["phase"] = worker.measure(executor, deadline)
    else:
        from spans import Recorder

        import probes

        # Two untraced cycles (the second is the tracing-overhead
        # reference: the first pays first-call costs), and for
        # corpus_sharded one sequential cold run for its prediction.
        report["base"] = worker.measure(executor, 0, minimum=2)
        if executor == "sharded":
            sequential, _ = worker.cycle(None, rerun=False)
            report["sequential_cold_s"] = sequential
        recorder = Recorder()
        patcher = probes.install(recorder)
        memo_before = dict(worker.memo)
        replay_before = list(worker.replay)
        try:
            report["phase"] = worker.measure(executor, deadline, recorder)
        finally:
            patcher.restore()
        report["trace"] = recorder.export()
        report["trace"]["cold_counters"] = worker.cold_counters
        report["traced_memo"] = {
            key: worker.memo[key] - memo_before[key] for key in worker.memo}
        report["traced_replay"] = [
            worker.replay[0] - replay_before[0],
            worker.replay[1] - replay_before[1]]
    report["samples"] = worker.samples
    report["outcomes"] = worker.outcomes
    report["registry_bytes"] = worker.registry_bytes
    report["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    with open(Path(args.workdir) / "report.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------

def _spawn(root: Path, work: Path, args: List[str]):
    stderr = open(work / "stderr.log", "a", encoding="utf-8")
    started = time.perf_counter()
    proc = python_child("corpus_load.py", args, root, stderr=stderr)
    ready, _, _ = select.select([proc.stdout], [], [], 170)
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        stderr.close()
        raise RuntimeError(f"corpus worker did not start; see "
                           f"{work / 'stderr.log'}")
    return proc, stderr, setup_s


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, work: Path) -> Dict[str, Any]:
    """Spawn the set-up probes and the worker; return its report."""
    fresh_dir(work)
    base = ["--workload", workload, "--seed", str(seed),
            "--workdir", str(work)]
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        proc, stderr, setup_s = _spawn(root, work, base + ["--setup-only"])
        setups.append(setup_s)
        proc.wait(timeout=60)
        stop_child(proc)
        stderr.close()
    args = base + ["--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    proc, stderr, setup_s = _spawn(root, work, args)
    setups.append(setup_s)
    try:
        proc.wait(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        pass
    finally:
        code = proc.poll()
        stop_child(proc)
        stderr.close()
    if code != 0:
        raise RuntimeError(f"corpus worker exited with {code}; see "
                           f"{work / 'stderr.log'}")
    with open(work / "report.json", encoding="utf-8") as handle:
        report = json.load(handle)
    report["setups"] = setups
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return worker_main(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
