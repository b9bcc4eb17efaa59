#!/usr/bin/env python
"""Real wall-clock performance snapshot for the hot paths.

Unlike the pytest benchmarks (which report *simulated* cost/latency on the
virtual clock), this harness measures actual CPU wall-clock with
``time.perf_counter`` over a fixed workload set, so regressions in the
Python hot paths (tokenization, fingerprinting, plan enumeration) are
visible across PRs.  Results append to ``BENCH_perf.json`` at the repo
root: each run records per-workload seconds plus environment metadata, and
keeps the prior runs so the file is a trajectory, not a point.

Workloads:

* ``plan_enum_exhaustive``  — full enumeration + costing of a 3-semantic-op
  pipeline over the default registry (hundreds of plans).
* ``plan_enum_pruned``      — 4 semantic ops x 6 synthetic models
  (plan space > EXHAUSTIVE_LIMIT, so the pruning DP engages).
* ``pipeline_cold``         — sci-discovery-shaped pipeline, cold call cache.
* ``pipeline_warm``         — the same pipeline re-run against the warm cache.
* ``scaling``               — filter+convert over a larger synthetic corpus.
* ``tokenize_repeat``       — the repeated-tokenization pattern every LLM
  call hits (count_tokens/fingerprint over the same documents many times).
* ``pipeline_per_record``   — one chosen papers-corpus plan executed by the
  sequential executor (cold call cache, text memos cleared): the per-record
  warm-path baseline for the executor comparisons below.
* ``pipeline_threaded``     — the same plan on the pipelined executor with
  4 lanes per parallel stage, per-record calls (batch_size=1); the name
  predates the single-threaded run loop and is kept for the history.
* ``pipeline_batched``      — the same plan on the pipelined executor with
  4 lanes and batched LLM calls (batch_size=8); amortizes
  prompt-prefix construction and full-prompt tokenization.
* ``scale_sequential`` / ``scale_sharded{2,4,8}`` / ``scale_async4`` — one
  chosen filter plan over the 10k-doc synthetic scale corpus
  (``repro.corpora.scale``), run by the sequential, sharded (degrees
  2/4/8), and async executors; the recorded ``sim_seconds`` give the
  deterministic scaling curve the regression gate checks.
* ``incr_cold``            — cold filter run over the 10k-doc scale corpus
  with ``capture_calls=True`` (records the source manifest + call log).
* ``incr_delta1pct``       — the same pipeline re-executed incrementally
  after a deterministic ~1% corpus delta (adds + edits + drops);
  records the simulated cost/LLM-time speedups vs a cold run, which the
  incremental regression gate checks (>= 5x).
* ``server_turns_sequential`` / ``server_turns_concurrent`` — the
  multi-tenant chat service driven over live HTTP: N tenants each run a
  load-then-execute turn script against one ``repro serve`` process,
  one tenant at a time vs all tenants on concurrent client threads.
  Records ``turns_per_sec``; the serving gate checks the concurrent /
  sequential throughput ratio against the baseline.

Usage:
    PYTHONPATH=src python scripts/perf_snapshot.py [--quick] [--repeat N]
                                                   [--output PATH] [--label L]
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro as pz  # noqa: E402
from repro.core.builtin_schemas import TextFile  # noqa: E402
from repro.core.sources import MemorySource  # noqa: E402
from repro.llm.cache import CallCache  # noqa: E402
from repro.llm.models import ModelCard, ModelRegistry, default_registry  # noqa: E402
from repro.llm.oracle import fingerprint_text  # noqa: E402
from repro.llm.tokenizer import count_tokens  # noqa: E402
from repro.optimizer.cost_model import CostModel  # noqa: E402
from repro.optimizer.planner import enumerate_plans, plan_space_size  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"


# ----------------------------------------------------------------------
# Workload definitions.  Each returns a metadata dict; the harness times it.
# ----------------------------------------------------------------------

def _synthetic_docs(n: int, words: int = 120) -> list:
    body = (
        "study cohort colorectal screening endoscopy survival dataset "
        "registry biomarker outcome trial protocol follow-up analysis "
    )
    return [
        f"Document {i}: " + body * max(1, words // 16) + f"id-{i}"
        for i in range(n)
    ]


def _semantic_pipeline(source, n_ops: int):
    dataset = pz.Dataset(source)
    for index in range(n_ops):
        if index % 2 == 0:
            dataset = dataset.filter(f"papers about topic number {index}")
        else:
            schema = pz.make_schema(
                f"Step{index}", "perf step",
                {f"value{index}": "the value", f"note{index}": "a note"},
            )
            dataset = dataset.convert(schema)
    return dataset


def _registry_of(n: int) -> ModelRegistry:
    cards = [
        ModelCard(
            name=f"perf-model-{i}", provider="perf",
            usd_per_1m_input=0.1 * (i + 1),
            usd_per_1m_output=0.4 * (i + 1),
            quality=0.55 + 0.05 * i,
        )
        for i in range(n)
    ]
    return ModelRegistry(cards)


def workload_plan_enum_exhaustive(quick: bool) -> dict:
    source = MemorySource(
        _synthetic_docs(8), dataset_id="perf-enum-ex", schema=TextFile
    )
    pipeline = _semantic_pipeline(source, 2 if quick else 3)
    cost_model = CostModel(source.profile())
    candidates = enumerate_plans(
        pipeline.logical_plan(), source, default_registry(), cost_model,
        prune=False,
    )
    return {"plans": len(candidates)}


def workload_plan_enum_pruned(quick: bool) -> dict:
    source = MemorySource(
        _synthetic_docs(8), dataset_id="perf-enum-pr", schema=TextFile
    )
    models = _registry_of(4 if quick else 6)
    pipeline = _semantic_pipeline(source, 3 if quick else 4)
    space = plan_space_size(
        pipeline.logical_plan(), models, source,
        include_embedding_filter=False,
    )
    cost_model = CostModel(source.profile())
    candidates = enumerate_plans(
        pipeline.logical_plan(), source, models, cost_model,
        prune=True, include_embedding_filter=False,
    )
    return {"plan_space": space, "frontier": len(candidates)}


class _PipelinePair:
    """Cold/warm pipeline runs sharing one call cache."""

    def __init__(self, quick: bool):
        from repro.corpora.papers import (
            CLINICAL_FIELDS,
            PAPERS_PREDICATE,
            generate_paper_corpus,
        )
        from repro.core.sources import DirectorySource

        self._dir = tempfile.mkdtemp(prefix="perf-papers-")
        papers = generate_paper_corpus(Path(self._dir))
        self.source = DirectorySource(papers, dataset_id="perf-sci")
        schema = pz.make_schema(
            "ClinicalData", "clinical datasets", CLINICAL_FIELDS,
        )
        self.pipeline = (
            pz.Dataset(self.source)
            .filter(PAPERS_PREDICATE)
            .convert(schema, cardinality=pz.Cardinality.ONE_TO_MANY)
        )
        self.cache = CallCache()

    def run(self) -> dict:
        records, stats = pz.Execute(
            self.pipeline, policy=pz.MaxQuality(), cache=self.cache
        )
        return {
            "records_out": len(records),
            "simulated_cost_usd": round(stats.total_cost_usd, 4),
        }


class _ExecBench:
    """Executor comparisons: one chosen plan, three execution strategies.

    The plan is chosen once (optimizer untimed); each timed run starts from
    a cold call cache and cleared text memos so the three strategies pay
    the same tokenization/fingerprinting bill and differ only in how the
    executor schedules it.
    """

    WORKERS = 4
    BATCH = 8

    def __init__(self, quick: bool):
        from repro.core.sources import DirectorySource
        from repro.corpora.papers import (
            CLINICAL_FIELDS,
            PAPERS_PREDICATE,
            generate_paper_corpus,
        )
        from repro.optimizer.optimizer import Optimizer

        n = 16 if quick else 40
        self._dir = tempfile.mkdtemp(prefix="perf-exec-")
        papers = generate_paper_corpus(
            Path(self._dir),
            n_papers=n,
            n_relevant=(3 * n) // 4,
            n_with_datasets=n // 2,
        )
        self.source = DirectorySource(papers, dataset_id="perf-exec")
        schema = pz.make_schema(
            "ClinicalExec", "clinical datasets", CLINICAL_FIELDS,
        )
        pipeline = (
            pz.Dataset(self.source)
            .filter(PAPERS_PREDICATE)
            .convert(schema, cardinality=pz.Cardinality.ONE_TO_MANY)
        )
        self.plan = (
            Optimizer(pz.MaxQuality())
            .optimize(pipeline.logical_plan(), self.source)
            .chosen.plan
        )

    def run(self, mode: str) -> dict:
        from repro.execution import PipelinedExecutor, SequentialExecutor
        from repro.llm.memo import clear_memos
        from repro.physical.context import ExecutionContext

        clear_memos()
        context = ExecutionContext(
            max_workers=self.WORKERS, cache=CallCache()
        )
        if mode == "sequential":
            executor = SequentialExecutor(context)
        else:
            executor = PipelinedExecutor(
                context,
                max_workers=self.WORKERS,
                batch_size=self.BATCH if mode == "batched" else 1,
            )
        records, stats = executor.execute(self.plan)
        return {
            "records_out": len(records),
            "simulated_seconds": round(stats.total_time_seconds, 2),
        }


class _ScaleBench:
    """Scale-out comparisons: one chosen plan over a 10k-doc corpus.

    Times the sequential baseline against the sharded executor at degrees
    2/4/8 and the async executor at fanout 4, all running the *same* chosen
    plan over the same deterministic synthetic corpus
    (:mod:`repro.corpora.scale`).  Each timed run starts from cleared text
    memos so every strategy pays the same tokenization bill; the metadata
    records both real wall seconds and the simulated makespan, because the
    simulated speedup curve is the deterministic signal the regression gate
    checks.
    """

    def __init__(self, quick: bool):
        from repro.corpora.scale import SCALE_PREDICATE, generate_scale_source
        from repro.optimizer.optimizer import Optimizer

        n = 1_000 if quick else 10_000
        self.n_docs = n
        self.source = generate_scale_source(n, dataset_id=f"perf-scale-{n}")
        pipeline = pz.Dataset(self.source).filter(SCALE_PREDICATE)
        # MaxQuality picks an LLM filter (the shardable hot path); MinTime
        # would pick the embedding filter, which never fans out.
        self.plan = (
            Optimizer(pz.MaxQuality())
            .optimize(pipeline.logical_plan(), self.source)
            .chosen.plan
        )

    def run(self, mode: str, degree: int = 1) -> dict:
        from repro.execution import (
            AsyncExecutor,
            SequentialExecutor,
            ShardedExecutor,
        )
        from repro.llm.memo import clear_memos
        from repro.physical.context import ExecutionContext

        clear_memos()
        context = ExecutionContext(max_workers=max(1, degree))
        if mode == "sequential":
            executor = SequentialExecutor(context)
        elif mode == "async":
            executor = AsyncExecutor(context, fanout=degree)
        else:
            executor = ShardedExecutor(context, shards=degree)
        records, stats = executor.execute(self.plan)
        return {
            "records_in": self.n_docs,
            "records_out": len(records),
            "sim_seconds": round(stats.total_time_seconds, 3),
        }


class _IncrementalBench:
    """Cold run vs incremental re-run after a ~1% corpus delta.

    The cold run executes a filter plan over the synthetic scale corpus
    with ``capture_calls=True``, producing the source manifest and LLM
    call log an incremental run replays from.  The delta run mutates ~1%
    of the corpus (deterministic: adds + edits + drops, seeded) and
    re-executes with ``incremental=True``: unchanged documents replay
    their recorded calls, so only the delta pays fresh simulated cost.
    The recorded ``speedup_cost`` / ``speedup_llm_time`` ratios come from
    the virtual clock and are therefore deterministic — they are the
    signal the incremental regression gate checks (>= 5x at a 1% delta).
    """

    SEED = 11

    def __init__(self, quick: bool):
        from repro.corpora.scale import SCALE_PREDICATE, generate_scale_source

        n = 1_000 if quick else 10_000
        self.n_docs = n
        self.predicate = SCALE_PREDICATE
        self.dataset_id = f"perf-incr-{n}"
        self.source = generate_scale_source(
            n, seed=self.SEED, dataset_id=self.dataset_id
        )
        self.base = None

    def run_cold(self) -> dict:
        from repro.obs.registry import RunSnapshot

        pipeline = pz.Dataset(self.source).filter(self.predicate)
        records, stats = pz.Execute(
            pipeline, policy=pz.MaxQuality(), capture_calls=True,
        )
        self.base = RunSnapshot.from_execution("run-0001", records, stats)
        return {
            "records_in": self.n_docs,
            "records_out": len(records),
            "sim_seconds": round(stats.total_time_seconds, 3),
            "simulated_cost_usd": round(stats.total_cost_usd, 4),
        }

    def run_delta(self) -> dict:
        from repro.corpora.scale import mutate_scale_source

        # ~1% of the corpus changes, split across the three delta kinds.
        third = max(1, self.n_docs // 300)
        mutated = mutate_scale_source(
            self.n_docs, seed=self.SEED,
            adds=third, edits=third, drops=third,
            dataset_id=self.dataset_id,
        )
        pipeline = pz.Dataset(mutated).filter(self.predicate)
        records, stats = pz.Execute(
            pipeline, policy=pz.MaxQuality(),
            incremental=True, base_run=self.base,
        )
        report = stats.incremental
        return {
            "records_out": len(records),
            "delta_docs": 3 * third,
            "mode": report.mode,
            "replayed_calls": report.replayed_calls,
            "fresh_calls": report.fresh_calls,
            "fresh_cost_usd": round(report.fresh_cost_usd, 4),
            "speedup_cost": round(report.speedup_cost, 2),
            "speedup_llm_time": round(report.speedup_time, 2),
        }


def workload_scaling(quick: bool) -> dict:
    n = 60 if quick else 200
    source = MemorySource(
        _synthetic_docs(n, words=80), dataset_id="perf-scale",
        schema=TextFile,
    )
    schema = pz.make_schema(
        "ScaleOut", "scale step", {"value": "the value"},
    )
    pipeline = (
        pz.Dataset(source)
        .filter("documents about screening")
        .convert(schema)
    )
    records, stats = pz.Execute(pipeline, policy=pz.MinCost())
    return {"records_in": n, "records_out": len(records)}


def workload_tokenize_repeat(quick: bool) -> dict:
    docs = _synthetic_docs(10, words=400)
    rounds = 30 if quick else 100
    total = 0
    for _ in range(rounds):
        for doc in docs:
            total += count_tokens(doc)
            fingerprint_text(doc)
    return {"calls": 2 * rounds * len(docs), "tokens": total}


class _ServerBench:
    """Multi-tenant serving throughput: sequential vs concurrent tenants.

    Boots one ``repro serve`` process (ephemeral port, scratch tenant
    root) at construction so server startup and demo-corpus generation
    stay untimed, then measures driving N tenants through a two-turn
    chat script (load the demo dataset, execute the pipeline) over live
    HTTP — first one tenant at a time, then all N from concurrent
    client threads.  Tenant names are never reused across measurements,
    so every drive starts from a fresh workspace.
    """

    def __init__(self, quick: bool):
        import repro.server as server_mod

        self.tenants = 2 if quick else 4
        self.scratch = tempfile.mkdtemp(prefix="repro-perf-serve-")
        self.server = server_mod.serve(
            port=0, root=f"{self.scratch}/tenants",
            data_dir=f"{self.scratch}/data",
        )
        server_mod.run_in_thread(self.server)
        host, port = self.server.server_address
        self.base = f"http://{host}:{port}"
        self._round = 0

    def _call(self, method: str, path: str, body=None):
        import urllib.request

        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def _drive(self, tenant: str) -> int:
        """One tenant's two-turn script; returns the turn count."""
        row = self._call("POST", f"/tenants/{tenant}/sessions", {})
        sid = row["session_id"]
        for message in ("Load the sigmod-demo dataset", "run the pipeline"):
            turn = self._call(
                "POST", f"/tenants/{tenant}/sessions/{sid}/turns",
                {"message": message})
            assert turn["status"] == "ok", (tenant, turn)
        return 2

    def run(self, concurrent: bool) -> dict:
        import threading

        self._round += 1
        mode = "con" if concurrent else "seq"
        names = [
            f"{mode}{self._round}-t{i}" for i in range(self.tenants)
        ]
        start = time.perf_counter()
        if concurrent:
            threads = [
                threading.Thread(target=self._drive, args=(name,))
                for name in names
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for name in names:
                self._drive(name)
        elapsed = time.perf_counter() - start
        turns = 2 * self.tenants
        return {
            "tenants": self.tenants,
            "turns": turns,
            "turns_per_sec": round(turns / elapsed, 3) if elapsed else 0.0,
        }


# ----------------------------------------------------------------------
# Harness.
# ----------------------------------------------------------------------

def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def run_snapshot(quick: bool, repeat: int, label: str) -> dict:
    pair = [None]  # lazily built so corpus generation is not timed

    def pipeline_cold(q):
        pair[0] = _PipelinePair(q)
        return pair[0].run()

    def pipeline_warm(q):
        return pair[0].run()

    # Built eagerly so corpus generation + plan choice stay untimed.
    exec_bench = _ExecBench(quick)
    scale_bench = _ScaleBench(quick)
    incr_bench = _IncrementalBench(quick)
    server_bench = _ServerBench(quick)

    workloads = [
        ("plan_enum_exhaustive", workload_plan_enum_exhaustive),
        ("plan_enum_pruned", workload_plan_enum_pruned),
        ("pipeline_cold", pipeline_cold),
        ("pipeline_warm", pipeline_warm),
        ("scaling", workload_scaling),
        ("tokenize_repeat", workload_tokenize_repeat),
        ("pipeline_per_record", lambda q: exec_bench.run("sequential")),
        ("pipeline_threaded", lambda q: exec_bench.run("threaded")),
        ("pipeline_batched", lambda q: exec_bench.run("batched")),
        ("scale_sequential", lambda q: scale_bench.run("sequential")),
        ("scale_sharded2", lambda q: scale_bench.run("sharded", 2)),
        ("scale_sharded4", lambda q: scale_bench.run("sharded", 4)),
        ("scale_sharded8", lambda q: scale_bench.run("sharded", 8)),
        ("scale_async4", lambda q: scale_bench.run("async", 4)),
        ("incr_cold", lambda q: incr_bench.run_cold()),
        ("incr_delta1pct", lambda q: incr_bench.run_delta()),
        ("server_turns_sequential",
         lambda q: server_bench.run(concurrent=False)),
        ("server_turns_concurrent",
         lambda q: server_bench.run(concurrent=True)),
    ]
    results = {}
    for name, fn in workloads:
        best = None
        meta = {}
        for _ in range(max(1, repeat)):
            start = time.perf_counter()
            meta = fn(quick) or {}
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            if name in ("pipeline_cold", "pipeline_warm"):
                break  # cold/warm pairing breaks under repetition
        results[name] = {"wall_seconds": round(best, 4), **meta}
        print(f"{name:>24}: {best:.4f}s  {meta}")
    return {
        "label": label,
        "quick": quick,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per workload; best-of-N is kept")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--label", default="",
                        help="free-form tag recorded with the run")
    args = parser.parse_args(argv)

    run = run_snapshot(args.quick, args.repeat, args.label)

    history = []
    if args.output.exists():
        try:
            payload = json.loads(args.output.read_text())
            history = payload.get("runs", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    history.append(run)
    args.output.write_text(
        json.dumps({"runs": history}, indent=2) + "\n"
    )
    print(f"\nwrote {args.output} ({len(history)} runs recorded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
