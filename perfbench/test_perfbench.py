"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

The quick tests cover the span arithmetic, the wrapper install and
restore, and the seeded inputs.  The end-to-end tests run the benchmark
command itself for a few seconds per workload (about a minute in all).
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Patcher, Recorder, percentile, self_times, timed  # noqa: E402


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 95) == 5.0
    # ceil(0.95 * 7) = 7: the largest of seven samples.
    assert percentile([7, 1, 2, 3, 4, 5, 6], 95) == 7
    assert percentile(list(range(1, 21)), 95) == 19
    with pytest.raises(ValueError):
        percentile([], 50)


def test_median_of_even_and_odd_counts():
    assert spans.median([3, 1, 2]) == 2
    assert spans.median([4, 1, 2, 3]) == 2.5


def test_union_length_counts_overlaps_once():
    assert spans.union_length([]) == 0
    assert spans.union_length([(0, 2), (1, 3)]) == 3
    assert spans.union_length([(0, 1), (2, 3)]) == 2
    assert spans.union_length([(0, 10), (2, 3), (4, 5)]) == 10


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; two overlapping children [1, 4] and [3, 6]; a
    # grandchild inside the first child; one child past the parent's end.
    tree = [
        ["p", 0.0, 10.0, None, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["b", 3.0, 6.0, 0, 2, None],
        ["g", 2.0, 3.0, 1, 1, None],
        ["late", 9.0, 12.0, 0, 3, None],
    ]
    assert self_times(tree) == [10 - 5 - 1, 3 - 1, 3, 1, 3]


def test_spans_nest_per_thread_and_adopt_across_threads():
    rec = Recorder()
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            pass
        parent = rec.current()
        seen = {}

        def work():
            rec.adopt(parent)
            with rec.span("worker") as index:
                seen["worker"] = index

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert rec.spans[inner][spans.PARENT] == outer
    assert rec.spans[seen["worker"]][spans.PARENT] == outer
    assert rec.spans[outer][spans.PARENT] is None
    assert all(span[spans.END] is not None for span in rec.spans)
    assert rec.current() is None


# ----------------------------------------------------------------------
# Wrapper install and restore.
# ----------------------------------------------------------------------

class _Thing:
    def method(self, x):
        return x + 1

    @property
    def value(self):
        return 7


def test_patcher_wraps_and_restores_methods_and_properties():
    rec = Recorder()
    patcher = Patcher()
    original = _Thing.__dict__["method"]
    original_prop = _Thing.__dict__["value"]
    patcher.wrap_method(_Thing, "method",
                        lambda fn: timed(rec, "t.method", fn))
    patcher.wrap_property(_Thing, "value",
                          lambda fn: timed(rec, "t.value", fn))
    thing = _Thing()
    assert thing.method(1) == 2 and thing.value == 7
    assert [s[spans.NAME] for s in rec.spans] == ["t.method", "t.value"]
    patcher.restore()
    assert _Thing.__dict__["method"] is original
    assert _Thing.__dict__["value"] is original_prop
    thing.method(1)
    assert len(rec.spans) == 2


def test_probes_patch_every_count_tokens_binding_and_restore():
    import importlib

    modules = {name: importlib.import_module(name)
               for name in probes.TOKENIZER_BINDINGS}
    before = {name: vars(m)["count_tokens"] for name, m in modules.items()}
    rec = Recorder()
    patcher = probes.install(rec, server=True)
    try:
        for name, module in modules.items():
            wrapped = vars(module)["count_tokens"]
            assert wrapped is not before[name], name
            assert wrapped.__perfbench_original__ is before[name]
        from repro.llm import client

        client.count_tokens("one two three")
        assert [s[spans.NAME] for s in rec.spans] == [
            "tokenizer.count_tokens"]
    finally:
        patcher.restore()
    for name, module in modules.items():
        assert vars(module)["count_tokens"] is before[name], name
    assert threading.Thread.start.__name__ == "start"
    assert not hasattr(threading.Thread.start, "__perfbench_original__")


def test_every_probed_call_is_restored():
    import repro.execution.execute as execute
    from repro.server.store import SessionStore
    from repro.llm.usage import UsageLedger

    originals = (execute.Execute, SessionStore.__dict__["run_turn"],
                 UsageLedger.__dict__["records"], threading.Thread.start)
    patcher = probes.install(Recorder(), server=True)
    assert execute.Execute is not originals[0]
    patcher.restore()
    assert (execute.Execute, SessionStore.__dict__["run_turn"],
            UsageLedger.__dict__["records"],
            threading.Thread.start) == originals


def test_threads_started_in_a_span_nest_under_it():
    rec = Recorder()
    patcher = probes.install(rec)
    try:
        with rec.span("execution.execute") as outer:
            thread = threading.Thread(
                target=lambda: rec.span("llm.judge").__enter__())
            thread.start()
            thread.join(timeout=10)
    finally:
        patcher.restore()
    worker = [s for s in rec.spans if s[spans.NAME] == "llm.judge"][0]
    assert worker[spans.PARENT] == outer
    assert rec.counters["execution.threads_started"] == 1


def test_layer_names():
    assert probes.layer_of("llm.judge") == "llm"
    assert probes.layer_of("obs.registry_save") == "obs.registry"
    assert probes.layer_of("obs.telemetry") == "obs.telemetry"
    assert probes.layer_of("bench.cold") == "bench"


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------

def _chat_inputs(seed):
    short = [list(itertools.islice(inputs.chat_short_sessions(seed, c), 40))
             for c in range(2)]
    long = [list(itertools.islice(inputs.chat_long_sessions(seed, c), 2))
            for c in range(2)]
    return short, long


def _corpus_fingerprint(seed):
    from repro.corpora import scale

    spec = inputs.corpus_inputs(seed)
    base = scale.generate_scale_source(spec["n_docs"],
                                       seed=spec["corpus_seed"])
    drifted = scale.mutate_scale_source(
        spec["n_docs"], seed=spec["corpus_seed"], adds=spec["adds"],
        edits=spec["edits"], drops=spec["drops"])
    texts = [[record.to_json() for record in source]
             for source in (base, drifted)]
    return inputs.fingerprint([spec, texts])


def test_same_seed_gives_identical_inputs():
    assert (inputs.fingerprint(_chat_inputs(7))
            == inputs.fingerprint(_chat_inputs(7)))
    assert _corpus_fingerprint(7) == _corpus_fingerprint(7)
    short, long = _chat_inputs(7)
    tenants = [s["tenant"] for sessions in short for s in sessions]
    lengths = [len(s["turns"]) for sessions in long for s in sessions]
    again_short, again_long = _chat_inputs(7)
    assert tenants == [s["tenant"] for ss in again_short for s in ss]
    assert lengths == [len(s["turns"]) for ss in again_long for s in ss]


def test_other_seed_gives_other_inputs():
    assert (inputs.fingerprint(_chat_inputs(7))
            != inputs.fingerprint(_chat_inputs(8)))
    assert _corpus_fingerprint(7) != _corpus_fingerprint(8)


def test_session_shapes():
    short, long = _chat_inputs(3)
    for sessions in short:
        for session in sessions:
            assert 3 <= len(session["turns"]) <= 6
            assert session["tenant"] in inputs.TENANTS
    for sessions in long:
        for session in sessions:
            assert len(session["turns"]) >= 100
    spec = inputs.corpus_inputs(3)
    drift = spec["adds"] + spec["edits"] + spec["drops"]
    assert drift == spec["n_docs"] // 100
    assert min(spec["adds"], spec["edits"], spec["drops"]) >= 1


@pytest.mark.xfail(strict=True, reason=(
    "RunRegistry.record allocates a run id by scanning the directory and "
    "creates the run directory later, without a lock: two concurrent "
    "records get the same id, so concurrent sessions of one tenant on the "
    "chat server can overwrite each other's runs."))
def test_concurrent_records_in_one_registry_get_distinct_run_ids(
        tmp_path, monkeypatch):
    import repro as pz
    from repro.obs.registry import RunRegistry

    records, stats = pz.Execute(
        pz.Dataset(["alpha text", "beta text"], schema=pz.TextFile))
    registry = RunRegistry(str(tmp_path / "runs"))
    # Both records pick their id before either saves: the interleaving
    # two sessions of one tenant can hit on the server.  A registry that
    # serialises allocation and save breaks the barrier and goes on.
    barrier = threading.Barrier(2, timeout=2.0)
    save = RunRegistry.save

    def paused_save(self, snapshot):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return save(self, snapshot)

    monkeypatch.setattr(RunRegistry, "save", paused_save)
    ids = []
    threads = [threading.Thread(
        target=lambda: ids.append(registry.record(records, stats).run_id))
        for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(ids) == 2
    assert ids[0] != ids[1], ids


def test_every_input_has_a_pin():
    pins = json.loads((HERE / "pins.json").read_text())
    keys = {turn["pin"] for sessions in _chat_inputs(5)
            for group in sessions for s in group for turn in s["turns"]
            if turn["pin"]}
    assert keys <= set(pins["chat"])
    for variant in range(inputs.CORPUS_VARIANTS):
        spec = inputs.corpus_inputs(variant)
        for executor in ("sequential", "sharded"):
            entry = pins["corpus"][inputs.corpus_pin_key(spec, executor)]
            assert set(entry) == {"cold", "rerun"}


def test_benchmark_json_matches_the_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.UNITS
    # The corpus workloads run by hand but are not gated (README.md).
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in run.WORKLOADS if name.startswith("chat")]
    assert set(layers.PREDICTIONS) == set(run.WORKLOADS)


# ----------------------------------------------------------------------
# The command, end to end.
# ----------------------------------------------------------------------

def _run(workload, seed, seconds=2, trace=0, cwd=ROOT):
    command = [sys.executable, str(HERE / "run.py") if cwd == ROOT
               else "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _failure_lines(proc):
    return "\n".join(line for line in proc.stdout.splitlines()
                     if line.startswith("failure"))


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["chat_short", "corpus_refresh"])
def test_two_seeds_pass_every_output_check(workload):
    for seed in (21, 22):
        proc = _run(workload, seed)
        assert proc.returncode == 0, (proc.stderr[-2000:]
                                      + _failure_lines(proc))
        result = _result(proc)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END)
        if workload == "chat_short":
            assert "keep-alive working" in proc.stdout


def test_load_generator_uses_at_most_nproc_keep_alive_clients():
    import chat_load

    assert 1 <= chat_load.client_count() <= (os.cpu_count() or 1)
    proc = _run("chat_short", 4, seconds=2)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [ln for ln in proc.stdout.splitlines()
            if ln.startswith("requests sent")][0]
    opened = int(line.split("connections opened ")[1].split()[0])
    assert opened == chat_load.client_count()


@pytest.mark.parametrize("workload,section", [
    ("chat_short", "chat"), ("corpus_refresh", "corpus")])
def test_corrupted_pin_fails_the_run(monkeypatch, capsys, workload,
                                     section):
    pins = json.loads((HERE / "pins.json").read_text())
    for entry in pins[section].values():
        if section == "chat":
            entry["fingerprint"] = "0" * 16
        else:
            entry["cold"]["cost_usd"] += 1.0
    # Pins are checked in the command's own process, so the corrupted
    # copy is swapped in there.
    monkeypatch.setattr(run, "load_pins", lambda _: pins)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 1, out[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["chat_short", "corpus_sharded"])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _run(workload, 5, seconds=1, trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = _result(proc)["metrics"]
    assert set(metrics) == set(layers.UNITS)
    assert "tracing overhead" in proc.stdout
    assert f"prediction ({workload})" in proc.stdout
    coverage = metrics["trace.coverage"]["value"]
    assert layers.MIN_COVERAGE <= coverage <= 1.01, coverage
    if workload == "chat_short":
        # Server-side layers were probed and joined to client requests.
        for name in ("http.edge_ms", "store.session_create_ms",
                     "agent.self_ms", "optimizer.optimize_ms"):
            assert metrics[name]["value"] > 0, name


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("chat_short", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
