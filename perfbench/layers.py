"""Per-layer metrics of a traced run, and the per-workload predictions.

Chat workloads normalise per POST turn of the traced phase (``_ms`` and
``_s`` are per turn); corpus workloads per cold run, except the re-run
metrics (``incremental.*``, ``llm.replay_*``), which are per re-run.
Self time is always span duration minus the union of child spans.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, List

from common import dir_bytes, metric
from probes import layer_of, name_self_times
from spans import END, NAME, PARENT, RID, START, median, self_times

#: The incremental report inside a re-run turn's reply.
REPLAY_RE = re.compile(r"LLM calls:\s+(\d+) replayed / (\d+) fresh")
DECILES = [f"store.turn_overhead_ms.d{n}" for n in range(1, 11)]
#: The named layers' self times should cover this share of wall time.
MIN_COVERAGE = 0.95

#: Every per-layer metric and its unit, in report order.
PER_LAYER = [
    ("http.edge_ms", "ms"),
    ("http.requests_per_conn", "count"),
    ("http.connections", "count"),
    ("store.session_create_ms", "ms"),
    ("store.turn_overhead_ms", "ms"),
    *[(name, "ms") for name in DECILES],
    ("store.bytes_per_turn", "bytes"),
    ("chat.self_ms", "ms"),
    ("agent.self_ms", "ms"),
    ("agent.steps_per_turn", "count"),
    ("agent.tool_self_ms", "ms"),
    ("optimizer.optimize_ms", "ms"),
    ("optimizer.plans", "count"),
    ("execution.self_s", "s"),
    ("execution.threads_started", "count"),
    ("llm.calls", "count"),
    ("llm.self_s", "s"),
    ("llm.cache_hit_ratio", "ratio"),
    ("llm.cache_lookups", "count"),
    ("llm.tokenize_s", "s"),
    ("llm.tokenize_calls", "count"),
    ("llm.ledger_records_calls", "count"),
    ("llm.ledger_records_s", "s"),
    ("llm.replay_ratio", "ratio"),
    ("llm.replay_base", "count"),
    ("incremental.manifest_s", "s"),
    ("obs.trace_s", "s"),
    ("obs.provenance_s", "s"),
    ("obs.registry_record_s", "s"),
    ("obs.registry_bytes", "bytes"),
    ("obs.telemetry_s", "s"),
    ("corpora.self_s", "s"),
    ("setup.corpus_gen_s", "s"),
    ("setup.import_s", "s"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("client.requests", "count"),
    ("client.failed", "count"),
    ("client.connections", "count"),
    ("prediction.value", "ratio"),
    ("prediction.holds", "count"),
]
UNITS = dict(PER_LAYER)

PREDICTIONS = {
    "chat_short": "http.edge_ms is most (> 0.5) of turn_p50_ms",
    "chat_long": "store.turn_overhead_ms rises with turn index "
                 "(last decile / first decile > 1)",
    "corpus_refresh": "tokenizer + registry record are the two largest "
                      "layers, and rerun_s / cold wall > 0.75",
    "corpus_sharded": "docs_per_s (sharded) / docs_per_s (sequential) "
                      "< 1",
}


class Spans:
    """Spans with self times and per-name totals."""

    def __init__(self, spans: List[list]):
        # Parents are list indices, so spans are never dropped; one left
        # open when the process stopped counts as zero-length.
        for span in spans:
            if span[END] is None:
                span[END] = span[START]
        self.spans = spans
        self.selfs = self_times(self.spans)
        self.by_name = name_self_times(self.spans, self.selfs)

    def self_of(self, *prefixes: str) -> float:
        return sum(row[1] for name, row in self.by_name.items()
                   if name.startswith(prefixes))

    def calls_of(self, *prefixes: str) -> int:
        return sum(row[0] for name, row in self.by_name.items()
                   if name.startswith(prefixes))

    def layer_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            layer = layer_of(span[NAME])
            totals[layer] = totals.get(layer, 0.0) + self.selfs[index]
        return totals

    def subset(self, indices: List[int]) -> "Spans":
        """The given spans, keeping the self times computed over all."""
        part = Spans([])
        part.spans = [self.spans[i] for i in indices]
        part.selfs = [self.selfs[i] for i in indices]
        part.by_name = name_self_times(part.spans, part.selfs)
        return part

    def roots(self) -> List[int]:
        """Index of the root span above every span."""
        roots: List[int] = []
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            roots.append(index if parent is None else roots[parent])
        return roots


def _engine_metrics(s: Spans, counters: Dict[str, float],
                    units: float) -> Dict[str, float]:
    """Layer metrics shared by chat and corpus workloads."""
    per = 1.0 / units
    return {
        "chat.self_ms": s.self_of("chat.") * per * 1e3,
        "agent.self_ms": s.self_of("agent.run") * per * 1e3,
        "agent.tool_self_ms": s.self_of("agent.tool") * per * 1e3,
        "agent.steps_per_turn": (counters.get("agent.steps", 0)
                                 / max(1, s.calls_of("agent.run"))),
        "optimizer.optimize_ms": s.self_of("optimizer.") * per * 1e3,
        "optimizer.plans": (counters.get("optimizer.plans", 0)
                            / max(1, s.calls_of("optimizer."))),
        "execution.self_s": s.self_of("execution.execute") * per,
        "execution.threads_started": (
            counters.get("execution.threads_started", 0) * per),
        "llm.calls": counters.get("llm.calls", 0) * per,
        "llm.self_s": s.self_of("llm.") * per,
        "llm.tokenize_s": s.self_of("tokenizer.") * per,
        "llm.tokenize_calls": s.calls_of("tokenizer.") * per,
        "llm.ledger_records_calls": s.calls_of("ledger.") * per,
        "llm.ledger_records_s": s.self_of("ledger.") * per,
        "obs.trace_s": s.self_of("obs.trace_") * per,
        "obs.provenance_s": s.self_of("obs.provenance_") * per,
        "obs.registry_record_s": s.self_of("obs.registry_record",
                                           "obs.registry_save") * per,
        "obs.telemetry_s": s.self_of("obs.telemetry") * per,
        "corpora.self_s": s.self_of("corpora.") * per,
        "trace.spans": float(len(s.spans)),
    }


def _ratio(hits: float, base: float) -> float:
    return hits / base if base else 0.0


def _finish(values: Dict[str, float]) -> Dict[str, Any]:
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


# ----------------------------------------------------------------------
# Chat.
# ----------------------------------------------------------------------

def chat(workload: str, report: Dict[str, Any], base: Dict[str, Any],
         traced: Dict[str, Any], tenants: Path) -> Dict[str, Any]:
    s = Spans(report["spans"])
    counters = report["counters"]
    stats = traced["stats"]
    turns = [t for c in stats for t in c.turns]
    by_rid = {t["rid"]: t for t in turns if t["rid"]}
    chat_child = {span[PARENT]: index for index, span in enumerate(s.spans)
                  if span[NAME] == "chat.chat"}
    edges, overheads = [], []
    deciles: List[List[float]] = [[] for _ in DECILES]
    for index, span in enumerate(s.spans):
        turn = by_rid.get(span[RID])
        if span[NAME] != "store.run_turn" or turn is None:
            continue
        duration = span[END] - span[START]
        child = chat_child.get(index)
        chat_s = (s.spans[child][END] - s.spans[child][START]
                  if child is not None else 0.0)
        edges.append(turn["latency"] - duration)
        overheads.append(duration - chat_s)
        deciles[min(9, turn["index"] * 10 // turn["length"])].append(
            duration - chat_s)

    # Coverage: the clients' busy time against the HTTP edge (client
    # latency outside the server's handler) plus the self time of the
    # named layer spans under each request.  The handler's own self time
    # is server code no probe names, so it is left out, as is client
    # work between requests.
    roots = s.roots()
    subtree: Dict[int, float] = {}
    for index, root in enumerate(roots):
        subtree[root] = subtree.get(root, 0.0) + s.selfs[index]
    latency = {rid: seconds for c in stats for rid, seconds in c.requests}
    attributed = 0.0
    for index, span in enumerate(s.spans):
        seconds = latency.get(span[RID])
        if span[NAME] == "http.request" and seconds is not None:
            attributed += (subtree[index] - s.selfs[index]
                           + seconds - (span[END] - span[START]))
    wall = sum(c.ended - c.started for c in stats)

    memo = report["memo"]
    hits = sum(memo[n]["hits"] for n in ("count_tokens", "fingerprint_text"))
    lookups = hits + sum(memo[n]["misses"]
                         for n in ("count_tokens", "fingerprint_text"))
    replayed = fresh = reruns = 0
    for turn in turns:
        match = (REPLAY_RE.search(turn["reply"])
                 if turn["kind"] == "rerun" and turn["reply"] else None)
        if match:
            replayed += int(match.group(1))
            fresh += int(match.group(2))
            reruns += 1
    recorded = sum(1 for t in turns if t["kind"] in ("execute", "rerun"))
    runs_bytes = sum(dir_bytes(p) for p in tenants.glob("*/runs"))
    sent = sum(c.sent for c in stats)
    connections = sum(c.connections for c in stats)
    n = max(1, len(turns))

    values = _engine_metrics(s, counters, n)
    values.update({
        "http.edge_ms": median(edges) * 1e3,
        "http.requests_per_conn": sent / max(1, connections),
        "http.connections": float(connections),
        "store.session_create_ms": median(
            [span[END] - span[START] for span in s.spans
             if span[NAME] == "store.ensure_session"]) * 1e3,
        "store.turn_overhead_ms": median(overheads) * 1e3,
        "store.bytes_per_turn": dir_bytes(tenants) / n,
        "llm.cache_hit_ratio": _ratio(hits, lookups),
        "llm.cache_lookups": lookups / n,
        "llm.replay_ratio": _ratio(replayed, replayed + fresh),
        "llm.replay_base": (replayed + fresh) / max(1, reruns),
        "incremental.manifest_s": s.self_of("incremental.") / n,
        "obs.registry_bytes": runs_bytes / max(1, recorded),
        "setup.corpus_gen_s": report["corpus_gen_s"],
        "setup.import_s": report["import_s"],
        "trace.coverage": _ratio(attributed, wall),
        "trace.overhead_pct": _chat_overhead(base, traced),
        "client.requests": float(sent),
        "client.failed": float(sum(c.failed for c in stats)),
        "client.connections": float(connections),
    })
    for name, samples in zip(DECILES, deciles):
        values[name] = median(samples) * 1e3 if samples else 0.0
    p50 = median([t["latency"] for t in turns]) * 1e3
    if workload == "chat_short":
        ratio = values["http.edge_ms"] / p50
        holds = ratio > 0.5
    else:
        ratio = _ratio(values[DECILES[-1]], values[DECILES[0]])
        holds = ratio > 1
    values["prediction.value"] = ratio
    values["prediction.holds"] = float(holds)
    return _finish(values)


def _chat_overhead(base: Dict[str, Any], traced: Dict[str, Any]) -> float:
    """Median latency of the same turns, traced vs untraced.

    A turn is keyed by client, session ordinal and index in its session:
    both phases replay the same seeded streams, the untraced one fewer
    sessions (chat_short) or the first turns of each (chat_long).
    """
    def keyed(phase):
        latencies = {}
        for client, stats in enumerate(phase["stats"]):
            session = -1
            for turn in stats.turns:
                session += turn["index"] == 0
                latencies[client, session, turn["index"]] = turn["latency"]
        return latencies

    plain, probed = keyed(base), keyed(traced)
    common = plain.keys() & probed.keys()
    if not common:
        return 0.0
    return 100.0 * (median([probed[k] for k in common])
                    / median([plain[k] for k in common]) - 1)


# ----------------------------------------------------------------------
# Corpus.
# ----------------------------------------------------------------------

def corpus(workload: str, report: Dict[str, Any]) -> Dict[str, Any]:
    trace = report["trace"]
    s = Spans(trace["spans"])
    counters = trace["cold_counters"]
    phase = report["phase"]
    cycles = len(phase["cold"])
    roots = s.roots()
    root_names = {index: s.spans[index][NAME] for index in set(roots)}
    cold_spans = s.subset([i for i, r in enumerate(roots)
                            if root_names[r] == "bench.cold"])
    rerun_spans = s.subset([i for i, r in enumerate(roots)
                            if root_names[r] == "bench.rerun"])

    values = _engine_metrics(cold_spans, counters, cycles)
    replayed, base = report["traced_replay"]
    memo = report["traced_memo"]
    in_roots = [root_names[r].startswith("bench.") for r in roots]
    attributed = sum(self_time for self_time, span, keep
                     in zip(s.selfs, s.spans, in_roots)
                     if keep and not span[NAME].startswith("bench."))
    wall = sum(span[END] - span[START] for index, span in enumerate(s.spans)
               if span[PARENT] is None and span[NAME].startswith("bench."))
    untraced = report["base"]["cold"][-1] + report["base"]["rerun"][-1]
    traced = median(phase["cold"]) + median(phase["rerun"])
    values.update({
        "http.edge_ms": 0.0,
        "http.requests_per_conn": 0.0,
        "http.connections": 0.0,
        "store.session_create_ms": 0.0,
        "store.turn_overhead_ms": 0.0,
        "store.bytes_per_turn": 0.0,
        "llm.cache_hit_ratio": _ratio(memo["hits"], memo["lookups"]),
        "llm.cache_lookups": memo["lookups"] / cycles,
        "llm.replay_ratio": _ratio(replayed, base),
        "llm.replay_base": base / cycles,
        "incremental.manifest_s": (rerun_spans.self_of("incremental.")
                                   / cycles),
        "obs.registry_bytes": report["registry_bytes"] / 2,
        "setup.corpus_gen_s": report["source_build_s"],
        "setup.import_s": report["import_s"],
        "trace.coverage": _ratio(attributed, wall),
        "trace.overhead_pct": 100.0 * (traced / untraced - 1),
        "client.requests": 0.0,
        "client.failed": 0.0,
        "client.connections": 0.0,
    })
    for name in DECILES:
        values[name] = 0.0
    layers = cold_spans.layer_totals()
    layers.pop("bench", None)
    ranked = sorted(layers, key=layers.get, reverse=True)
    if workload == "corpus_refresh":
        ratio = median(phase["rerun"]) / median(phase["cold"])
        top_two = set(ranked[:2])
        holds = top_two == {"tokenizer", "obs.registry"} and ratio > 0.75
    else:
        sharded = report["base"]["cold"][-1]
        ratio = report["sequential_cold_s"] / sharded
        holds = ratio < 1
    values["prediction.value"] = ratio
    values["prediction.holds"] = float(holds)
    result = _finish(values)
    result["_layers"] = {name: layers[name] / cycles for name in ranked}
    return result
