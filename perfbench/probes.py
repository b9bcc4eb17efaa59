"""Timing probes around each ``repro`` layer's public entry points.

:func:`install` wraps the functions below with :func:`spans.timed` and
returns the :class:`spans.Patcher` that restores them.  Each span name
starts with its layer: ``http``, ``store``, ``chat``, ``agent``,
``optimizer``, ``execution``, ``llm``, ``obs`` and ``corpora`` are the
``repro`` packages; ``tokenizer``, ``ledger`` and ``incremental`` split
out the parts of ``llm`` and ``execution`` the per-layer metrics track
on their own.  Nothing under ``src/`` is edited: the wrappers are installed at
run time, in the benchmark's processes only.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Patcher, Recorder, timed

#: ``count_tokens`` is bound by name in these modules; every binding
#: must carry the probe or tokenizer time leaks into the caller's layer.
TOKENIZER_BINDINGS = (
    "repro.llm.client",
    "repro.core.sources",
    "repro.execution.sharded",
    "repro.llm.embeddings",
    "repro.llm.tokenizer",
)


def layer_of(span_name: str) -> str:
    """``'llm.judge'`` -> ``'llm'``; ``obs`` splits into its parts
    (``'obs.registry_save'`` -> ``'obs.registry'``); harness spans are
    ``'bench'``."""
    if span_name.startswith("obs."):
        return span_name.split("_", 1)[0]
    return span_name.split(".", 1)[0]


def _request_id() -> str:
    from repro.obs.telemetry import current_context

    return current_context().get("request_id")


def install(recorder: Recorder, server: bool = False) -> Patcher:
    """Wrap every probed entry point; ``server`` adds the HTTP and store
    probes (only meaningful in the server process)."""
    import threading

    import repro.corpora  # noqa: F401  (binds register_demo_datasets)
    import repro.execution.execute  # noqa: F401
    import repro.server  # noqa: F401
    from repro.agent.react import ReActAgent
    from repro.agent.tools import Tool
    from repro.chat.intent import PalimpChatBrain
    from repro.chat.session import PalimpChatSession
    from repro.execution.executors import SequentialExecutor
    from repro.execution.pipeline import PipelinedExecutor
    from repro.execution.sharded import ShardedExecutor
    from repro.llm.client import SimulatedLLMClient
    from repro.llm.embeddings import EmbeddingModel
    from repro.llm.usage import UsageLedger
    from repro.obs.provenance import ProvenanceGraph, ProvenanceRecorder
    from repro.obs.registry import ResultHandle, RunRegistry
    from repro.obs.telemetry import Telemetry
    from repro.obs.trace import Tracer
    from repro.optimizer.optimizer import Optimizer

    patcher = Patcher()
    rec = recorder

    def probe(name, **options):
        return lambda fn: timed(rec, name, fn, **options)

    def method(cls, attr, name, **options):
        patcher.wrap_method(cls, attr, probe(name, **options))

    def counted(key, measure):
        def on_result(result, args):
            rec.count(key, measure(result))
        return on_result

    # -- store / http (server process) ---------------------------------
    if server:
        from repro.server.http import ReproRequestHandler
        from repro.server.store import SessionStore

        for verb in ("do_GET", "do_POST", "do_DELETE"):
            patcher.wrap_method(ReproRequestHandler, verb, _request_probe(rec))
        method(SessionStore, "ensure_session", "store.ensure_session",
               rid=_request_id)
        method(SessionStore, "run_turn", "store.run_turn", rid=_request_id)

    # -- chat / agent ---------------------------------------------------
    method(PalimpChatSession, "chat", "chat.chat")
    method(PalimpChatSession, "__init__", "chat.session_init")
    method(PalimpChatBrain, "decide", "chat.brain")
    method(ReActAgent, "run", "agent.run",
           on_result=counted("agent.steps", lambda r: r.steps_used))
    method(Tool, "invoke", "agent.tool")

    # -- optimizer ------------------------------------------------------
    method(Optimizer, "optimize", "optimizer.optimize",
           on_result=counted("optimizer.plans",
                             lambda r: r.plans_considered))

    # -- execution ------------------------------------------------------
    patcher.wrap_function("repro.execution.execute", "Execute",
                          probe("execution.Execute"))
    for cls in (SequentialExecutor, PipelinedExecutor, ShardedExecutor):
        method(cls, "execute", "execution.execute")
    original_start = threading.Thread.start

    def start(thread_self, *args, **kwargs):
        # A thread started inside a span nests its spans under that one.
        parent = rec.current()
        if parent is not None:
            if rec.spans[parent][0].startswith("execution."):
                rec.count("execution.threads_started")
            run = thread_self.run

            def adopted_run():
                rec.adopt(parent)
                run()

            thread_self.run = adopted_run
        return original_start(thread_self, *args, **kwargs)

    patcher.set(threading.Thread, "start", start)

    # -- llm ------------------------------------------------------------
    for attr in ("judge", "extract", "complete"):
        method(SimulatedLLMClient, attr, f"llm.{attr}",
               on_result=counted("llm.calls", lambda r: 1))
    for attr in ("judge_batch", "extract_batch"):
        method(SimulatedLLMClient, attr, f"llm.{attr}",
               on_result=counted("llm.calls", len))
    for attr in ("embed", "embed_batch"):
        method(EmbeddingModel, attr, f"llm.{attr}")
    bound = patcher.wrap_function("repro.llm.tokenizer", "count_tokens",
                                  probe("tokenizer.count_tokens"))
    missing = sorted(set(TOKENIZER_BINDINGS) - set(bound))
    if missing:
        raise RuntimeError(f"count_tokens probe missed {missing}")
    patcher.wrap_property(UsageLedger, "records",
                          probe("ledger.records"))

    # -- incremental ----------------------------------------------------
    for attr in ("build_source_manifest", "diff_manifests",
                 "delta_impact"):
        patcher.wrap_function("repro.execution.incremental", attr,
                              probe(f"incremental.{attr}"))

    # -- obs ------------------------------------------------------------
    method(Tracer, "finish", "obs.trace_finish")
    patcher.wrap_function("repro.obs.export", "to_plain_json",
                          probe("obs.trace_export"))
    method(ProvenanceRecorder, "finalize", "obs.provenance_finalize")
    method(ProvenanceGraph, "to_dict", "obs.provenance_export")
    method(RunRegistry, "record", "obs.registry_record")
    method(RunRegistry, "save", "obs.registry_save")
    method(RunRegistry, "handle", "obs.registry_handle")
    method(ResultHandle, "slice", "obs.result_slice")
    for attr in ("new_request_id", "event", "error", "health",
                 "metrics_payload", "prometheus"):
        method(Telemetry, attr, "obs.telemetry")
    patcher.wrap_method(Telemetry, "phase", _phase_probe(rec))

    # -- corpora --------------------------------------------------------
    patcher.wrap_function("repro.corpora.demo", "register_demo_datasets",
                          probe("corpora.register_demo_datasets"))
    from repro.corpora import scale

    for attr in ("generate_scale_source", "mutate_scale_source"):
        patcher.set(scale, attr, probe(f"corpora.{attr}")(
            getattr(scale, attr)))
    return patcher


def _request_probe(rec: Recorder):
    """``do_GET``/``do_POST``: the request id is minted inside the
    handler, so the span is tagged after the call returns."""

    def make(fn):
        def wrapper(handler, *args, **kwargs):
            index = rec.begin("http.request")
            try:
                return fn(handler, *args, **kwargs)
            finally:
                rec.spans[index][5] = getattr(handler, "_request_id", None)
                rec.end(index)

        wrapper.__perfbench_original__ = fn
        return wrapper

    return make


def _phase_probe(rec: Recorder):
    """``Telemetry.phase`` wraps engine work: time only its own entry
    and exit, not the block it encloses."""
    from contextlib import contextmanager

    def make(fn):
        @contextmanager
        def wrapper(telemetry, *args, **kwargs):
            manager = fn(telemetry, *args, **kwargs)
            with rec.span("obs.telemetry"):
                manager.__enter__()
            try:
                yield
            except BaseException as exc:
                with rec.span("obs.telemetry"):
                    if not manager.__exit__(type(exc), exc,
                                            exc.__traceback__):
                        raise
            else:
                with rec.span("obs.telemetry"):
                    manager.__exit__(None, None, None)

        wrapper.__perfbench_original__ = fn
        return wrapper

    return make


def name_self_times(spans: List[list], selfs: List[float]) -> Dict[str, list]:
    """``{span name: [calls, self seconds, total seconds]}``."""
    totals: Dict[str, list] = {}
    for span, self_time in zip(spans, selfs):
        row = totals.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += self_time
        row[2] += span[2] - span[1]
    return totals
