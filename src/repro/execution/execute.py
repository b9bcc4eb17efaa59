"""The ``Execute`` entry point (Fig. 6, line 28).

    records, execution_stats = Execute(dataset, policy=pz.MaxQuality())
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.core.dataset import Dataset
from repro.core.records import DataRecord
from repro.execution.executors import ParallelExecutor, SequentialExecutor
from repro.execution.incremental import (
    IncrementalReport,
    build_source_manifest,
    delta_impact,
    diff_manifests,
)
from repro.execution.pipeline import PipelinedExecutor
from repro.execution.sharded import AsyncExecutor, ShardedExecutor
from repro.execution.stats import ExecutionStats
from repro.llm.models import ModelRegistry
from repro.llm.replay import ReplayLog
from repro.obs.provenance import NULL_PROVENANCE, ProvenanceRecorder
from repro.obs.trace import NULL_TRACER, Tracer
from repro.optimizer.cost_model import CostModel
from repro.optimizer.optimizer import OptimizationReport, Optimizer
from repro.optimizer.policies import MaxQuality, Policy, parse_policy
from repro.physical.context import ExecutionContext


class ExecutionEngine:
    """Reusable engine configuration: optimize then execute.

    Args:
        policy: optimization preference (name string or Policy instance).
        max_workers: record-level parallelism for LLM operators.
        sample_size: sentinel sample size for the optimizer (0 = naive
            estimates only).
        models: model registry for both plan space and execution.
        lint: run plan lint before optimizing; error-level findings raise
            :class:`~repro.analysis.LintError` instead of executing.
        executor: which lane policy runs the chosen plan — "sequential",
            "parallel" (least-busy virtual-clock lane per record),
            "pipelined" (operator stages with bundles charged to lanes by
            sequence number), "sharded" (scatter/gather over
            deterministic source shards), or "async" (round-robin
            sharding with per-record calls).  Every policy runs on the
            same single-threaded run loop and returns the same records.
            ``None`` keeps the historical inference: parallel when
            ``max_workers > 1``, sequential otherwise.
        batch_size: LLM-stage batch size for the pipelined/sharded
            executors; the cost model amortizes per-call overhead
            accordingly.  Ignored (beyond costing) by the other executors,
            which call per record.
        shards: parallelism degree for the "sharded"/"async" executors.
            ``None`` (default) lets the optimizer enumerate degrees and
            *choose* one with the cost model; an integer pins it.
        trace: observability.  ``False`` (default) disables tracing at zero
            cost; ``True`` records the run with a fresh
            :class:`~repro.obs.Tracer`; an existing ``Tracer`` instance
            records into it.  The finalized trace is attached to
            ``ExecutionStats.trace``.  Tracing never changes records,
            stats, or LLM call counts.
        provenance: record-level provenance.  ``False`` (default)
            disables it at zero cost; ``True`` records every derivation
            and drop with a fresh
            :class:`~repro.obs.provenance.ProvenanceRecorder`; an
            existing recorder instance records into it.  The canonical
            :class:`~repro.obs.provenance.ProvenanceGraph` is attached
            to ``ExecutionStats.provenance`` (query it with
            ``why``/``why_not``, persist it with
            :class:`~repro.obs.registry.RunRegistry`).  Like tracing, it
            never changes records, stats, or LLM call counts.
        capture_calls: record the run's source manifest and LLM call log
            onto the stats (``stats.source_manifest`` / ``stats.call_log``)
            so the RunRegistry can persist them — the base a later
            incremental re-run diffs against and replays from.
        incremental: re-run against ``base_run``: diff the live source
            against the base run's manifest, let the cost model price
            replay-vs-cold, and (in replay mode) serve unchanged
            documents' LLM calls from the base call log.  Records, stats,
            traces, and provenance stay byte-identical to a cold run; the
            :class:`~repro.execution.incremental.IncrementalReport` on
            ``stats.incremental`` carries the fresh-vs-reused bill.
            Implies ``capture_calls``.
        base_run: the base for an incremental run — a
            :class:`~repro.obs.registry.RunSnapshot`, a run id string
            resolved against ``runs_dir``, or ``None`` for the most
            recent run in ``runs_dir``.
        runs_dir: registry directory run-id strings resolve against
            (default ``.repro/runs``).
        budget: a shared :class:`~repro.llm.usage.BudgetMeter` (e.g. a
            tenant's quota) charged for every LLM call of the run.  A
            call that pushes the spend strictly over a cap is recorded
            first, then aborts the run with
            :class:`~repro.llm.usage.QuotaExceededError` (partial usage
            stays accounted); executors additionally poll a cooperative
            checkpoint between operators so a budget exhausted by a
            concurrent run aborts this one too.  Optimizer sentinel runs
            never charge the budget.
        on_event: progress callback receiving executor event dicts
            (``plan_start`` / ``record_processed`` / ``operator_flush`` /
            ``plan_end``) as the run advances, under every executor.
        sanitize: run the plan under the lock sanitizer
            (:mod:`repro.analysis.sanitizer`): every lock created during
            the run is observed, the cross-thread lock-order graph is
            recorded, and guarded-attribute writes are checked against
            the ``_GUARDED_BY`` declarations.  The
            :class:`~repro.analysis.sanitizer.SanitizerReport` is
            attached to ``ExecutionStats.sanitizer``.  Observation only:
            sanitized runs produce byte-identical records/stats/traces.
        candidate_options: plan-space ablation switches (forwarded to the
            optimizer).
    """

    EXECUTORS = ("sequential", "parallel", "pipelined", "sharded", "async")
    #: Executors that scatter the shardable prefix over source shards.
    SCALE_OUT_EXECUTORS = ("sharded", "async")

    def __init__(
        self,
        policy: Union[Policy, str, None] = None,
        max_workers: int = 1,
        sample_size: int = 0,
        models: Optional[ModelRegistry] = None,
        cache=None,
        lint: bool = True,
        executor: Optional[str] = None,
        batch_size: int = 1,
        shards: Optional[int] = None,
        trace: Union[bool, Tracer] = False,
        provenance: Union[bool, ProvenanceRecorder] = False,
        sanitize: bool = False,
        capture_calls: bool = False,
        incremental: bool = False,
        base_run=None,
        runs_dir: Optional[str] = None,
        budget=None,
        on_event=None,
        telemetry=None,
        **candidate_options,
    ):
        if policy is None:
            policy = MaxQuality()
        elif isinstance(policy, str):
            policy = parse_policy(policy)
        if executor is not None and executor not in self.EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; "
                f"expected one of {', '.join(self.EXECUTORS)}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if shards is not None:
            if shards < 1:
                raise ValueError(f"shards must be >= 1, got {shards}")
            if executor not in self.SCALE_OUT_EXECUTORS:
                raise ValueError(
                    "shards only applies to the "
                    f"{' / '.join(self.SCALE_OUT_EXECUTORS)} executors; "
                    f"got executor={executor!r}"
                )
        self.shards = shards
        self.policy = policy
        self.max_workers = max_workers
        self.sample_size = sample_size
        self.models = models
        self.cache = cache
        self.lint = lint
        self.executor = executor
        self.batch_size = batch_size
        self.trace = trace
        self.provenance = provenance
        self.sanitize = sanitize
        self.capture_calls = capture_calls or incremental
        self.incremental = incremental
        self.base_run = base_run
        self.runs_dir = runs_dir
        self.budget = budget
        self.on_event = on_event
        #: Optional wall-clock ops hook (duck-typed
        #: :class:`~repro.obs.telemetry.Telemetry`).  Observation only:
        #: it times optimize/execute phases and logs an ``engine_run``
        #: event, and must never influence records/stats/traces —
        #: telemetry-on runs are byte-identical to telemetry-off runs.
        self.telemetry = telemetry
        self.candidate_options = candidate_options

    def _phase(self, name: str):
        """Telemetry phase timer; free (no-op context) when unhooked."""
        if self.telemetry is None:
            from contextlib import nullcontext

            return nullcontext()
        return self.telemetry.phase(name)

    def _make_tracer(self):
        """(tracer, traced?) for one run, honoring the ``trace`` setting."""
        if isinstance(self.trace, Tracer):
            return self.trace, True
        if self.trace:
            return Tracer(), True
        return NULL_TRACER, False

    def _make_provenance(self):
        """(recorder, recording?) honoring the ``provenance`` setting."""
        if isinstance(self.provenance, ProvenanceRecorder):
            return self.provenance, True
        if self.provenance:
            return ProvenanceRecorder(), True
        return NULL_PROVENANCE, False

    def _executor_name(self) -> str:
        if self.executor is not None:
            return self.executor
        return "parallel" if self.max_workers > 1 else "sequential"

    def optimize(self, dataset: Dataset,
                 tracer=None) -> OptimizationReport:
        name = self._executor_name()
        optimizer = Optimizer(
            policy=self.policy,
            max_workers=self.max_workers,
            sample_size=self.sample_size,
            models=self.models,
            lint=self.lint,
            batch_size=(
                self.batch_size
                if name in ("pipelined",) + self.SCALE_OUT_EXECUTORS
                else 1
            ),
            executor=name,
            shards=self.shards,
            tracer=tracer,
            **self.candidate_options,
        )
        return optimizer.optimize(dataset.logical_plan(), dataset.source)

    def explain(self, dataset: Dataset) -> str:
        """EXPLAIN-style report: the plan space, the Pareto frontier, and
        the policy's choice — without executing anything."""
        report = self.optimize(dataset)
        frontier = sorted(
            report.frontier(), key=lambda c: c.estimate.cost_usd
        )
        lines = [
            f"logical plan:     {dataset.logical_plan().describe()}",
            f"policy:           {report.policy.describe()}",
            f"plans enumerated: {report.plans_considered}",
            f"pareto frontier:  {len(frontier)} plans",
            "",
            f"{'est.cost($)':>12} {'est.time(s)':>12} {'est.quality':>12}  plan",
        ]
        for candidate in frontier:
            estimate = candidate.estimate
            marker = " *" if candidate is report.chosen else "  "
            lines.append(
                f"{estimate.cost_usd:>12.4f} {estimate.time_seconds:>12.1f} "
                f"{estimate.quality:>12.3f}{marker}"
                f"{candidate.plan.describe()}"
            )
        lines.append("")
        lines.append(f"chosen: {report.chosen.plan.describe()}")
        return "\n".join(lines)

    def execute(
        self, dataset: Dataset
    ) -> Tuple[List[DataRecord], ExecutionStats]:
        if self.sanitize:
            # Open the window before the context exists so the run's own
            # locks (clock, ledger, metrics) are created wrapped.
            from repro.analysis.sanitizer import sanitize as sanitize_ctx

            with sanitize_ctx() as report:
                records, stats = self._execute(dataset)
            stats.sanitizer = report
            return records, stats
        return self._execute(dataset)

    def _resolve_base_snapshot(self):
        """The base RunSnapshot an incremental run diffs against."""
        from repro.obs.registry import (
            DEFAULT_RUNS_DIR, RunRegistry, RunSnapshot,
        )

        if isinstance(self.base_run, RunSnapshot):
            return self.base_run
        registry = RunRegistry(self.runs_dir or DEFAULT_RUNS_DIR)
        run_id = self.base_run
        if run_id is None:
            run_id = registry.latest()
            if run_id is None:
                raise ValueError(
                    "incremental execution needs a base run, but "
                    f"{registry.root} holds no recorded runs; "
                    "record one first (capture_calls=True + "
                    "RunRegistry.record) or pass base_run="
                )
        return registry.load(str(run_id))

    def _execute(
        self, dataset: Dataset
    ) -> Tuple[List[DataRecord], ExecutionStats]:
        tracer, traced = self._make_tracer()
        recorder, recording = self._make_provenance()
        with self._phase("engine.optimize"):
            report = self.optimize(dataset, tracer=tracer)
        replay_log = None
        live_manifest = None
        incremental_plan = None  # (base snapshot, delta, pricing, mode)
        if self.capture_calls:
            live_manifest = build_source_manifest(dataset.source)
        if self.incremental:
            snapshot = self._resolve_base_snapshot()
            delta = diff_manifests(snapshot.manifest, live_manifest)
            base_docs = len((snapshot.manifest or {}).get("entries", []))
            calls_per_doc = (
                snapshot.meta.get("llm_calls", 0) / base_docs
                if base_docs else 1.0
            )
            pricing = CostModel.price_incremental(
                report.chosen.estimate,
                total_docs=delta.total_live,
                fresh_docs=delta.fresh_docs,
                calls_per_doc=calls_per_doc,
            )
            # Replaying never changes the chosen plan — only who pays for
            # which call — so the mode decision cannot affect the output.
            mode = (
                "replay" if pricing.use_incremental and snapshot.calls
                else "cold"
            )
            replay_log = (
                ReplayLog.from_payload(snapshot.calls)
                if mode == "replay" else ReplayLog()
            )
            incremental_plan = (snapshot, delta, pricing, mode)
        elif self.capture_calls:
            replay_log = ReplayLog()
        context = ExecutionContext(
            max_workers=self.max_workers,
            models=self.models,
            cache=self.cache,
            tracer=tracer,
            provenance=recorder,
            replay=replay_log,
            budget=self.budget,
        )
        if traced and tracer.default_clock is None:
            # Optimizer spans were recorded clockless (optimization is free
            # in virtual time); execution spans follow the run's clock.
            tracer.default_clock = context.clock
        cache_before = (
            (self.cache.stats.hits, self.cache.stats.misses,
             self.cache.stats.evictions)
            if self.cache is not None else (0, 0, 0)
        )
        name = self._executor_name()
        chosen_plan = report.chosen.plan
        plan_shards = max(1, getattr(chosen_plan, "shards", 1))
        on_event = self.on_event
        if name == "pipelined":
            executor = PipelinedExecutor(context, self.max_workers,
                                         self.batch_size, on_event)
        elif name in self.SCALE_OUT_EXECUTORS:
            scale_out = ShardedExecutor if name == "sharded" else AsyncExecutor
            executor = scale_out(context, plan_shards,
                                 batch_size=self.batch_size,
                                 on_event=on_event)
        elif name == "parallel":
            executor = ParallelExecutor(context, self.max_workers, on_event)
        else:
            executor = SequentialExecutor(context, on_event)
        with self._phase("engine.execute"):
            records, plan_stats = executor.execute(chosen_plan)
        if self.telemetry is not None:
            self.telemetry.event(
                "engine_run", executor=name,
                records=len(records), shards=plan_shards,
            )
        if self.cache is not None:
            cache_hits = self.cache.stats.hits - cache_before[0]
            cache_misses = self.cache.stats.misses - cache_before[1]
            cache_evictions = self.cache.stats.evictions - cache_before[2]
        else:
            cache_hits = cache_misses = cache_evictions = 0
        context.metrics.counter("llm.cache_hits").inc(cache_hits)
        context.metrics.counter("llm.cache_misses").inc(cache_misses)
        stats = ExecutionStats(
            plan_stats=plan_stats,
            policy=report.policy.describe(),
            plans_considered=report.plans_considered,
            optimization_cost_usd=report.sentinel_cost_usd,
            optimization_time_seconds=report.sentinel_time_seconds,
            max_workers=self.max_workers,
            executor=name,
            batch_size=(
                self.batch_size
                if name in ("pipelined",) + self.SCALE_OUT_EXECUTORS
                else 1
            ),
            shards=plan_shards if name in self.SCALE_OUT_EXECUTORS else 1,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_evictions=cache_evictions,
            metrics=context.metrics.snapshot(),
            trace=tracer.finish() if traced else None,
            provenance=recorder.finalize(records) if recording else None,
        )
        if replay_log is not None:
            stats.source_manifest = live_manifest
            stats.call_log = replay_log.to_payload()
        if incremental_plan is not None:
            snapshot, delta, pricing, mode = incremental_plan
            reused = replay_log.reused_summary()
            totals = context.ledger.total()
            stats.incremental = IncrementalReport(
                base_run_id=snapshot.run_id,
                mode=mode,
                delta=delta,
                impact=delta_impact(
                    snapshot.graph, delta, snapshot.manifest or {}
                ),
                replayed_calls=reused.calls,
                fresh_calls=totals.calls - reused.calls,
                reused_cost_usd=reused.cost_usd,
                reused_llm_seconds=reused.seconds,
                fresh_cost_usd=totals.cost_usd - reused.cost_usd,
                fresh_llm_seconds=totals.latency_seconds - reused.seconds,
                pricing=pricing,
            )
        return records, stats


def Execute(
    dataset: Dataset,
    policy: Union[Policy, str, None] = None,
    max_workers: int = 1,
    sample_size: int = 0,
    models: Optional[ModelRegistry] = None,
    cache=None,
    lint: bool = True,
    executor: Optional[str] = None,
    batch_size: int = 1,
    shards: Optional[int] = None,
    trace: Union[bool, Tracer] = False,
    provenance: Union[bool, ProvenanceRecorder] = False,
    sanitize: bool = False,
    capture_calls: bool = False,
    incremental: bool = False,
    base_run=None,
    runs_dir: Optional[str] = None,
    budget=None,
    on_event=None,
    telemetry=None,
    **candidate_options,
) -> Tuple[List[DataRecord], ExecutionStats]:
    """Optimize and execute ``dataset``'s pipeline; return (records, stats).

    This is the public one-shot API::

        records, stats = Execute(dataset, policy=MaxQuality())
        print(stats.summary())

    Pass ``executor="pipelined"`` (optionally with ``batch_size``) to run
    the plan as operator stages over virtual-clock lanes::

        records, stats = Execute(
            dataset, executor="pipelined", max_workers=4, batch_size=8
        )

    Pass ``executor="sharded"`` (or ``"async"``) to scatter the plan over
    deterministic source shards; omit ``shards`` to let the optimizer
    choose the degree, or pin it explicitly::

        records, stats = Execute(dataset, executor="sharded")          # chosen
        records, stats = Execute(dataset, executor="sharded", shards=4)  # pinned

    Pass ``trace=True`` to record an execution trace (``stats.trace``)::

        records, stats = Execute(dataset, trace=True)
        print(repro.obs.render_tree(stats.trace))

    Pass ``provenance=True`` to record record-level provenance
    (``stats.provenance``)::

        records, stats = Execute(dataset, provenance=True)
        print(repro.obs.render_why(
            stats.provenance.why(stats.provenance.output_ids[0])))

    Pass ``sanitize=True`` to run under the lock sanitizer
    (``stats.sanitizer`` carries the report)::

        records, stats = Execute(dataset, executor="pipelined",
                                 max_workers=4, sanitize=True)
        assert stats.sanitizer.ok()

    Pass ``capture_calls=True`` to record the source manifest and LLM
    call log onto the stats (persisted by ``RunRegistry.record``), then
    ``incremental=True`` to re-run against that base after the corpus
    drifts — unchanged documents replay from the base call log and only
    the delta is paid for, with byte-identical output::

        records, stats = Execute(dataset, provenance=True,
                                 capture_calls=True)
        base = RunRegistry(runs_dir).record(records, stats)
        # ... corpus drifts ...
        records2, stats2 = Execute(dataset, provenance=True,
                                   incremental=True, base_run=base)
        print(stats2.incremental.render())
    """
    engine = ExecutionEngine(
        policy=policy,
        max_workers=max_workers,
        sample_size=sample_size,
        models=models,
        cache=cache,
        lint=lint,
        executor=executor,
        batch_size=batch_size,
        shards=shards,
        trace=trace,
        provenance=provenance,
        sanitize=sanitize,
        capture_calls=capture_calls,
        incremental=incremental,
        base_run=base_run,
        runs_dir=runs_dir,
        budget=budget,
        on_event=on_event,
        telemetry=telemetry,
        **candidate_options,
    )
    return engine.execute(dataset)
