"""The executor core: one single-threaded run loop, several lane policies.

Every executor runs the same loop (:meth:`SequentialExecutor.execute`):
pull a source record, hand it to the executor's *lane policy*, emit
progress, then let the policy drain and close the operator chain.  The LLM
runs on a :class:`~repro.llm.clock.VirtualClock`, so parallelism is
modelled by choosing which clock *lane* each piece of work is charged to;
no OS threads are involved and every run is reproducible.

* **sequential** — records travel depth-first on the current lane;
* **parallel** — each source record's journey is charged to the least-busy
  lane, and lanes synchronize before a blocking operator flushes;
* **pipelined** / **sharded** / **async** — see
  :mod:`repro.execution.pipeline` and :mod:`repro.execution.sharded`.

When a ``LimitOp`` with no blocking operator upstream is exhausted, the
loop stops pulling source records — limits genuinely save LLM calls.
Such plans always run on the sequential (or parallel) policy: bundling or
sharding ahead of the limit would change which records pay for calls.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.records import DataRecord
from repro.execution.stats import ModelUsageRow, OperatorStats, PlanStats
from repro.obs.trace import SpanKind
from repro.physical.base import PhysicalOperator
from repro.physical.context import ExecutionContext
from repro.physical.plan import PhysicalPlan
from repro.physical.structural import LimitOp


def _fill_run_metrics(
    context: ExecutionContext,
    op_stats: List[OperatorStats],
    sink: List[DataRecord],
) -> None:
    """Populate the context's MetricsRegistry from the finished run.

    Every value here is a deterministic function of the plan and input —
    computed once at run end from the same OperatorStats / ledger the
    stats report, never sampled in the hot path — so the snapshot that
    lands in ``ExecutionStats.metrics`` is identical traced or untraced,
    at any worker count.
    """
    metrics = context.metrics
    ledger_total = context.ledger.total()
    metrics.counter("llm.calls").inc(len(context.ledger))
    metrics.counter("llm.input_tokens").inc(ledger_total.input_tokens)
    metrics.counter("llm.output_tokens").inc(ledger_total.output_tokens)
    # Per-call distributions.  Cost and token counts are batch-invariant
    # (identical per-record or batched); latency is not, so no latency
    # histogram — it would differ between batch sizes.
    cost_hist = metrics.histogram("llm.call_cost_usd")
    in_hist = metrics.histogram("llm.call_input_tokens")
    out_hist = metrics.histogram("llm.call_output_tokens")
    for usage in context.ledger.records:
        cost_hist.observe(usage.cost_usd)
        in_hist.observe(usage.input_tokens)
        out_hist.observe(usage.output_tokens)
    metrics.counter("run.records_out").inc(len(sink))
    metrics.gauge("run.elapsed_seconds").set(round(context.clock.elapsed, 9))
    for index, stats in enumerate(op_stats):
        prefix = f"op.{index}.{stats.op_label}"
        metrics.counter(f"{prefix}.records_in").inc(stats.records_in)
        metrics.counter(f"{prefix}.records_out").inc(stats.records_out)
        metrics.counter(f"{prefix}.llm_calls").inc(stats.llm_calls)
        metrics.gauge(f"{prefix}.busy_seconds").set(
            round(stats.time_seconds, 9)
        )


def build_plan_stats(
    plan: PhysicalPlan,
    op_stats: List[OperatorStats],
    context: ExecutionContext,
    sink: List[DataRecord],
) -> PlanStats:
    """Assemble the :class:`PlanStats` for a finished run.

    Shared by every executor so their reports are structurally identical.
    Scan parse time is charged to the clock inside ``records()`` where no
    meter wraps it, so the scan's time line is the residual
    ``total_busy - sum(downstream op times)`` — computed *before* the
    PlanStats object is built, so per-op times already sum to the clock's
    busy time in the stats a caller receives.
    """
    for stats in op_stats:
        # Canonicalize float totals before anything reads them: policies
        # meter the same calls in different orders (per-bundle, per-shard),
        # and a running float sum depends on that order at the last ulp.
        stats.finalize()
    scan_stats, downstream_stats = op_stats[0], op_stats[1:]
    accounted = sum(stats.time_seconds for stats in downstream_stats)
    scan_stats.time_seconds = max(0.0, context.clock.total_busy - accounted)
    _fill_run_metrics(context, op_stats, sink)
    invalid = sum(
        1
        for record in sink
        if record.missing_required()
        or any(
            not field.validate(record.get(name))
            for name, field in record.schema.field_map().items()
        )
    )
    model_usage = [
        ModelUsageRow(
            model=model,
            calls=totals.calls,
            input_tokens=totals.input_tokens,
            output_tokens=totals.output_tokens,
            cost_usd=totals.cost_usd,
        )
        for model, totals in sorted(context.ledger.by_model().items())
    ]
    return PlanStats(
        plan_id=plan.plan_id,
        plan_describe=plan.describe(),
        operator_stats=op_stats,
        total_time_seconds=context.clock.elapsed,
        total_cost_usd=context.ledger.total().cost_usd,
        records_out=len(sink),
        invalid_records=invalid,
        model_usage=model_usage,
    )


class OperatorMeter:
    """Accumulates one operator's :class:`OperatorStats` for a run.

    Each call collects the LLM usage it records in a
    :meth:`UsageLedger.capture` bucket and is timed by its
    ``clock.local_advanced`` delta, whichever lane it charged.  Each call
    first passes the context's cooperative quota checkpoint, so a shared
    budget already breached elsewhere aborts the run before it spends.
    When tracing, each call is also an ``op.*`` span whose duration is
    pinned to that same delta, so span durations reconcile with the stats.
    """

    def __init__(self, op: PhysicalOperator, context: ExecutionContext):
        self.op = op
        self.context = context
        self.stats = OperatorStats(
            op_label=op.op_label,
            logical_describe=op.logical_op.describe(),
        )

    def open(self) -> None:
        """Open the operator; setup work (e.g. a join's right side) is
        charged to it.  Opening produces no records."""
        self._metered(lambda: self.op.open(self.context), inputs=0,
                      n_outputs=None, span_name="op.open")

    def process(self, record: DataRecord) -> List[DataRecord]:
        return self._metered(lambda: self.op.process(record), inputs=1)

    def process_batch(
        self, records: Sequence[DataRecord]
    ) -> List[List[DataRecord]]:
        return self._metered(
            lambda: self.op.process_batch(records), inputs=len(records),
            n_outputs=lambda groups: sum(len(g) for g in groups),
            span_name="op.batch",
        )

    def close(self) -> List[DataRecord]:
        return self._metered(self.op.close, inputs=0, span_name="op.close")

    def charge_accumulate(self, record: DataRecord) -> None:
        """Pay a decomposable blocking op's per-record fold charge only;
        the state mutation is replayed later with ``accumulate_silent``."""
        seconds = self.op.accumulate_seconds
        assert seconds is not None, f"{self.op.op_label} is not decomposable"
        self._metered(lambda: self.op._charge_local_time(seconds) or [],
                      inputs=1, span_name="op.accumulate")

    def _metered(self, fn, inputs: int,
                 n_outputs: Optional[Callable[..., int]] = len,
                 span_name: str = "op.process"):
        context = self.context
        context.checkpoint()
        clock = context.clock
        tracer = context.tracer
        with context.ledger.capture() as bucket:
            if tracer.enabled:
                with tracer.span(span_name, SpanKind.OPERATOR, clock=clock,
                                 op=self.op.op_label) as span:
                    busy_before = clock.local_advanced
                    result = fn()
                    busy_delta = clock.local_advanced - busy_before
                    span.finish_at(span.start + busy_delta)
                    span.set_attribute("records_in", inputs)
                    if n_outputs is not None:
                        span.set_attribute("records_out", n_outputs(result))
            else:
                busy_before = clock.local_advanced
                result = fn()
                busy_delta = clock.local_advanced - busy_before
        stats = self.stats
        stats.records_in += inputs
        if n_outputs is not None:
            stats.records_out += n_outputs(result)
        stats.add_time(busy_delta)
        stats.llm_calls += len(bucket)
        for usage in bucket:
            stats.add_cost(usage.cost_usd)
            stats.input_tokens += usage.input_tokens
            stats.output_tokens += usage.output_tokens
        return result


def run_chain(meters: List[OperatorMeter],
              records: Sequence[DataRecord]) -> List[DataRecord]:
    """Send ``records`` through ``meters`` depth-first, one at a time.

    Blocking operators swallow records; :func:`close_chain` flushes them.
    An explicit work stack, not recursion, keeps depth-first order: plan
    depth times fanout must not be bounded by Python's recursion limit.
    """
    if not meters:
        return list(records)
    sink: List[DataRecord] = []
    for record in records:
        stack: List[Tuple[DataRecord, int]] = [(record, 0)]
        while stack:
            current, index = stack.pop()
            if index >= len(meters):
                sink.append(current)
                continue
            outputs = meters[index].process(current)
            # Reversed so outputs are visited in their emitted order.
            for output in reversed(outputs):
                stack.append((output, index + 1))
    return sink


def run_chain_grouped(meters: List[OperatorMeter],
                      records: Sequence[DataRecord]
                      ) -> List[List[DataRecord]]:
    """One ``process_batch`` call per operator; one output group per input
    record, whose flattening is in :func:`run_chain` order."""
    groups: List[List[DataRecord]] = [[record] for record in records]
    for meter in meters:
        flat = [record for group in groups for record in group]
        if not flat:
            break
        batched = iter(meter.process_batch(flat))
        groups = [
            [out for _ in group for out in next(batched)] for group in groups
        ]
    return groups


def traced_bundle(context: ExecutionContext, name: str, seq: int,
                  records: int, fn, *args):
    """Run ``fn(*args)`` under a BUNDLE span carrying ``seq`` (siblings
    are ordered by it), its duration pinned to the seconds ``fn`` charged."""
    tracer = context.tracer
    if not tracer.enabled:
        return fn(*args)
    clock = context.clock
    with tracer.span(name, SpanKind.BUNDLE, clock=clock,
                     seq=seq, records=records) as span:
        advanced_before = clock.local_advanced
        result = fn(*args)
        span.finish_at(span.start + (clock.local_advanced - advanced_before))
    return result


def close_chain(executor: "SequentialExecutor", meters: List[OperatorMeter],
                synchronize: bool) -> List[DataRecord]:
    """Close ``meters`` in order, sending each flush down the rest of the
    chain; returns what comes out of the end.  With ``synchronize``, all
    lanes catch up to the makespan before a blocking operator flushes."""
    out: List[DataRecord] = []
    for index, meter in enumerate(meters):
        if synchronize and meter.op.is_blocking:
            executor.context.clock.synchronize()
        flushed = meter.close()
        if flushed and meter.op.is_blocking:
            executor._emit({
                "type": "operator_flush",
                "operator": meter.op.op_label,
                "records": len(flushed),
            })
        out.extend(run_chain(meters[index + 1:], flushed))
    return out


class InlinePolicy:
    """The sequential and parallel policies: one record at a time,
    depth-first; ``least_busy`` charges each source record's journey (its
    scan parse included) to the least-busy lane."""

    def __init__(self, executor: "SequentialExecutor",
                 downstream: List[OperatorMeter], least_busy: bool):
        self.executor = executor
        self.downstream = downstream
        self.least_busy = least_busy

    def before_pull(self) -> None:
        if self.least_busy:
            self.executor.context.clock.pick_least_busy_lane()

    def route(self, record: DataRecord, sink: List[DataRecord]) -> None:
        sink.extend(run_chain(self.downstream, [record]))

    def finish(self, sink: List[DataRecord]) -> None:
        sink.extend(close_chain(self.executor, self.downstream,
                                synchronize=self.least_busy))


class SequentialExecutor:
    """The run loop, with the sequential policy; subclasses supply other
    lane policies through :meth:`_policy`.

    ``on_event`` (optional) receives progress dictionaries as the run
    advances: ``plan_start``, ``record_processed`` (one per source record,
    with the running output count), ``operator_flush`` (blocking operators
    emitting), and ``plan_end`` — the hook a UI like the demo's Fig. 5
    progress panel would subscribe to.
    """

    #: Name recorded on the plan.run span.
    EXECUTOR_NAME = "sequential"
    #: Whether the inline policy charges each record to the least-busy lane.
    LEAST_BUSY = False

    def __init__(self, context: Optional[ExecutionContext] = None,
                 on_event=None):
        self.context = context or ExecutionContext(max_workers=1)
        self._on_event = on_event

    def _emit(self, event: dict) -> None:
        if self._on_event is not None:
            self._on_event(event)

    @staticmethod
    def _early_stop(plan: PhysicalPlan) -> Optional[LimitOp]:
        """The first LimitOp with only streaming operators upstream."""
        for op in plan.downstream:
            if op.is_blocking:
                return None
            if isinstance(op, LimitOp):
                return op
        return None

    def _plan_span_attrs(self) -> dict:
        return {"workers": self.context.max_workers}

    def _policy(self, plan: PhysicalPlan, downstream: List[OperatorMeter]):
        """The lane policy for a plan with operators and no early stop."""
        return InlinePolicy(self, downstream, self.LEAST_BUSY)

    def execute(self, plan: PhysicalPlan) -> Tuple[List[DataRecord], PlanStats]:
        self._emit({
            "type": "plan_start",
            "plan_id": plan.plan_id,
            "plan": plan.describe(),
            "operators": len(plan),
        })
        context = self.context
        tracer = context.tracer
        clock = context.clock
        context.provenance.begin_plan(plan)
        with tracer.span(
            "plan.run", SpanKind.PLAN, clock=clock,
            plan_id=plan.plan_id, executor=self.EXECUTOR_NAME,
            **self._plan_span_attrs(),
        ) as plan_span:
            meters = [OperatorMeter(op, context) for op in plan]
            for meter in meters:
                meter.open()
            scan_stats = meters[0].stats
            scan_label = meters[0].op.op_label
            stop_limit = self._early_stop(plan)
            if stop_limit is None and plan.downstream:
                policy = self._policy(plan, meters[1:])
            else:
                policy = InlinePolicy(self, meters[1:], self.LEAST_BUSY)
            sink: List[DataRecord] = []

            source_iter = plan.scan.records()
            while True:
                # Pick the lane *before* pulling, so the parse time charged
                # inside records() lands on the lane the policy chose.
                policy.before_pull()
                if tracer.enabled:
                    scan_start = clock.now
                    scan_lane = clock.current_lane
                    advanced_before = clock.local_advanced
                try:
                    record = next(source_iter)
                except StopIteration:
                    break
                context.provenance.source(record)
                if tracer.enabled:
                    tracer.record(
                        "op.scan", SpanKind.OPERATOR, scan_start,
                        scan_start + (clock.local_advanced - advanced_before),
                        scan_lane, op=scan_label,
                        records_in=1, records_out=1,
                    )
                scan_stats.records_in += 1
                scan_stats.records_out += 1
                policy.route(record, sink)
                self._emit({
                    "type": "record_processed",
                    "index": scan_stats.records_in,
                    "outputs_so_far": len(sink),
                    "elapsed_seconds": clock.elapsed,
                })
                if stop_limit is not None and stop_limit.exhausted:
                    break
            policy.finish(sink)
            plan_span.finish_at(clock.elapsed)

        plan_stats = build_plan_stats(
            plan, [m.stats for m in meters], context, sink
        )
        self._emit({
            "type": "plan_end",
            "records_out": len(sink),
            "elapsed_seconds": clock.elapsed,
            "cost_usd": plan_stats.total_cost_usd,
        })
        return sink, plan_stats


class ParallelExecutor(SequentialExecutor):
    """Record-parallel execution across ``max_workers`` clock lanes."""

    EXECUTOR_NAME = "parallel"
    LEAST_BUSY = True

    def __init__(self, context: Optional[ExecutionContext] = None,
                 max_workers: int = 4, on_event=None):
        if context is None:
            context = ExecutionContext(max_workers=max_workers)
        if context.clock.lanes < context.max_workers:
            raise ValueError(
                "context clock must have at least max_workers lanes"
            )
        super().__init__(context, on_event=on_event)
