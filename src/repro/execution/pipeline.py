"""The pipelined lane policy: operator stages and sequence-numbered bundles.

:class:`PipelinedExecutor` splits the operator chain after the scan into
*stages* and streams numbered record *bundles* through them, one bundle at
a time, on the run loop of :mod:`repro.execution.executors`:

* a **parallel stage** — a maximal run of LLM-bound streaming operators —
  charges bundle ``seq`` to lane ``lane_base + seq % workers``, modelling
  ``max_workers`` workers pulling bundles off a queue;
* a **serial stage** — a run of order-sensitive streaming operators
  (limits, distinct, UDFs, code-synthesis converts) — charges its own lane
  and re-bundles its output for the next stage;
* a **barrier stage** — one blocking operator — accumulates on its own
  lane and flushes on close, once every lane caught up to the makespan.

The scan charges lane 0.  A bundle's lane is a pure function of its
sequence number, so makespans and traces repeat run to run, and records
and per-operator stats equal the sequential policy's.

With ``batch_size > 1`` a parallel stage makes one ``process_batch`` call
per operator per bundle: answers, tokens and cost are identical to
per-record calls, while calls after the first in a batch amortize the
model's fixed per-call overhead and shared prompt prefixes are tokenized
once.
"""
from __future__ import annotations

from itertools import groupby
from typing import List, Optional, Tuple

from repro.core.records import DataRecord
from repro.execution.executors import (
    OperatorMeter,
    SequentialExecutor,
    close_chain,
    run_chain,
    run_chain_grouped,
    traced_bundle,
)
from repro.obs.trace import SpanKind
from repro.physical.base import PhysicalOperator
from repro.physical.context import ExecutionContext
from repro.physical.converts import CodeSynthesisConvert
from repro.physical.plan import PhysicalPlan

#: A sequence-numbered bundle of records moving between stages.
Bundle = Tuple[int, List[DataRecord]]


def parallel_safe(op: PhysicalOperator) -> bool:
    """Can ``op`` process records out of order with identical results?

    True for stateless LLM-bound streaming operators — the ones worth
    spreading over lanes.  CodeSynthesisConvert is LLM-bound but
    order-sensitive (the first records seen become the exemplars), so it
    stays serial.
    """
    return (op.is_llm_op and not op.is_blocking
            and not isinstance(op, CodeSynthesisConvert))


class _Stage:
    """One segment of the operator chain and its bundle bookkeeping."""

    def __init__(self, meters: List[OperatorMeter], parallel: bool,
                 workers: int, lane_base: int):
        self.meters = meters
        self.parallel = parallel
        self.workers = workers if parallel else 1
        self.lane_base = lane_base
        self.out_batch = 1  # records per bundle sent downstream
        self.received = 0  # bundles fed in so far
        self.emitted = 0  # bundles a serial stage has sent downstream
        self.pending: List[DataRecord] = []  # serial output not yet bundled
        self.span = None  # pipeline.stage span (when tracing)

    def describe(self) -> str:
        kind = ("barrier" if self.meters[0].op.is_blocking
                else "parallel" if self.parallel else "serial")
        ops = "+".join(m.op.op_label for m in self.meters)
        return f"{kind}({ops})"

    def rebundle(self, flush: bool = False) -> List[Bundle]:
        """Cut pending serial output into numbered downstream bundles."""
        bundles: List[Bundle] = []
        pending = self.pending
        while len(pending) >= self.out_batch or (flush and pending):
            bundles.append((self.emitted, pending[:self.out_batch]))
            del pending[:self.out_batch]
            self.emitted += 1
        return bundles


class PipelinePolicy:
    """Streams bundles through the stages; see the module docstring."""

    def __init__(self, executor: "PipelinedExecutor",
                 downstream: List[OperatorMeter]):
        self.executor = executor
        self.context = executor.context
        self.batch_size = executor.batch_size
        self.stages = self._build_stages(downstream, executor.max_workers)
        for stage, successor in zip(self.stages, self.stages[1:]):
            stage.out_batch = self.batch_size if successor.parallel else 1
        tracer = self.context.tracer
        if tracer.enabled:
            for index, stage in enumerate(self.stages):
                stage.span = tracer.start_span(
                    "pipeline.stage", SpanKind.STAGE,
                    clock=self.context.clock, stage=index,
                    ops=stage.describe(), workers=stage.workers,
                    parallel=stage.parallel,
                )
        self.in_batch = self.batch_size if self.stages[0].parallel else 1
        self.bundle: List[DataRecord] = []  # scan records not yet sent

    def _build_stages(self, meters: List[OperatorMeter],
                      workers: int) -> List[_Stage]:
        """Split downstream meters into parallel/serial/barrier stages:
        every blocking operator alone, other runs by :func:`parallel_safe`."""
        stages: List[_Stage] = []
        lane_base = 1  # lane 0 belongs to the scan
        runs = groupby(meters, key=lambda m: (
            m if m.op.is_blocking else parallel_safe(m.op)
        ))
        for key, run in runs:
            stage = _Stage(list(run), key is True, workers, lane_base)
            lane_base += stage.workers
            stages.append(stage)
        self.context.clock.ensure_lanes(lane_base)
        return stages

    # -- the policy interface ----------------------------------------------

    def before_pull(self) -> None:
        self.context.clock.use_lane(0)

    def route(self, record: DataRecord, sink: List[DataRecord]) -> None:
        self.bundle.append(record)
        if len(self.bundle) >= self.in_batch:
            self._feed_scan_bundle(sink)

    def finish(self, sink: List[DataRecord]) -> None:
        if self.bundle:
            self._feed_scan_bundle(sink)
        for index, stage in enumerate(self.stages):
            self._drain(index + 1, self._close(stage), sink)
        metrics = self.context.metrics
        elapsed = self.context.clock.elapsed
        for index, stage in enumerate(self.stages):
            # The stage's operator busy time: the same numbers
            # OperatorStats reports, so trace and stats reconcile.
            busy = round(sum(m.stats.time_seconds for m in stage.meters), 9)
            metrics.gauge(f"pipeline.stage{index}.busy_seconds").set(busy)
            if stage.span is not None:
                stage.span.set_attribute("busy_seconds", busy)
                stage.span.set_attribute(
                    "records_out", stage.meters[-1].stats.records_out
                )
                stage.span.finish_at(elapsed)

    # -- bundle movement -----------------------------------------------------

    def _feed_scan_bundle(self, sink: List[DataRecord]) -> None:
        bundle, self.bundle = self.bundle, []
        self._drain(0, [(self.stages[0].received, bundle)], sink)

    def _drain(self, start: int, bundles: List[Bundle],
               sink: List[DataRecord]) -> None:
        """Push ``bundles`` into stage ``start`` and everything they cause
        downstream, depth-first, before returning."""
        stack = [(start, bundle) for bundle in reversed(bundles)]
        while stack:
            index, (seq, records) = stack.pop()
            if index == len(self.stages):
                sink.extend(records)
                continue
            outputs = self._feed(self.stages[index], seq, records)
            for bundle in reversed(outputs):
                stack.append((index + 1, bundle))

    def _feed(self, stage: _Stage, seq: int,
              records: List[DataRecord]) -> List[Bundle]:
        stage.received += 1
        clock = self.context.clock
        if stage.parallel:
            clock.use_lane(stage.lane_base + seq % stage.workers)
        else:
            clock.use_lane(stage.lane_base)
        with self.context.tracer.attach(stage.span):
            outputs = traced_bundle(self.context, "pipeline.bundle", seq,
                                    len(records), self._chain, stage, records)
        if stage.parallel:
            return [(seq, outputs)]
        stage.pending.extend(outputs)
        return stage.rebundle()

    def _chain(self, stage: _Stage,
               records: List[DataRecord]) -> List[DataRecord]:
        if stage.parallel and self.batch_size > 1:
            groups = run_chain_grouped(stage.meters, records)
            return [record for group in groups for record in group]
        return run_chain(stage.meters, records)

    def _close(self, stage: _Stage) -> List[Bundle]:
        """Close the stage's operators on its own lane; a parallel stage's
        flush becomes one bundle sequenced after its mainline bundles."""
        self.context.clock.use_lane(stage.lane_base)
        with self.context.tracer.attach(stage.span):
            flushed = close_chain(self.executor, stage.meters,
                                  synchronize=True)
        if stage.parallel:
            return [(stage.received, flushed)] if flushed else []
        stage.pending.extend(flushed)
        return stage.rebundle(flush=True)


class PipelinedExecutor(SequentialExecutor):
    """Stage-pipelined, optionally batched execution.

    Args:
        context: execution context; created with ``max_workers`` lanes when
            omitted.
        max_workers: lanes per parallel stage (default: the context's).
        batch_size: records per ``process_batch`` call in parallel stages;
            left at 1, the batch size the optimizer stamped on the plan.
        on_event: optional progress callback.
    """

    EXECUTOR_NAME = "pipelined"

    def __init__(self, context: Optional[ExecutionContext] = None,
                 max_workers: Optional[int] = None, batch_size: int = 1,
                 on_event=None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if context is None:
            context = ExecutionContext(max_workers=max_workers or 4)
        super().__init__(context, on_event=on_event)
        self.max_workers = max_workers or context.max_workers
        if self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        self.batch_size = batch_size

    def execute(self, plan: PhysicalPlan):
        if self.batch_size == 1 and getattr(plan, "batch_size", 1) > 1:
            self.batch_size = plan.batch_size
        return super().execute(plan)

    def _plan_span_attrs(self) -> dict:
        return {"workers": self.max_workers, "batch_size": self.batch_size}

    def _policy(self, plan: PhysicalPlan,
                downstream: List[OperatorMeter]):
        return PipelinePolicy(self, downstream)
