"""The sharded lane policy: scatter the shardable prefix over K lanes.

:class:`ShardedExecutor` runs the plan's *shardable prefix* — the maximal
run of shard-safe operators after the scan (see
:func:`repro.physical.plan.shard_safe`) — on one virtual-clock lane per
shard, and the rest of the chain (the *suffix*: limits, blocking
operators, UDF joins, ...) at the gather in global arrival order.  Records,
per-operator stats, traces and provenance equal the sequential policy's at
any shard count; only the simulated makespan shrinks.  The lane map:

* **lane 0** — the scan.  Records are scattered round-robin or by
  size-balancing document tokens, the same pure assignment
  :func:`repro.core.sources.shard_assignment` computes offline.
* **lanes 1..K** — shard ``k`` runs its records through the prefix on lane
  ``1 + k``, ``batch_size`` of its own consecutive records per call.  Once
  every shard is done, lane 1 closes the prefix; what that flushes (outer
  joins' unmatched rows) is gathered after every mainline record.
* **lane K+1** — the gather runs and closes the suffix, synchronizing every
  lane before a blocking operator flushes.

When the suffix starts with a decomposable blocking operator
(``accumulate_seconds`` set: aggregates, group-bys), each shard pays the
per-record fold charge on its own lane and the gather replays only the
unmetered state mutation (``accumulate_silent``) in global order, so the
fold's time parallelizes while its accounting stays sequential-identical.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.records import DataRecord
from repro.core.sources import (
    SHARD_BALANCED,
    SHARD_ROUND_ROBIN,
    SHARD_STRATEGIES,
)
from repro.execution.executors import (
    OperatorMeter,
    SequentialExecutor,
    close_chain,
    run_chain,
    run_chain_grouped,
    traced_bundle,
)
from repro.llm.tokenizer import count_tokens
from repro.obs.trace import SpanKind
from repro.physical.context import ExecutionContext
from repro.physical.plan import PhysicalPlan, shard_safe


class ShardPolicy:
    """Scatter/gather over ``shards`` lanes; see the module docstring."""

    def __init__(self, executor: "ShardedExecutor",
                 downstream: List[OperatorMeter], batch_size: int):
        self.executor = executor
        self.context = executor.context
        self.shards = shards = executor.shards
        self.strategy = executor.strategy
        self.batch_size = batch_size
        split = next((i for i, meter in enumerate(downstream)
                      if not shard_safe(meter.op)), len(downstream))
        self.prefix, self.suffix = downstream[:split], downstream[split:]
        head = self.suffix[0] if self.suffix else None
        #: A decomposable blocking suffix head, pre-aggregated per shard.
        self.decomp = head if (
            head is not None and head.op.is_blocking
            and head.op.accumulate_seconds is not None
        ) else None
        self.gather_lane = shards + 1
        self.context.clock.ensure_lanes(shards + 2)

        self.shard_spans: List = [None] * shards
        self.close_span = None
        self.gather_span = None
        tracer = self.context.tracer
        if tracer.enabled:
            clock = self.context.clock
            prefix_ops = "+".join(m.op.op_label for m in self.prefix)
            prefix_ops = prefix_ops or "<forward>"
            suffix_ops = "+".join(m.op.op_label for m in self.suffix)
            for k in range(shards):
                self.shard_spans[k] = tracer.start_span(
                    "shard.worker", SpanKind.STAGE, clock=clock,
                    shard=k, shards=shards, ops=prefix_ops,
                    strategy=self.strategy,
                )
            self.close_span = tracer.start_span(
                "shard.close", SpanKind.STAGE, clock=clock, ops=prefix_ops,
            )
            self.gather_span = tracer.start_span(
                "shard.gather", SpanKind.STAGE, clock=clock,
                ops=suffix_ops or "<sink>", shards=shards,
            )

        self.loads = [0.0] * shards  # balanced strategy: tokens per shard
        self.per_shard = [0] * shards
        self.fed = 0
        #: Per shard, ``(index, record)`` pairs waiting for a full batch.
        self.batches: List[List[Tuple[int, DataRecord]]] = [
            [] for _ in range(shards)
        ]
        #: Prefix outputs by arrival index, waiting for the gather cursor
        #: (a shard's batch completes after later records of other shards).
        self.done: Dict[int, List[DataRecord]] = {}
        self.gathered = 0

    # -- the policy interface ----------------------------------------------

    def before_pull(self) -> None:
        self.context.clock.use_lane(0)

    def route(self, record: DataRecord, sink: List[DataRecord]) -> None:
        if self.strategy == SHARD_BALANCED:
            # Online greedy argmin by accumulated document tokens — the
            # same function shard_assignment() computes offline.
            loads = self.loads
            shard = min(range(self.shards), key=lambda s: (loads[s], s))
            loads[shard] += max(
                0.0, float(count_tokens(record.document_text()))
            )
        else:
            shard = self.fed % self.shards
        batch = self.batches[shard]
        batch.append((self.fed, record))
        self.per_shard[shard] += 1
        self.fed += 1
        if len(batch) >= self.batch_size:
            self._run_shard(shard)
            self._gather(sink)

    def finish(self, sink: List[DataRecord]) -> None:
        for shard in range(self.shards):
            self._run_shard(shard)
        self._gather(sink)
        self._close_prefix()
        self._gather(sink)
        clock = self.context.clock
        clock.use_lane(self.gather_lane)
        with self.context.tracer.attach(self.gather_span):
            sink.extend(close_chain(self.executor, self.suffix,
                                    synchronize=True))

        metrics = self.context.metrics
        metrics.counter("shard.scatter.records").inc(self.fed)
        elapsed = clock.elapsed
        for k in range(self.shards):
            metrics.counter(f"shard.{k}.records").inc(self.per_shard[k])
            if self.shard_spans[k] is not None:
                self.shard_spans[k].set_attribute("records",
                                                  self.per_shard[k])
                self.shard_spans[k].finish_at(elapsed)
        if self.close_span is not None:
            self.close_span.finish_at(elapsed)
        if self.gather_span is not None:
            self.gather_span.set_attribute(
                "records_out",
                self.suffix[-1].stats.records_out if self.suffix
                else len(sink),
            )
            self.gather_span.finish_at(elapsed)

    # -- shards --------------------------------------------------------------

    def _run_shard(self, shard: int) -> None:
        """Run a shard's waiting records through the prefix on its lane."""
        batch = self.batches[shard]
        if not batch:
            return
        self.context.clock.use_lane(1 + shard)
        with self.context.tracer.attach(self.shard_spans[shard]):
            groups = self._prefix_groups(batch)
            self._pre_aggregate(groups)
        self.done.update(zip((index for index, _ in batch), groups))
        batch.clear()

    def _prefix_groups(self, batch: List[Tuple[int, DataRecord]]
                       ) -> List[List[DataRecord]]:
        """Prefix outputs, one group per input, under ``shard.bundle``
        spans: one per batch when batching, else one per record."""
        context = self.context
        if self.batch_size > 1 and self.prefix:
            records = [record for _, record in batch]
            return traced_bundle(context, "shard.bundle", batch[0][0],
                                 len(records), run_chain_grouped,
                                 self.prefix, records)
        return [
            traced_bundle(context, "shard.bundle", index, 1, run_chain,
                          self.prefix, [record])
            for index, record in batch
        ]

    def _pre_aggregate(self, groups: List[List[DataRecord]]) -> None:
        """Pay the decomposable suffix head's fold charge on this lane."""
        if self.decomp is not None:
            for outputs in groups:
                for output in outputs:
                    self.decomp.charge_accumulate(output)

    def _close_prefix(self) -> None:
        """Close the prefix operators on lane 1, after every shard; their
        flush is gathered after every mainline record."""
        self.context.clock.use_lane(1)
        with self.context.tracer.attach(self.close_span):
            flushed = close_chain(self.executor, self.prefix,
                                  synchronize=False)
            self._pre_aggregate([flushed])
        self.done[self.fed] = flushed

    # -- gather --------------------------------------------------------------

    def _gather(self, sink: List[DataRecord]) -> None:
        """Feed finished prefix outputs to the suffix in arrival order."""
        ready = []
        while self.gathered in self.done:
            ready.append(self.done.pop(self.gathered))
            self.gathered += 1
        if not self.suffix:  # nothing runs (or charges a lane) at the gather
            for records in ready:
                sink.extend(records)
            return
        self.context.clock.use_lane(self.gather_lane)
        with self.context.tracer.attach(self.gather_span):
            for records in ready:
                if self.decomp is not None:
                    # The fold charge was paid shard-locally; replay only
                    # the state mutation so group order matches sequential.
                    for record in records:
                        self.decomp.op.accumulate_silent(record)
                else:
                    sink.extend(run_chain(self.suffix, records))


class ShardedExecutor(SequentialExecutor):
    """Scatter/gather execution over deterministic source shards.

    Args:
        context: execution context; created with ``shards`` lanes when
            omitted.
        shards: parallelism degree.  ``None`` (default) honors the degree
            the optimizer stamped onto the plan, falling back to 2.
        strategy: ``"round_robin"`` or ``"balanced"`` (by document tokens);
            results are identical, only lane utilization moves.
        batch_size: records per ``process_batch`` call on a shard's lane.
        on_event: optional progress callback.
    """

    EXECUTOR_NAME = "sharded"

    def __init__(self, context: Optional[ExecutionContext] = None,
                 shards: Optional[int] = None,
                 strategy: str = SHARD_ROUND_ROBIN,
                 batch_size: int = 1, on_event=None):
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {SHARD_STRATEGIES}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        degree = shards or 2
        super().__init__(context or ExecutionContext(max_workers=degree),
                         on_event=on_event)
        self._requested_shards = shards
        self.shards = degree
        self.strategy = strategy
        self.batch_size = batch_size

    def execute(self, plan: PhysicalPlan):
        # Honor the degree and batch size the optimizer stamped onto the
        # plan when the caller did not pick them explicitly.
        if self._requested_shards is None and getattr(plan, "shards", 1) > 1:
            self.shards = plan.shards
        if self.batch_size == 1 and getattr(plan, "batch_size", 1) > 1:
            self.batch_size = plan.batch_size
        return super().execute(plan)

    def _plan_span_attrs(self) -> dict:
        return {
            "shards": self.shards,
            "batch_size": self.batch_size,
            "strategy": self.strategy,
        }

    def _policy(self, plan: PhysicalPlan,
                downstream: List[OperatorMeter]):
        return ShardPolicy(self, downstream, self.batch_size)


class AsyncExecutor(ShardedExecutor):
    """Round-robin sharding with per-record calls: record ``i`` is charged
    to lane ``1 + i % fanout``, so lane map and makespan are those of
    :class:`ShardedExecutor` at ``fanout`` shards.  ``fanout=None`` honors
    the plan's optimizer-stamped degree; ``batch_size`` is accepted for
    interface symmetry and ignored.
    """

    EXECUTOR_NAME = "async"

    def __init__(self, context: Optional[ExecutionContext] = None,
                 fanout: Optional[int] = None, batch_size: int = 1,
                 on_event=None):
        super().__init__(context=context, shards=fanout,
                         strategy=SHARD_ROUND_ROBIN, on_event=on_event)

    @property
    def fanout(self) -> int:
        return self.shards

    def _policy(self, plan: PhysicalPlan,
                downstream: List[OperatorMeter]):
        return ShardPolicy(self, downstream, batch_size=1)
