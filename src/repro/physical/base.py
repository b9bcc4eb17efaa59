"""Physical operator base classes and cost-estimate dataclasses."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.logical import LogicalOperator
from repro.core.records import DataRecord
from repro.llm.models import ModelCard
from repro.physical.context import ExecutionContext

#: CPU time we charge per non-LLM record operation (parsing, UDFs, ...).
LOCAL_OP_SECONDS = 0.001


@dataclass(frozen=True)
class StreamEstimate:
    """What the cost model believes about a record stream at a plan point."""

    cardinality: float
    avg_document_tokens: float

    def scaled(self, selectivity: float = 1.0,
               fanout: float = 1.0) -> "StreamEstimate":
        return StreamEstimate(
            cardinality=self.cardinality * selectivity * fanout,
            avg_document_tokens=self.avg_document_tokens,
        )


@dataclass(frozen=True)
class OperatorCostEstimates:
    """Per-operator estimates used by the optimizer.

    ``cardinality`` is the *output* cardinality given the estimated input;
    ``time_per_record`` / ``cost_per_record`` are per *input* record;
    ``quality`` is the probability the operator's decision/extraction is
    correct for one record (1.0 for conventional relational operators).
    """

    cardinality: float
    time_per_record: float
    cost_per_record: float
    quality: float

    def total_time(self, input_cardinality: float) -> float:
        return self.time_per_record * input_cardinality

    def total_cost(self, input_cardinality: float) -> float:
        return self.cost_per_record * input_cardinality


class PhysicalOperator:
    """An executable implementation of one logical operator.

    Lifecycle: the executor calls :meth:`open` once with the run's context,
    then :meth:`process` per input record (returning zero or more outputs),
    then :meth:`close` (streaming operators return ``[]``; blocking operators
    flush their buffered results there).
    """

    #: Display name of the implementation strategy, e.g. ``"LLMFilter"``.
    strategy: str = "Physical"

    def __init__(self, logical_op: LogicalOperator,
                 model: Optional[ModelCard] = None):
        self.logical_op = logical_op
        self.model = model
        self._context: Optional[ExecutionContext] = None

    # -- identity --------------------------------------------------------

    @property
    def op_label(self) -> str:
        """Display label, e.g. ``LLMFilter[gpt-4o]``."""
        suffix = f"[{self.model.name}]" if self.model else ""
        return f"{self.strategy}{suffix}"

    @property
    def full_op_id(self) -> str:
        # Memoized: the logical signature is stable for an operator's
        # lifetime and the id is recomputed on every cost-model lookup.
        cached = self.__dict__.get("_full_op_id")
        if cached is None:
            cached = f"{self.logical_op.signature()}:{self.op_label}"
            self.__dict__["_full_op_id"] = cached
        return cached

    @property
    def is_llm_op(self) -> bool:
        return self.model is not None and not self.model.is_embedding_model

    # -- lifecycle ---------------------------------------------------------

    def open(self, context: ExecutionContext) -> None:
        self._context = context

    @property
    def context(self) -> ExecutionContext:
        if self._context is None:
            raise RuntimeError(
                f"{self.op_label} was not opened with an ExecutionContext"
            )
        return self._context

    @property
    def provenance(self):
        """The run's provenance recorder (NULL_PROVENANCE when off)."""
        return self.context.provenance

    def process(self, record: DataRecord) -> List[DataRecord]:
        raise NotImplementedError

    def process_batch(
        self, records: Sequence[DataRecord]
    ) -> List[List[DataRecord]]:
        """Process ``records`` together; one output list per input record.

        Contract: the outputs (and any LLM answers behind them) must be
        identical to calling :meth:`process` once per record, in order.
        The default does exactly that; LLM-bound operators override it to
        batch their client calls, which amortizes prompt construction,
        prefix token counting, and per-call overhead across the batch.
        """
        return [self.process(record) for record in records]

    def close(self) -> List[DataRecord]:
        return []

    @property
    def is_blocking(self) -> bool:
        return False

    # -- cost estimation -------------------------------------------------

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        """Model-card-based estimates, before any sampling evidence."""
        raise NotImplementedError

    def _charge_local_time(self, seconds: float = LOCAL_OP_SECONDS) -> None:
        """Advance the clock for non-LLM work."""
        self.context.clock.advance(seconds)

    def __repr__(self) -> str:
        return f"<{self.op_label} for {self.logical_op.describe()}>"


class BlockingPhysicalOperator(PhysicalOperator):
    """An operator that must see all input before emitting output."""

    #: Per-record fold cost when the fold is *decomposable*: the charge is a
    #: record-independent constant and the folded state does not depend on
    #: arrival order (or the op restores order itself at close).  Scale-out
    #: executors then pay this charge shard-locally in parallel and replay
    #: only the cheap state mutation (:meth:`accumulate_silent`) in global
    #: order at the gather barrier.  ``None`` (the default) means the fold
    #: is not decomposable and must run entirely post-gather.
    accumulate_seconds: Optional[float] = None

    @property
    def is_blocking(self) -> bool:
        return True

    def process(self, record: DataRecord) -> List[DataRecord]:
        self.accumulate(record)
        return []

    def accumulate(self, record: DataRecord) -> None:
        raise NotImplementedError

    def accumulate_silent(self, record: DataRecord) -> None:
        """Fold ``record`` into state without charging the clock.

        Only meaningful when :attr:`accumulate_seconds` is set; decomposable
        operators implement ``accumulate`` as a time charge followed by this
        mutation so executors can split the two across threads.
        """
        raise NotImplementedError

    def close(self) -> List[DataRecord]:
        raise NotImplementedError
