"""Physical implementations of the *Filter* logical operator.

Three families, spanning the quality/cost spectrum:

* :class:`NonLLMFilter` — a Python UDF; free and assumed correct.
* :class:`LLMFilter` — ask a model to judge the natural-language predicate;
  one instance per registered model.
* :class:`EmbeddingFilter` — embed the predicate and the document and
  threshold their cosine similarity; orders of magnitude cheaper than an LLM
  call but noticeably less accurate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.logical import FilteredScan
from repro.core.records import DataRecord
from repro.llm import quality as quality_model
from repro.llm.client import BooleanRequest, SimulatedLLMClient
from repro.llm.embeddings import EmbeddingModel, cosine_similarity
from repro.llm.models import ModelCard
from repro.obs.provenance import DropReason
from repro.physical.base import (
    OperatorCostEstimates,
    PhysicalOperator,
    StreamEstimate,
)
from repro.physical.context import ExecutionContext

#: Default selectivity assumed for a semantic predicate before sampling.
DEFAULT_FILTER_SELECTIVITY = 0.5

#: Difficulty prior used for quality estimates before sampling.
DEFAULT_DIFFICULTY_PRIOR = 0.35

#: Output tokens of a TRUE/FALSE judgment.
_JUDGMENT_OUTPUT_TOKENS = 1


class NonLLMFilter(PhysicalOperator):
    """Apply a user-supplied Python predicate."""

    strategy = "NonLLMFilter"

    def __init__(self, logical_op: FilteredScan):
        if logical_op.spec.udf is None:
            raise ValueError("NonLLMFilter requires a UDF filter spec")
        super().__init__(logical_op)
        self._udf = logical_op.spec.udf

    def process(self, record: DataRecord) -> List[DataRecord]:
        self._charge_local_time()
        keep = bool(self._udf(record))
        prov = self.provenance
        if prov.enabled:
            if keep:
                prov.emit(self, [record], [record], verdict=True)
            else:
                prov.drop(self, record, DropReason.FILTER_REJECTED,
                          verdict=False)
        return [record] if keep else []

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        return OperatorCostEstimates(
            cardinality=stream.cardinality * DEFAULT_FILTER_SELECTIVITY,
            time_per_record=0.001,
            cost_per_record=0.0,
            quality=1.0,
        )


class LLMFilter(PhysicalOperator):
    """Judge the predicate with one model call per record."""

    strategy = "LLMFilter"

    def __init__(self, logical_op: FilteredScan, model: ModelCard,
                 context_fraction: float = 1.0):
        if logical_op.spec.predicate is None:
            raise ValueError("LLMFilter requires a natural-language predicate")
        super().__init__(logical_op, model=model)
        self.predicate = logical_op.spec.predicate
        self.depends_on = list(logical_op.spec.depends_on)
        self.context_fraction = context_fraction
        self._client: Optional[SimulatedLLMClient] = None

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._client = SimulatedLLMClient(
            self.model,
            clock=context.clock,
            ledger=context.ledger,
            oracle=context.oracle,
            registry=context.models,
            cache=context.cache,
            tracer=context.tracer,
            replay=context.replay,
        )

    def _request_for(self, record: DataRecord) -> BooleanRequest:
        document = (
            record.fields_text(self.depends_on) if self.depends_on
            else record.document_text()
        )
        return BooleanRequest(
            predicate=self.predicate,
            document=document,
            operation=f"filter:{self.predicate[:40]}",
            context_fraction=self.context_fraction,
        )

    def _record_verdict(self, record: DataRecord, response) -> None:
        prov = self.provenance
        if not prov.enabled:
            return
        if response.value:
            prov.emit(self, [record], [record], llm=[response.usage],
                      verdict=True)
        else:
            prov.drop(self, record, DropReason.FILTER_REJECTED,
                      llm=[response.usage], verdict=False)

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._client is not None, "operator not opened"
        response = self._client.judge(self._request_for(record))
        self._record_verdict(record, response)
        return [record] if response.value else []

    def process_batch(
        self, records: Sequence[DataRecord]
    ) -> List[List[DataRecord]]:
        assert self._client is not None, "operator not opened"
        responses = self._client.judge_batch(
            [self._request_for(record) for record in records]
        )
        for record, response in zip(records, responses):
            self._record_verdict(record, response)
        return [
            [record] if response.value else []
            for record, response in zip(records, responses)
        ]

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        input_tokens = int(
            stream.avg_document_tokens * self.context_fraction
        ) + 60  # instruction overhead
        cost = self.model.cost_usd(input_tokens, _JUDGMENT_OUTPUT_TOKENS)
        time = self.model.latency_seconds(input_tokens, _JUDGMENT_OUTPUT_TOKENS)
        error = quality_model.error_probability(
            self.model, DEFAULT_DIFFICULTY_PRIOR, self.context_fraction
        )
        return OperatorCostEstimates(
            cardinality=stream.cardinality * DEFAULT_FILTER_SELECTIVITY,
            time_per_record=time,
            cost_per_record=cost,
            quality=1.0 - error,
        )


class EmbeddingFilter(PhysicalOperator):
    """Cosine-similarity thresholding against the predicate embedding.

    The cheapest semantic filter in the plan space.  It shares vocabulary
    with the predicate or it doesn't — no reasoning — so its quality estimate
    is deliberately pessimistic.
    """

    strategy = "EmbeddingFilter"

    #: Similarity threshold tuned on the bundled corpora.
    THRESHOLD = 0.08
    ESTIMATED_QUALITY = 0.68

    def __init__(self, logical_op: FilteredScan, model: ModelCard):
        if logical_op.spec.predicate is None:
            raise ValueError(
                "EmbeddingFilter requires a natural-language predicate"
            )
        super().__init__(logical_op, model=model)
        self.predicate = logical_op.spec.predicate
        self._embedder: Optional[EmbeddingModel] = None
        self._predicate_vector = None

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._embedder = EmbeddingModel(
            model=self.model,
            clock=context.clock,
            ledger=context.ledger,
            cache=context.cache,
        )
        self._predicate_vector = self._embedder.embed(
            self.predicate, operation="filter-embed:predicate"
        )

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._embedder is not None, "operator not opened"
        document_vector = self._embedder.embed(
            record.document_text(),
            operation=f"filter-embed:{self.predicate[:40]}",
        )
        similarity = cosine_similarity(self._predicate_vector, document_vector)
        keep = similarity >= self.THRESHOLD
        prov = self.provenance
        if prov.enabled:
            attrs = {"similarity": round(similarity, 9),
                     "threshold": self.THRESHOLD}
            if keep:
                prov.emit(self, [record], [record], verdict=True, **attrs)
            else:
                prov.drop(self, record, DropReason.FILTER_REJECTED,
                          verdict=False, **attrs)
        return [record] if keep else []

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        tokens = int(stream.avg_document_tokens)
        return OperatorCostEstimates(
            cardinality=stream.cardinality * DEFAULT_FILTER_SELECTIVITY,
            time_per_record=self.model.latency_seconds(tokens, 0),
            cost_per_record=self.model.cost_usd(tokens, 0),
            quality=self.ESTIMATED_QUALITY,
        )
