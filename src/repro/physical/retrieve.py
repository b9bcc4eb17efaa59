"""Semantic top-k retrieval: embed everything, keep the k nearest."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.logical import RetrieveScan
from repro.core.records import DataRecord
from repro.llm.embeddings import EmbeddingModel, cosine_similarity
from repro.llm.models import ModelCard
from repro.obs.provenance import DropReason
from repro.physical.base import (
    BlockingPhysicalOperator,
    OperatorCostEstimates,
    StreamEstimate,
)
from repro.physical.context import ExecutionContext


class RetrieveOp(BlockingPhysicalOperator):
    """Blocking top-k by cosine similarity to the query embedding."""

    strategy = "Retrieve"
    ESTIMATED_QUALITY = 0.75

    def __init__(self, logical_op: RetrieveScan, model: ModelCard):
        super().__init__(logical_op, model=model)
        self.retrieve: RetrieveScan = logical_op
        self._embedder: Optional[EmbeddingModel] = None
        self._query_vector = None
        self._scored: List[Tuple[float, int, DataRecord]] = []

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._embedder = EmbeddingModel(
            model=self.model, clock=context.clock, ledger=context.ledger,
            cache=context.cache,
        )
        self._query_vector = self._embedder.embed(
            self.retrieve.query, operation="retrieve:query"
        )
        self._scored = []

    def accumulate(self, record: DataRecord) -> None:
        assert self._embedder is not None, "operator not opened"
        vector = self._embedder.embed(
            record.document_text(), operation="retrieve:document"
        )
        score = cosine_similarity(self._query_vector, vector)
        # Arrival index breaks score ties deterministically.  (Not the
        # global record_id: ids are assigned at derive time, so their order
        # depends on each executor's processing order, while arrival order
        # at a barrier is the same for every executor.)
        self._scored.append((score, len(self._scored), record))

    def close(self) -> List[DataRecord]:
        ranked = sorted(self._scored, key=lambda t: (-t[0], t[1]))
        prov = self.provenance
        if prov.enabled:
            for rank, (score, _, record) in enumerate(ranked, start=1):
                if rank <= self.retrieve.k:
                    prov.emit(self, [record], [record],
                              score=round(score, 9), rank=rank)
                else:
                    prov.drop(self, record, DropReason.RETRIEVE_CUTOFF,
                              score=round(score, 9), rank=rank,
                              k=self.retrieve.k)
        return [record for _, _, record in ranked[: self.retrieve.k]]

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        tokens = int(stream.avg_document_tokens)
        return OperatorCostEstimates(
            cardinality=min(stream.cardinality, float(self.retrieve.k)),
            time_per_record=self.model.latency_seconds(tokens, 0),
            cost_per_record=self.model.cost_usd(tokens, 0),
            quality=self.ESTIMATED_QUALITY,
        )
