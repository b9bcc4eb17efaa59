"""Physical implementations of the *Convert* logical operator.

The plan space per convert, mirroring Palimpzest's strategies:

* :class:`NonLLMConvert` — a Python UDF computes the new fields.
* :class:`LLMConvertBonded` — one extraction call computes *all* new fields.
* :class:`LLMConvertConventional` — one call *per field*: more calls (more
  cost and latency) but each question is simpler, so slightly higher quality.
* :class:`TokenReducedConvert` — bonded extraction over a truncated context:
  cheaper and faster, lower quality.
* :class:`CodeSynthesisConvert` — spend a few LLM calls on exemplar records,
  then "synthesize code" (here: fall back to the deterministic heuristic
  engine at a reduced quality tier) for the remaining records at near-zero
  marginal cost.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.cardinality import Cardinality
from repro.core.errors import ExecutionError
from repro.core.logical import ConvertScan
from repro.core.records import DataRecord
from repro.llm import quality as quality_model
from repro.llm.client import ExtractionRequest, SimulatedLLMClient
from repro.llm.models import ModelCard
from repro.llm.prompts import estimate_output_tokens_for_fields
from repro.obs.provenance import DropReason
from repro.physical.base import (
    OperatorCostEstimates,
    PhysicalOperator,
    StreamEstimate,
)
from repro.physical.context import ExecutionContext

#: Difficulty prior for extraction quality estimates before sampling.
DEFAULT_DIFFICULTY_PRIOR = 0.35

#: Assumed fan-out of a one-to-many convert before sampling.
DEFAULT_ONE_TO_MANY_FANOUT = 1.5

#: Prompt-instruction overhead in tokens (per call).
_INSTRUCTION_TOKENS = 90

#: Conventional (per-field) extraction asks one simple question at a time,
#: which buys a small quality edge over the bonded single call.
CONVENTIONAL_QUALITY_BONUS = 0.03


class _ConvertBase(PhysicalOperator):
    """Shared record-building machinery for all convert implementations."""

    def __init__(self, logical_op: ConvertScan,
                 model: Optional[ModelCard] = None):
        super().__init__(logical_op, model=model)
        self.convert: ConvertScan = logical_op

    def _document_for(self, record: DataRecord) -> str:
        """The text the model should see (honours ``depends_on``)."""
        if self.convert.depends_on:
            return record.fields_text(self.convert.depends_on)
        return record.document_text()

    @property
    def _new_field_descriptions(self) -> Dict[str, str]:
        descs = self.convert.output_schema.field_descriptions()
        return {name: descs[name] for name in self.convert.new_fields}

    def _build_outputs(self, record: DataRecord, payload: Any,
                       llm: Optional[List[Any]] = None) -> List[DataRecord]:
        """Turn extraction payloads (dict or list of dicts) into records.

        The single choke point every convert strategy emits through, so
        it also reports the derivation (or an empty-payload drop) to the
        provenance recorder; ``llm`` carries the usage records of the
        calls that paid for this record's extraction.
        """
        if self.convert.cardinality is Cardinality.ONE_TO_MANY:
            rows = payload if isinstance(payload, list) else [payload]
            outputs = [
                record.derive(self.convert.output_schema, row)
                for row in rows
                if isinstance(row, dict)
            ]
        else:
            if isinstance(payload, list):
                payload = payload[0] if payload else {}
            if not isinstance(payload, dict):
                raise ExecutionError(
                    f"{self.op_label} produced a non-dict payload: "
                    f"{type(payload).__name__}"
                )
            outputs = [record.derive(self.convert.output_schema, payload)]
        prov = self.provenance
        if prov.enabled:
            if outputs:
                prov.emit(self, [record], outputs, llm=llm,
                          fanout=len(outputs))
            else:
                prov.drop(self, record, DropReason.CONVERT_EMPTY, llm=llm)
        return outputs

    def _estimate_fanout(self) -> float:
        if self.convert.cardinality is Cardinality.ONE_TO_MANY:
            return DEFAULT_ONE_TO_MANY_FANOUT
        return 1.0


class NonLLMConvert(_ConvertBase):
    """The user's UDF computes the new fields (free, assumed correct)."""

    strategy = "NonLLMConvert"

    def __init__(self, logical_op: ConvertScan):
        if logical_op.udf is None:
            raise ValueError("NonLLMConvert requires a UDF")
        super().__init__(logical_op)
        self._udf = logical_op.udf

    def process(self, record: DataRecord) -> List[DataRecord]:
        self._charge_local_time()
        return self._build_outputs(record, self._udf(record))

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        return OperatorCostEstimates(
            cardinality=stream.cardinality * self._estimate_fanout(),
            time_per_record=0.001,
            cost_per_record=0.0,
            quality=1.0,
        )


class LLMConvertBonded(_ConvertBase):
    """One extraction call for all new fields together."""

    strategy = "LLMConvertBonded"
    context_fraction = 1.0

    def __init__(self, logical_op: ConvertScan, model: ModelCard):
        if not logical_op.is_semantic:
            raise ValueError("LLM converts require a semantic ConvertScan")
        super().__init__(logical_op, model=model)
        self._client: Optional[SimulatedLLMClient] = None

    def _effective_model(self) -> ModelCard:
        return self.model

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._client = SimulatedLLMClient(
            self._effective_model(),
            clock=context.clock,
            ledger=context.ledger,
            oracle=context.oracle,
            registry=context.models,
            cache=context.cache,
            tracer=context.tracer,
            replay=context.replay,
        )

    def _request_for(self, record: DataRecord) -> ExtractionRequest:
        return ExtractionRequest(
            fields=self._new_field_descriptions,
            document=self._document_for(record),
            schema_description=self.convert.desc,
            one_to_many=(
                self.convert.cardinality is Cardinality.ONE_TO_MANY
            ),
            operation=(
                f"convert:{self.convert.output_schema.schema_name()}"
            ),
            context_fraction=self.context_fraction,
        )

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._client is not None, "operator not opened"
        response = self._client.extract(self._request_for(record))
        return self._build_outputs(record, response.value,
                                   llm=[response.usage])

    def process_batch(
        self, records: Sequence[DataRecord]
    ) -> List[List[DataRecord]]:
        assert self._client is not None, "operator not opened"
        responses = self._client.extract_batch(
            [self._request_for(record) for record in records]
        )
        return [
            self._build_outputs(record, response.value,
                                llm=[response.usage])
            for record, response in zip(records, responses)
        ]

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        fields = self.convert.new_fields
        input_tokens = (
            int(stream.avg_document_tokens * self.context_fraction)
            + _INSTRUCTION_TOKENS
            + 12 * len(fields)
        )
        output_tokens = estimate_output_tokens_for_fields(
            fields, instances=int(round(self._estimate_fanout()))
        )
        error = quality_model.error_probability(
            self.model, DEFAULT_DIFFICULTY_PRIOR, self.context_fraction
        )
        return OperatorCostEstimates(
            cardinality=stream.cardinality * self._estimate_fanout(),
            time_per_record=self.model.latency_seconds(
                input_tokens, output_tokens
            ),
            cost_per_record=self.model.cost_usd(input_tokens, output_tokens),
            quality=1.0 - error,
        )


class LLMConvertConventional(LLMConvertBonded):
    """One extraction call per new field.

    One-to-many converts cannot be decomposed per field (the instances must
    be produced together), so this strategy first asks for the instance list
    (one call) and then refines each field (one call per field) — the cost
    model reflects the extra calls either way.
    """

    strategy = "LLMConvertConventional"

    def _effective_model(self) -> ModelCard:
        bonus = min(1.0, self.model.quality + CONVENTIONAL_QUALITY_BONUS)
        return self.model.with_quality(bonus)

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._client is not None, "operator not opened"
        document = self._document_for(record)
        one_to_many = self.convert.cardinality is Cardinality.ONE_TO_MANY
        operation = f"convert:{self.convert.output_schema.schema_name()}"
        if one_to_many:
            response = self._client.extract(
                ExtractionRequest(
                    fields=self._new_field_descriptions,
                    document=document,
                    schema_description=self.convert.desc,
                    one_to_many=True,
                    operation=operation,
                )
            )
            payload = response.value
            usages = [response.usage]
            # Refinement passes, one per field (charged, same answers —
            # the bonus quality is already baked into the effective model).
            for name, desc in self._new_field_descriptions.items():
                refine = self._client.extract(
                    ExtractionRequest(
                        fields={name: desc},
                        document=document,
                        schema_description=self.convert.desc,
                        operation=operation,
                    )
                )
                usages.append(refine.usage)
            return self._build_outputs(record, payload, llm=usages)

        merged: Dict[str, Any] = {}
        usages = []
        for name, desc in self._new_field_descriptions.items():
            response = self._client.extract(
                ExtractionRequest(
                    fields={name: desc},
                    document=document,
                    schema_description=self.convert.desc,
                    operation=operation,
                )
            )
            merged.update(response.value)
            usages.append(response.usage)
        return self._build_outputs(record, merged, llm=usages)

    def process_batch(
        self, records: Sequence[DataRecord]
    ) -> List[List[DataRecord]]:
        assert self._client is not None, "operator not opened"
        documents = [self._document_for(record) for record in records]
        operation = f"convert:{self.convert.output_schema.schema_name()}"
        if self.convert.cardinality is Cardinality.ONE_TO_MANY:
            # Same calls as the per-record loop, grouped call-kind-major:
            # the instance batch first, then one refinement batch per field.
            # Answers are pure functions of (model, document, task), so the
            # reordering cannot change any payload — only which calls share
            # a prompt prefix and amortize the per-call overhead.
            responses = self._client.extract_batch(
                [
                    ExtractionRequest(
                        fields=self._new_field_descriptions,
                        document=document,
                        schema_description=self.convert.desc,
                        one_to_many=True,
                        operation=operation,
                    )
                    for document in documents
                ]
            )
            refinements = []
            for name, desc in self._new_field_descriptions.items():
                refinements.append(self._client.extract_batch(
                    [
                        ExtractionRequest(
                            fields={name: desc},
                            document=document,
                            schema_description=self.convert.desc,
                            operation=operation,
                        )
                        for document in documents
                    ]
                ))
            return [
                self._build_outputs(
                    record, response.value,
                    llm=[response.usage] + [batch[i].usage
                                            for batch in refinements],
                )
                for i, (record, response) in enumerate(
                    zip(records, responses))
            ]
        merged: List[Dict[str, Any]] = [{} for _ in records]
        usages: List[List[Any]] = [[] for _ in records]
        # Field-major batching: same calls as the per-record loop (one per
        # record per field), but every field's batch shares one prompt
        # prefix and all calls after the first amortize the call overhead.
        for name, desc in self._new_field_descriptions.items():
            responses = self._client.extract_batch(
                [
                    ExtractionRequest(
                        fields={name: desc},
                        document=document,
                        schema_description=self.convert.desc,
                        operation=operation,
                    )
                    for document in documents
                ]
            )
            for row, used, response in zip(merged, usages, responses):
                row.update(response.value)
                used.append(response.usage)
        return [
            self._build_outputs(record, row, llm=used)
            for record, row, used in zip(records, merged, usages)
        ]

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        fields = self.convert.new_fields
        calls = max(1, len(fields)) + (
            1 if self.convert.cardinality is Cardinality.ONE_TO_MANY else 0
        )
        input_tokens_per_call = (
            int(stream.avg_document_tokens) + _INSTRUCTION_TOKENS + 12
        )
        output_tokens_per_call = estimate_output_tokens_for_fields([fields[0]])
        error = quality_model.error_probability(
            self._effective_model(), DEFAULT_DIFFICULTY_PRIOR, 1.0
        )
        return OperatorCostEstimates(
            cardinality=stream.cardinality * self._estimate_fanout(),
            time_per_record=calls * self.model.latency_seconds(
                input_tokens_per_call, output_tokens_per_call
            ),
            cost_per_record=calls * self.model.cost_usd(
                input_tokens_per_call, output_tokens_per_call
            ),
            quality=1.0 - error,
        )


class TokenReducedConvert(LLMConvertBonded):
    """Bonded extraction over a truncated document context."""

    strategy = "TokenReducedConvert"

    def __init__(self, logical_op: ConvertScan, model: ModelCard,
                 fraction: float = 0.5):
        super().__init__(logical_op, model)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.context_fraction = fraction

    @property
    def op_label(self) -> str:
        return (
            f"{self.strategy}[{self.model.name}@{self.context_fraction:.2f}]"
        )


def synthesized_code_model(base: ModelCard) -> ModelCard:
    """The pseudo-model representing code synthesized from exemplars.

    Zero marginal price, fast, and noticeably lower quality than the model
    that synthesized it.
    """
    return ModelCard(
        name=f"code-synth({base.name})",
        provider="local",
        usd_per_1m_input=0.0,
        usd_per_1m_output=0.0,
        prefill_tokens_per_second=200_000.0,
        decode_tokens_per_second=100_000.0,
        overhead_seconds=0.002,
        quality=max(0.35, round(base.quality - 0.22, 4)),
        context_window=base.context_window,
    )


class CodeSynthesisConvert(_ConvertBase):
    """Exemplar-then-code extraction.

    The first ``exemplars`` records run through a bonded LLM extraction
    (full price).  After that, a synthesized extractor — simulated as the
    deterministic heuristic engine at a reduced quality tier — handles the
    rest at near-zero cost.
    """

    strategy = "CodeSynthesisConvert"
    EXEMPLARS = 3

    def __init__(self, logical_op: ConvertScan, model: ModelCard):
        if not logical_op.is_semantic:
            raise ValueError("LLM converts require a semantic ConvertScan")
        super().__init__(logical_op, model=model)
        self._llm_client: Optional[SimulatedLLMClient] = None
        self._code_client: Optional[SimulatedLLMClient] = None
        self._seen = 0

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._llm_client = SimulatedLLMClient(
            self.model,
            clock=context.clock,
            ledger=context.ledger,
            oracle=context.oracle,
            registry=context.models,
            cache=context.cache,
            tracer=context.tracer,
            replay=context.replay,
        )
        self._code_client = SimulatedLLMClient(
            synthesized_code_model(self.model),
            clock=context.clock,
            ledger=context.ledger,
            oracle=context.oracle,
            registry=context.models,
            cache=context.cache,
            tracer=context.tracer,
            replay=context.replay,
        )
        self._seen = 0

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._llm_client and self._code_client, "operator not opened"
        client = (
            self._llm_client if self._seen < self.EXEMPLARS
            else self._code_client
        )
        self._seen += 1
        response = client.extract(
            ExtractionRequest(
                fields=self._new_field_descriptions,
                document=self._document_for(record),
                schema_description=self.convert.desc,
                one_to_many=(
                    self.convert.cardinality is Cardinality.ONE_TO_MANY
                ),
                operation=(
                    f"convert:{self.convert.output_schema.schema_name()}"
                ),
            )
        )
        return self._build_outputs(record, response.value,
                                   llm=[response.usage])

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        fields = self.convert.new_fields
        input_tokens = (
            int(stream.avg_document_tokens) + _INSTRUCTION_TOKENS
            + 12 * len(fields)
        )
        output_tokens = estimate_output_tokens_for_fields(
            fields, instances=int(round(self._estimate_fanout()))
        )
        n = max(stream.cardinality, 1.0)
        llm_share = min(1.0, self.EXEMPLARS / n)
        code = synthesized_code_model(self.model)
        time = (
            llm_share * self.model.latency_seconds(input_tokens, output_tokens)
            + (1 - llm_share) * code.latency_seconds(input_tokens, output_tokens)
        )
        cost = llm_share * self.model.cost_usd(input_tokens, output_tokens)
        llm_error = quality_model.error_probability(
            self.model, DEFAULT_DIFFICULTY_PRIOR, 1.0
        )
        code_error = quality_model.error_probability(
            code, DEFAULT_DIFFICULTY_PRIOR, 1.0
        )
        blended_quality = (
            llm_share * (1 - llm_error) + (1 - llm_share) * (1 - code_error)
        )
        return OperatorCostEstimates(
            cardinality=stream.cardinality * self._estimate_fanout(),
            time_per_record=time,
            cost_per_record=cost,
            quality=blended_quality,
        )


class ChunkedConvert(_ConvertBase):
    """Map-reduce extraction for documents that exceed the context window.

    The document splits into chunks that fit the model; each chunk runs a
    bonded extraction, and the per-chunk answers merge: one-to-many
    extractions concatenate (deduplicated), one-to-one extractions take the
    first non-null value per field.  This is the only strategy the planner
    offers for a (model, document-size) combination where a single call
    would overflow the window.
    """

    strategy = "ChunkedConvert"

    #: Share of the context window given to document text per chunk (the
    #: rest is instruction overhead and safety margin).
    WINDOW_SHARE = 0.5

    #: Quality penalty for merging per-chunk answers (cross-chunk context
    #: is lost).
    MERGE_QUALITY_FACTOR = 0.95

    def __init__(self, logical_op: ConvertScan, model: ModelCard,
                 chunk_tokens: Optional[int] = None):
        if not logical_op.is_semantic:
            raise ValueError("LLM converts require a semantic ConvertScan")
        super().__init__(logical_op, model=model)
        if chunk_tokens is None:
            # The whole prompt (chunk + instructions + field list + answer
            # margin) must fit the window, even for very small windows.
            overhead = (
                _INSTRUCTION_TOKENS
                + 12 * len(logical_op.new_fields)
                + 40
            )
            budget = min(
                int(model.context_window * self.WINDOW_SHARE),
                model.context_window - overhead,
            )
            chunk_tokens = max(8, budget)
        self.chunk_tokens = chunk_tokens
        self._client: Optional[SimulatedLLMClient] = None

    @property
    def op_label(self) -> str:
        return f"{self.strategy}[{self.model.name}@{self.chunk_tokens}t]"

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

    def _extract_chunk(self, chunk: str):
        return self._client.extract(
            ExtractionRequest(
                fields=self._new_field_descriptions,
                document=chunk,
                schema_description=self.convert.desc,
                one_to_many=(
                    self.convert.cardinality is Cardinality.ONE_TO_MANY
                ),
                operation=(
                    f"convert:{self.convert.output_schema.schema_name()}"
                ),
            )
        )

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._client is not None, "operator not opened"
        from repro.llm.tokenizer import split_into_token_chunks
        import json as _json

        chunks = split_into_token_chunks(
            self._document_for(record), self.chunk_tokens
        )
        if self.convert.cardinality is Cardinality.ONE_TO_MANY:
            merged: List[Dict[str, Any]] = []
            seen = set()
            usages = []
            for chunk in chunks:
                response = self._extract_chunk(chunk)
                usages.append(response.usage)
                rows = response.value
                for row in rows if isinstance(rows, list) else [rows]:
                    if not isinstance(row, dict):
                        continue
                    key = _json.dumps(row, default=str, sort_keys=True)
                    if key not in seen:
                        seen.add(key)
                        merged.append(row)
            return self._build_outputs(record, merged, llm=usages)

        combined: Dict[str, Any] = {}
        usages = []
        for chunk in chunks:
            response = self._extract_chunk(chunk)
            usages.append(response.usage)
            payload = response.value
            if isinstance(payload, list):
                payload = payload[0] if payload else {}
            for name, value in payload.items():
                if combined.get(name) is None and value is not None:
                    combined[name] = value
            if all(combined.get(n) is not None
                   for n in self.convert.new_fields):
                break  # all fields found; skip remaining chunks
        return self._build_outputs(record, combined, llm=usages)

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        fields = self.convert.new_fields
        n_chunks = max(
            1.0, stream.avg_document_tokens / float(self.chunk_tokens)
        )
        input_tokens = self.chunk_tokens + _INSTRUCTION_TOKENS + 12 * len(fields)
        output_tokens = estimate_output_tokens_for_fields(
            fields, instances=int(round(self._estimate_fanout()))
        )
        error = quality_model.error_probability(
            self.model, DEFAULT_DIFFICULTY_PRIOR, 1.0
        )
        return OperatorCostEstimates(
            cardinality=stream.cardinality * self._estimate_fanout(),
            time_per_record=n_chunks * self.model.latency_seconds(
                input_tokens, output_tokens
            ),
            cost_per_record=n_chunks * self.model.cost_usd(
                input_tokens, output_tokens
            ),
            quality=(1.0 - error) * self.MERGE_QUALITY_FACTOR,
        )
