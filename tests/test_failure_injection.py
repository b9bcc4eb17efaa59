"""Failure injection: corrupted inputs, failing UDFs, exhausted budgets."""

import pytest

import repro as pz
from repro.core.builtin_schemas import TextFile
from repro.core.errors import DatasetError
from repro.core.fakepdf import write_fake_pdf
from repro.core.sources import DirectorySource, MemorySource
from repro.llm.exceptions import ContextWindowExceeded
from repro.llm.models import ModelCard, ModelRegistry, default_registry


@pytest.fixture()
def mixed_dir(tmp_path):
    """Two good fake-PDFs and one corrupted one."""
    (tmp_path / "good-1.pdf").write_bytes(write_fake_pdf("alpha " * 50))
    (tmp_path / "good-2.pdf").write_bytes(write_fake_pdf("beta " * 50))
    corrupt = write_fake_pdf("gamma " * 50).rsplit(b"%%EOF", 1)[0]
    (tmp_path / "broken.pdf").write_bytes(corrupt)
    return tmp_path


class TestCorruptFiles:
    def test_raise_policy_names_the_file(self, mixed_dir):
        source = DirectorySource(mixed_dir, dataset_id="mix-raise")
        with pytest.raises(DatasetError, match="broken.pdf"):
            list(source)

    def test_skip_policy_continues_and_records_skips(self, mixed_dir):
        source = DirectorySource(
            mixed_dir, dataset_id="mix-skip", on_error="skip"
        )
        records = list(source)
        assert len(records) == 2
        assert [p.name for p in source.skipped_files] == ["broken.pdf"]

    def test_pipeline_over_skipping_source(self, mixed_dir):
        source = DirectorySource(
            mixed_dir, dataset_id="mix-pipe", on_error="skip"
        )
        records, stats = pz.Execute(pz.Dataset(source))
        assert len(records) == 2

    def test_invalid_policy_rejected(self, mixed_dir):
        with pytest.raises(DatasetError, match="on_error"):
            DirectorySource(mixed_dir, on_error="ignore")


class TestFailingUDFs:
    def test_filter_udf_exception_propagates_with_context(self):
        def bad_udf(record):
            raise RuntimeError("udf exploded")

        source = MemorySource(["x"], dataset_id="udf-fail", schema=TextFile)
        dataset = pz.Dataset(source).filter(bad_udf)
        with pytest.raises(RuntimeError, match="udf exploded"):
            pz.Execute(dataset)

    def test_convert_udf_bad_payload_type(self):
        Info = pz.make_schema("Info", "d", {"x": "x"})
        source = MemorySource(["x"], dataset_id="udf-fail2", schema=TextFile)
        dataset = pz.Dataset(source).convert(Info, udf=lambda r: 42)
        from repro.core.errors import ExecutionError

        with pytest.raises(ExecutionError, match="non-dict"):
            pz.Execute(dataset)


class TestContextWindow:
    def test_no_feasible_model_still_has_chunked_plan(self):
        # Even a 128-token window model stays usable via chunking.
        tiny = ModelCard(
            name="nano", provider="t", usd_per_1m_input=0.1,
            usd_per_1m_output=0.1, quality=0.9, context_window=128,
        )
        registry = ModelRegistry(
            [tiny] + default_registry().embedding_models()
        )
        Info = pz.make_schema("Info", "d", {"url": "The URL"})
        doc = "words " * 500 + " find https://u.example.org here"
        source = MemorySource([doc], dataset_id="nano-src", schema=TextFile)
        records, stats = pz.Execute(
            pz.Dataset(source).convert(Info), models=registry
        )
        assert len(records) == 1
        assert "ChunkedConvert" in stats.plan_stats.plan_describe

    def test_direct_client_overflow_raises(self):
        from repro.llm.client import BooleanRequest, SimulatedLLMClient

        tiny = ModelCard(
            name="nano2", provider="t", usd_per_1m_input=0.1,
            usd_per_1m_output=0.1, quality=0.9, context_window=16,
        )
        client = SimulatedLLMClient(tiny)
        with pytest.raises(ContextWindowExceeded):
            client.judge(
                BooleanRequest(predicate="x", document="word " * 200)
            )


class TestDegenerateInputs:
    def test_empty_directory_pipeline(self, tmp_path):
        source = DirectorySource(tmp_path, dataset_id="empty-dir")
        records, stats = pz.Execute(
            pz.Dataset(source).filter("anything at all")
        )
        assert records == []
        assert stats.total_cost_usd == 0.0

    def test_empty_memory_aggregate(self):
        source = MemorySource([], dataset_id="empty-mem", schema=TextFile)
        records, _ = pz.Execute(pz.Dataset(source).count())
        assert records[0].count == 0

    def test_limit_zero_pipeline(self):
        source = MemorySource(["a", "b"], dataset_id="limit0",
                              schema=TextFile)
        records, stats = pz.Execute(pz.Dataset(source).limit(0))
        assert records == []

    def test_filter_on_record_with_no_text(self):
        Empty = pz.make_schema("Empty", "d", {"value": "v"})
        source = MemorySource(
            [{"value": None}], dataset_id="notext", schema=Empty
        )
        records, _ = pz.Execute(
            pz.Dataset(source).filter("mentions anything specific")
        )
        # No text: the heuristic finds no match; record is dropped, not
        # crashed on.
        assert isinstance(records, list)


class TestQuotaCheckpointEveryExecutor:
    """A shared budget another run already breached aborts this run
    before it spends anything, whichever executor runs it."""

    @pytest.mark.parametrize("executor,options", [
        ("sequential", {}),
        ("parallel", {"max_workers": 4}),
        ("pipelined", {"max_workers": 4}),
        ("sharded", {"shards": 4}),
        ("async", {"shards": 4}),
    ])
    def test_pre_breached_budget_aborts_with_zero_calls(self, executor,
                                                        options):
        from repro.corpora.scale import SCALE_PREDICATE, generate_scale_source
        from repro.llm.usage import BudgetMeter, QuotaExceededError

        source = generate_scale_source(40, dataset_id="quota-checkpoint")
        dataset = pz.Dataset(source).filter(SCALE_PREDICATE)
        budget = BudgetMeter(max_cost_usd=0.01)
        budget.charge_totals(cost_usd=0.02, tokens=0)  # a concurrent run
        assert budget.exceeded()
        with pytest.raises(QuotaExceededError, match="checkpoint"):
            pz.Execute(dataset, executor=executor, budget=budget,
                       include_embedding_filter=False, **options)
        # Every ledger record charges the shared budget.
        assert budget.calls == 0
        assert budget.spent_cost_usd == pytest.approx(0.02)
