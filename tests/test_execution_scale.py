"""Scale-out execution: sharding, the sharded/async executors, the
optimizer-chosen parallelism degree.

The contract under test: at any shard count, the sharded executor — and the
asyncio executor at any fanout — produce exactly the records, per-operator
stats, provenance graphs, and (run-to-run) traces the sequential executor
produces; the only thing allowed to change is the simulated makespan, which
must *shrink* as the shardable prefix fans out.
"""

from __future__ import annotations

import sys

import pytest

import repro as pz
from repro.core.builtin_schemas import TextFile
from repro.core.dataset import Dataset
from repro.core.records import DataRecord
from repro.core.sources import (
    SHARD_BALANCED,
    SHARD_ROUND_ROBIN,
    CallbackSource,
    DatasetError,
    MemorySource,
    SourceShard,
    shard_assignment,
    shard_source,
)
from repro.execution.execute import Execute
from repro.execution.executors import SequentialExecutor
from repro.execution.sharded import AsyncExecutor, ShardedExecutor
from repro.llm.oracle import DocumentTruth, global_oracle
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.trace import Tracer
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.policies import MaxQuality, MinTime
from repro.physical.context import ExecutionContext

sys.path.insert(0, "tests")
from test_execution_pipeline import (  # noqa: E402
    chosen_plan,
    make_source,
    run_fingerprint,
    shape_filter_convert,
    shape_groupby,
    shape_limit_early,
    shape_retrieve,
    shape_sort_limit,
)


def shape_join(source):
    docs = ["Team alpha studies colorectal cancer.",
            "Team beta studies gardening."]
    for doc in docs:
        global_oracle().register(
            doc,
            DocumentTruth(
                predicates={"about colorectal cancer": True},
                difficulty=0.0,
            ),
        )
    right = Dataset(
        MemorySource(docs, dataset_id="scale-join-right", schema=TextFile)
    )
    return (
        Dataset(source)
        .filter("about colorectal cancer")
        .join(right, udf=lambda left, r: "alpha" in r.text_contents)
    )


SHAPES = [
    shape_filter_convert,   # pure shardable prefix + convert fan-out
    shape_limit_early,      # early-stop inline path (limit defeats sharding)
    shape_groupby,          # decomposable blocking suffix
    shape_sort_limit,       # non-decomposable blocking suffix
    shape_retrieve,         # blocking head: empty shardable prefix
    shape_join,             # join suffix with its own right-hand pipeline
]

SHARD_COUNTS = (1, 2, 4, 8)


def run_scaled(plan, kind, degree, strategy=SHARD_ROUND_ROBIN, batch=1,
               tracer=None, recorder=None):
    context = ExecutionContext(max_workers=max(1, degree))
    if tracer is not None:
        context.tracer = tracer
    if recorder is not None:
        context.provenance = recorder
    if kind == "sequential":
        executor = SequentialExecutor(context)
    elif kind == "async":
        executor = AsyncExecutor(context, fanout=degree, batch_size=batch)
    else:
        executor = ShardedExecutor(
            context, shards=degree, strategy=strategy, batch_size=batch
        )
    records, stats = executor.execute(plan)
    return records, stats, context


# ----------------------------------------------------------------------
# The sharding layer itself.
# ----------------------------------------------------------------------

class TestShardAssignment:
    def test_round_robin_assignment(self):
        assert shard_assignment(3, count=7) == [0, 1, 2, 0, 1, 2, 0]
        assert shard_assignment(1, count=4) == [0, 0, 0, 0]

    def test_balanced_assignment_greedy_min_load(self):
        # Weights 10, 1, 1, 1: the big record pins shard 0, the rest
        # accumulate on the lighter shard.
        assignment = shard_assignment(
            2, weights=[10, 1, 1, 1], strategy=SHARD_BALANCED
        )
        assert assignment == [0, 1, 1, 1]

    def test_balanced_ties_break_to_lowest_shard(self):
        assignment = shard_assignment(
            3, weights=[1, 1, 1], strategy=SHARD_BALANCED
        )
        assert assignment == [0, 1, 2]

    def test_invalid_arguments(self):
        with pytest.raises(DatasetError):
            shard_assignment(0, count=3)
        with pytest.raises(DatasetError):
            shard_assignment(2, count=3, strategy="zigzag")
        with pytest.raises(DatasetError):
            shard_assignment(2, strategy=SHARD_BALANCED)  # needs weights


class TestSourceShard:
    def test_shards_partition_the_source(self):
        source = make_source(n=10, dataset_id="scale-partition")
        shards = shard_source(source, 4)
        assert [s.dataset_id for s in shards] == [
            f"{source.dataset_id}#shard{k}" for k in range(4)
        ]
        seen = []
        for shard in shards:
            seen.extend(shard.global_indices)
        assert sorted(seen) == list(range(10))
        assert sum(len(s) for s in shards) == len(source)

    def test_shard_iteration_preserves_record_identity(self):
        source = make_source(n=6, dataset_id="scale-identity")
        originals = [r.to_dict() for r in source]
        shards = shard_source(source, 2)
        merged = {}
        for shard in shards:
            for index, record in zip(shard.global_indices, shard):
                merged[index] = record.to_dict()
        assert [merged[i] for i in range(6)] == originals

    def test_balanced_strategy_covers_all_records(self):
        source = make_source(n=9, dataset_id="scale-balanced")
        shards = shard_source(source, 3, strategy=SHARD_BALANCED)
        seen = sorted(
            index for shard in shards for index in shard.global_indices
        )
        assert seen == list(range(9))

    def test_assignment_cached_per_configuration(self):
        source = make_source(n=8, dataset_id="scale-cache")
        first = shard_source(source, 2)
        second = shard_source(source, 2)
        assert [s.global_indices for s in first] == [
            s.global_indices for s in second
        ]
        assert isinstance(first[0], SourceShard)

    def test_negative_shard_index_rejected(self):
        source = make_source(n=4, dataset_id="scale-neg")
        with pytest.raises(DatasetError):
            SourceShard(source, -1, [0, 0, 0, 0], SHARD_ROUND_ROBIN)


class TestProfileSinglePass:
    def test_iterator_only_source_profiles_in_one_pass(self):
        passes = []

        def factory():
            passes.append(1)
            for index in range(12):
                yield DataRecord(
                    TextFile,
                    {"filename": f"f{index}", "contents": f"doc {index}"},
                )

        source = CallbackSource(
            factory, dataset_id="scale-onepass", schema=TextFile
        )
        profile = source.profile(sample_size=5)
        assert profile.cardinality == 12
        # The old implementation sampled (pass 1) then called __len__
        # (pass 2); the fix counts cardinality during the sampling pass.
        assert len(passes) == 1

    def test_known_length_source_stops_after_sample(self):
        yielded = []

        def factory():
            for index in range(100):
                yielded.append(index)
                yield DataRecord(
                    TextFile,
                    {"filename": f"f{index}", "contents": f"doc {index}"},
                )

        source = CallbackSource(
            factory, dataset_id="scale-cheaplen", schema=TextFile,
            length=100,
        )
        profile = source.profile(sample_size=5)
        assert profile.cardinality == 100
        # With a cheap length there is no reason to drain the iterator.
        assert len(yielded) == 5


# ----------------------------------------------------------------------
# Executor equivalence: records, stats, provenance, traces.
# ----------------------------------------------------------------------

class TestScaleOutEquivalence:
    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda fn: fn.__name__.replace("shape_", "")
    )
    def test_sharded_matches_sequential_at_every_degree(self, shape):
        source = make_source(n=10, dataset_id=f"scale-eq-{shape.__name__}")
        plan = chosen_plan(shape(source), source)
        baseline = run_fingerprint(*run_scaled(plan, "sequential", 1)[:2])
        for degree in SHARD_COUNTS:
            records, stats, _ = run_scaled(plan, "sharded", degree)
            assert run_fingerprint(records, stats) == baseline, (
                f"shards={degree}"
            )

    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda fn: fn.__name__.replace("shape_", "")
    )
    def test_async_matches_sequential(self, shape):
        source = make_source(n=10, dataset_id=f"scale-aeq-{shape.__name__}")
        plan = chosen_plan(shape(source), source)
        baseline = run_fingerprint(*run_scaled(plan, "sequential", 1)[:2])
        for fanout in (1, 4):
            records, stats, _ = run_scaled(plan, "async", fanout)
            assert run_fingerprint(records, stats) == baseline, (
                f"fanout={fanout}"
            )

    def test_balanced_strategy_matches_round_robin_output(self):
        source = make_source(n=12, dataset_id="scale-eq-balanced")
        plan = chosen_plan(shape_filter_convert(source), source)
        baseline = run_fingerprint(*run_scaled(plan, "sequential", 1)[:2])
        for degree in (2, 4):
            records, stats, _ = run_scaled(
                plan, "sharded", degree, strategy=SHARD_BALANCED
            )
            assert run_fingerprint(records, stats) == baseline

    def test_shard_batching_matches_per_record(self):
        source = make_source(n=12, dataset_id="scale-eq-batch")
        plan = chosen_plan(shape_filter_convert(source), source)
        baseline = run_fingerprint(*run_scaled(plan, "sequential", 1)[:2])
        for degree, batch in ((2, 4), (4, 3)):
            records, stats, _ = run_scaled(
                plan, "sharded", degree, batch=batch
            )
            assert run_fingerprint(records, stats) == baseline

    def test_sharding_shrinks_simulated_time(self):
        source = make_source(n=12, dataset_id="scale-speedup")
        plan = chosen_plan(shape_filter_convert(source), source)
        _, sequential, _ = run_scaled(plan, "sequential", 1)
        _, sharded, _ = run_scaled(plan, "sharded", 4)
        _, fanned, _ = run_scaled(plan, "async", 4)
        assert (
            sharded.total_time_seconds
            < sequential.total_time_seconds / 2
        )
        assert fanned.total_time_seconds < sequential.total_time_seconds / 2

    def test_provenance_identical_across_executors(self):
        source = make_source(n=8, dataset_id="scale-prov")
        plan = chosen_plan(shape_filter_convert(source), source)

        def signature(kind, degree):
            recorder = ProvenanceRecorder()
            records, _, _ = run_scaled(
                plan, kind, degree, recorder=recorder
            )
            return recorder.finalize(records).signature()

        baseline = signature("sequential", 1)
        assert signature("sharded", 4) == baseline
        assert signature("sharded", 8) == baseline
        assert signature("async", 4) == baseline

    def test_sharded_trace_identical_across_runs(self):
        source = make_source(n=8, dataset_id="scale-trace")
        plan = chosen_plan(shape_filter_convert(source), source)

        def traced(kind, degree):
            context = ExecutionContext(max_workers=degree)
            context.tracer = Tracer(clock=context.clock)
            if kind == "async":
                executor = AsyncExecutor(context, fanout=degree)
            else:
                executor = ShardedExecutor(context, shards=degree)
            executor.execute(plan)
            return context.tracer.finish().signature()

        for kind in ("sharded", "async"):
            signatures = {traced(kind, 4) for _ in range(3)}
            assert len(signatures) == 1, kind

    def test_stress_eight_shards_repeated(self):
        source = make_source(n=16, dataset_id="scale-stress")
        plan = chosen_plan(shape_filter_convert(source), source)
        baseline = run_fingerprint(*run_scaled(plan, "sequential", 1)[:2])
        for _ in range(5):
            records, stats, _ = run_scaled(plan, "sharded", 8, batch=2)
            assert run_fingerprint(records, stats) == baseline


# ----------------------------------------------------------------------
# Optimizer integration: pricing and the chosen degree.
# ----------------------------------------------------------------------

class TestOptimizerChoosesDegree:
    def test_min_time_picks_a_parallel_degree_on_a_large_source(self):
        source = make_source(n=24, dataset_id="scale-opt-large")
        dataset = Dataset(source).filter(
            "about colorectal cancer"
        )
        report = Optimizer(
            MinTime(), executor="sharded",
            include_embedding_filter=False,
        ).optimize(dataset.logical_plan(), source)
        assert report.chosen.plan.shards > 1
        # Candidates cover every degree, so the report shows the tradeoff.
        assert {c.plan.shards for c in report.candidates} == {1, 2, 4, 8}

    def test_degrees_capped_by_source_cardinality(self):
        source = make_source(n=3, dataset_id="scale-opt-tiny")
        dataset = Dataset(source).filter("about colorectal cancer")
        report = Optimizer(
            MinTime(), executor="sharded",
            include_embedding_filter=False,
        ).optimize(dataset.logical_plan(), source)
        assert {c.plan.shards for c in report.candidates} == {1, 2}
        assert report.chosen.plan.shards <= 3

    def test_explicit_shards_stamped_on_chosen_plan(self):
        source = make_source(n=8, dataset_id="scale-opt-pinned")
        dataset = Dataset(source).filter("about colorectal cancer")
        report = Optimizer(
            MaxQuality(), executor="async", shards=4
        ).optimize(dataset.logical_plan(), source)
        assert report.chosen.plan.shards == 4

    def test_sequential_estimates_unchanged_by_scale_out_params(self):
        source = make_source(n=8, dataset_id="scale-opt-noop")
        dataset = Dataset(source).filter("about colorectal cancer")
        base = Optimizer(MaxQuality()).optimize(
            dataset.logical_plan(), source
        )
        scaled = Optimizer(
            MaxQuality(), executor="sharded", shards=1
        ).optimize(dataset.logical_plan(), source)
        assert (
            base.chosen.estimate.cost_usd
            == scaled.chosen.estimate.cost_usd
        )
        assert (
            base.chosen.estimate.time_seconds
            == scaled.chosen.estimate.time_seconds
        )


# ----------------------------------------------------------------------
# The Execute entry point and stats surface.
# ----------------------------------------------------------------------

class TestExecuteScaleOut:
    def test_execute_sharded_entry_point(self):
        source = make_source(dataset_id="scale-entry")
        dataset = shape_filter_convert(source)
        records, sequential = Execute(dataset, policy=MaxQuality())
        sharded_records, sharded = Execute(
            dataset, policy=MaxQuality(), executor="sharded", shards=4,
        )
        assert [r.to_dict() for r in sharded_records] == [
            r.to_dict() for r in records
        ]
        assert sequential.shards == 1
        assert sharded.executor == "sharded"
        assert sharded.shards == 4
        assert sharded.to_dict()["shards"] == 4
        assert "shards=4" in sharded.summary()
        assert (
            sharded.plan_stats.total_time_seconds
            < sequential.plan_stats.total_time_seconds
        )

    def test_execute_async_optimizer_chooses_degree(self):
        source = make_source(n=12, dataset_id="scale-entry-async")
        dataset = shape_filter_convert(source)
        records, stats = Execute(
            dataset, policy=MinTime(), executor="async",
            include_embedding_filter=False,
        )
        assert stats.executor == "async"
        assert stats.shards > 1
        # The sharded executor prices identically, so the optimizer picks
        # the same plan and degree — and the outputs must agree.
        twin_records, twin = Execute(
            dataset, policy=MinTime(), executor="sharded",
            include_embedding_filter=False,
        )
        assert twin.shards == stats.shards
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in twin_records
        ]

    def test_execute_rejects_shards_for_single_chain_executors(self):
        source = make_source(dataset_id="scale-entry-reject")
        with pytest.raises(ValueError, match="shards only applies"):
            Execute(Dataset(source), executor="pipelined", shards=4)


# ----------------------------------------------------------------------
# PZ109: sharding that cannot help.
# ----------------------------------------------------------------------

class TestShardingLint:
    def test_shards_beyond_cardinality_warns(self):
        from repro.analysis import lint_plan

        source = make_source(n=2, dataset_id="scale-lint-tiny")
        dataset = Dataset(source).filter("about colorectal cancer")
        result = lint_plan(dataset, shards=8)
        codes = [f.code for f in result.diagnostics]
        assert "PZ109" in codes

    def test_leading_limit_warns(self):
        from repro.analysis import lint_plan

        source = make_source(n=8, dataset_id="scale-lint-limit")
        dataset = (
            Dataset(source).limit(2).filter("about colorectal cancer")
        )
        result = lint_plan(dataset, shards=4)
        assert any(
            f.code == "PZ109" and "limit" in f.message
            for f in result.diagnostics
        )

    def test_reasonable_sharding_is_clean(self):
        from repro.analysis import lint_plan

        source = make_source(n=8, dataset_id="scale-lint-ok")
        dataset = Dataset(source).filter("about colorectal cancer")
        result = lint_plan(dataset, shards=4)
        assert not any(f.code == "PZ109" for f in result.diagnostics)

    def test_degree_one_never_warns(self):
        from repro.analysis import lint_plan

        source = make_source(n=2, dataset_id="scale-lint-one")
        dataset = Dataset(source).limit(1)
        result = lint_plan(dataset, shards=1)
        assert not any(f.code == "PZ109" for f in result.diagnostics)


# ----------------------------------------------------------------------
# The chat surface: NL phrasings reach the scale-out executors.
# ----------------------------------------------------------------------

class TestChatExecutionModeIntent:
    @staticmethod
    def _plan(message):
        from repro.chat.intent import plan_requests
        from repro.chat.workspace import PipelineWorkspace

        return plan_requests(message, PipelineWorkspace())

    def test_sharded_with_explicit_count(self):
        calls = self._plan("set execution mode to sharded with 4 shards")
        assert calls[0].tool_name == "set_execution_mode"
        assert calls[0].arguments["executor"] == "sharded"
        assert calls[0].arguments["shards"] == 4

    def test_async_optimizer_chooses(self):
        calls = self._plan("use the async executor")
        assert calls[0].tool_name == "set_execution_mode"
        assert calls[0].arguments["executor"] == "async"
        assert "shards" not in calls[0].arguments

    def test_shard_the_pipeline_phrasing(self):
        calls = self._plan("shard the pipeline across 8 shards")
        assert calls[0].tool_name == "set_execution_mode"
        assert calls[0].arguments == {
            "executor": "sharded", "batch_size": 1, "shards": 8,
        }

    def test_legacy_phrasings_unchanged(self):
        calls = self._plan("use the pipelined executor with batch size 8")
        assert calls[0].tool_name == "set_execution_mode"
        assert calls[0].arguments == {
            "executor": "pipelined", "batch_size": 8,
        }


# ----------------------------------------------------------------------
# The synthetic scale corpus.
# ----------------------------------------------------------------------

class TestScaleCorpus:
    def test_generator_is_deterministic(self):
        from repro.corpora.scale import generate_scale_source

        first = generate_scale_source(50, dataset_id="scale-gen-a")
        second = generate_scale_source(50, dataset_id="scale-gen-b")
        assert [r.text_contents for r in first] == [
            r.text_contents for r in second
        ]
        assert len(first) == 50

    def test_scale_pipeline_speeds_up_sharded(self):
        from repro.corpora.scale import (
            SCALE_PREDICATE,
            generate_scale_source,
        )

        source = generate_scale_source(200, dataset_id="scale-gen-run")
        plan = chosen_plan(
            Dataset(source).filter(SCALE_PREDICATE), source,
            include_embedding_filter=False,
        )
        base_records, base_stats, _ = run_scaled(plan, "sequential", 1)
        records, stats, _ = run_scaled(plan, "sharded", 4)
        assert run_fingerprint(records, stats) == run_fingerprint(
            base_records, base_stats
        )
        # Half the notes are relevant; the simulated model's base error
        # rate may flip a handful of judgments (deterministically).
        assert abs(len(base_records) - 100) <= 5
        assert (
            stats.total_time_seconds
            < base_stats.total_time_seconds / 2
        )
