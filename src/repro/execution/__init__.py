"""Execution engine: run physical plans and collect statistics.

The demo's Fig. 5 shows per-plan execution output: the operators chosen, the
records produced, and "summary information about the plan execution such as
the total pipeline cost and runtime" — that is what
:class:`~repro.execution.stats.ExecutionStats` reports.
"""

from repro.execution.stats import OperatorStats, PlanStats, ExecutionStats
from repro.execution.executors import SequentialExecutor, ParallelExecutor
from repro.execution.pipeline import PipelinedExecutor
from repro.execution.sharded import AsyncExecutor, ShardedExecutor
from repro.execution.execute import Execute, ExecutionEngine
from repro.execution.incremental import (
    IncrementalReport,
    ManifestDelta,
    build_source_manifest,
    delta_impact,
    diff_manifests,
)

__all__ = [
    "OperatorStats",
    "PlanStats",
    "ExecutionStats",
    "SequentialExecutor",
    "ParallelExecutor",
    "PipelinedExecutor",
    "ShardedExecutor",
    "AsyncExecutor",
    "Execute",
    "ExecutionEngine",
    "IncrementalReport",
    "ManifestDelta",
    "build_source_manifest",
    "delta_impact",
    "diff_manifests",
]
