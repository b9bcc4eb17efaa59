"""Persisted LLM call log: capture on a base run, replay on a re-run.

Incremental execution (:mod:`repro.execution.incremental`) re-runs a plan
through the *same* executor as a cold run, but serves LLM calls whose
(model, task, document) identity already appears in a prior run's call log
from that log instead of "calling the model".  A replayed call charges the
clock and ledger exactly what the cold call would have charged — recomputed
from the recorded token counts through the model card's pure pricing
functions — so records, stats, traces, and provenance come out
byte-identical to a cold run.  What replay *saves* is tallied separately:
the re-run's own bill (its :class:`~repro.execution.incremental
.IncrementalReport`) counts only the fresh calls, the simulated analogue of
serving unchanged derivations from a result store instead of the provider.

A :class:`ReplayLog` plays both roles:

* **capture** — every fresh call records ``key -> (value, token counts)``;
  the registry persists the log as ``calls.json`` next to the run.
* **replay** — a log primed from a prior run's ``calls.json`` answers
  lookups; hits are tallied as *reused* spend.

Keys extend the :class:`~repro.llm.cache.CallCache` identity (model, task
kind, task signature, document fingerprint, context fraction) with the
operation label, so two operators asking the same question never share an
entry with mismatched accounting.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["CallRecord", "ReplayLog", "ReuseSummary"]

#: (model, kind, task signature, document fingerprint, context fraction,
#: operation label)
ReplayKey = Tuple[str, str, str, str, float, str]


@dataclass(frozen=True)
class CallRecord:
    """One captured call: the answer plus its batch-invariant token counts.

    Latency and cost are *not* stored: both are pure functions of the token
    counts and the model card, and latency additionally depends on the
    replaying run's batch composition (overhead amortization), so they are
    recomputed at replay time through the exact code path a cold call uses.
    """

    value: Any
    input_tokens: int
    output_tokens: int


@dataclass
class ReuseSummary:
    """Deterministic totals over the replayed (reused) calls of one run."""

    calls: int = 0
    cost_usd: float = 0.0
    seconds: float = 0.0
    input_tokens: int = 0
    output_tokens: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "cost_usd": round(self.cost_usd, 6),
            "seconds": round(self.seconds, 3),
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
        }


def _normalize_value(value: Any) -> Any:
    """JSON round-trip, matching what a disk-persisted log would return.

    Priming from memory and priming from ``calls.json`` must hand the
    operators identical payloads, so values are normalized at capture
    serialization time rather than lazily on load.
    """
    return json.loads(json.dumps(value, default=str))


class ReplayLog:
    """Thread-safe LLM call log (see module docstring).

    The primed entry table is frozen at construction and read lock-free
    (single dict lookups of immutable records); capture and reuse tallies
    are compound mutations and take the lock.
    """

    _GUARDED_BY = {
        "_captured": "_lock",
        "_reused": "_lock",
    }

    def __init__(self, entries: Optional[Dict[ReplayKey, CallRecord]] = None):
        #: Frozen after construction — never mutated, so readers need no
        #: lock.
        self._entries: Dict[ReplayKey, CallRecord] = dict(entries or {})
        self._captured: Dict[ReplayKey, CallRecord] = {}
        #: (sortable key string, cost, seconds, in_tokens, out_tokens) per
        #: replayed call; totals are summed in sorted order so float
        #: accumulation is independent of thread arrival order.
        self._reused: List[Tuple[str, float, float, int, int]] = []
        self._lock = threading.Lock()

    # -- key construction ----------------------------------------------

    @staticmethod
    def make_key(model: str, kind: str, task_signature: str,
                 fingerprint: str, context_fraction: float,
                 operation: str) -> ReplayKey:
        return (model, kind, task_signature, fingerprint,
                round(context_fraction, 4), operation)

    @staticmethod
    def judge_key(model: str, request, fingerprint: str) -> ReplayKey:
        return ReplayLog.make_key(
            model, "judge", request.predicate.lower(), fingerprint,
            request.context_fraction, request.operation,
        )

    @staticmethod
    def extract_key(model: str, request, fingerprint: str) -> ReplayKey:
        signature = "|".join(sorted(request.fields)) + (
            "|1:N" if request.one_to_many else "|1:1"
        )
        return ReplayLog.make_key(
            model, "extract", signature, fingerprint,
            request.context_fraction, request.operation,
        )

    # -- replay ---------------------------------------------------------

    @property
    def primed(self) -> bool:
        """Does this log hold prior-run entries to replay from?"""
        return bool(self._entries)

    def lookup(self, key: ReplayKey) -> Optional[CallRecord]:
        """The prior run's record for ``key``, or None (fresh call)."""
        return self._entries.get(key)

    def note_reuse(self, key: ReplayKey, cost_usd: float, seconds: float,
                   input_tokens: int, output_tokens: int) -> None:
        """Tally one replayed call's cold-equivalent accounting."""
        sort_key = "".join(str(part) for part in key)
        with self._lock:
            self._reused.append(
                (sort_key, cost_usd, seconds, input_tokens, output_tokens)
            )

    def reused_summary(self) -> ReuseSummary:
        """Deterministic totals over every replayed call so far."""
        with self._lock:
            rows = sorted(self._reused)
        summary = ReuseSummary()
        for _, cost, seconds, in_tokens, out_tokens in rows:
            summary.calls += 1
            summary.cost_usd += cost
            summary.seconds += seconds
            summary.input_tokens += in_tokens
            summary.output_tokens += out_tokens
        return summary

    # -- capture --------------------------------------------------------

    def record(self, key: ReplayKey, value: Any, input_tokens: int,
               output_tokens: int) -> None:
        """Capture one call of *this* run (fresh or replayed).

        Answers are pure functions of the key, so concurrent writers racing
        on the same key store equal records.
        """
        entry = CallRecord(value, input_tokens, output_tokens)
        with self._lock:
            self._captured[key] = entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._captured)

    # -- (de)serialization ----------------------------------------------

    def to_payload(self) -> List[Dict[str, Any]]:
        """JSON-ready call log of this run, sorted for determinism."""
        with self._lock:
            items = dict(self._captured)
        rows = []
        for key in sorted(items, key=lambda k: tuple(str(p) for p in k)):
            entry = items[key]
            rows.append({
                "key": list(key),
                "value": _normalize_value(entry.value),
                "input_tokens": entry.input_tokens,
                "output_tokens": entry.output_tokens,
            })
        return rows

    @classmethod
    def from_payload(cls, payload) -> "ReplayLog":
        """Prime a log from a persisted ``calls.json`` payload."""
        entries: Dict[ReplayKey, CallRecord] = {}
        for row in payload or []:
            raw = row["key"]
            key = (str(raw[0]), str(raw[1]), str(raw[2]), str(raw[3]),
                   float(raw[4]), str(raw[5]))
            entries[key] = CallRecord(
                value=row["value"],
                input_tokens=int(row["input_tokens"]),
                output_tokens=int(row["output_tokens"]),
            )
        return cls(entries)
