"""A virtual clock for simulated latency accounting.

Palimpzest's execution statistics report wall-clock runtime; our LLM calls are
simulated, so sleeping for their real latency would make the benchmarks take
hours.  Instead every component that "takes time" advances a shared
:class:`VirtualClock`.  The clock supports *lanes* so a parallel executor can
model `max_workers` concurrent LLM calls: each lane accumulates time
independently and the elapsed time of the whole execution is the maximum lane.

Executors run single-threaded and select lanes with :meth:`use_lane` /
:meth:`pick_least_busy_lane`.  The clock stays safe to share across
threads anyway: the *current lane* selection is thread-local — each thread
advances its own lane without seeing other threads' selections — and every
mutation of the lane table happens under a lock.
"""

from __future__ import annotations

import threading


class VirtualClock:
    """Tracks simulated elapsed seconds, optionally across parallel lanes.

    A clock starts at time zero.  ``advance(seconds)`` adds time to the
    calling thread's current lane; ``now`` reports that lane's local time,
    and ``elapsed`` reports the makespan across all lanes (the number a user
    would read off a stopwatch for the whole run).
    """

    _GUARDED_BY = {"_lane_times": "_lock"}

    def __init__(self, lanes: int = 1):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self._lane_times = [0.0] * lanes
        #: ``len(_lane_times)``; the table only grows (in ensure_lanes), so
        #: lane selection can bounds-check without taking the lock.
        self._lane_count = lanes
        self._lock = threading.RLock()
        self._local = threading.local()

    # -- thread-local current lane ----------------------------------------

    @property
    def _current_lane(self) -> int:
        return getattr(self._local, "lane", 0)

    @_current_lane.setter
    def _current_lane(self, lane: int) -> None:
        self._local.lane = lane

    @property
    def current_lane(self) -> int:
        """The lane the calling thread's advances are charged to."""
        return self._current_lane

    @property
    def lanes(self) -> int:
        return self._lane_count

    def lane_time(self, lane: int) -> float:
        """Local time accumulated by ``lane``, in seconds."""
        with self._lock:
            return self._lane_times[lane]

    def lane_times(self) -> list:
        """A snapshot copy of every lane's accumulated time."""
        with self._lock:
            return list(self._lane_times)

    @property
    def now(self) -> float:
        """Local time of the calling thread's current lane, in seconds."""
        with self._lock:
            return self._lane_times[self._current_lane]

    @property
    def elapsed(self) -> float:
        """Makespan: the maximum time accumulated by any lane."""
        with self._lock:
            return max(self._lane_times)

    @property
    def total_busy(self) -> float:
        """Sum of busy time across all lanes (aggregate compute-seconds)."""
        with self._lock:
            return sum(self._lane_times)

    @property
    def local_advanced(self) -> float:
        """Total seconds the *calling thread* has advanced this clock.

        Unlike ``now`` (the current lane's time, which other threads
        charged to the same lane can move), this is a per-thread monotonic
        accumulator — so a delta of ``local_advanced`` around a block of
        work measures exactly that thread's own charges, deterministically
        under any interleaving.  The executors meter per-operator time (and
        span durations) with it, whichever lane each charge went to.
        """
        return getattr(self._local, "advanced", 0.0)

    def advance(self, seconds: float) -> float:
        """Add ``seconds`` to the current lane and return its new local time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds} seconds")
        self._local.advanced = self.local_advanced + seconds
        with self._lock:
            self._lane_times[self._current_lane] += seconds
            return self._lane_times[self._current_lane]

    def pick_least_busy_lane(self) -> int:
        """Select (and return) the lane with the least accumulated time.

        This models a work queue: the next task is handed to whichever worker
        frees up first.  The selection applies to the calling thread only.
        """
        with self._lock:
            lane = min(
                range(len(self._lane_times)), key=lambda i: self._lane_times[i]
            )
            self._current_lane = lane
            return lane

    def use_lane(self, lane: int) -> None:
        """Bind the calling thread to ``lane`` for subsequent advances."""
        if not 0 <= lane < self._lane_count:
            raise IndexError(
                f"lane {lane} out of range [0, {self._lane_count})"
            )
        self._local.lane = lane

    def ensure_lanes(self, lanes: int) -> None:
        """Grow the lane table to at least ``lanes`` entries.

        New lanes start at time zero, so neither ``elapsed`` nor
        ``total_busy`` changes.  Used by executors whose worker count is
        only known once the plan's stage structure is built.
        """
        with self._lock:
            missing = lanes - len(self._lane_times)
            if missing > 0:
                self._lane_times.extend([0.0] * missing)
                self._lane_count = len(self._lane_times)

    def synchronize(self) -> float:
        """Barrier: set every lane to the makespan and return it.

        Used at pipeline stage boundaries that must wait for all workers.
        """
        with self._lock:
            makespan = max(self._lane_times)
            self._lane_times = [makespan] * len(self._lane_times)
            return makespan

    def reset(self) -> None:
        with self._lock:
            self._lane_times = [0.0] * len(self._lane_times)
            self._current_lane = 0

    def __repr__(self) -> str:
        return f"VirtualClock(lanes={self.lanes}, elapsed={self.elapsed:.3f}s)"
