"""Replay a recorded broadcast trace through the broadcast kernel.

:class:`ReplayPolicy` answers ``select_advance`` from a recorded
:class:`~repro.sim.trace.BroadcastResult` instead of computing a schedule.
Driving a replay through the kernel re-validates every advance against the
network model, which makes it useful for

* auditing externally produced traces (the kernel raises on any violation),
* timing the kernel's own machinery with *zero* policy cost, and
* re-rendering or re-measuring a stored schedule without re-running the
  scheduler that produced it.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.sim.trace import BroadcastResult

__all__ = ["ReplayPolicy"]


class ReplayPolicy(SchedulingPolicy):
    """Replays the advances of a recorded trace at their recorded times."""

    def __init__(self, trace: BroadcastResult) -> None:
        self.name = trace.policy_name
        self.trace = trace
        self._by_time: dict[int, Advance] = {a.time: a for a in trace.advances}
        if len(self._by_time) != len(trace.advances):
            raise ValueError("trace contains two advances at the same time")
        self._times = sorted(self._by_time)

    def select_advance(self, state: BroadcastState) -> Advance | None:
        return self._by_time.get(state.time)

    def next_decision_slot(self, time: int) -> int | None:
        """The next recorded transmission slot (the replay acts at no other)."""
        index = bisect_left(self._times, time)
        if index == len(self._times):
            # Past the recorded trace: no further transmissions ever happen,
            # which the kernel discovers by timing out.
            return None if not self._times else self._times[-1] + 1_000_000_000
        return self._times[index]
