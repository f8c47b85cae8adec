"""High-level entry point: run one broadcast with any policy.

:func:`run_broadcast` is the function most users (and all examples,
experiments and benchmarks) call: it rejects policies the link model or
the source count cannot serve, wires the policy's
:meth:`~repro.core.policies.SchedulingPolicy.prepare` hook, runs the
broadcast kernel :func:`repro.sim.engine.simulate` (round-based when no
wake-up schedule is given, slot-based otherwise) under the requested
:class:`~repro.sim.links.LinkModel` (reliable by default), validates the
trace and returns it.

A single node id is the one-message case of the kernel and returns that
message's :class:`~repro.sim.trace.BroadcastResult`.  Passing a *sequence*
of sources selects the **multi-source workload**: ``k`` concurrent messages
share the timeline (and the wake-up schedule) and contend for slots under
the paper's interference rules — see :mod:`repro.sim.engine` for the
contention semantics.  The result is then a
:class:`~repro.sim.trace.MultiBroadcastResult` with one complete
per-message trace per source; for a one-element sequence it wraps a trace
bit-identical to the single-source call.
"""

from __future__ import annotations

import copy
from typing import Sequence

from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.engine import simulate
from repro.sim.links import LinkModel, ReliableLinks
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.sim.validation import assert_valid

__all__ = ["run_broadcast"]


def _resolve_policies(
    policy: SchedulingPolicy | Sequence[SchedulingPolicy],
    num_messages: int,
) -> list[SchedulingPolicy]:
    """One scheduler instance per message.

    A single policy instance is deep-copied for the extra messages (each
    wavefront needs its own per-broadcast state); a sequence must provide
    exactly one policy per source.
    """
    if isinstance(policy, SchedulingPolicy):
        return [policy] + [copy.deepcopy(policy) for _ in range(num_messages - 1)]
    policies = list(policy)
    if len(policies) != num_messages:
        raise ValueError(
            f"need one policy per source: got {len(policies)} policies for "
            f"{num_messages} sources"
        )
    for item in policies:
        if not isinstance(item, SchedulingPolicy):
            raise TypeError(f"not a SchedulingPolicy: {item!r}")
    return policies


def run_broadcast(
    topology: WSNTopology,
    source: int | Sequence[int],
    policy: SchedulingPolicy | Sequence[SchedulingPolicy],
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    align_start: bool = False,
    max_time: int | None = None,
    validate: bool = True,
    link_model: LinkModel | None = None,
) -> BroadcastResult | MultiBroadcastResult:
    """Broadcast from ``source`` under ``policy`` and return the trace.

    Parameters
    ----------
    topology:
        The network.
    source:
        The node that holds the message at ``start_time`` — or a sequence
        of ``k`` distinct nodes for the multi-source workload, in which
        case ``k`` concurrent messages spread on one shared timeline and
        the return value is a :class:`MultiBroadcastResult`.
    policy:
        Any scheduling policy (the paper's OPT / G-OPT / E-model, a baseline,
        or a user-supplied implementation of :class:`SchedulingPolicy`).
        Multi-source runs need one scheduler *instance* per message: pass a
        sequence of ``k`` policies, or a single instance to have it
        deep-copied per message.  With ``k > 1`` every policy must be
        frontier-driven in the :attr:`SchedulingPolicy.loss_tolerant` sense
        (contended advances are deferred and re-planned; planned baselines
        replaying a fixed schedule are rejected loudly).
    schedule:
        A wake-up schedule selects the asynchronous duty-cycle system;
        ``None`` selects the round-based synchronous system.
    start_time:
        ``t_s``, 1-based.
    align_start:
        Duty-cycle only: move ``t_s`` to the source's first wake-up slot at
        or after ``start_time`` (the paper's examples assume ``t_s ∈ T(s)``).
        For multi-source runs the shared start moves to the *earliest*
        wake-up slot of any source.
    max_time:
        Optional cap on simulated rounds/slots (defaults to a generous bound
        derived from the baselines' worst case, stretched by the link
        model's expected retransmission factor — and, multi-source, by the
        message count).
    validate:
        Re-validate the produced trace against the network model before
        returning (cheap; disable only in tight benchmarking loops).  Lossy
        traces are validated against the *delivered* receivers; multi-source
        traces are validated per message plus the cross-message contention
        rules.
    link_model:
        Delivery semantics: ``None`` / :class:`~repro.sim.links.ReliableLinks`
        for the paper's model, or
        :class:`~repro.sim.links.IndependentLossLinks` for independent
        per-link failures (§VI robustness); the traces are a pure function
        of the model and its seed.

    Returns
    -------
    BroadcastResult | MultiBroadcastResult
        The complete trace; ``result.latency`` is the paper's ``P(A)`` for
        ``start_time=1`` (for multi-source runs: the makespan of the
        slowest message).
    """
    link = ReliableLinks() if link_model is None else link_model

    if isinstance(source, (str, bytes)):
        # A stray string would iterate char-by-char into the multi-source
        # path; fail as loudly as an unknown node id always has.
        raise TypeError(
            f"source must be a node id or a sequence of node ids, got {source!r}"
        )
    single = isinstance(source, int) or hasattr(source, "__index__")
    if single:
        if not isinstance(policy, SchedulingPolicy):
            raise TypeError(
                "a single-source broadcast takes a single SchedulingPolicy; pass "
                "a sequence of sources for the multi-source workload"
            )
        sources: tuple[int, ...] = (source,)
        policies = [policy]
    else:
        sources = tuple(int(s) for s in source)
        policies = _resolve_policies(policy, len(sources))
    for item in policies:
        if getattr(item, "loss_tolerant", True):
            continue
        if not link.lossless:
            raise ValueError(
                f"policy {item.name!r} replays a fixed plan that assumes "
                "reliable delivery and cannot run over lossy links; pick "
                "a loss-tolerant tier from the solver registry "
                "(repro.solvers.SOLVER_TIERS, --list-solvers) or a "
                "frontier scheduler (OPT, G-OPT, E-model, largest-first) "
                "for the loss axis"
            )
        if len(sources) > 1:
            raise ValueError(
                f"policy {item.name!r} replays a fixed plan and cannot "
                "share the timeline with concurrent messages: multi-source "
                "slot contention defers advances, which requires frontier "
                "re-planning — pick a loss-tolerant tier from the solver "
                "registry (repro.solvers.SOLVER_TIERS, --list-solvers) or "
                "a frontier scheduler (OPT, G-OPT, E-model, largest-first)"
            )
    for item, src in zip(policies, sources):
        item.prepare(topology, schedule, src)
    multi = simulate(
        topology,
        policies,
        sources,
        schedule=schedule,
        link_model=link,
        start_time=start_time,
        align_start=align_start,
        max_time=max_time,
    )
    result = multi.messages[0] if single else multi
    if validate:
        assert_valid(topology, result, schedule=schedule, lossy=not link.lossless)
    return result
