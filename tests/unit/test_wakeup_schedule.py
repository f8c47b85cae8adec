"""Unit tests for repro.dutycycle.schedule."""

from __future__ import annotations

import pytest

from repro.dutycycle.schedule import WakeupSchedule


class TestConstruction:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            WakeupSchedule([0, 1], rate=0)

    def test_explicit_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            WakeupSchedule([0, 1], rate=5, explicit={7: [1]})

    def test_explicit_empty_slots_rejected(self):
        with pytest.raises(ValueError):
            WakeupSchedule([0], rate=5, explicit={0: []})

    def test_node_membership(self):
        schedule = WakeupSchedule([3, 1, 2], rate=4)
        assert schedule.node_ids == (1, 2, 3)
        assert 2 in schedule and 9 not in schedule


class TestPseudoRandomSchedules:
    def test_exactly_one_wakeup_per_cycle(self):
        schedule = WakeupSchedule([0], rate=10, seed=1)
        slots = schedule.active_slots_until(0, 100)
        assert len(slots) == 10
        for cycle in range(10):
            in_cycle = [s for s in slots if cycle * 10 < s <= (cycle + 1) * 10]
            assert len(in_cycle) == 1

    def test_reproducible_per_seed(self):
        a = WakeupSchedule([0, 1], rate=10, seed=3)
        b = WakeupSchedule([0, 1], rate=10, seed=3)
        assert a.active_slots_until(0, 50) == b.active_slots_until(0, 50)
        assert a.active_slots_until(1, 50) == b.active_slots_until(1, 50)

    def test_nodes_have_independent_streams(self):
        schedule = WakeupSchedule(list(range(20)), rate=10, seed=3)
        patterns = {tuple(schedule.active_slots_until(u, 100)) for u in range(20)}
        assert len(patterns) > 1

    def test_is_active_consistent_with_slot_list(self):
        schedule = WakeupSchedule([0], rate=7, seed=5)
        slots = set(schedule.active_slots_until(0, 70))
        for slot in range(1, 71):
            assert schedule.is_active(0, slot) == (slot in slots)

    def test_next_active_slot_is_active_and_minimal(self):
        schedule = WakeupSchedule([0], rate=9, seed=2)
        for slot in (1, 5, 13, 40):
            nxt = schedule.next_active_slot(0, slot)
            assert nxt >= slot
            assert schedule.is_active(0, nxt)
            assert not any(schedule.is_active(0, s) for s in range(slot, nxt))

    def test_slot_queries_are_one_based(self):
        schedule = WakeupSchedule([0], rate=5, seed=0)
        with pytest.raises(ValueError):
            schedule.is_active(0, 0)
        with pytest.raises(ValueError):
            schedule.next_active_slot(0, 0)


class TestExplicitSchedules:
    def test_explicit_slots_respected(self):
        schedule = WakeupSchedule.from_explicit({0: [2, 12], 1: [4, 14]}, rate=10)
        assert schedule.is_active(0, 2)
        assert schedule.is_active(1, 14)
        assert not schedule.is_active(1, 2)

    def test_pattern_repeats_beyond_horizon(self):
        schedule = WakeupSchedule.from_explicit({0: [3]}, rate=10)
        # Horizon is one cycle (10 slots); the pattern repeats afterwards.
        assert schedule.is_active(0, 13)
        assert schedule.next_active_slot(0, 4) == 13

    def test_mixed_explicit_and_random(self):
        schedule = WakeupSchedule([0, 1], rate=5, seed=1, explicit={0: [2]})
        assert schedule.is_active(0, 2)
        assert len(schedule.active_slots_until(1, 25)) == 5


class TestHelpers:
    def test_awake_nodes_filters(self):
        schedule = WakeupSchedule.from_explicit({0: [1], 1: [2], 2: [1]}, rate=3)
        assert schedule.awake_nodes([0, 1, 2], 1) == frozenset({0, 2})
        assert schedule.awake_nodes([0, 1, 2], 2) == frozenset({1})

    def test_next_awake_slot_over_candidates(self):
        schedule = WakeupSchedule.from_explicit({0: [5], 1: [3]}, rate=10)
        assert schedule.next_awake_slot([0, 1], 1) == 3
        assert schedule.next_awake_slot([0], 1) == 5
        assert schedule.next_awake_slot([], 1) is None

    def test_iter_active_yields_increasing_slots(self):
        schedule = WakeupSchedule([0], rate=6, seed=4)
        iterator = schedule.iter_active(0)
        slots = [next(iterator) for _ in range(5)]
        assert slots == sorted(slots)
        assert all(schedule.is_active(0, s) for s in slots)

    def test_synchronous_degenerate_schedule(self):
        schedule = WakeupSchedule.synchronous([0, 1, 2])
        assert schedule.rate == 1
        for slot in range(1, 10):
            assert schedule.awake_nodes([0, 1, 2], slot) == frozenset({0, 1, 2})

    def test_active_slots_until_zero_horizon(self):
        schedule = WakeupSchedule([0], rate=3, seed=0)
        assert schedule.active_slots_until(0, 0) == []


def _scan_next_active(schedule: WakeupSchedule, node_id: int, slot: int) -> int:
    """Brute force: the first slot >= ``slot`` at which ``is_active`` holds."""
    while not schedule.is_active(node_id, slot):
        slot += 1
    return slot


class TestNextActiveLookup:
    @pytest.mark.parametrize("rate", [1, 3, 10, 50])
    def test_at_and_between_active_slots(self, rate):
        schedule = WakeupSchedule([0], rate=rate, seed=11)
        reference = WakeupSchedule([0], rate=rate, seed=11)
        active = reference.active_slots_until(0, 6 * rate)
        probes = {1, active[2], active[2] + 1, active[3] - 1, active[-1]}
        for slot in sorted(probes):
            assert schedule.next_active_slot(0, slot) == _scan_next_active(
                reference, 0, slot
            )

    @pytest.mark.parametrize("rate", [1, 7, 50])
    def test_far_past_the_generated_cycles(self, rate):
        # A fresh schedule has generated nothing; the first query jumps
        # thousands of cycles ahead.
        far = 5000 * rate + 3
        schedule = WakeupSchedule([0], rate=rate, seed=4)
        expected = _scan_next_active(WakeupSchedule([0], rate=rate, seed=4), 0, far)
        assert schedule.next_active_slot(0, far) == expected
        # Earlier slots are still answered from the same sorted list.
        assert schedule.next_active_slot(0, 2) == _scan_next_active(schedule, 0, 2)

    def test_every_slot_of_a_heterogeneous_schedule(self):
        schedule = WakeupSchedule([0, 1, 2], rate=5, seed=2, rates={1: 2, 2: 9})
        reference = WakeupSchedule([0, 1, 2], rate=5, seed=2, rates={1: 2, 2: 9})
        for node in (0, 1, 2):
            for slot in range(1, 60):
                assert schedule.next_active_slot(node, slot) == _scan_next_active(
                    reference, node, slot
                )


class TestAwakeMask:
    def test_bit_i_is_the_ith_node(self):
        schedule = WakeupSchedule([7, 3, 5], rate=4, seed=1, rates={5: 9})
        for slot in range(1, 40):
            awake = schedule.awake_nodes(schedule.node_ids, slot)
            expected = sum(
                1 << i for i, u in enumerate(schedule.node_ids) if u in awake
            )
            assert schedule.awake_mask(slot) == expected
            assert all(
                schedule.is_active(u, slot) == (u in awake) for u in schedule.node_ids
            )

    def test_explicit_schedule_repeats_in_masks(self):
        schedule = WakeupSchedule.from_explicit({0: [1], 1: [2], 2: [1]}, rate=3)
        assert schedule.awake_mask(1) == 0b101
        assert schedule.awake_mask(2) == 0b010
        assert schedule.awake_mask(3) == 0
        assert schedule.awake_mask(4) == 0b101

    def test_slots_are_one_based(self):
        schedule = WakeupSchedule([0], rate=3, seed=0)
        with pytest.raises(ValueError):
            schedule.awake_mask(0)
