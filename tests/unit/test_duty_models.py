"""Heterogeneous duty-cycle models and per-node rates in WakeupSchedule."""

from __future__ import annotations

import pytest

from repro.dutycycle.models import (
    DUTY_MODELS,
    DutyModelSpec,
    assign_rates,
    build_wakeup_schedule,
    duty_model_names,
    get_duty_model,
    list_duty_models,
    register_duty_model,
)
from repro.dutycycle.schedule import WakeupSchedule

NODES = tuple(range(40))


class TestRegistry:
    def test_builtin_models_registered(self):
        assert {"uniform", "two-tier", "zipf"} <= set(duty_model_names())

    def test_specs_have_summaries(self):
        for spec in list_duty_models():
            assert spec.summary

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown duty model"):
            get_duty_model("fibonacci")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unknown parameters"):
            assign_rates("two-tier", NODES, 10, seed=0, tiers=3)


class TestAssignments:
    def test_uniform_assigns_base_rate_everywhere(self):
        rates = assign_rates("uniform", NODES, 10, seed=0)
        assert rates == {u: 10 for u in NODES}

    @pytest.mark.parametrize("model", ["uniform", "two-tier", "zipf"])
    def test_deterministic_under_fixed_seed(self, model):
        assert assign_rates(model, NODES, 10, seed=5) == assign_rates(
            model, NODES, 10, seed=5
        )

    @pytest.mark.parametrize("model", ["two-tier", "zipf"])
    def test_rates_positive_and_heterogeneous(self, model):
        rates = assign_rates(model, NODES, 10, seed=1)
        assert all(r >= 1 for r in rates.values())
        assert len(set(rates.values())) > 1

    def test_two_tier_fraction_and_rates(self):
        rates = assign_rates(
            "two-tier", NODES, 10, seed=3, fast_fraction=0.25, fast_factor=0.2
        )
        fast = [u for u, r in rates.items() if r == 2]
        slow = [u for u, r in rates.items() if r == 10]
        assert len(fast) == round(0.25 * len(NODES))
        assert len(fast) + len(slow) == len(NODES)

    def test_zipf_rates_capped(self):
        rates = assign_rates("zipf", NODES, 10, seed=2, max_factor=3.0)
        assert max(rates.values()) <= 30
        assert min(rates.values()) == 10  # factor 1 keeps the base rate


class TestModelParameters:
    @pytest.mark.parametrize(
        "model, params, message",
        [
            ("two-tier", {"fast_fraction": -0.1}, r"fast_fraction must be in \[0, 1\]"),
            ("two-tier", {"fast_fraction": 1.5}, r"fast_fraction must be in \[0, 1\]"),
            ("two-tier", {"fast_factor": 0.0}, r"fast_factor must be in \(0, 1\]"),
            ("two-tier", {"fast_factor": 1.5}, r"fast_factor must be in \(0, 1\]"),
            ("zipf", {"exponent": 1.0}, "exponent must be > 1"),
            ("zipf", {"max_factor": 0.5}, "max_factor must be >= 1"),
        ],
        ids=["fraction-low", "fraction-high", "factor-zero", "factor-high",
             "zipf-exponent", "zipf-cap"],
    )
    def test_out_of_range_parameters_rejected(self, model, params, message):
        with pytest.raises(ValueError, match=message):
            assign_rates(model, NODES, 10, seed=0, **params)

    @pytest.mark.parametrize("model", ["uniform", "two-tier", "zipf"])
    def test_base_rate_below_one_rejected(self, model):
        with pytest.raises(ValueError, match="base rate must be >= 1, got 0"):
            assign_rates(model, NODES, 0, seed=0)

    @pytest.mark.parametrize(
        "params, expected",
        [
            ({"fast_fraction": 0.0}, {10}),
            ({"fast_fraction": 1.0}, {2}),
            ({"fast_fraction": 0.5, "fast_factor": 1.0}, {10}),
            ({"fast_fraction": 1.0, "fast_factor": 0.01}, {1}),
        ],
        ids=["no-backbone", "all-backbone", "factor-one", "rate-floor"],
    )
    def test_two_tier_edge_parameters(self, params, expected):
        assert set(assign_rates("two-tier", NODES, 10, seed=0, **params).values()) == expected

    def test_node_ids_are_deduplicated(self):
        rates = assign_rates("zipf", [3, 1, 3, 2, 1], 10, seed=0)
        assert sorted(rates) == [1, 2, 3]


class TestModelContract:
    """Third-party models are checked, not trusted."""

    @pytest.fixture
    def register(self, monkeypatch):
        def _register(name, assign):
            monkeypatch.setitem(
                DUTY_MODELS, name, DutyModelSpec(name=name, summary="test", assign=assign)
            )
        return _register

    def test_duplicate_name_rejected(self):
        spec = get_duty_model("uniform")
        with pytest.raises(ValueError, match="'uniform' is already registered"):
            register_duty_model(spec)
        assert DUTY_MODELS["uniform"] is spec

    def test_model_must_rate_every_node(self, register):
        register("partial", lambda ids, base, rng: {u: base for u in ids[1:]})
        with pytest.raises(ValueError, match="'partial' must assign a rate to every node"):
            assign_rates("partial", NODES, 10, seed=0)

    def test_model_must_not_produce_rates_below_one(self, register):
        register("stalled", lambda ids, base, rng: {u: 0 for u in ids})
        with pytest.raises(ValueError, match="'stalled' produced a rate < 1"):
            assign_rates("stalled", NODES, 10, seed=0)

    def test_registered_model_is_usable_by_name(self, register):
        register("halved", lambda ids, base, rng: {u: max(1, base // 2) for u in ids})
        assert "halved" in duty_model_names()
        assert set(assign_rates("halved", NODES, 10, seed=0).values()) == {5}


class TestScheduleRates:
    def test_schedule_exposes_per_node_rates(self):
        rates = {u: (5 if u % 2 else 20) for u in NODES}
        schedule = WakeupSchedule(NODES, 10, seed=0, rates=rates)
        assert schedule.rate == 10
        assert schedule.max_rate == 20
        assert schedule.is_heterogeneous
        assert schedule.rate_of(1) == 5
        assert schedule.rate_of(0) == 20
        assert schedule.rates == rates

    def test_one_wakeup_per_cycle_per_node(self):
        rates = {u: (4 if u < 20 else 12) for u in NODES}
        schedule = WakeupSchedule(NODES, 8, seed=1, rates=rates)
        for u in (0, 5, 25, 39):
            r = schedule.rate_of(u)
            slots = schedule.active_slots_until(u, 10 * r)
            assert len(slots) == 10
            for k, slot in enumerate(slots):
                assert k * r + 1 <= slot <= (k + 1) * r

    def test_rates_for_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown nodes"):
            WakeupSchedule(NODES, 10, rates={999: 5})

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            WakeupSchedule(NODES, 10, rates={0: 0})

    def test_homogeneous_schedule_unchanged_by_rates_api(self):
        plain = WakeupSchedule(NODES, 10, seed=7)
        via_model = build_wakeup_schedule(NODES, 10, seed=7, model="uniform")
        for u in NODES:
            assert plain.active_slots_until(u, 300) == via_model.active_slots_until(u, 300)
        assert plain.max_rate == plain.rate == 10
        assert not plain.is_heterogeneous

    def test_node_stream_independent_of_other_nodes_rates(self):
        # The wake-up stream of a node depends on (seed, node, its rate)
        # only, never on the rest of the assignment.
        a = WakeupSchedule(NODES, 10, seed=3, rates={0: 10, 1: 40})
        b = WakeupSchedule(NODES, 10, seed=3)
        assert a.active_slots_until(0, 400) == b.active_slots_until(0, 400)

    def test_build_wakeup_schedule_model_seed_split(self):
        a = build_wakeup_schedule(NODES, 10, seed=1, model="two-tier", model_seed=2)
        b = build_wakeup_schedule(NODES, 10, seed=1, model="two-tier", model_seed=3)
        assert a.rates != b.rates  # different assignment ...
        shared = [u for u in NODES if a.rate_of(u) == b.rate_of(u)]
        for u in shared[:5]:  # ... but identical streams where rates agree
            assert a.active_slots_until(u, 200) == b.active_slots_until(u, 200)
