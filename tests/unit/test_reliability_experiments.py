"""Unit tests for the loss axis of the experiment stack (config → CLI)."""

from __future__ import annotations

import pytest

from repro.core.time_counter import SearchConfig
from repro.experiments.cli import main
from repro.experiments.config import SweepConfig
from repro.experiments.figures import RETX_SUFFIX, figure_reliability
from repro.experiments.report import claims_to_text, reliability_claims
from repro.experiments.runner import default_policies, run_sweep


def _quick_config(**overrides) -> SweepConfig:
    base = dict(
        node_counts=(24, 30),
        repetitions=2,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
        source_min_ecc=2,
        source_max_ecc=None,
        area_side=22.0,
        radius=7.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfigLossAxis:
    def test_defaults_are_reliable(self):
        config = SweepConfig()
        assert config.link_model == "reliable"
        assert config.loss_probability == 0.0

    def test_unknown_link_model_rejected(self):
        with pytest.raises(ValueError, match="unknown link model"):
            SweepConfig(link_model="smoke-signals")

    def test_loss_on_reliable_links_rejected(self):
        with pytest.raises(ValueError, match="requires link_model"):
            SweepConfig(loss_probability=0.2)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(link_model="independent-loss", loss_probability=1.5)

    def test_with_loss_round_trips(self):
        config = SweepConfig().with_loss(0.3)
        assert config.link_model == "independent-loss"
        assert config.loss_probability == 0.3
        back = config.with_loss(0.0)
        assert back.link_model == "reliable"
        assert back.loss_probability == 0.0


class TestDefaultPolicies:
    def test_reliable_line_up_keeps_planned_baselines(self):
        config = _quick_config()
        assert "26-approx" in default_policies(config, "sync")
        assert "17-approx" in default_policies(config, "duty")

    def test_lossy_line_up_drops_planned_baselines(self):
        config = _quick_config(link_model="independent-loss", loss_probability=0.1)
        sync = default_policies(config, "sync")
        duty = default_policies(config, "duty")
        assert "26-approx" not in sync and "17-approx" not in duty
        assert {"OPT", "G-OPT", "E-model"} <= set(sync)
        assert {"OPT", "G-OPT", "E-model"} <= set(duty)


class TestLossySweepRecords:
    def test_record_columns_carry_the_loss_axis(self):
        config = _quick_config(link_model="independent-loss", loss_probability=0.2)
        sweep = run_sweep(config, system="sync")
        assert sweep.records
        for record in sweep.records:
            assert record.link_model == "independent-loss"
            assert record.loss_probability == 0.2
            assert record.retransmissions >= 0
        rows = sweep.to_rows()
        assert all(len(row) == len(sweep.ROW_HEADERS) for row in rows)
        assert "link_model" in sweep.ROW_HEADERS
        assert "loss_probability" in sweep.ROW_HEADERS
        assert "retransmissions" in sweep.ROW_HEADERS


class TestFigureReliability:
    def test_series_shapes_and_claims(self):
        config = _quick_config(node_counts=(24,), repetitions=1)
        figure = figure_reliability(
            config, loss_probabilities=(0.0, 0.3), system="sync"
        )
        assert figure.x_values == (0.0, 0.3)
        policies = [n for n in figure.series if not n.endswith(RETX_SUFFIX)]
        assert policies, "no latency series produced"
        for policy in policies:
            assert len(figure.series_for(policy)) == 2
            assert len(figure.series_for(f"{policy}{RETX_SUFFIX}")) == 2
        # The CSV renderer requires equal-length series at every x.
        csv = figure.to_csv()
        assert csv.count("\n") >= 3
        checks = reliability_claims(figure)
        assert len(checks) == 2 * len(policies)
        assert claims_to_text(checks)

    def test_zero_point_matches_reliable_sweep(self):
        """The figure's 0.0 column is the plain reliable sweep, seed-paired."""
        config = _quick_config(node_counts=(24,), repetitions=1)
        figure = figure_reliability(
            config, loss_probabilities=(0.0, 0.2), system="sync"
        )
        line_up = default_policies(config.with_loss(0.2), "sync")
        reliable = run_sweep(config, system="sync", policies=line_up)
        for policy in reliable.policies:
            expected = sum(r.latency for r in reliable.records_for(policy)) / len(
                reliable.records_for(policy)
            )
            assert figure.series_for(policy)[0] == pytest.approx(expected)


class TestCLI:
    def test_paper_targets_reject_loss_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure3", "--loss", "0.1"])
        assert "--loss" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["table2", "--link-model", "independent-loss"])

    def test_sweep_rejects_loss_lists(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--loss", "0.1,0.2"])
        assert "single probability" in capsys.readouterr().err

    def test_lossy_sweep_emits_loss_columns(self, capsys):
        exit_code = main(
            ["sweep", "--nodes", "50", "--repetitions", "1", "--loss", "0.2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "link_model=independent-loss" in out
        assert "loss=0.2" in out
        assert "retransmissions" in out

    def test_reliability_target_accepts_loss_list(self, capsys):
        exit_code = main(
            [
                "reliability",
                "--nodes",
                "50",
                "--repetitions",
                "1",
                "--loss",
                "0.0,0.2",
                "--system",
                "sync",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Reliability" in out
        assert "loss probability" in out

    def test_invalid_loss_value_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--loss", "1.7"])
        assert "must be in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["sweep", "reliability"])
    def test_certain_loss_is_a_usage_error(self, capsys, target):
        """--loss 1.0 can never finish a broadcast: reject it at parse time
        with a one-line usage error, before any simulation starts."""
        import time

        start = time.perf_counter()
        with pytest.raises(SystemExit) as exited:
            main([target, "--loss", "1.0", "--nodes", "50", "--repetitions", "1"])
        assert time.perf_counter() - start < 5.0
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "loss probabilities must be in [0, 1)" in err


class TestScenarioComposition:
    def test_lossy_scenario_sweep_runs(self):
        config = _quick_config(
            node_counts=(24,),
            repetitions=1,
            scenario="ring",
            link_model="independent-loss",
            loss_probability=0.1,
        )
        sweep = run_sweep(config, system="duty", rate=6)
        assert sweep.records
        assert {r.scenario for r in sweep.records} == {"ring"}
