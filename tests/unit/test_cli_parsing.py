"""Unit tests for the CLI's argparse value types (repro.experiments.cli).

Each type turns one flag's text into a value or raises
``argparse.ArgumentTypeError``, which argparse reports as a one-line usage
error (exit 2) instead of a traceback.
"""

from __future__ import annotations

import argparse

import pytest

from repro.experiments.cli import (
    _parse_loss,
    _parse_node_counts,
    _parse_rate,
    _parse_sources,
    build_parser,
)


class TestNodeCounts:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("50", (50,)),
            ("50,100,150", (50, 100, 150)),
            ("50, 100", (50, 100)),
            ("50,100,", (50, 100)),
            ("100,50", (100, 50)),
        ],
    )
    def test_parses_comma_separated_counts_in_given_order(self, text, expected):
        assert _parse_node_counts(text) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "at least one node count"),
            (" , ", "at least one node count"),
            ("1.5", "comma-separated integers"),
            ("fifty", "comma-separated integers"),
            ("50;100", "comma-separated integers"),
        ],
    )
    def test_rejects_malformed_text(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_node_counts(text)


class TestLoss:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0", (0.0,)),
            ("0.1", (0.1,)),
            ("0.0,0.1,0.3", (0.0, 0.1, 0.3)),
            ("0.999", (0.999,)),
            ("1e-3", (0.001,)),
        ],
    )
    def test_parses_probabilities(self, text, expected):
        assert _parse_loss(text) == expected

    @pytest.mark.parametrize("text", ["1", "1.0", "-0.1", "0.1,1.5", "nan"])
    def test_rejects_values_outside_the_half_open_unit_interval(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match=r"must be in \[0, 1\)"):
            _parse_loss(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "at least one loss probability"),
            ("high", "comma-separated probabilities"),
            ("0.1;0.2", "comma-separated probabilities"),
        ],
    )
    def test_rejects_malformed_text(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_loss(text)


class TestSources:
    @pytest.mark.parametrize(
        "text, expected",
        [("1", (1,)), ("4", (4,)), ("1,2,4", (1, 2, 4)), ("1, 8,", (1, 8))],
    )
    def test_parses_source_counts(self, text, expected):
        assert _parse_sources(text) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0", "source counts must be >= 1: \\[0\\]"),
            ("-2", "source counts must be >= 1: \\[-2\\]"),
            ("1,0,4", "source counts must be >= 1: \\[0\\]"),
            (",", "at least one source count"),
            ("two", "comma-separated integers"),
        ],
    )
    def test_rejects_bad_counts(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_sources(text)


class TestRate:
    @pytest.mark.parametrize("text, expected", [("1", 1), ("10", 10), ("100", 100)])
    def test_parses_whole_slot_counts(self, text, expected):
        assert _parse_rate(text) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0", "the cycle rate must be >= 1, got 0"),
            ("-3", "the cycle rate must be >= 1, got -3"),
            ("1.5", "expected an integer"),
            ("ten", "expected an integer"),
            ("", "expected an integer"),
        ],
    )
    def test_rejects_non_positive_or_non_integer_rates(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_rate(text)


class TestParserWiring:
    """The types above are the ones the parser applies to each flag."""

    @pytest.mark.parametrize(
        "argv, attribute, expected",
        [
            (["sweep", "--nodes", "24,32"], "nodes", (24, 32)),
            (["reliability", "--loss", "0.0,0.2"], "loss", (0.0, 0.2)),
            (["multisource", "--sources", "1,3"], "sources", (1, 3)),
            (["sweep", "--rate", "7"], "rate", 7),
        ],
    )
    def test_flags_are_parsed_by_their_types(self, argv, attribute, expected):
        assert getattr(build_parser().parse_args(argv), attribute) == expected

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["sweep", "--nodes", "1.5"], "argument --nodes: expected comma-separated integers"),
            (["sweep", "--loss", "-0.5"], "argument --loss: loss probabilities must be in [0, 1)"),
            (["multisource", "--sources", "0"], "argument --sources: source counts must be >= 1"),
            (["sweep", "--rate", "ten"], "argument --rate: expected an integer"),
        ],
    )
    def test_bad_values_name_the_flag_in_one_usage_line(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert fragment in errors[0]
