"""CLI surface of the telemetry spine: --trace and 'monitor'."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main
from repro.obs.bus import EVENT_BUS
from repro.obs.events import event_from_json
from repro.obs.sinks import read_trace

#: Smallest real sweep the CLI can run: one node count, one repetition.
_TINY = ["--nodes", "50", "--repetitions", "1"]


@pytest.fixture(autouse=True)
def quiet_bus():
    assert EVENT_BUS.sinks == (), "a previous test leaked a sink"
    yield
    for sink in EVENT_BUS.sinks:
        EVENT_BUS.detach(sink)


class TestParser:
    def test_telemetry_flags_parse(self, tmp_path):
        args = build_parser().parse_args(["sweep", "--trace", str(tmp_path / "t.jsonl")])
        assert args.trace == tmp_path / "t.jsonl"

    def test_monitor_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            [
                "monitor",
                "--store", str(tmp_path),
                "--interval", "0.5",
                "--frames", "3",
            ]
        )
        assert args.target == "monitor"
        assert args.interval == 0.5
        assert args.frames == 3

    def test_monitor_requires_a_feed(self, capsys):
        with pytest.raises(SystemExit):
            main(["monitor"])
        assert "at least one feed" in capsys.readouterr().err


class TestSweepTrace:
    def test_sweep_writes_a_decodable_trace_and_reports_it(self, tmp_path, capsys):
        trace = tmp_path / "sweep.jsonl"
        assert main(["sweep", *_TINY, "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"events -> {trace}" in out
        kinds = [event_from_json(p).kind for p in read_trace(trace)]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert "cell_finished" in kinds
        # The sink is detached again: the bus is quiet after the run.
        assert EVENT_BUS.sinks == ()

    def test_sweep_with_store_traces_the_cache_partition(self, tmp_path, capsys):
        store = tmp_path / "store"
        trace = tmp_path / "sweep.jsonl"
        assert main(["sweep", *_TINY, "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(
            ["sweep", *_TINY, "--store", str(store), "--trace", str(trace)]
        ) == 0
        assert "store: 1 hits / 0 misses" in capsys.readouterr().out
        events = [event_from_json(p) for p in read_trace(trace)]
        started = next(e for e in events if e.kind == "sweep_started")
        assert started.cached_cells == 1 and started.missing_cells == 0
        assert any(e.kind == "store_hit" for e in events)


class TestMonitorTarget:
    def test_monitor_renders_store_and_trace_frames(self, tmp_path, capsys):
        store = tmp_path / "store"
        trace = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", *_TINY, "--store", str(store), "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "monitor",
                "--store", str(store),
                "--trace", str(trace),
                "--frames", "1",
                "--interval", "0",
            ]
        ) == 0
        frame = capsys.readouterr().out
        assert "repro monitor" in frame
        assert "store ·" in frame and "1 cells" in frame
        assert "trace ·" in frame and "1/1 cells" in frame

    def test_undecodable_trace_is_a_one_line_error(self, tmp_path, capsys):
        # A trace from another schema (here: an event kind this version does
        # not know) fails loudly, but as one line naming file, line and kind.
        trace = tmp_path / "old.jsonl"
        trace.write_text(
            '{"event": "cell_finished", "index": 0, "num_nodes": 50, '
            '"repetition": 0, "records": 4, "ts": 1.0}\n'
            '{"event": "bogus_kind", "ts": 2.0}\n'
        )
        assert main(
            ["monitor", "--trace", str(trace), "--frames", "1", "--interval", "0"]
        ) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(
            f"error: {trace}, line 2: unknown event kind 'bogus_kind'"
        )
