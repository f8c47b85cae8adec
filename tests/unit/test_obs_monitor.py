"""The live sweep monitor: frame rendering from store and trace feeds."""

from __future__ import annotations

import io

import pytest

from repro.obs import events
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.monitor import SweepMonitor, render_metrics
from repro.obs.sinks import JsonlTraceSink


def _folded(*folded: events.Event, clock=lambda: 100.0) -> dict:
    sink = MetricsSink(MetricsRegistry(), clock=clock)
    for event in folded:
        sink.consume(event)
    return sink.registry.snapshot()


class TestRenderMetrics:
    def test_sweep_progress_bar(self):
        snapshot = _folded(
            events.SweepStarted("duty", 10, 4, 0, 4),
            events.CellFinished(0, 50, 0, 4),
            events.CellFinished(1, 50, 1, 4),
        )
        [line] = [l for l in render_metrics(snapshot) if "sweep" in l]
        assert "2/4 cells" in line
        assert "[###############---------------]" in line  # half of width 30

    def test_cache_line_shows_hit_rate(self):
        snapshot = _folded(
            events.StoreHit("00" * 32, 4),
            events.StoreMiss("11" * 32),
        )
        [line] = [l for l in render_metrics(snapshot) if "cache" in l]
        assert "1 hits / 1 misses (50% hit rate)" in line

    def test_empty_snapshot_renders_nothing(self):
        assert render_metrics({"counters": {}, "gauges": {}}) == []


class TestSweepMonitor:
    def test_requires_at_least_one_feed(self):
        with pytest.raises(ValueError, match="at least one of"):
            SweepMonitor()

    def test_store_panel(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.config import QUICK_SWEEP
        from repro.experiments.runner import run_sweep
        from repro.store import ExperimentStore

        config = replace(QUICK_SWEEP, node_counts=(50,), repetitions=1)
        with ExperimentStore(tmp_path / "store") as store:
            result = run_sweep(config, system="sync", store=store)
            frame = SweepMonitor(store=store, clock=lambda: 100.0).render()
        assert "store ·" in frame
        assert f"1 cells / {len(result.records)} records" in frame

    def test_trace_panel_folds_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.consume(events.SweepStarted("duty", 10, 2, 0, 2))
            sink.consume(events.CellFinished(0, 50, 0, 4))
        frame = SweepMonitor(trace=path).render()
        assert f"trace · {path}" in frame
        assert "1/2 cells" in frame

    def test_trace_panel_tolerates_an_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.touch()
        assert "(no events yet)" in SweepMonitor(trace=path).render()

    def test_trace_throughput_uses_event_stamps(self, tmp_path):
        # Two cells finishing 20s after the sweep started read as 0.1
        # cells/s, not as a burst folded at the monitor's frozen clock.
        import json

        path = tmp_path / "trace.jsonl"
        lines = [
            {**events.event_to_json(events.SweepStarted("duty", 10, 4, 0, 4)), "ts": 900.0},
            {**events.event_to_json(events.CellFinished(0, 50, 0, 4)), "ts": 910.0},
            {**events.event_to_json(events.CellFinished(1, 50, 1, 4)), "ts": 920.0},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        frame = SweepMonitor(trace=path, clock=lambda: 1000.0).render()
        assert "2/4 cells @ 0.1 cells/s" in frame

    def test_undecodable_trace_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('\n{"event": "cell_finished", "bogus": 1}\n')
        with pytest.raises(ValueError, match=r"line 2: malformed 'cell_finished' event"):
            SweepMonitor(trace=path).render()

    def test_watch_writes_frames_to_non_tty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.consume(events.CellFinished(0, 50, 0, 4))
        out = io.StringIO()
        code = SweepMonitor(trace=path).watch(interval=0.0, frames=2, out=out)
        assert code == 0
        frames = out.getvalue().strip().split("\n\n")
        assert len(frames) == 2
        assert all("trace ·" in frame for frame in frames)
        assert "\x1b" not in out.getvalue()  # no ANSI clear off-TTY
