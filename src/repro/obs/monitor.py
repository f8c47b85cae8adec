"""The live sweep monitor behind ``repro monitor``.

:class:`SweepMonitor` assembles one text *frame* per refresh from up to
two independent feeds — either or both, so the same monitor watches a
local sweep or a store being filled by another process:

* a **store** (``--store``): cached cell / record counts straight from the
  sqlite index (cheap: no shard reads);
* a **jsonl trace** (``--trace``): the :class:`~repro.obs.sinks.JsonlTraceSink`
  file a live run is appending to, re-folded through
  :class:`~repro.obs.metrics.MetricsSink` on every refresh (the file is the
  transport, so the watched process needs no server).

A trace line the monitor cannot decode (an event kind or field this
version does not know) fails the frame with a :class:`ValueError` naming
the file and the line, rather than being skipped.

Frames are plain text (one ``render()`` string); :meth:`SweepMonitor.watch`
redraws with an ANSI home+clear prefix so a terminal shows a refreshing
dashboard while pipes and CI logs just see frames separated by blank lines.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TextIO

from repro.obs.events import event_from_json
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.sinks import _numbered_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import ExperimentStore

__all__ = ["SweepMonitor", "render_metrics"]

_CLEAR = "\x1b[H\x1b[2J"


def _fmt_rate(value: float) -> str:
    return f"{value:.1f}" if value < 100 else f"{value:.0f}"


def render_metrics(snapshot: dict) -> list[str]:
    """Render a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as frame lines."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    lines: list[str] = []

    total = gauges.get("sweep.total_cells")
    finished = counters.get("sweep.cells_finished", 0)
    if total:
        width = 30
        filled = int(width * min(finished / total, 1.0))
        bar = "#" * filled + "-" * (width - filled)
        rate = gauges.get("sweep.cells_per_s", 0.0)
        lines.append(
            f"  sweep     [{bar}] {int(finished)}/{int(total)} cells"
            + (f" @ {_fmt_rate(rate)} cells/s" if rate else "")
        )
    elif finished:
        lines.append(f"  sweep     {int(finished)} cells finished")

    hits = counters.get("store.hits", 0)
    misses = counters.get("store.misses", 0)
    if hits or misses:
        rate = gauges.get("store.hit_rate", 0.0)
        lines.append(
            f"  cache     {int(hits)} hits / {int(misses)} misses "
            f"({100.0 * rate:.0f}% hit rate)"
        )

    return lines


class SweepMonitor:
    """Render a refreshing dashboard from a store and/or a trace file.

    Parameters
    ----------
    store:
        An open :class:`~repro.store.store.ExperimentStore` to summarise
        (cached cells/records), or ``None``.
    trace:
        Path of a live :class:`~repro.obs.sinks.JsonlTraceSink` file to
        re-fold each refresh, or ``None``.
    clock:
        Injectable wall clock (tests freeze it).
    """

    def __init__(
        self,
        *,
        store: "ExperimentStore | None" = None,
        trace: Path | str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if store is None and trace is None:
            raise ValueError("monitor needs at least one of store or trace")
        self.store = store
        self.trace = Path(trace) if trace is not None else None
        self._clock = clock

    # -- feeds -------------------------------------------------------------

    def _trace_snapshot(self) -> tuple[dict, int]:
        """Re-fold the whole trace into a fresh registry (events, count).

        A full re-read per frame is deliberate: traces are append-only and
        monitor refreshes are ~1 Hz, so re-folding keeps the monitor
        stateless across torn tails and trace truncation/rotation.
        """
        registry = MetricsRegistry()
        # ``sweep.cells_per_s`` must be measured against the *event* stamps,
        # not fold time — replaying a whole sweep at fold time would divide
        # by almost no elapsed time.  The sink's clock is patched per event.
        sink = MetricsSink(registry, clock=self._clock)
        seen = 0
        for line, payload in _numbered_trace(self.trace):
            stamp = payload.get("ts")
            if stamp is not None:
                sink._clock = lambda s=stamp: s
            try:
                event = event_from_json(payload)
            except ValueError as error:
                raise ValueError(f"{self.trace}, line {line}: {error}") from None
            sink.consume(event)
            seen += 1
        sink._clock = self._clock
        return registry.snapshot(), seen

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """One dashboard frame as plain text."""
        lines = [f"repro monitor · {time.strftime('%H:%M:%S', time.localtime(self._clock()))}"]

        if self.store is not None:
            stats = self.store.stats()
            lines.append(f"store · {self.store.root}")
            lines.append(
                f"  cached    {stats.cells} cells / {stats.records} records "
                f"({stats.shard_bytes / 1024:.1f} KiB in shards)"
            )

        if self.trace is not None:
            snapshot, seen = self._trace_snapshot()
            lines.append(f"trace · {self.trace}")
            if seen:
                lines.extend(
                    render_metrics(snapshot) or ["  (no renderable metrics yet)"]
                )
            else:
                lines.append("  (no events yet)")

        return "\n".join(lines)

    def watch(
        self,
        *,
        interval: float = 1.0,
        frames: int | None = None,
        out: TextIO | None = None,
    ) -> int:
        """Redraw until interrupted (or for ``frames`` refreshes); returns 0.

        On a TTY each frame is preceded by an ANSI home+clear so the view
        refreshes in place; elsewhere frames separate with a blank line so
        logs stay readable.
        """
        out = out if out is not None else sys.stdout
        tty = getattr(out, "isatty", lambda: False)()
        drawn = 0
        try:
            while frames is None or drawn < frames:
                frame = self.render()
                if tty:
                    out.write(_CLEAR + frame + "\n")
                else:
                    out.write(frame + "\n\n")
                out.flush()
                drawn += 1
                if frames is not None and drawn >= frames:
                    break
                time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        return 0
