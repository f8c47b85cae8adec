"""Pluggable record-shard formats.

A :class:`StoreBackend` turns a batch of
:class:`~repro.experiments.runner.RunRecord` objects into shard text and
back, *losslessly*: ``loads(dumps(records)) == records`` bit-for-bit,
including every float (JSON and ``repr`` both round-trip IEEE-754 doubles
exactly).  The store owns layout and atomicity; the backend owns only the
bytes inside one shard, so a new format (parquet, msgpack, ...) plugs in
here and is immediately selectable everywhere — ``ExperimentStore``,
``store export``, the benchmarks.

``"jsonl"`` (the default) writes one canonical-JSON object per record —
self-describing, append-friendly, greppable.  ``"csv"`` writes the same
columns as ``SweepResult.to_rows`` exports but value-exact (no display
rounding), which is what ``store export --format csv`` emits.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import TYPE_CHECKING, Sequence

from repro.utils.serialization import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.experiments.runner import RunRecord

__all__ = [
    "StoreBackend",
    "JsonlBackend",
    "CsvBackend",
    "STORE_BACKENDS",
    "store_backend_names",
    "get_store_backend",
]

#: Scalar coercions for the CSV backend, keyed by the record field
#: annotation (the dataclass stores them as strings under
#: ``from __future__ import annotations``).
_FIELD_COERCIONS = {"int": int, "float": float, "str": str}


def _record_type() -> type:
    # Imported lazily: repro.experiments.runner imports this package for the
    # store integration, so a module-level import here would be circular.
    from repro.experiments.runner import RunRecord

    return RunRecord


def _record_fields() -> tuple[dataclasses.Field, ...]:
    return dataclasses.fields(_record_type())


class StoreBackend:
    """One shard format: lossless records <-> text.

    Subclasses set ``name`` (the registry key and CLI value) and
    ``extension`` (the shard filename suffix) and implement
    :meth:`dumps` / :meth:`loads`.
    """

    name: str
    extension: str

    def dumps(self, records: Sequence["RunRecord"]) -> str:
        """Serialise ``records`` to shard text."""
        raise NotImplementedError

    def loads(self, text: str) -> list["RunRecord"]:
        """Parse shard text back into records (inverse of :meth:`dumps`)."""
        raise NotImplementedError


class JsonlBackend(StoreBackend):
    """One canonical-JSON object per line, one line per record."""

    name = "jsonl"
    extension = ".jsonl"

    def dumps(self, records: Sequence["RunRecord"]) -> str:
        lines = [canonical_json(dataclasses.asdict(record)) for record in records]
        return "\n".join(lines) + ("\n" if lines else "")

    def loads(self, text: str) -> list["RunRecord"]:
        record_cls = _record_type()
        return [
            record_cls(**json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]


class CsvBackend(StoreBackend):
    """Header row + one value-exact CSV row per record.

    Unlike ``SweepResult.to_rows`` (which rounds floats for display), every
    float is written with full ``repr`` precision so the round trip is
    bit-identical.
    """

    name = "csv"
    extension = ".csv"

    def dumps(self, records: Sequence["RunRecord"]) -> str:
        fields = _record_fields()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([field.name for field in fields])
        for record in records:
            writer.writerow(
                [
                    repr(value) if isinstance(value, float) else value
                    for value in (getattr(record, field.name) for field in fields)
                ]
            )
        return buffer.getvalue()

    def loads(self, text: str) -> list["RunRecord"]:
        record_cls = _record_type()
        coercions = {
            field.name: _FIELD_COERCIONS[str(field.type)]
            for field in _record_fields()
        }
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            return []
        records = []
        for row in reader:
            if not row:
                continue
            records.append(
                record_cls(
                    **{name: coercions[name](raw) for name, raw in zip(header, row)}
                )
            )
        return records


#: The single registry of shard backends (``name -> backend instance``);
#: every store consumer resolves formats through it.
STORE_BACKENDS: dict[str, StoreBackend] = {
    backend.name: backend for backend in (JsonlBackend(), CsvBackend())
}


def store_backend_names() -> list[str]:
    """Registered shard-format names, sorted (CLI choices)."""
    return sorted(STORE_BACKENDS)


def get_store_backend(name: str) -> StoreBackend:
    """Resolve a backend by name with the registry's error message."""
    try:
        return STORE_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown store backend {name!r}; expected one of "
            f"{store_backend_names()}"
        ) from None
