"""Unit tests for repro.utils.serialization (cell digests and shard writes)."""

from __future__ import annotations

import json
import os

import pytest

from repro.utils import serialization
from repro.utils.serialization import atomic_write_text, canonical_json


class TestCanonicalJson:
    @pytest.mark.parametrize(
        "left, right",
        [
            ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
            ({"x": {"q": 1, "p": 2}}, {"x": {"p": 2, "q": 1}}),
            ([{"n": 1, "m": [2, 3]}], [{"m": [2, 3], "n": 1}]),
        ],
        ids=["flat", "nested", "inside-list"],
    )
    def test_key_order_does_not_change_the_text(self, left, right):
        assert canonical_json(left) == canonical_json(right)

    def test_no_whitespace_and_sorted_keys(self):
        assert canonical_json({"b": [1, 2], "a": {"d": 0, "c": None}}) == (
            '{"a":{"c":null,"d":0},"b":[1,2]}'
        )

    def test_non_ascii_text_is_escaped(self):
        text = canonical_json({"scenario": "grüne-Wiese"})
        assert text.isascii()
        assert json.loads(text) == {"scenario": "grüne-Wiese"}

    def test_tuples_render_as_lists(self):
        assert canonical_json({"rates": (10, 20)}) == canonical_json({"rates": [10, 20]})

    @pytest.mark.parametrize(
        "value",
        [0.1, 1.0 / 3.0, 1e-300, 5e-324, 1.7976931348623157e308, -0.0, 123456789.123456789],
    )
    def test_floats_round_trip_exactly(self, value):
        decoded = json.loads(canonical_json({"v": value}))["v"]
        assert decoded == value
        assert repr(decoded) == repr(value)  # keeps the sign of -0.0 too

    def test_distinct_values_give_distinct_text(self):
        assert canonical_json({"loss": 0.1}) != canonical_json({"loss": 0.10000000000000002})


def _siblings(path):
    return sorted(p.name for p in path.parent.iterdir())


class TestAtomicWriteText:
    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "shards" / "ab" / "cell.jsonl"
        atomic_write_text(target, "payload\n")
        assert target.read_text(encoding="utf-8") == "payload\n"

    def test_accepts_a_string_path(self, tmp_path):
        atomic_write_text(str(tmp_path / "cell.jsonl"), "x")
        assert (tmp_path / "cell.jsonl").read_text(encoding="utf-8") == "x"

    def test_replaces_an_existing_file_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "cell.jsonl"
        target.write_text("old", encoding="utf-8")
        atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "new"
        assert _siblings(target) == ["cell.jsonl"]

    def test_writes_utf8(self, tmp_path):
        target = tmp_path / "cell.csv"
        atomic_write_text(target, "grüne-Wiese\n")
        assert target.read_bytes() == "grüne-Wiese\n".encode("utf-8")

    def test_failed_replace_keeps_the_old_file_and_removes_the_temp_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "cell.jsonl"
        target.write_text("old", encoding="utf-8")

        def crash(src, dst):
            raise OSError("disk unplugged")

        monkeypatch.setattr(serialization.os, "replace", crash)
        with pytest.raises(OSError, match="disk unplugged"):
            atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "old"
        assert _siblings(target) == ["cell.jsonl"]

    def test_interrupted_write_never_creates_the_target(self, tmp_path, monkeypatch):
        target = tmp_path / "cell.jsonl"

        def interrupt(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(serialization.os, "fsync", interrupt)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, "new")
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_temp_file_is_a_hidden_sibling(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append((os.path.dirname(src), os.path.basename(src)))
            real_replace(src, dst)

        monkeypatch.setattr(serialization.os, "replace", spy)
        atomic_write_text(tmp_path / "cell.jsonl", "x")
        [(directory, name)] = seen
        assert directory == str(tmp_path)
        assert name.startswith(".cell.jsonl.tmp-")
