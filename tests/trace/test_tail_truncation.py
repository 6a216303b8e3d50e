"""TraceTail survives its file being truncated or replaced.

A restarted run rewriting its trace path shrinks the file under a
live ``watch``; a tail stuck at its stale offset would read garbage
from mid-record (or nothing ever again).  The tail must detect the
shrink, reset, and re-read from the top.  A replacement that is not
shorter must be detected too: by the file's identity when it is a new
file, by its first line when it was rewritten in place.
"""

import json
import os

import pytest

from repro.trace.watch import TraceTail

pytestmark = pytest.mark.trace


def _write(path, records, mode="w"):
    with open(path, mode) as stream:
        for record in records:
            stream.write(json.dumps(record) + "\n")


def _record(index, **fields):
    record = {"ts": 100.0 + index, "pid": 1, "kind": "event", "n": index}
    record.update(fields)
    return record


class TestTruncation:
    def test_shrunk_file_is_reread_from_the_top(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _write(path, [_record(0), _record(1), _record(2)])
        tail = TraceTail(path)
        assert [record["n"] for record in tail.poll()] == [0, 1, 2]
        # A restarted run replaces the file with a shorter one.
        _write(path, [_record(10)])
        assert [record["n"] for record in tail.poll()] == [10]
        # Appends after the reset stream incrementally again.
        _write(path, [_record(11)], mode="a")
        assert [record["n"] for record in tail.poll()] == [11]

    def test_same_size_appends_still_stream(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _write(path, [_record(0)])
        tail = TraceTail(path)
        assert len(tail.poll()) == 1
        assert tail.poll() == []
        _write(path, [_record(1)], mode="a")
        assert [record["n"] for record in tail.poll()] == [1]

    def test_torn_tail_still_buffers_across_truncation_reset(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _write(path, [_record(0), _record(1)])
        tail = TraceTail(path)
        tail.poll()
        # Replacement file ends mid-record: the fragment must be held,
        # not glued to the pre-truncation buffer.
        with open(path, "w") as stream:
            stream.write(json.dumps(_record(20)) + "\n")
            stream.write('{"ts": 130.0, "pid": 1, "ki')
        assert [record["n"] for record in tail.poll()] == [20]
        with open(path, "a") as stream:
            stream.write('nd": "event", "n": 21}\n')
        assert [record["n"] for record in tail.poll()] == [21]

    def test_replacement_by_a_longer_file_is_reread_from_the_top(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _write(path, [_record(0), _record(1), _record(2)])
        tail = TraceTail(path)
        assert [record["n"] for record in tail.poll()] == [0, 1, 2]
        replacement = str(tmp_path / "trace.jsonl.new")
        _write(replacement, [_record(n) for n in range(10, 15)])
        os.replace(replacement, path)
        assert [record["n"] for record in tail.poll()] == [10, 11, 12, 13, 14]

    def test_longer_in_place_rewrite_is_reread_from_the_top(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _write(path, [_record(0), _record(1), _record(2)])
        tail = TraceTail(path)
        assert [record["n"] for record in tail.poll()] == [0, 1, 2]
        _write(path, [_record(n) for n in range(20, 26)])
        assert [record["n"] for record in tail.poll()] == list(range(20, 26))
        _write(path, [_record(26)], mode="a")
        assert [record["n"] for record in tail.poll()] == [26]
