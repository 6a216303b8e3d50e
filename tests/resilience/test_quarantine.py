"""FailureRecord round-trips, the FailureSink every record goes
through, and the FailureLog quarantine manifest."""

import json
import os

import pytest

from repro.resilience import FailureLog, FailureRecord, FailureSink
from repro.trace import Tracer

pytestmark = pytest.mark.faults

KEY = {"core": "ibex", "seed": 3}


def _record(**overrides):
    settings = dict(
        kind="shard",
        unit={"start_id": 20, "count": 10},
        error="ShardExecutionError(...)",
        attempts=3,
    )
    settings.update(overrides)
    return FailureRecord(**settings)


class TestFailureRecord:
    def test_round_trip(self):
        record = _record()
        assert FailureRecord.from_dict(record.to_dict()) == record

    def test_defaults_tolerate_sparse_entries(self):
        record = FailureRecord.from_dict({"kind": "pool"})
        assert record.unit == {}
        assert record.attempts == 1


class TestFailureLog:
    def test_append_and_reload(self, tmp_path):
        path = str(tmp_path / "quarantine.jsonl")
        log = FailureLog(path, KEY)
        log.append_record(_record())
        log.append_record(_record(kind="downgrade", unit={"to": "serial"}))
        assert len(log) == 2

        reloaded = FailureLog(path, KEY)
        assert [record.kind for record in reloaded.records] == ["shard", "downgrade"]
        assert reloaded.records[0].unit == {"start_id": 20, "count": 10}

    def test_header_binds_the_run_key(self, tmp_path):
        path = str(tmp_path / "quarantine.jsonl")
        FailureLog(path, KEY).append_record(_record())
        with open(path) as stream:
            header = json.loads(stream.readline())
        assert header["manifest"] == "failure-log"
        assert header["key"] == KEY
        with pytest.raises(ValueError, match="different run"):
            FailureLog(path, {"core": "cva6", "seed": 3})

    def test_concurrent_processes_append_without_torn_lines(self, tmp_path):
        """The service's worker processes share one failure log: records
        appended from separate processes at once must all land intact."""
        import os
        import subprocess
        import sys

        path = str(tmp_path / "quarantine.jsonl")
        FailureLog(path, KEY, durable=True)  # one creator writes the header
        source_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = (
            "import sys; sys.path.insert(0, %r); "
            "from repro.resilience import FailureLog, FailureRecord; "
            "log = FailureLog(%r, {'core': 'ibex', 'seed': 3}, durable=True); "
            "[log.append_record(FailureRecord(kind='shard', "
            "unit={'start_id': n, 'count': 10, 'worker': sys.argv[1]}, "
            "error='boom' * 200, attempts=1)) for n in range(25)]"
            % (source_root, path)
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, "w%d" % index])
            for index in range(2)
        ]
        assert all(proc.wait() == 0 for proc in procs)

        reloaded = FailureLog(path, KEY)
        assert len(reloaded) == 50
        workers = {record.unit["worker"] for record in reloaded.records}
        assert workers == {"w0", "w1"}
        with open(path) as stream:
            for line in stream:
                json.loads(line)  # every line is intact

    def test_torn_final_line_is_recovered(self, tmp_path):
        path = str(tmp_path / "quarantine.jsonl")
        log = FailureLog(path, KEY)
        log.append_record(_record())
        log.append_record(_record(unit={"start_id": 30, "count": 10}))
        with open(path, "a") as stream:
            stream.write('{"kind": "shard", "unit"')  # killed mid-append
        recovered = FailureLog(path, KEY)
        assert len(recovered) == 2
        recovered.append_record(_record(unit={"start_id": 40, "count": 10}))
        with open(path) as stream:
            lines = stream.read().splitlines()
        assert len(lines) == 4  # header + 3 intact records
        for line in lines:
            json.loads(line)


class TestFailureSink:
    def test_every_record_is_traced_and_handed_on(self):
        events, seen = [], []
        sink = FailureSink(Tracer(None, collector=events), seen.append)
        sink.emit(_record(kind="retry", attempts=1))
        sink.emit(_record(), durable=True)
        assert seen == [_record(kind="retry", attempts=1), _record()]
        assert [(event["kind"], event["failure"]) for event in events] == [
            ("failure", "retry"),
            ("failure", "shard"),
        ]
        assert events[1]["unit"] == {"start_id": 20, "count": 10}

    def test_the_log_is_created_at_the_first_durable_record(self, tmp_path):
        path = str(tmp_path / "quarantine.jsonl")
        sink = FailureSink(log_path=path, log_key=KEY)
        sink.emit(_record(kind="retry", attempts=1))
        assert not os.path.exists(path)
        sink.emit(_record(), durable=True)
        sink.emit(_record(kind="downgrade", unit={"to": "serial"}), durable=True)
        kinds = [record.kind for record in FailureLog(path, KEY).records]
        assert kinds == ["shard", "downgrade"]

    def test_a_foreign_log_is_refused_before_any_record(self, tmp_path):
        path = str(tmp_path / "quarantine.jsonl")
        FailureLog(path, KEY)
        with pytest.raises(ValueError, match="different run"):
            FailureSink(log_path=path, log_key={"core": "cva6", "seed": 3})
