"""The shared checksummed JSONL log and the one crash hook on top of it.

Pins the on-disk format the run ledger and the service WAL share, the
clean skip of undecodable lines in both, and that an armed crash site
fires only inside its own writer.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointManager
from repro.checkpoint.jsonlog import ChecksummedLog, parse_lines
from repro.graph.generators import erdos_renyi
from repro.obs import RunLedger
from repro.obs.ledger import build_record
from repro.parallel import CrashPoint
from repro.service import ServiceWAL
from repro.types import ScanParams

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "bench_results" / "trajectory.jsonl"


def _old_line(record):
    """The line format both logs wrote before they shared a primitive:
    a BLAKE2b-80 ``crc`` over the compact sorted-key body, then the
    sorted-key record."""
    body = {k: v for k, v in record.items() if k != "crc"}
    crc = hashlib.blake2b(
        json.dumps(
            body, sort_keys=True, default=str, separators=(",", ":")
        ).encode("utf-8"),
        digest_size=10,
    ).hexdigest()
    return (
        json.dumps({**body, "crc": crc}, sort_keys=True, default=str) + "\n"
    ).encode("utf-8")


def _record(wall=1.0):
    return build_record(
        "cluster",
        workload={"graph": "g", "eps": 0.5, "mu": 2},
        wall_seconds=wall,
        ts_unix=1_700_000_000,
        extra={"path": Path("/x"), "unicode": "ε≥µ"},
    )


class TestFormat:
    def test_ledger_line_matches_old_recipe(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(_record(1.0))
        sealed = ledger.append(_record(2.0))
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        assert lines[1] == _old_line(sealed)
        assert lines[0] == _old_line(ledger.read()[0])

    def test_wal_line_matches_old_recipe(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        sealed = wal.append(
            "update", old_fp="a", new_fp="b", edits=[[0, 1, 1]], response=None
        )
        assert wal.log_path.read_bytes() == _old_line(sealed)

    def test_committed_trajectory_reads_back(self):
        ledger = RunLedger(TRAJECTORY)
        assert len(ledger.read()) == 1
        assert ledger.last_skipped == 0
        assert ledger.manifest_status() == "ok"

    def test_parse_lines_marks_every_bad_line(self):
        data = b'{"a": 1}\n\n[1]\nnot json\n\xff\xfe\n  {"b": 2}  \r\n'
        assert list(parse_lines(data)) == [
            {"a": 1},
            None,
            None,
            None,
            {"b": 2},
        ]

    def test_manifest_status(self, tmp_path):
        log = ChecksummedLog(
            tmp_path / "x.jsonl",
            tmp_path / "x.manifest.json",
            name="x",
            crash_point=CrashPoint(),
        )
        assert log.manifest_status() == "missing"
        log.append({"v": 1}, 1)
        log.write_manifest(1)
        assert log.manifest_status() == "ok"
        log.append({"v": 2}, 2)
        assert log.manifest_status() == "stale"


def _ledger_log(tmp_path):
    """(log path, reopen, read, append-one) for a one-record ledger."""
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    ledger.append(_record(1.0))
    return (
        ledger.path,
        lambda: RunLedger(ledger.path),
        RunLedger.read,
        lambda log: log.append(_record(2.0)),
    )


def _wal_log(tmp_path):
    """(log path, reopen, read, append-one) for a one-record WAL."""
    wal = ServiceWAL(tmp_path / "wal")
    wal.append("submit", fingerprint="aa")
    return (
        wal.log_path,
        lambda: ServiceWAL(tmp_path / "wal"),
        ServiceWAL.read_records,
        lambda log: log.append("submit", fingerprint="bb"),
    )


@pytest.mark.parametrize(
    "make", [_ledger_log, _wal_log], ids=["ledger", "wal"]
)
def test_undecodable_line_is_one_clean_skip(tmp_path, make):
    path, reopen, read, append_one = make(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    log = reopen()  # the WAL reads its log on open
    assert len(read(log)) == 1
    assert log.last_skipped == 1
    append_one(log)
    log = reopen()
    assert len(read(log)) == 2
    assert log.last_skipped == 1


# -- crash isolation ---------------------------------------------------------


class _Died(BaseException):
    pass


def _die(code):
    raise _Died(code)


def _run_ledger(tmp_path, point):
    RunLedger(tmp_path / "ledger.jsonl", crash_point=point).append(_record())


def _run_wal(tmp_path, point):
    wal = ServiceWAL(tmp_path / "wal", crash_point=point)
    wal.append("submit", fingerprint="aa")
    wal.compact({"graphs": []})


def _run_checkpoint(tmp_path, point):
    mgr = CheckpointManager(tmp_path / "ck", crash_point=point)
    mgr.bind(erdos_renyi(10, 20, seed=1), ScanParams(0.5, 2), algorithm="t")
    mgr.save(arrays={}, meta={}, phase="a")


WRITERS = {
    "ledger": _run_ledger,
    "wal": _run_wal,
    "checkpoint": _run_checkpoint,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("site", CrashPoint.SITES)
def test_armed_site_fires_only_in_its_own_writer(tmp_path, site, writer):
    armed = CrashPoint.from_env({"REPRO_CRASH": f"{site}:1"})
    assert (armed.site, armed.n) == (site, 1)
    point = dataclasses.replace(armed, exit_fn=_die)
    if site.startswith(writer + ":"):
        with pytest.raises(_Died):
            WRITERS[writer](tmp_path, point)
    else:
        WRITERS[writer](tmp_path, point)
