"""Checksummed append-only JSONL: the one log format under the run
ledger (:mod:`repro.obs.ledger`) and the service WAL
(:mod:`repro.service.wal`).

Each line is one JSON object sealed with its own ``crc`` — BLAKE2b-80 of
the record minus the ``crc`` field, over its compact sorted-key
encoding — so a reader validates every line on its own:

* :meth:`ChecksummedLog.read` decodes the file line by line; a line that
  is not UTF-8, not a JSON object, fails the caller's schema check or
  carries the wrong ``crc`` is a **clean skip**, counted in
  :attr:`ChecksummedLog.last_skipped` and as a ``<name>.skip`` metric,
  never an error;
* :meth:`ChecksummedLog.append` opens with ``O_APPEND``, first repairs a
  torn tail (terminates unfinished bytes with a newline, so a crash
  mid-append can never fuse two records), writes the line in two chunks
  with the ``<name>:mid-append`` crash site between them, and
  ``fsync``\\ s the file and then its directory;
* :meth:`ChecksummedLog.write_manifest` atomically rewrites an advisory
  manifest (the log's size plus the caller's fields).  The per-line
  checksums, never the manifest, are the truth.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..obs.tracer import current_tracer
from .atomic import atomic_write_text, fsync_directory

__all__ = [
    "CRC_FIELD",
    "ChecksummedLog",
    "is_sealed",
    "parse_lines",
    "seal",
    "to_line",
]

CRC_FIELD = "crc"


def _record_crc(record: Mapping[str, Any]) -> str:
    body = {k: v for k, v in record.items() if k != CRC_FIELD}
    return hashlib.blake2b(
        json.dumps(
            body, sort_keys=True, default=str, separators=(",", ":")
        ).encode("utf-8"),
        digest_size=10,
    ).hexdigest()


def seal(record: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of ``record`` carrying its ``crc``."""
    sealed = dict(record)
    sealed[CRC_FIELD] = _record_crc(sealed)
    return sealed


def is_sealed(record: Mapping[str, Any]) -> bool:
    """Whether ``record``'s ``crc`` matches its body."""
    return record.get(CRC_FIELD) == _record_crc(record)


def to_line(record: Mapping[str, Any]) -> str:
    """The on-disk line of ``record`` (newline-terminated)."""
    return json.dumps(record, sort_keys=True, default=str) + "\n"


def parse_lines(data: bytes) -> Iterator[dict[str, Any] | None]:
    """Each non-blank line of ``data`` as a JSON object, or ``None`` for
    a line that is not one (undecodable bytes, bad JSON, a non-object).

    Lines are decoded one at a time, so a stray non-UTF-8 byte costs
    only the line it sits on.
    """
    for raw in data.splitlines():
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            yield None
            continue
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            yield None
            continue
        yield obj if isinstance(obj, dict) else None


class ChecksummedLog:
    """One checksummed JSONL file plus its advisory manifest.

    ``name`` prefixes the skip metric (``<name>.skip``) and the crash
    site fired mid-append (``<name>:mid-append``); ``crash_point`` is a
    :class:`~repro.parallel.chaos.CrashPoint`.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        manifest_path: str | os.PathLike,
        *,
        name: str,
        crash_point,
    ) -> None:
        self.path = Path(path)
        self.manifest_path = Path(manifest_path)
        self.name = name
        self.crash_point = crash_point
        #: Invalid lines dropped by the most recent :meth:`read`.
        self.last_skipped = 0

    def read(
        self, valid: Callable[[dict[str, Any]], bool]
    ) -> list[dict[str, Any]]:
        """Every sealed record passing ``valid``, in file order; any
        other non-blank line is a clean skip."""
        try:
            data = self.path.read_bytes()
        except OSError:
            self.last_skipped = 0
            return []
        records: list[dict[str, Any]] = []
        skipped = 0
        for record in parse_lines(data):
            if record is None or not valid(record) or not is_sealed(record):
                skipped += 1
            else:
                records.append(record)
        self.last_skipped = skipped
        if skipped:
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count(f"{self.name}.skip", skipped)
        return records

    def append(self, record: Mapping[str, Any], n: int) -> dict[str, Any]:
        """Seal ``record`` and durably append its line; returns the
        sealed copy.  ``n`` is the number the ``<name>:mid-append``
        crash site matches (the record's seq or lsn)."""
        sealed = seal(record)
        data = to_line(sealed).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            os.fspath(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            if os.fstat(fd).st_size > 0:
                # Repair a torn tail: terminate unfinished bytes so this
                # record starts on a fresh line (the torn line stays a
                # clean skip instead of fusing with the new record).
                with open(self.path, "rb") as check:
                    check.seek(-1, os.SEEK_END)
                    if check.read(1) != b"\n":
                        os.write(fd, b"\n")
            split = max(len(data) // 2, 1)
            os.write(fd, data[:split])
            self.crash_point.fire(f"{self.name}:mid-append", n)
            os.write(fd, data[split:])
            os.fsync(fd)
        finally:
            os.close(fd)
        fsync_directory(self.path.parent)
        return sealed

    def write_manifest(self, version: int, **fields: Any) -> None:
        """Atomically rewrite the advisory manifest (best-effort)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        manifest = {
            "version": version,
            "file": self.path.name,
            "bytes": size,
            **fields,
        }
        try:
            atomic_write_text(
                self.manifest_path,
                json.dumps(manifest, indent=1, sort_keys=True) + "\n",
            )
        except OSError:  # pragma: no cover - advisory only
            pass

    def manifest_status(self) -> str:
        """``ok`` / ``stale`` / ``missing`` — advisory, never load-bearing.

        ``stale`` means the file grew past the manifest (e.g. a crash
        landed between line fsync and manifest rewrite, or another
        writer appended); the per-line checksums still validate every
        record, so a stale manifest costs nothing but this diagnostic.
        """
        try:
            manifest = json.loads(self.manifest_path.read_text("utf-8"))
        except (OSError, ValueError):
            return "missing"
        if not isinstance(manifest, dict):
            return "missing"
        try:
            actual = self.path.stat().st_size
        except OSError:
            actual = 0
        return "ok" if manifest.get("bytes") == actual else "stale"
