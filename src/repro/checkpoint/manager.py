"""Durable phase-granular run state with bit-identical resume.

A :class:`CheckpointManager` owns one directory of numbered snapshots::

    <dir>/manifest.json        # version, run identity, epoch index
    <dir>/ckpt-000001.npz      # arrays + embedded JSON meta
    <dir>/ckpt-000002.npz
    ...

Algorithms call :meth:`CheckpointManager.save` at phase barriers (and,
when ``every`` is set, at scheduler task boundaries inside a phase)
with whatever arrays and metadata they need to resume; the manager
handles everything durable: atomic writes (temp file + fsync + rename,
see :mod:`repro.checkpoint.atomic`), a BLAKE2b checksum per snapshot
recorded in the manifest, and monotonically increasing epoch numbers.

Loading follows the same trust model as :mod:`repro.cache.store`: a
corrupt, truncated, or version-mismatched snapshot is a *clean miss* —
the loader walks back to the newest epoch that validates, or returns
``None`` and the run starts from scratch.  The one deliberate
exception: resuming against a *different graph or parameters* raises
:class:`ResumeMismatchError` instead of silently reclustering, because
the caller explicitly asked to continue a run that does not exist.

Bit-identical resume is sound for the same reason the process backend
is (Theorems 4.1–4.5 of the paper): every phase commits deterministic
per-arc/per-vertex facts, so re-running a phase suffix from a snapshot
of the committed prefix reproduces exactly the uninterrupted state.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..obs.tracer import current_tracer
from .atomic import atomic_write_bytes, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.csr import CSRGraph
    from ..parallel.chaos import CrashPoint
    from ..types import ScanParams

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "ResumeMismatchError",
]

#: On-disk snapshot/manifest format version; any other version on load
#: is rejected as a clean miss (never an error).
CHECKPOINT_VERSION = 1

_META_KEY = "__meta__"


class ResumeMismatchError(RuntimeError):
    """``--resume`` pointed at checkpoints from a different run.

    Raised when the checkpoint directory's recorded identity (graph
    fingerprint, parameters, algorithm, exec mode) does not match the
    run being started.  Deliberately *not* a clean miss: silently
    reclustering a different graph under a resume request would be a
    wrong answer dressed as success.
    """


@dataclass(frozen=True)
class Checkpoint:
    """One validated snapshot, ready to restore from."""

    epoch: int
    phase: str
    arrays: Mapping[str, np.ndarray] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)


def _checksum(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=20).hexdigest()


class CheckpointManager:
    """Writes and restores durable run snapshots in one directory.

    Parameters
    ----------
    directory:
        Where snapshots and the manifest live (created on demand).
    every:
        Optional intra-phase cadence: algorithms additionally snapshot
        after every ``every`` scheduler tasks (ppscan/scanxp), processed
        vertices (pscan), or summarization blocks (anyscan).  ``None``
        checkpoints only at phase barriers.
    resume:
        When ``True``, :meth:`load_latest` returns the newest valid
        snapshot; when ``False`` (a fresh run), the manifest's epoch
        index is cleared at :meth:`bind` so stale snapshots can never
        be resumed by accident.
    crash_point:
        A :class:`~repro.parallel.chaos.CrashPoint` fired around every
        save (``checkpoint:before-save`` / ``checkpoint:after-save`` at
        the epoch); defaults to one read from ``REPRO_CRASH``, which is
        how the crash-restart harness kills the real process.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int | None = None,
        resume: bool = False,
        crash_point: "CrashPoint | None" = None,
    ) -> None:
        if every is not None and every < 1:
            raise ValueError("checkpoint every must be >= 1")
        self.directory = Path(directory)
        self.every = every
        self.resume = resume
        if crash_point is None:
            from ..parallel.chaos import CrashPoint

            crash_point = CrashPoint.from_env()
        self.crash_point = crash_point
        self._identity: dict | None = None
        self._epochs: list[dict] = []
        self._epoch = 0

    # -- identity -------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def epoch(self) -> int:
        """The last written (or resumed-past) epoch number."""
        return self._epoch

    def for_subrun(self, name: str) -> "CheckpointManager":
        """A sibling manager rooted at ``<directory>/<name>``.

        Used by multi-run drivers (``compare``) so each constituent run
        owns its own manifest and epoch sequence.
        """
        return CheckpointManager(
            self.directory / name,
            every=self.every,
            resume=self.resume,
            crash_point=self.crash_point,
        )

    def bind(
        self,
        graph: "CSRGraph",
        params: "ScanParams",
        *,
        algorithm: str,
        exec_mode: str = "scalar",
        extra: Mapping[str, object] | None = None,
    ) -> None:
        """Fix this manager to one run identity and open the manifest.

        Must be called once before :meth:`save`/:meth:`load_latest`.
        Under ``resume=True`` a manifest recorded for a different
        identity raises :class:`ResumeMismatchError`; a missing,
        corrupt, or version-mismatched manifest is a clean miss.  Under
        ``resume=False`` any existing epoch index is discarded so a
        fresh run never silently resumes.
        """
        # Imported lazily: cache/store imports repro.checkpoint.atomic,
        # which executes this module via the package __init__.
        from ..cache.store import graph_fingerprint

        identity = {
            "fingerprint": graph_fingerprint(graph),
            "eps": str(params.eps),
            "mu": int(params.mu),
            "algorithm": str(algorithm),
            "exec_mode": str(exec_mode),
        }
        if extra:
            identity["extra"] = json.loads(json.dumps(dict(extra)))
        self._identity = identity
        self._epochs = []
        self._epoch = 0
        manifest = self._read_manifest()
        if not self.resume:
            return
        if manifest is None:
            return
        if manifest.get("identity") != identity:
            raise ResumeMismatchError(
                f"checkpoint directory {self.directory} records a "
                f"different run (graph fingerprint, parameters, "
                f"algorithm, or exec mode changed); refusing to resume. "
                f"Remove the directory or drop --resume to start fresh."
            )
        epochs = manifest.get("epochs")
        if isinstance(epochs, list):
            self._epochs = [e for e in epochs if isinstance(e, dict)]
        if self._epochs:
            self._epoch = max(int(e.get("epoch", 0)) for e in self._epochs)

    def _read_manifest(self) -> dict | None:
        """The manifest as a dict, or ``None`` as a clean miss."""
        try:
            manifest = json.loads(self.manifest_path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            self._reject("manifest")
            return None
        if manifest.get("version") != CHECKPOINT_VERSION:
            self._reject("version")
            return None
        return manifest

    def _require_bound(self) -> dict:
        if self._identity is None:
            raise RuntimeError(
                "CheckpointManager.bind() must be called before use"
            )
        return self._identity

    def _reject(self, reason: str) -> None:
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("checkpoint.reject", 1)
            tracer.count(f"checkpoint.reject.{reason}", 1)

    # -- writing --------------------------------------------------------

    def save(
        self,
        *,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, object],
        phase: str,
    ) -> int:
        """Write one snapshot durably; returns its epoch number.

        ``arrays`` go into an ``.npz`` member each; ``meta`` must be
        JSON-serializable and is embedded in the same ``.npz`` (as a
        uint8-encoded JSON member), so snapshot payload and metadata
        are one atomic unit.  The manifest is rewritten atomically
        afterwards; a crash between the two leaves the new snapshot
        unlisted, which the loader treats as if it never happened.
        """
        identity = self._require_bound()
        epoch = self._epoch + 1
        if _META_KEY in arrays:
            raise ValueError(f"array name {_META_KEY!r} is reserved")
        self.crash_point.fire("checkpoint:before-save", epoch)
        tracer = current_tracer()
        with tracer.span(
            "checkpoint:write", epoch=epoch, phase=phase
        ):
            header = {
                "version": CHECKPOINT_VERSION,
                "identity": identity,
                "epoch": epoch,
                "phase": phase,
                "meta": dict(meta),
            }
            encoded = np.frombuffer(
                json.dumps(header, sort_keys=True).encode("utf-8"),
                dtype=np.uint8,
            )
            buf = io.BytesIO()
            np.savez_compressed(
                buf, **{_META_KEY: encoded}, **dict(arrays)
            )
            payload = buf.getvalue()
            name = f"ckpt-{epoch:06d}.npz"
            atomic_write_bytes(self.directory / name, payload)
            self._epochs.append(
                {
                    "epoch": epoch,
                    "file": name,
                    "phase": phase,
                    "checksum": _checksum(payload),
                    "bytes": len(payload),
                }
            )
            atomic_write_text(
                self.manifest_path,
                json.dumps(
                    {
                        "version": CHECKPOINT_VERSION,
                        "identity": identity,
                        "epochs": self._epochs,
                    },
                    indent=1,
                    sort_keys=True,
                )
                + "\n",
            )
        self._epoch = epoch
        if tracer.enabled:
            tracer.count("checkpoint.write", 1)
        self.crash_point.fire("checkpoint:after-save", epoch)
        return epoch

    # -- loading --------------------------------------------------------

    def load_latest(self) -> Checkpoint | None:
        """The newest snapshot that validates, or ``None``.

        Walks the manifest's epoch index from newest to oldest,
        re-verifying each snapshot's BLAKE2b checksum and embedded
        header; every failure is a clean miss on that epoch (counted
        as ``checkpoint.reject.*``) and the walk continues.  Returns
        ``None`` when ``resume`` is off or nothing validates — epoch
        numbering still continues past the corrupt tail, so a later
        :meth:`save` never reuses a burned epoch number.
        """
        identity = self._require_bound()
        if not self.resume or not self._epochs:
            return None
        tracer = current_tracer()
        for record in sorted(
            self._epochs, key=lambda e: int(e.get("epoch", 0)), reverse=True
        ):
            name = record.get("file")
            if not isinstance(name, str) or Path(name).name != name:
                self._reject("manifest")
                continue
            path = self.directory / name
            with tracer.span(
                "checkpoint:load", epoch=record.get("epoch"), file=name
            ):
                snapshot = self._load_one(path, record, identity)
            if snapshot is not None:
                if tracer.enabled:
                    tracer.count("checkpoint.load", 1)
                    tracer.count("checkpoint.resume", 1)
                return snapshot
        return None

    def _load_one(
        self, path: Path, record: dict, identity: dict
    ) -> Checkpoint | None:
        try:
            payload = path.read_bytes()
        except OSError:
            self._reject("missing")
            return None
        if _checksum(payload) != record.get("checksum"):
            self._reject("checksum")
            return None
        try:
            with np.load(io.BytesIO(payload)) as data:
                members = {key: data[key] for key in data.files}
        except Exception:
            self._reject("payload")
            return None
        encoded = members.pop(_META_KEY, None)
        if encoded is None:
            self._reject("payload")
            return None
        try:
            header = json.loads(
                np.asarray(encoded, dtype=np.uint8).tobytes().decode("utf-8")
            )
        except (ValueError, UnicodeDecodeError):
            self._reject("payload")
            return None
        if not isinstance(header, dict):
            self._reject("payload")
            return None
        if header.get("version") != CHECKPOINT_VERSION:
            self._reject("version")
            return None
        if header.get("identity") != identity:
            self._reject("identity")
            return None
        epoch = header.get("epoch")
        if epoch != record.get("epoch") or not isinstance(epoch, int):
            self._reject("epoch")
            return None
        meta = header.get("meta")
        if not isinstance(meta, dict):
            self._reject("payload")
            return None
        return Checkpoint(
            epoch=epoch,
            phase=str(header.get("phase", "")),
            arrays=members,
            meta=meta,
        )
