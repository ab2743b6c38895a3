"""Durable snapshot storage: atomic, versioned, integrity-checked.

A :class:`CheckpointStore` owns one directory of numbered snapshot
files.  Every snapshot is written *write-then-rename* — the payload
lands in a temporary file, is fsync'd, and only then atomically
renamed into place — so a crash, OOM kill, or preemption mid-write can
never leave a half-written file under a snapshot name; the worst case
is a stray ``.tmp-*`` file the next save ignores.

Each snapshot file carries a fixed envelope in front of the pickled
state::

    magic "RPCK" | schema version (u32 BE) | sha256(payload) | payload

The schema version gates *compatibility*: a snapshot written by a
different checkpoint schema is rejected with a pointed
:class:`CheckpointSchemaError` rather than being mis-decoded.  The
content hash gates *integrity*: a truncated or bit-flipped snapshot
fails verification and :meth:`CheckpointStore.load_latest` falls back
to the newest older snapshot that verifies (counted on the
``checkpoint.fallbacks`` telemetry counter), which is why the store
keeps the last ``keep`` snapshots instead of only the newest.

The module also exports :func:`atomic_write_json`, the same
write-then-rename discipline for plain JSON artifacts (benchmark
reports), and :func:`snapshot_count`, a cheap probe used by resume
logic and the parent-kill chaos harness.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import pickle
import re
import struct
import tempfile

from .. import telemetry

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointSchemaError",
    "CheckpointCorruptError",
    "CheckpointStore",
    "atomic_write_json",
    "snapshot_count",
]

logger = logging.getLogger(__name__)

#: Bumped whenever the snapshot *envelope or state layout* changes
#: incompatibly; a mismatch is a pointed error, never a silent decode.
SCHEMA_VERSION = 2

_MAGIC = b"RPCK"
_HEADER = struct.Struct(">4sI32s")  # magic, schema, sha256(payload)

_SNAPSHOT_RE = re.compile(r"^ckpt-(\d{8})\.rpck$")


class CheckpointError(RuntimeError):
    """Base class for checkpoint/resume failures."""


class CheckpointSchemaError(CheckpointError):
    """A snapshot was written by an incompatible checkpoint schema."""


class CheckpointCorruptError(CheckpointError):
    """A snapshot is truncated or fails its integrity hash."""


def _fsync_directory(directory: str) -> None:
    """Flush the directory entry so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a same-directory temp + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_directory(directory)


def atomic_write_json(path: str, obj, indent: int = 2) -> None:
    """Dump ``obj`` as JSON with the write-then-rename discipline.

    A process killed mid-dump leaves the previous file (or no file)
    intact instead of a truncated artifact that poisons downstream
    consumers (CI uploads, report mergers re-reading their own output).
    """
    blob = (json.dumps(obj, indent=indent) + "\n").encode()
    _atomic_write_bytes(path, blob)


def snapshot_count(directory: str) -> int:
    """Number of (renamed, hence complete-envelope) snapshot files in
    ``directory``; 0 when the directory does not exist yet."""
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    return sum(1 for name in names if _SNAPSHOT_RE.match(name))


class CheckpointStore:
    """A directory of atomic, integrity-hashed snapshot files.

    ``keep`` bounds how many snapshots survive pruning (newest kept);
    at least 2 is recommended so a snapshot corrupted *after* rename —
    disk trouble, a torn page — still leaves a valid predecessor for
    :meth:`load_latest` to fall back to.
    """

    def __init__(
        self,
        directory: str,
        keep: int = 3,
        schema: int = SCHEMA_VERSION,
    ):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = os.path.abspath(directory)
        self.keep = keep
        self.schema = schema
        os.makedirs(self.directory, exist_ok=True)
        registry = telemetry.metrics()
        self._writes = registry.counter("checkpoint.writes")
        self._bytes = registry.counter("checkpoint.bytes")
        self._fallbacks = registry.counter("checkpoint.fallbacks")

    # ------------------------------------------------------------------
    def snapshots(self) -> list[str]:
        """Snapshot paths, oldest first (sequence order)."""
        entries = []
        for name in os.listdir(self.directory):
            match = _SNAPSHOT_RE.match(name)
            if match:
                entries.append((int(match.group(1)), name))
        return [
            os.path.join(self.directory, name)
            for _, name in sorted(entries)
        ]

    def _next_sequence(self) -> int:
        latest = 0
        for name in os.listdir(self.directory):
            match = _SNAPSHOT_RE.match(name)
            if match:
                latest = max(latest, int(match.group(1)))
        return latest + 1

    def save(self, state: dict) -> str:
        """Persist ``state`` as the newest snapshot and prune old ones.

        The returned path names a file that is either fully present
        with a verifying hash or absent — never half-written.
        """
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        blob = (
            _HEADER.pack(
                _MAGIC, self.schema, hashlib.sha256(payload).digest()
            )
            + payload
        )
        seq = self._next_sequence()
        path = os.path.join(self.directory, f"ckpt-{seq:08d}.rpck")
        with telemetry.tracer().span(
            "checkpoint.write", category="checkpoint",
            bytes=len(blob), sequence=seq,
        ):
            _atomic_write_bytes(path, blob)
        self._writes.add()
        self._bytes.add(len(blob))
        for old in self.snapshots()[: -self.keep]:
            try:
                os.unlink(old)
            except OSError:
                pass  # already pruned by a concurrent saver
        return path

    # ------------------------------------------------------------------
    def _read(self, path: str) -> dict:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < _HEADER.size:
            raise CheckpointCorruptError(
                f"checkpoint {path} is truncated "
                f"({len(blob)} bytes, header needs {_HEADER.size})"
            )
        magic, schema, digest = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise CheckpointCorruptError(
                f"checkpoint {path} has a foreign header "
                f"(magic {magic!r}); not a repro checkpoint"
            )
        if schema != self.schema:
            raise CheckpointSchemaError(
                f"checkpoint {path} was written with schema version "
                f"{schema}, this build reads version {self.schema}; "
                "re-run the pass from scratch (or load the snapshot "
                "with the matching repro version)"
            )
        payload = blob[_HEADER.size:]
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointCorruptError(
                f"checkpoint {path} fails its integrity hash "
                "(truncated or corrupted payload)"
            )
        try:
            return pickle.loads(payload)
        except Exception as exc:  # corrupt beyond what the hash caught
            raise CheckpointCorruptError(
                f"checkpoint {path} verified but failed to decode: {exc}"
            ) from exc

    def load_latest(self) -> tuple[dict, str] | None:
        """The newest snapshot that verifies, as ``(state, path)``.

        Corrupt or truncated snapshots are skipped newest-to-oldest
        (each skip logged and counted on ``checkpoint.fallbacks``);
        a schema-version mismatch is raised immediately — falling back
        past an incompatible format would silently resume stale state.
        Returns ``None`` when no snapshot verifies (or none exists).
        """
        for path in reversed(self.snapshots()):
            try:
                return self._read(path), path
            except CheckpointCorruptError as exc:
                self._fallbacks.add()
                telemetry.tracer().instant(
                    "checkpoint.fallback", category="checkpoint",
                    path=os.path.basename(path),
                )
                logger.warning("skipping bad checkpoint: %s", exc)
        return None

    def __repr__(self) -> str:
        return (
            f"<CheckpointStore {self.directory!r} "
            f"{len(self.snapshots())} snapshot(s), keep={self.keep}>"
        )
