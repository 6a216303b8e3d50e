"""Append-only JSONL checkpoints bound to an identity key.

Both resumable layers of the toolchain checkpoint the same way: an
append-only JSONL file whose first line is a header binding the file
to an identity key, and whose every further line records one completed
unit of work — an evaluation shard
(:class:`repro.evaluation.backends.ShardManifest`) or a campaign cell
(:class:`repro.campaign.CampaignManifest`).  :class:`JsonlCheckpoint`
owns the shared mechanics so the two manifests cannot drift on the
robustness rules:

- a header key mismatch raises — silently mixing two corpora (or two
  campaigns) in one checkpoint file is the stale-cache bug the dataset
  cache key exists to prevent;
- a truncated *final* line (the run died mid-append) is discarded and
  rewritten away, so the next append lands on a clean line boundary;
  corruption anywhere else raises;
- every append is flushed immediately, so a run killed at 95% keeps
  95% of its work.

Subclasses define the entry payload: :meth:`_accept` ingests one
decoded entry during loading and :meth:`_entries` re-emits the loaded
state for rewrites.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


def append_jsonl_line(path: str, entry: dict, durable: bool = False) -> None:
    """Append ``entry`` to ``path`` as one JSONL line, atomically.

    Cooperating appenders — pool workers and the process that forked
    them, sharing one trace or failure log — are serialized by an
    exclusive ``flock`` on the descriptor (released on close, including
    by a killed process), so the tail inspection below never races a
    concurrent writer's in-flight append, and lines never interleave.
    With ``durable=True`` the write is fsynced before the descriptor
    closes: the line survives a machine crash, not just a process
    crash.  (A process killed *inside* the write can still leave a torn
    final line; readers recover via the torn-line rule.)

    If the file does not currently end in a newline — a previous writer
    died mid-append — the new line is prefixed with one, so the torn
    fragment is terminated instead of concatenated onto.  Files written
    before appends were lock-serialized may also carry blank lines from
    terminator races; readers of multi-writer logs skip those.
    """
    data = (json.dumps(entry) + "\n").encode("utf-8")
    descriptor = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
        size = os.fstat(descriptor).st_size
        if size and os.pread(descriptor, 1, size - 1) != b"\n":
            data = b"\n" + data
        while data:
            # A single write in practice; the loop guards the (regular
            # files: never observed) partial-write case.
            written = os.write(descriptor, data)
            data = data[written:]
        if durable:
            os.fsync(descriptor)
    finally:
        os.close(descriptor)


class CheckpointKeyError(ValueError):
    """The checkpoint on disk was written for a different identity key."""


class JsonlCheckpoint:
    """An append-only JSONL checkpoint file with a key-bound header.

    The header line is ``{"manifest": <kind>, "version": <version>,
    "key": <key>}``; subclasses set :attr:`kind` and the error-message
    vocabulary (:attr:`description`, :attr:`subject`, :attr:`hint`,
    :attr:`key_error`).
    """

    #: Discriminator stored in the header (``"evaluation-shards"``...).
    kind = "abstract"
    version = 1
    #: Human phrase for "this file is a ..." error messages.
    description = "checkpoint"
    #: What the key identifies, for mismatch messages ("evaluation").
    subject = "identity"
    #: Recovery hint appended to the key-mismatch message.
    hint = "pass a different path"
    #: Exception class raised on a key mismatch.
    key_error = CheckpointKeyError

    def __init__(self, path: str, key: dict, durable: bool = False):
        self.path = path
        self.key = key
        #: With ``durable=True`` every append (and rewrite) is fsynced
        #: before returning, so acknowledged entries survive a machine
        #: crash.  Off by default, and no checkpoint in this package
        #: turns it on: the hot evaluation path checkpoints thousands
        #: of shards and only needs process-crash safety.
        self.durable = durable
        if os.path.exists(path):
            self._load()
        else:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._rewrite()

    # -- subclass hooks ------------------------------------------------

    def _accept(self, entry: dict) -> None:
        """Ingest one decoded entry line into the loaded state."""
        raise NotImplementedError

    def _entries(self) -> Iterable[dict]:
        """The loaded state as entry dicts, for :meth:`_rewrite`."""
        raise NotImplementedError

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        with open(self.path) as stream:
            content = stream.read()
        lines = content.splitlines()
        if not lines:
            self._rewrite()
            return
        #: A file not ending in a newline died mid-append; its final
        #: line must be dropped *and rewritten away*, otherwise the
        #: next append would concatenate onto the partial bytes and
        #: permanently corrupt the checkpoint.
        torn = not content.endswith("\n")
        header = self._decode(lines[0], line_number=1, final=len(lines) == 1)
        if header is None:
            # A file holding only one truncated line: start over.
            self._rewrite()
            return
        if header.get("manifest") != self.kind or header.get("version") != self.version:
            raise ValueError(
                "%s is not a version-%d %s"
                % (self.path, self.version, self.description)
            )
        if header.get("key") != self.key:
            raise self.key_error(
                "%s %s was written for a different %s (manifest key %r, "
                "current key %r); delete it or %s"
                % (
                    self.description,
                    self.path,
                    self.subject,
                    header.get("key"),
                    self.key,
                    self.hint,
                )
            )
        discarded = False
        for line_number, line in enumerate(lines[1:], start=2):
            entry = self._decode(
                line, line_number=line_number, final=line_number == len(lines)
            )
            if entry is None:
                discarded = True
                continue
            self._accept(entry)
        if discarded or torn:
            self._rewrite()

    def _rewrite(self) -> None:
        """Rewrite the file from the loaded state, dropping torn bytes
        so subsequent appends land on a clean line boundary."""
        with open(self.path, "w") as stream:
            header = {"manifest": self.kind, "version": self.version, "key": self.key}
            stream.write(json.dumps(header) + "\n")
            for entry in self._entries():
                stream.write(json.dumps(entry) + "\n")
            if self.durable:
                stream.flush()
                os.fsync(stream.fileno())

    def _decode(self, line: str, line_number: int, final: bool) -> Optional[dict]:
        """One JSONL line; a corrupt *final* line (killed mid-append)
        decodes to ``None``, corruption elsewhere raises."""
        if final and not line.strip():
            return None
        try:
            return json.loads(line)
        except ValueError:
            if final:
                return None
            raise ValueError(
                "corrupt %s %s: line %d is not valid JSON"
                % (self.description, self.path, line_number)
            )

    def _append(self, entry: dict) -> None:
        """Append one entry line (a single atomic write, fsynced when
        :attr:`durable`)."""
        # Imported at call time: the quarantine FailureLog subclasses
        # this class, so a module-level import would cycle.
        from repro.resilience.injection import maybe_inject

        append_jsonl_line(self.path, entry, durable=self.durable)
        maybe_inject("checkpoint-append", checkpoint=self)
