"""The write-ahead journal: crash-safe durability for the engine.

Every committed operation of a journaled :class:`TemporalDatabase` is
serialized to an append-only journal file before the caller regains
control.  The journal, together with periodic checkpoints (full
:func:`~repro.database.persistence.database_to_json` snapshots), makes
the database recoverable after a crash: load the last good checkpoint,
replay the journal suffix (:mod:`repro.database.recovery`).

Record framing
--------------
The file starts with the 8-byte magic ``TCWAL001``.  Each record is::

    [4-byte LE payload length][4-byte LE CRC-32 of payload][payload]

where the payload is a UTF-8 JSON object carrying a monotonically
increasing ``lsn`` (log sequence number) plus the operation.  A record
whose length prefix runs past the end of the file, or whose CRC does
not match, marks the *end of the valid prefix*: everything before it
replays, everything from it on is a torn/corrupt tail and is dropped
by recovery (with counts in the :class:`RecoveryReport`).

Record kinds
------------
* data operations, mirrored off the :class:`~repro.database.events.Event`
  stream: ``create``, ``update``, ``migrate``, ``delete``, ``correct``;
* schema operations: ``define_class``, ``add_attribute``,
  ``remove_attribute``, ``drop_class``;
* ``tick`` (clock advancement) and ``genesis`` (database creation);
* transaction markers ``begin``/``commit``: records between a ``begin``
  with no matching ``commit`` are an *uncommitted suffix* and are
  dropped by recovery; :meth:`Journal.abort` physically truncates them.
  Batches (:meth:`Journal.begin_batch`) reuse the same markers, tagged
  ``"batch": true``, so a torn group-commit write is exactly a trailing
  open transaction to recovery: the whole batch drops, never a prefix.

Durability contract
-------------------
Outside a transaction every append is flushed and fsynced before the
operation returns (``sync="always"``); inside a transaction, records
are written eagerly but the fsync barrier is :meth:`commit` -- commit
*is* the flush barrier.  During a batch (group commit) records are
framed into an in-memory buffer and hit the disk as one append + one
fsync at :meth:`commit_batch` -- nothing of the batch is durable, or
even visible to the OS, before that barrier; :meth:`abort_batch` is a
pure buffer discard.  A batch opened inside a transaction writes no
markers of its own (recovery treats a second ``begin`` as a dangling
earlier transaction) and defers its barrier to the enclosing
:meth:`commit`.  Checkpoints are atomic: write to a temp file,
fsync, rename, fsync the directory, and only then truncate the
journal; a crash anywhere in that sequence leaves either the old
checkpoint plus the full journal or the new checkpoint plus a journal
whose already-covered records recovery skips by LSN.

Not journaled (documented limitations, mirroring persistence): method
and c-method *bodies* (Python callables), and c-attribute mutations
performed inside c-method bodies via ``set_c_attr``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro import perf
from repro.database.events import Event, EventKind
from repro.errors import JournalError
from repro.faults.fs import RealFS
from repro.obs import spans as obs

MAGIC = b"TCWAL001"
_HEADER_LEN = 8  # 4-byte length + 4-byte crc32
CHECKPOINT_FORMAT = "t-chimera-checkpoint/1"

_RECORDS = perf.metric("wal.records")
_SYNCS = perf.metric("wal.syncs")
_COMMITS = perf.metric("wal.commits")
_ABORTS = perf.metric("wal.aborts")
_CHECKPOINTS = perf.metric("wal.checkpoints")


# -- framing -------------------------------------------------------------------


def frame_record(payload: dict[str, Any]) -> bytes:
    """Length-prefix and checksum one JSON payload."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return (
        len(body).to_bytes(4, "little")
        + zlib.crc32(body).to_bytes(4, "little")
        + body
    )


@dataclass
class TailStatus:
    """What the frame scanner found at the end of the journal."""

    #: byte offset of the first invalid/incomplete frame (== file size
    #: when the journal is fully valid).
    valid_end: int
    #: bytes beyond the valid prefix (torn or corrupt).
    dropped_bytes: int
    #: why the scan stopped, or None when the whole file parsed.
    error: str | None = None

    @property
    def clean(self) -> bool:
        return self.dropped_bytes == 0 and self.error is None


@dataclass(frozen=True)
class Frame:
    """One decoded journal frame, with its physical position.

    ``raw`` carries the frame exactly as it sits on disk (header +
    payload), so a log shipper can forward frames verbatim and the
    CRC travels with them end-to-end.
    """

    lsn: int
    #: byte offset of the frame header within the stream.
    offset: int
    #: byte offset just past the frame body.
    end: int
    record: dict[str, Any]
    raw: bytes

    @property
    def kind(self) -> str | None:
        return self.record.get("kind")

    @property
    def is_marker(self) -> bool:
        return self.record.get("kind") in ("begin", "commit")


def iter_frame_bytes(data: bytes, offset: int = 0):
    """Yield :class:`Frame` objects from a raw frame run.

    The run starts at *offset* and carries no magic header (shipped
    deliveries, journal suffixes).  Parsing stops at the first torn or
    corrupt frame; the generator's ``StopIteration`` value is the
    :class:`TailStatus` (consumed by :func:`scan_frames`; plain ``for``
    loops just see the valid prefix).  Never raises on corrupt input --
    graceful degradation is the whole point.
    """
    total = len(data)
    while offset < total:
        if offset + _HEADER_LEN > total:
            return TailStatus(
                offset, total - offset, "truncated record header"
            )
        length = int.from_bytes(data[offset:offset + 4], "little")
        checksum = int.from_bytes(data[offset + 4:offset + 8], "little")
        body_start = offset + _HEADER_LEN
        body_end = body_start + length
        if body_end > total:
            return TailStatus(
                offset, total - offset, "truncated record body"
            )
        body = data[body_start:body_end]
        if zlib.crc32(body) != checksum:
            return TailStatus(
                offset, total - offset, "checksum mismatch"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return TailStatus(
                offset, total - offset, "undecodable record payload"
            )
        if not isinstance(payload, dict) or "lsn" not in payload:
            return TailStatus(
                offset, total - offset, "malformed record payload"
            )
        yield Frame(
            lsn=int(payload["lsn"]),
            offset=offset,
            end=body_end,
            record=payload,
            raw=bytes(data[offset:body_end]),
        )
        offset = body_end
    return TailStatus(offset, 0)


def _frames_of(data: bytes):
    """Frame generator over a full journal byte string (magic-checked)."""
    if not data.startswith(MAGIC):
        return TailStatus(0, len(data), "bad or missing magic")
    return (yield from iter_frame_bytes(data, len(MAGIC)))


def iter_frames(
    path: str | os.PathLike[str],
    fs: Any = None,
    start_lsn: int = 0,
) -> Iterator[Frame]:
    """Yield the journal's valid-prefix frames, in LSN order.

    The public frame reader shared by recovery, the LSN-resume scan in
    :meth:`Journal.__init__`, and the replication log shipper
    (:mod:`repro.replication`).  Frames with ``lsn < start_lsn`` are
    skipped; a torn or corrupt tail silently ends the iteration
    (callers that need the :class:`TailStatus` use :func:`scan_frames`).
    """
    fs = fs if fs is not None else RealFS()
    gen = _frames_of(fs.read(str(path)))
    while True:
        try:
            frame = next(gen)
        except StopIteration:
            return
        if frame.lsn >= start_lsn:
            yield frame


def scan_frames(data: bytes) -> tuple[list[dict[str, Any]], TailStatus]:
    """Parse the longest valid prefix of a journal byte string.

    Returns the decoded payloads and a :class:`TailStatus` describing
    where (and why) parsing stopped.  Built on the same frame generator
    as :func:`iter_frames`.
    """
    records: list[dict[str, Any]] = []
    gen = _frames_of(data)
    while True:
        try:
            frame = next(gen)
        except StopIteration as stop:
            return records, stop.value
        records.append(frame.record)


def drop_uncommitted(
    records: list[dict[str, Any]],
) -> tuple[list[dict[str, Any]], int, bool]:
    """Strip a trailing open transaction (``begin`` with no ``commit``).

    Returns the committed records (markers removed), the number of data
    records dropped as uncommitted, and whether the stream ended inside
    an open transaction at all.  The boolean matters independently of
    the count: a bare dangling ``begin`` drops zero data records but
    still leaves an open-transaction marker in the file that callers
    must physically truncate before appending.
    """
    committed: list[dict[str, Any]] = []
    staged: list[dict[str, Any]] | None = None
    for record in records:
        kind = record.get("kind")
        if kind == "begin":
            # A dangling earlier begin (no commit, then more autocommit
            # records) cannot occur in a well-formed journal; be
            # conservative and drop whatever was staged.
            staged = []
        elif kind == "commit":
            if staged is not None:
                committed.extend(staged)
            staged = None
        elif staged is not None:
            staged.append(record)
        else:
            committed.append(record)
    if staged is None:
        return committed, 0, False
    return committed, len(staged), True


# -- the journal ---------------------------------------------------------------


class Journal:
    """An append-only, CRC-framed operation log on an injectable FS.

    ``sync`` policy: ``"always"`` (default) fsyncs every autocommitted
    record; ``"commit"`` fsyncs only at transaction commit and
    checkpoint; ``"never"`` leaves syncing to the OS (benchmarks only).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        fs: Any = None,
        sync: str = "always",
    ) -> None:
        if sync not in ("always", "commit", "never"):
            raise JournalError(f"unknown sync policy {sync!r}")
        self.path = str(path)
        self.directory = os.path.dirname(self.path) or "."
        self.fs = fs if fs is not None else RealFS()
        self.sync = sync
        # Policy checks hoisted out of the per-record hot loop: append
        # runs once per operation during ingest.
        self._sync_on_append = sync == "always"
        self._sync_enabled = sync != "never"
        self._next_lsn = 1
        self._txn_offset: int | None = None
        self._txn_lsn: int | None = None
        self._batch_buffer: bytearray | None = None
        self._batch_lsn: int | None = None
        self._batch_marked = False
        self._batch_records = 0
        if not self.fs.exists(self.path):
            self.fs.write(self.path, MAGIC)
            self._fsync()
        else:
            self._resume_lsn()

    def _resume_lsn(self) -> None:
        """Resume the LSN sequence past every frame on disk.

        Markers count: a batch's trailing ``commit`` has its own LSN,
        and reusing it would give two frames one transaction time (and
        collide with the ``lsn <= checkpoint_lsn`` skip filter during
        recovery)."""
        self._next_lsn = 1
        for frame in iter_frames(self.path, fs=self.fs):
            if frame.lsn >= self._next_lsn:
                self._next_lsn = frame.lsn + 1

    # -- positioning ----------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record."""
        return self._next_lsn - 1

    def set_next_lsn(self, lsn: int) -> None:
        """Position the LSN counter (used after recovery/checkpoint load)."""
        self._next_lsn = int(lsn)

    @property
    def in_transaction(self) -> bool:
        return self._txn_offset is not None

    @property
    def in_batch(self) -> bool:
        return self._batch_buffer is not None

    def is_empty(self) -> bool:
        return self.fs.size(self.path) <= len(MAGIC)

    # -- appending ------------------------------------------------------------

    def append(self, payload: dict[str, Any]) -> int:
        """Append one record; returns its LSN.

        Outside a transaction the record is durable (fsynced) before
        this returns under the ``"always"`` policy; inside one, the
        fsync barrier is :meth:`commit`.  While a batch is open the
        record only lands in the group-commit buffer.
        """
        lsn = self._next_lsn
        record = dict(payload)
        record["lsn"] = lsn
        data = frame_record(record)
        buffer = self._batch_buffer
        if buffer is not None:
            buffer += data
            self._batch_records += 1
        elif obs.is_enabled:
            # Only the actual write is traced -- a batch-buffered append
            # is a memory copy and stays span-free.
            with obs.span(
                "wal.append", record=record.get("kind"), bytes=len(data)
            ):
                self.fs.append(self.path, data)
                if self._txn_offset is None and self._sync_on_append:
                    self._fsync()
        else:
            self.fs.append(self.path, data)
            if self._txn_offset is None and self._sync_on_append:
                self._fsync()
        self._next_lsn = lsn + 1
        _RECORDS.add()
        return lsn

    def _fsync(self) -> None:
        if not self._sync_enabled:
            return
        if obs.is_enabled:
            with obs.span("wal.fsync"):
                self.fs.fsync(self.path)
        else:
            self.fs.fsync(self.path)
        _SYNCS.add()

    # -- transactions ----------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction scope: subsequent records are not durable
        until :meth:`commit`, and :meth:`abort` erases them."""
        if self._txn_offset is not None:
            raise JournalError("journal transaction already open")
        if self._batch_buffer is not None:
            # The begin marker would land in the batch buffer and the
            # transaction offset would ignore the buffered run; the
            # legal nesting is transaction-around-batch, not inside.
            raise JournalError(
                "cannot open a transaction inside a journal batch"
            )
        self._txn_offset = self.fs.size(self.path)
        self._txn_lsn = self._next_lsn
        self.append({"kind": "begin"})

    def commit(self) -> None:
        """Write the commit marker and fsync -- the flush barrier."""
        if self._txn_offset is None:
            raise JournalError("no journal transaction to commit")
        if self._batch_buffer is not None:
            raise JournalError(
                "cannot commit a transaction while a journal batch is open"
            )
        self.append({"kind": "commit"})
        self._txn_offset = None
        self._txn_lsn = None
        self._fsync()
        _COMMITS.add()

    def abort(self) -> None:
        """Physically truncate the uncommitted suffix."""
        if self._txn_offset is None:
            raise JournalError("no journal transaction to abort")
        if self._batch_buffer is not None:
            # Rolling back through a still-open batch: the buffered
            # records never reached the disk, so dropping the buffer
            # and truncating to the transaction offset erases the
            # whole batch along with the rest of the suffix.
            self._discard_batch()
        self.fs.truncate(self.path, self._txn_offset)
        self._next_lsn = self._txn_lsn
        self._txn_offset = None
        self._txn_lsn = None
        _ABORTS.add()

    # -- batches (group commit) ------------------------------------------------

    def begin_batch(self) -> None:
        """Start buffering appends for one group-commit flush.

        Outside a transaction the batch is bracketed with
        ``begin``/``commit`` markers (tagged ``"batch": true``) so that
        a crash during the flush leaves, at worst, a trailing open
        transaction that recovery drops wholesale -- never a partial
        batch.  Inside a transaction no markers are written (recovery
        treats a second ``begin`` as a dangling earlier transaction and
        drops staged records); the enclosing commit/abort is the
        durability boundary.
        """
        if self._batch_buffer is not None:
            raise JournalError("journal batch already open")
        self._batch_lsn = self._next_lsn
        self._batch_buffer = bytearray()
        self._batch_marked = self._txn_offset is None
        if self._batch_marked:
            self.append({"kind": "begin", "batch": True})
        self._batch_records = 0

    def commit_batch(self) -> int:
        """Flush the buffered run: one append, one fsync barrier.

        Returns the number of data records flushed.  An empty batch is
        discarded without touching the disk (the LSN range is reused).
        Inside a transaction the flush is a plain append -- the fsync
        barrier stays the enclosing :meth:`commit`.
        """
        if self._batch_buffer is None:
            raise JournalError("no journal batch to commit")
        count = self._batch_records
        if count == 0:
            self._discard_batch()
            return 0
        if self._batch_marked:
            self.append({"kind": "commit", "batch": True})
        buffer = self._batch_buffer
        self._batch_buffer = None
        self._batch_lsn = None
        self._batch_records = 0
        with obs.span("wal.append", record="batch", records=count):
            self.fs.append(self.path, bytes(buffer))
            if self._txn_offset is None:
                self._fsync()
                _COMMITS.add()
        return count

    def abort_batch(self) -> None:
        """Discard the buffered batch -- nothing reached the disk."""
        if self._batch_buffer is None:
            raise JournalError("no journal batch to abort")
        self._discard_batch()
        _ABORTS.add()

    def _discard_batch(self) -> None:
        self._next_lsn = self._batch_lsn
        self._batch_buffer = None
        self._batch_lsn = None
        self._batch_records = 0

    # -- reading ----------------------------------------------------------------

    def read_records(self) -> tuple[list[dict[str, Any]], TailStatus]:
        """Scan the journal file (longest valid prefix semantics)."""
        return scan_frames(self.fs.read(self.path))

    def truncate_tail(self, valid_end: int) -> None:
        """Cut a corrupt tail off at *valid_end* (post-salvage repair)."""
        self.fs.truncate(self.path, max(valid_end, len(MAGIC)))
        self._fsync()
        self._resume_lsn()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self, db: Any) -> str:
        """Atomically snapshot *db* and truncate the journal.

        Sequence: serialize, write ``checkpoint-<lsn>.json.tmp``,
        fsync, rename into place, fsync the directory, delete older
        checkpoints, truncate the journal.  A crash between any two
        steps is recoverable: the old checkpoint is removed only after
        the new one is durable, and journal records already covered by
        the new checkpoint are skipped by LSN during replay.
        """
        if self._txn_offset is not None:
            raise JournalError(
                "cannot checkpoint inside an open transaction"
            )
        if self._batch_buffer is not None:
            raise JournalError("cannot checkpoint inside an open batch")
        lsn = self.last_lsn
        with obs.span("wal.checkpoint", lsn=lsn):
            return self._write_checkpoint(db, lsn)

    def _write_checkpoint(self, db: Any, lsn: int) -> str:
        from repro.database import segments as seg
        from repro.database.persistence import database_to_json

        # Spill cold history first: the segment file must be durable
        # before any checkpoint document that references it exists.
        # Every already-segmented value is re-spilled (compacted) into
        # this generation's file, so after the new checkpoint lands no
        # live value references an older segment file and the old
        # generation can be deleted.
        writer = (
            seg.SegmentWriter(self.fs, self.directory, lsn)
            if seg.is_enabled and db is not None
            else None
        )
        doc = {
            "format": CHECKPOINT_FORMAT,
            "lsn": lsn,
            "database": json.loads(database_to_json(db, segments=writer)),
        }
        seg_name = writer.finalize() if writer is not None else None
        if seg_name is not None:
            doc["segments"] = seg_name
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
        final = os.path.join(self.directory, checkpoint_name(lsn))
        tmp = final + ".tmp"
        self.fs.write(tmp, data)
        self.fs.fsync(tmp)
        self.fs.replace(tmp, final)
        self.fs.fsync_dir(self.directory)
        for name in list_checkpoints(self.fs, self.directory):
            if checkpoint_lsn(name) < lsn:
                self.fs.remove(os.path.join(self.directory, name))
        if writer is not None:
            # Older generations and stray temporaries are unreferenced
            # now that the new checkpoint is durable.
            for name in seg.list_segments(self.fs, self.directory):
                if name != seg_name:
                    self.fs.remove(os.path.join(self.directory, name))
        self.fs.fsync_dir(self.directory)
        self.fs.truncate(self.path, len(MAGIC))
        self.fs.fsync(self.path)
        if writer is not None:
            writer.apply_swaps(db)
        _CHECKPOINTS.add()
        return final


# -- checkpoint naming ----------------------------------------------------------


def checkpoint_name(lsn: int) -> str:
    return f"checkpoint-{lsn:012d}.json"


def checkpoint_lsn(name: str) -> int:
    """The LSN encoded in a checkpoint file name (-1 when malformed)."""
    if not (name.startswith("checkpoint-") and name.endswith(".json")):
        return -1
    try:
        return int(name[len("checkpoint-"):-len(".json")])
    except ValueError:
        return -1


def list_checkpoints(fs: Any, directory: str) -> list[str]:
    """Checkpoint file names in *directory*, oldest first."""
    try:
        names = fs.listdir(directory)
    except (FileNotFoundError, KeyError):
        return []
    return sorted(
        (n for n in names if checkpoint_lsn(n) >= 0), key=checkpoint_lsn
    )


# -- event -> record encoding ----------------------------------------------------


def record_for_event(event: Event) -> dict[str, Any]:
    """The journal payload replaying one committed data operation."""
    from repro.database.persistence import encode_value

    record: dict[str, Any] = {
        "kind": event.kind.value,
        "at": event.at,
        "oid": encode_value(event.oid),
        "class": event.class_name,
    }
    if event.kind is EventKind.CREATE:
        record["args"] = {
            name: encode_value(value)
            for name, value in (event.payload or {}).items()
        }
    elif event.kind is EventKind.UPDATE:
        record["attribute"] = event.attribute
        record["value"] = encode_value(event.new_value)
    elif event.kind is EventKind.MIGRATE:
        record["from"] = event.from_class
        record["args"] = {
            name: encode_value(value)
            for name, value in (event.payload or {}).items()
        }
    elif event.kind is EventKind.CORRECT:
        record["attribute"] = event.attribute
        record["window"] = list(event.window)
        record["value"] = encode_value(event.new_value)
    elif event.kind is EventKind.DELETE:
        record["force"] = bool(event.payload)
    return record


def iter_data_records(
    records: list[dict[str, Any]],
) -> Iterator[dict[str, Any]]:
    """The records that mutate state (markers filtered out)."""
    for record in records:
        if record.get("kind") not in ("begin", "commit"):
            yield record
