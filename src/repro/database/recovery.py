"""Crash recovery: checkpoint + journal replay with graceful degradation.

:func:`recover` rebuilds a :class:`TemporalDatabase` from a durability
directory (``journal.wal`` plus ``checkpoint-<lsn>.json`` files):

1. load the newest *valid* checkpoint (a corrupt newest checkpoint
   falls back to an older surviving one -- the checkpointer deletes old
   snapshots only after the new one is durable);
2. scan the journal's longest valid prefix (CRC-framed records; a torn
   or bit-flipped tail is salvaged, not fatal);
3. drop a trailing uncommitted transaction (``begin`` without
   ``commit``);
4. replay the remaining records with LSN greater than the checkpoint's
   through the ordinary public API, re-validating every operation.

The result is a :class:`RecoveryReport` -- never an exception for
*corruption*; ``report.ok`` is False only when no database can be
produced at all (unrecoverable checkpoint loss: no valid checkpoint
and a journal that does not start at genesis).

:func:`open_database` is the high-level entry point applications use:
it recovers (or creates) the database, repairs a salvaged journal tail,
and re-attaches the journal so subsequent operations keep journaling.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro import perf
from repro.obs import spans as obs
from repro.database.wal import (
    CHECKPOINT_FORMAT,
    Journal,
    TailStatus,
    checkpoint_lsn,
    drop_uncommitted,
    iter_frames,
    list_checkpoints,
    scan_frames,
)
from repro.errors import RecoveryError, TChimeraError
from repro.faults.fs import RealFS
from repro.schema.attribute import Attribute
from repro.schema.method import MethodSignature
from repro.values.oid import OID

JOURNAL_NAME = "journal.wal"

_RECOVERIES = perf.metric("wal.recoveries")
_REPLAYED = perf.metric("wal.records_replayed")
_SALVAGED = perf.metric("wal.records_salvaged")
_DROPPED = perf.metric("wal.records_dropped")


@dataclass
class RecoveryReport:
    """Structured outcome of one recovery attempt."""

    directory: str
    #: False only on unrecoverable checkpoint loss.
    ok: bool = True
    #: checkpoint file the database was loaded from (None: genesis replay).
    checkpoint: str | None = None
    checkpoint_lsn: int = 0
    #: checkpoint files that existed but failed to load.
    corrupt_checkpoints: list[str] = field(default_factory=list)
    #: records parsed out of the journal's valid prefix.
    records_scanned: int = 0
    #: records skipped because the checkpoint already covers them.
    records_skipped: int = 0
    #: records replayed into the recovered database (salvaged).
    records_applied: int = 0
    #: data records dropped as an uncommitted transaction suffix.
    records_dropped_uncommitted: int = 0
    #: the valid prefix ended inside an open transaction (a dangling
    #: ``begin``) -- true even when the transaction held zero data
    #: records, in which case records_dropped_uncommitted is 0.
    uncommitted_txn: bool = False
    #: a committed record failed to replay mid-stream; the database
    #: reflects only the prefix before it.  :func:`open_database`
    #: refuses to resume journaling in this state.
    replay_divergence: bool = False
    #: bytes beyond the journal's longest valid prefix (corrupt tail).
    dropped_bytes: int = 0
    #: byte offset where the valid journal prefix ends.
    valid_end: int = 0
    #: why the journal scan stopped early, when it did.
    tail_error: str | None = None
    #: LSN of the last operation reflected in the recovered database.
    last_lsn: int = 0
    errors: list[str] = field(default_factory=list)
    #: recovered database summary (when ok).
    now: int | None = None
    objects: int | None = None
    classes: int | None = None

    @property
    def salvaged_tail(self) -> bool:
        """True when the journal had a corrupt tail that was cut off."""
        return self.dropped_bytes > 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "directory": self.directory,
            "ok": self.ok,
            "checkpoint": self.checkpoint,
            "checkpoint_lsn": self.checkpoint_lsn,
            "corrupt_checkpoints": list(self.corrupt_checkpoints),
            "records_scanned": self.records_scanned,
            "records_skipped": self.records_skipped,
            "records_applied": self.records_applied,
            "records_dropped_uncommitted":
                self.records_dropped_uncommitted,
            "uncommitted_txn": self.uncommitted_txn,
            "replay_divergence": self.replay_divergence,
            "dropped_bytes": self.dropped_bytes,
            "valid_end": self.valid_end,
            "tail_error": self.tail_error,
            "last_lsn": self.last_lsn,
            "errors": list(self.errors),
            "now": self.now,
            "objects": self.objects,
            "classes": self.classes,
        }

    def render(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"recovery of {self.directory}: "
            + ("OK" if self.ok else "FAILED"),
            f"  checkpoint        {self.checkpoint or '(none: genesis replay)'}"
            + (f" @ lsn {self.checkpoint_lsn}" if self.checkpoint else ""),
            f"  journal records   {self.records_scanned} scanned, "
            f"{self.records_skipped} skipped (covered by checkpoint), "
            f"{self.records_applied} applied",
            f"  uncommitted tail  {self.records_dropped_uncommitted} "
            "record(s) dropped",
            f"  corrupt tail      {self.dropped_bytes} byte(s) dropped"
            + (f" ({self.tail_error})" if self.tail_error else ""),
        ]
        if self.corrupt_checkpoints:
            lines.append(
                "  corrupt ckpts     "
                + ", ".join(self.corrupt_checkpoints)
            )
        if self.replay_divergence:
            lines.append(
                "  replay DIVERGED   database reflects only the "
                f"prefix through lsn {self.last_lsn}"
            )
        if self.ok:
            lines.append(
                f"  database          now={self.now}, "
                f"{self.objects} object(s), {self.classes} class(es), "
                f"last lsn {self.last_lsn}"
            )
        for error in self.errors:
            lines.append(f"  error             {error}")
        return "\n".join(lines)


# -- record replay ---------------------------------------------------------------


def apply_record(db: Any, record: dict[str, Any]) -> Any:
    """Replay one journal record through the public API.

    For ``genesis`` records *db* may be None; the created database is
    returned (callers thread it).  Raises :class:`RecoveryError` when
    the record cannot be replayed (which the recovery loop converts
    into a report error).
    """
    from repro.database.database import TemporalDatabase
    from repro.database.persistence import decode_value

    kind = record.get("kind")
    if kind == "genesis":
        return TemporalDatabase(start_time=record.get("start_time", 0))
    if db is None:
        raise RecoveryError(
            f"record {record.get('lsn')}: no database to replay into "
            "(missing checkpoint and genesis)"
        )
    try:
        if kind == "tick":
            db.tick(record.get("steps", 1))
        elif kind == "define_class":
            db.define_class(
                record["name"],
                attributes=[
                    Attribute(n, t, immutable)
                    for n, t, immutable in record.get("attributes", [])
                ],
                methods=[
                    MethodSignature(
                        n, tuple(inputs), output
                    )
                    for n, inputs, output in record.get("methods", [])
                ],
                parents=record.get("parents", []),
                c_attributes=[
                    Attribute(n, t, immutable)
                    for n, t, immutable in record.get("c_attributes", [])
                ],
                c_attr_values={
                    name: decode_value(value)
                    for name, value in record.get(
                        "c_attr_values", {}
                    ).items()
                },
            )
        elif kind == "add_attribute":
            name, type_text, immutable = record["attribute"]
            db.add_attribute(
                record["class"], Attribute(name, type_text, immutable)
            )
        elif kind == "remove_attribute":
            db.remove_attribute(record["class"], record["attribute"])
        elif kind == "drop_class":
            db.drop_class(record["class"])
        elif kind == "create":
            expected = decode_value(record["oid"])
            minted = db.create_object(
                record["class"],
                {
                    name: decode_value(value)
                    for name, value in record.get("args", {}).items()
                },
            )
            if minted != expected:
                raise RecoveryError(
                    f"replayed create minted {minted!r}, journal "
                    f"recorded {expected!r} (divergent replay)"
                )
        elif kind == "update":
            db.update_attribute(
                decode_value(record["oid"]),
                record["attribute"],
                decode_value(record["value"]),
            )
        elif kind == "migrate":
            db.migrate(
                decode_value(record["oid"]),
                record["class"],
                {
                    name: decode_value(value)
                    for name, value in record.get("args", {}).items()
                },
            )
        elif kind == "delete":
            # Replay with the recorded flag: the original delete
            # succeeded with it, so replay must too, and any semantics
            # attached to non-forced deletes stay faithful.
            db.delete_object(
                decode_value(record["oid"]),
                force=bool(record.get("force", False)),
            )
        elif kind == "correct":
            start, end = record["window"]
            db.correct_attribute(
                decode_value(record["oid"]),
                record["attribute"],
                start,
                end,
                decode_value(record["value"]),
            )
        else:
            raise RecoveryError(
                f"record {record.get('lsn')}: unknown kind {kind!r}"
            )
    except RecoveryError:
        raise
    except TChimeraError as exc:
        raise RecoveryError(
            f"record {record.get('lsn')} ({kind}) failed to replay: "
            f"{exc}"
        ) from exc
    return db


# -- recovery ---------------------------------------------------------------------


def recover(
    directory: str | os.PathLike[str],
    fs: Any = None,
    stop_lsn: int | None = None,
    stop_tick: int | None = None,
) -> tuple[Any, RecoveryReport]:
    """Rebuild the database persisted under *directory*.

    Read-only: neither the journal nor the checkpoints are modified
    (use :func:`open_database` to also repair the tail and resume
    journaling).  Returns ``(db, report)``; ``db`` is None iff
    ``report.ok`` is False.

    *stop_lsn* / *stop_tick* turn the replay into a point-in-time
    restore (:func:`repro.replication.restore_to` is the public entry
    point): replay halts before the first record past the target --
    records with ``lsn > stop_lsn``, or the ``tick`` that would advance
    the clock beyond *stop_tick* -- and checkpoints already past the
    target are skipped (not treated as corrupt) in favour of an older
    surviving one.  A target that predates every retained checkpoint
    and the journal's genesis is unrecoverable (``report.ok`` False).
    """
    from repro.database.persistence import database_from_json

    fs = fs if fs is not None else RealFS()
    directory = str(directory)
    report = RecoveryReport(directory=directory)
    _RECOVERIES.add()

    # 1. Newest valid checkpoint (fall back through corrupt ones, and
    #    past ones newer than the restore target).
    db = None
    for name in reversed(list_checkpoints(fs, directory)):
        path = os.path.join(directory, name)
        if stop_lsn is not None and checkpoint_lsn(name) > stop_lsn:
            continue  # checkpoint is beyond the restore target
        try:
            doc = json.loads(fs.read(path).decode("utf-8"))
            if doc.get("format") != CHECKPOINT_FORMAT:
                raise RecoveryError(
                    f"unsupported checkpoint format {doc.get('format')!r}"
                )
            if (
                stop_tick is not None
                and int(doc["database"].get("now", 0)) > stop_tick
            ):
                continue  # checkpointed clock is beyond the target
            store = None
            seg_name = doc.get("segments")
            if seg_name is not None:
                # The checkpoint references a cold-segment artifact:
                # verify it end to end (magic, footer, every page CRC)
                # before trusting the checkpoint.  A missing or corrupt
                # segment demotes this checkpoint to corrupt and the
                # loop falls back to an older generation.
                from repro.database import segments as seg

                store = seg.SegmentStore(fs, directory)
                store.verify(seg_name)
            db = database_from_json(
                json.dumps(doc["database"]), segments=store
            )
            if seg_name is not None:
                from repro.database import segments as seg

                db.segment_values = seg.count_segment_values(db)
            report.checkpoint = path
            report.checkpoint_lsn = int(doc["lsn"])
            report.last_lsn = report.checkpoint_lsn
            break
        except Exception as exc:
            report.corrupt_checkpoints.append(name)
            report.errors.append(f"checkpoint {name}: {exc}")

    # 2. Journal scan (longest valid prefix).
    journal_path = os.path.join(directory, JOURNAL_NAME)
    if fs.exists(journal_path):
        records, tail = scan_frames(fs.read(journal_path))
    else:
        records, tail = [], TailStatus(0, 0, "journal file missing")
        report.errors.append("journal file missing")
    report.records_scanned = len(records)
    report.valid_end = tail.valid_end
    report.dropped_bytes = tail.dropped_bytes
    report.tail_error = tail.error

    # 3. Trailing uncommitted transaction.
    committed, dropped, open_txn = drop_uncommitted(records)
    report.records_dropped_uncommitted = dropped
    report.uncommitted_txn = open_txn

    # 4. Replay records beyond the checkpoint (up to the restore
    #    target, when one was given).
    with obs.span("recovery.replay", records=len(committed)) as replay_sp:
        for record in committed:
            kind = record.get("kind")
            if kind in ("begin", "commit"):
                continue
            if record["lsn"] <= report.checkpoint_lsn:
                report.records_skipped += 1
                continue
            if stop_lsn is not None and record["lsn"] > stop_lsn:
                break
            if (
                stop_tick is not None
                and kind == "tick"
                and db is not None
                and db.now + record.get("steps", 1) > stop_tick
            ):
                break
            try:
                db = apply_record(db, record)
            except RecoveryError as exc:
                if db is None:
                    report.ok = False
                    report.errors.append(str(exc))
                    _DROPPED.add(
                        report.records_scanned - report.records_applied
                    )
                    return None, report
                # A mid-stream replay failure is state divergence we
                # cannot hide: stop at the last good record (longest
                # valid prefix semantics at the logical level too) and
                # flag it so open_database refuses to resume appends
                # against a journal that no longer matches the
                # recovered state.
                report.replay_divergence = True
                report.errors.append(str(exc))
                break
            report.records_applied += 1
            report.last_lsn = record["lsn"]
        replay_sp.annotate(applied=report.records_applied)

    if db is None:
        # No checkpoint and no genesis record: nothing to rebuild from
        # (or the restore target predates every retained record).
        report.ok = False
        report.errors.append(
            "unrecoverable: no valid checkpoint and the journal has no "
            "genesis record"
            + (
                " at or before the restore target"
                if stop_lsn is not None or stop_tick is not None
                else ""
            )
        )
        return None, report
    if stop_tick is not None and db.now > stop_tick:
        # Even the oldest surviving state is past the requested tick.
        report.ok = False
        report.errors.append(
            f"unrecoverable: oldest retained state is at tick "
            f"{db.now}, past the restore target {stop_tick}"
        )
        return None, report

    _REPLAYED.add(report.records_applied)
    _SALVAGED.add(report.records_applied)
    _DROPPED.add(dropped)
    report.now = db.now
    report.objects = len(db)
    report.classes = len(tuple(db.classes()))
    return db, report


def open_database(
    directory: str | os.PathLike[str],
    fs: Any = None,
    start_time: int = 0,
    sync: str = "always",
) -> tuple[Any, RecoveryReport]:
    """Open (recovering) or create a journaled database in *directory*.

    On an empty directory: creates a fresh database whose journal
    starts with a genesis record.  Otherwise: recovers, truncates any
    corrupt journal tail and any dangling open transaction so appends
    resume from the last committed record, and re-attaches the
    journal.  Raises :class:`RecoveryError` when recovery is
    impossible, or when replay diverged mid-stream (the journal no
    longer matches any recoverable state; it is left untouched for
    inspection via :func:`recover`).
    """
    from repro.database.database import TemporalDatabase

    fs = fs if fs is not None else RealFS()
    directory = str(directory)
    if isinstance(fs, RealFS):
        os.makedirs(directory, exist_ok=True)
    journal_path = os.path.join(directory, JOURNAL_NAME)

    fresh = not fs.exists(journal_path) and not list_checkpoints(
        fs, directory
    )
    if fresh:
        journal = Journal(journal_path, fs=fs, sync=sync)
        db = TemporalDatabase(start_time=start_time, journal=journal)
        report = RecoveryReport(directory=directory)
        report.now = db.now
        report.objects = 0
        report.classes = 0
        return db, report

    db, report = recover(directory, fs=fs)
    if db is None:
        raise RecoveryError(
            "cannot open database: " + "; ".join(report.errors)
        )
    if report.replay_divergence:
        # The recovered database stops at the record before the one
        # that failed to replay, but that record and everything after
        # it are still physically in the journal.  Resuming appends
        # here would mint duplicate LSNs and make the *next* recovery
        # deterministically re-diverge, silently discarding all newer
        # committed work.  Refuse; the journal is left untouched for
        # forensics and read-only :func:`recover` still works.
        raise RecoveryError(
            "cannot re-attach journal: replay diverged from the "
            "on-disk log ("
            + "; ".join(report.errors)
            + ")"
        )
    journal = Journal(journal_path, fs=fs, sync=sync)
    if report.uncommitted_txn:
        # The valid prefix ends inside an open transaction.  Truncate
        # to the end of the last *committed* record -- this also cuts
        # any corrupt tail, since _committed_end only walks the valid
        # prefix.  Keyed on the dangling ``begin`` itself, not on the
        # dropped-record count: a bare ``begin`` with zero data records
        # must still be cut, or the next fsynced autocommit appends
        # land inside a transaction that recovery will drop (or, worse,
        # a later ``commit`` marker resurrects the dead records).
        journal.truncate_tail(_committed_end(fs, journal_path))
    elif report.salvaged_tail:
        journal.truncate_tail(report.valid_end)
    # Past every frame still on disk (commit markers included, which
    # ``last_lsn`` -- the last *data* record -- does not count), and
    # past the checkpoint when the journal was truncated empty.
    journal.set_next_lsn(max(journal.next_lsn, report.last_lsn + 1))
    db.attach_journal(journal, genesis=False)
    return db, report


def _committed_end(fs: Any, journal_path: str) -> int:
    """Byte offset right after the last committed record."""
    from repro.database.wal import MAGIC

    end = len(MAGIC)
    in_open_txn = False
    for frame in iter_frames(journal_path, fs=fs):
        kind = frame.kind
        if kind == "begin" and not in_open_txn:
            in_open_txn = True
        elif kind == "commit":
            in_open_txn = False
        if not in_open_txn:
            end = frame.end
    return end
