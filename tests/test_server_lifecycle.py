"""Serving-process lifecycle: no orphans, no hangs, no stranded clients.

A served process forks two kinds of snapshot workers
(:class:`repro.database.parallel.SnapshotPool`): the read pool that
evaluates whole queries, and the scatter-gather pool that inline reads
(here: ``AS OF`` at the head, which the server evaluates in-process)
fan a quantified ``ALWAYS`` scope out to.  These tests kill, stop and
crash real ``repro serve`` processes with both pools forked and assert
that every worker goes with its parent, that SIGTERM exits promptly,
that an embedded :class:`BackgroundServer` stops at once, and that a
client learns of a crash from its socket rather than from a timeout.
Unexpected handler exceptions are counted and kept.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.database import parallel
from repro.database.recovery import open_database
from repro.errors import ServerError
from repro.server import BackgroundServer, ServerClient
from repro.server import server as server_mod

SRC = Path(__file__).resolve().parents[1] / "src"

#: Above ``parallel.MIN_PARALLEL_ITEMS``: the planner scatters a
#: quantified scope over this many objects.
EMPLOYEES = 300

QUANTIFIED = "select employee where salary > 1000 always in [0, 5]"
POINT = "select employee where salary > 1500"


def _build(directory: Path) -> int:
    """A durable employee table with short histories; returns the head
    LSN.  Plain auto-commit ops, so the head is a data record."""
    db, _ = open_database(directory, sync="never")
    db.define_class("employee", attributes=[("salary", "temporal(integer)")])
    oids = [
        db.create_object("employee", {"salary": 1000 + i})
        for i in range(EMPLOYEES)
    ]
    for step in range(5):
        db.tick()
        for oid in oids[step::7]:
            db.update_attribute(oid, "salary", 900 + step * 150)
    return db.journal.last_lsn


def _serve(directory: Path, *options: str, env: dict | None = None):
    """Start ``repro serve`` in its own session; returns (proc, client)."""
    environ = dict(os.environ, **(env or {}))
    environ["PYTHONPATH"] = str(SRC) + os.pathsep + environ.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(directory),
         "--port", "0", "--read-workers", "1", *options],
        env=environ,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 30)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("listening on "):
        _kill_group(proc)
        raise AssertionError(f"server did not start: {line!r}")
    host, port = line.split()[-1].rsplit(":", 1)
    return proc, ServerClient.connect(host, int(port), timeout=10.0)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)
    proc.stdout.close()


def _stat(pid: int) -> list[str] | None:
    """``[state, ppid, ...]`` of *pid*, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rfind(")") + 2:].split()


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def _descendants(root: int) -> list[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None and fields[0] != "Z":
                parents[int(entry)] = int(fields[1])
    found, frontier = [], {root}
    while frontier:
        children = {p for p, pp in parents.items() if pp in frontier}
        found.extend(children)
        frontier = children
    return found


def _engage_both_pools(client: ServerClient, head: int) -> None:
    client.query(POINT)  # MVCC read: forks the read pool
    client.query(QUANTIFIED, as_of=head)  # inline read: scatter pool


def _expected_workers() -> int:
    """One read worker plus one scatter worker per partition (the
    scatter pool needs at least two partitions, i.e. two cores)."""
    partitions = parallel.default_partitions()
    return 1 + (partitions if partitions >= 2 else 0)


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs a /proc filesystem"
)


@needs_proc
def test_sigkill_leaves_no_worker_alive(tmp_path):
    head = _build(tmp_path / "db")
    proc, client = _serve(tmp_path / "db")
    try:
        _engage_both_pools(client, head)
        workers = _descendants(proc.pid)
        assert len(workers) == _expected_workers()
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"workers outlived their parent: "
                f"{[pid for pid in workers if _alive(pid)]}"
            )
            time.sleep(0.02)
    finally:
        client.close_socket()
        _kill_group(proc)  # the group holds any surviving worker too


@needs_proc
def test_sigterm_with_scatter_pool_exits_within_drain(tmp_path):
    drain = 1.0
    _build(tmp_path / "db")
    proc, client = _serve(
        tmp_path / "db", "--no-mvcc", "--drain-timeout", str(drain)
    )
    try:
        client.query(QUANTIFIED)  # lock-serialized inline read: scatter
        workers = _descendants(proc.pid)
        assert len(workers) == _expected_workers() - 1
        client.close()
        started = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=drain + 1.0)
        assert time.monotonic() - started < drain + 1.0
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        client.close_socket()
        _kill_group(proc)


def test_background_server_stops_at_once(tmp_path):
    db, _ = open_database(tmp_path / "db")
    db.define_class("person", attributes=[("name", "string")])
    db.tick()
    db.create_object("person", {"name": "ann"})
    bg = BackgroundServer(db).start()
    with ServerClient.connect(bg.host, bg.port) as client:
        assert client.query("select person")  # forks the read pool
    started = time.monotonic()
    bg.stop()
    assert time.monotonic() - started < 1.0
    assert not bg._thread.is_alive()
    bg.stop()  # idempotent


@needs_proc
def test_client_sees_crash_at_once(tmp_path):
    _build(tmp_path / "db")
    proc, client = _serve(
        tmp_path / "db", env={"REPRO_SERVER_CRASH_BEFORE_WRITES": "1"}
    )
    try:
        # The read forks a worker after this client connected: the
        # worker must not keep the client's socket open past the crash.
        client.query(POINT)
        started = time.monotonic()
        with pytest.raises(ServerError) as info:
            client.execute(("tick", 1))
        elapsed = time.monotonic() - started
        assert info.value.kind == "ConnectionError"
        assert elapsed < 1.0, f"client waited {elapsed:.2f}s"
        assert proc.wait(timeout=10) == 42
    finally:
        client.close_socket()
        _kill_group(proc)


def test_internal_errors_are_counted_and_kept(tmp_path, monkeypatch):
    def broken_begin(session, request_id):
        raise RuntimeError("injected handler failure")

    monkeypatch.setattr(server_mod._Session, "_begin", broken_begin)
    db, _ = open_database(tmp_path / "db")
    before = server_mod.stats()["internal_errors"]
    with BackgroundServer(db) as bg:
        with ServerClient.connect(bg.host, bg.port) as client:
            with pytest.raises(ServerError) as info:
                client.begin()
            assert info.value.kind == "RuntimeError"
            assert client.ping()  # the session survived
            served = client.stats()
    assert served["internal_errors"] == before + 1
    assert "injected handler failure" in served["last_internal_error"]
    assert "broken_begin" in served["last_internal_error"]
