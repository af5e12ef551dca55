"""serve-point and serve-mixed: closed-loop clients against ``repro serve``.

The server is the stock ``repro serve`` (MVCC on, ``--sync always``,
default read workers), started through :mod:`perfbench.launcher` in its
own process group on a data set that fits every cache.  Each session is
one thread with one :class:`~repro.server.client.ServerClient`; it
sends its next request only after the previous reply.

* ``serve-point``: one session, reads only -- 70% lookups by ``name``,
  20% ``dept`` probes with a salary-range residual, 10% ``salary = X
  at t``.
* ``serve-mixed``: two sessions, 80% reads (same mix) and 20%
  acknowledged writes: salary updates, and an occasional ``tick``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro import perf
from repro.bitemporal import asof as asof_mod
from repro.database import pagecache, parallel
from repro.database.recovery import open_database
from repro.errors import ServerError
from repro.server.client import ServerClient

from perfbench import layers
from perfbench.common import (
    ROOT,
    BenchError,
    Tracer,
    counter_delta,
    group_members,
    kill_group,
    median,
    percentile,
    ratio,
    reap_children,
)
from perfbench.model import SALARY_HI, SALARY_LO, generate_population, ingest

EMPLOYEES = 1200
TICKS = 20
DEPTS = 12
UPDATE_SHARE = 0.6
SETUP_REPS = 3
#: Requests each session sends before the measured window opens.
WARMUP_OPS = 30
SESSIONS = {"serve-point": 1, "serve-mixed": 2}
WRITE_SHARE = {"serve-point": 0.0, "serve-mixed": 0.2}
#: Writes come in runs of this many at the end of each block of
#: requests (a block is ``WRITE_RUN / write share`` requests long).
WRITE_RUN = 4
#: Share of writes that advance the clock instead of updating a salary.
TICK_SHARE = 0.05
#: How long a session waits at a rendezvous for its peer.
RENDEZVOUS_TIMEOUT_S = 60.0
#: One block of reads per workload, shuffled per block, so every run
#: gets the same mix: name lookups, dept probes, ``salary = X at t``.
#: serve-mixed has fewer of the slow dept probes: with one read worker
#: each read also waits for the other session's, and at 20% probes the
#: read p50 fell on the edge between fast pairs and the rest.
READ_BLOCK = {
    "serve-point": ("name",) * 7 + ("dept",) * 2 + ("salary_at",),
    "serve-mixed": ("name",) * 8 + ("dept",) + ("salary_at",),
}
#: Reads re-timed in-process by the traced run (a seeded sample).
RETIME_SAMPLE = 600
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 15.0
LAUNCHER = ROOT / "perfbench" / "launcher.py"


class Server:
    """One ``repro serve`` process group, started through the launcher."""

    def __init__(self, directory: str) -> None:
        self.stats_path = directory + ".stats.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.stats_path + ".log", "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), self.stats_path,
                 "serve", directory, "--port", "0"],
                env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True,
            )
        self.pgid = self.proc.pid
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def connect(self) -> ServerClient:
        return ServerClient.connect(self.host, self.port, timeout=60.0)

    def stop(self) -> tuple[dict | None, int]:
        """SIGTERM and wait for the drain, then SIGKILL the process
        group.  Returns the launcher's counter dump and how many
        processes of the group outlived the server."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        leaked = len(group_members(self.pgid))
        kill_group(self.pgid)
        self.proc.wait()
        self.proc.stdout.close()
        try:
            with open(self.stats_path) as handle:
                return json.load(handle), leaked
        except (OSError, ValueError):
            return None, leaked


def _setup_once(directory: str, seed: int):
    model = generate_population(seed, EMPLOYEES, TICKS, UPDATE_SHARE, DEPTS)
    gc.collect()
    begun = time.perf_counter()
    db, _ = open_database(directory, sync="always")
    closes = ingest(db, model)
    ingested = time.perf_counter()
    db.checkpoint()
    del db
    server = Server(directory)
    client = server.connect()
    client.ping()
    done = time.perf_counter()
    client.close()
    return server, model, closes, {
        "setup_s": done - begun, "ingest_s": ingested - begun,
    }


class Session:
    """One client's seeded request stream."""

    def __init__(self, index: int, model, seed: int, write_share: float,
                 read_block: tuple[str, ...]):
        self.index = index
        self.read_block = read_block
        self.rng = random.Random(seed * 1000003 + index)
        self.model = model
        self.write_share = write_share
        sessions = 2 if write_share else 1
        #: Employees this session alone writes, in a seeded cycle: an
        #: employee is written again only after this session's own
        #: acknowledged tick, so every acked value must survive.
        self.owned = list(range(index, EMPLOYEES, sessions))
        self.rng.shuffle(self.owned)
        self.cursor = 0
        #: Requests per block, ending in a run of writes (0: no writes).
        self.block = round(WRITE_RUN / write_share) if write_share else 0
        self.sent = 0
        self.reads: list[str] = []

    def starts_write_run(self) -> bool:
        """Whether the next request opens a block's run of writes."""
        return bool(self.block) and (
            (self.sent + WRITE_RUN) % self.block == 0
        )

    def next_op(self) -> tuple[str, object]:
        rng, model = self.rng, self.model
        self.sent += 1
        if self.block and (-self.sent) % self.block < WRITE_RUN:
            if rng.random() < TICK_SHARE or self.cursor == len(self.owned):
                if self.cursor == len(self.owned):
                    self.cursor = 0
                return "tick", ("tick", 1)
            i = self.owned[self.cursor]
            self.cursor += 1
            value = rng.randrange(SALARY_LO, SALARY_HI)
            return "update", (i, value)
        if not self.reads:
            self.reads = list(self.read_block)
            rng.shuffle(self.reads)
        kind = self.reads.pop()
        if kind == "name":
            name = model.names[rng.randrange(EMPLOYEES)]
            return "name", f"select employee where name = '{name}'"
        if kind == "dept":
            dept = f"d{rng.randrange(DEPTS)}"
            lo = rng.randrange(SALARY_LO, SALARY_HI - 600)
            hi = lo + rng.randrange(400, 600)
            return "dept", (
                f"select employee where dept = '{dept}' and "
                f"salary >= {lo} and salary < {hi}"
            )
        # An instant before the data set's last one: no write of the
        # run can change it, so the answer is exact under writes too.
        i, t = rng.randrange(EMPLOYEES), rng.randrange(model.now)
        return "salary_at", (
            f"select employee where salary = {model.at(i, t)} at {t}"
        )


def _drive(server, session, tracer, barrier, rendezvous, clock, out):
    """Run one session: warm-up, then the measured window.

    With a *rendezvous*, the sessions start each run of writes
    together, as clients that flush on a shared schedule do; that is
    what lets the server commit writes of two sessions under one
    barrier."""
    client = server.connect()
    oids = session.model.oids
    records = []

    def one(k: int) -> None:
        # Request ids are unique across sessions.
        request_id = session.index * 1_000_000 + k
        if rendezvous is not None and session.starts_write_run():
            rendezvous.wait(timeout=RENDEZVOUS_TIMEOUT_S)
        kind, payload = session.next_op()
        tracer.request = request_id
        begun = time.perf_counter()
        result, error = None, None
        try:
            with tracer.span("client.request"):
                if kind == "update":
                    i, value = payload
                    client.execute(("update", oids[i], "salary", value))
                elif kind == "tick":
                    result = client.execute(payload)
                else:
                    result = client.query_raw(payload)["oids"]
        except ServerError as exc:
            error = exc
        ended = time.perf_counter()
        records.append(
            (kind, payload, begun, ended - begun, result, error, request_id)
        )

    try:
        for k in range(WARMUP_OPS):
            one(-1 - k)
        out["warm"] = records
        records = []
        barrier.wait(timeout=START_TIMEOUT_S)
        k = 0
        try:
            while time.perf_counter() < clock["deadline"]:
                one(k)
                k += 1
        except threading.BrokenBarrierError:
            pass  # the peer session reached the deadline first
        if rendezvous is not None:
            rendezvous.abort()
        out["measured"] = records
        out["ended"] = time.perf_counter()
        out["read_workers"] = client.stats()["read_workers"]
    finally:
        client.close()


def _check_reads(records, model, exact_dept: bool) -> list[str]:
    """Compare every answered read with the model."""
    problems = []
    serial_of = [oid.serial for oid in model.oids]
    for kind, payload, _b, _l, result, error, _r in records:
        if error is not None or kind in ("update", "tick"):
            continue
        got = sorted(o["serial"] for o in result)
        if kind == "name":
            name = payload.rsplit("'", 2)[1]
            want = [serial_of[i] for i in model.name_eq(name)]
        elif kind == "salary_at":
            words = payload.split()
            want = sorted(
                serial_of[i]
                for i in model.salary_eq_at(int(words[-3]), int(words[-1]))
            )
        else:
            words = payload.split()
            dept = words[5].strip("'")
            lo, hi = int(words[9]), int(words[13])
            if exact_dept:
                want = sorted(
                    serial_of[i] for i in model.dept_range(dept, lo, hi)
                )
            else:
                # Salaries at `now` move under concurrent writes; the
                # department is static, so every answer must lie in it.
                members = {
                    serial_of[i] for i, d in enumerate(model.depts)
                    if d == dept
                }
                want = got if set(got) <= members else []
        if got != want:
            problems.append(f"answer differs from the model: {payload}")
    return problems


def _check_durable(db, model, writes) -> list[str]:
    """Every acknowledged salary update must be in the recovered
    history at or after the data set's last instant, and the last
    acknowledged value of each employee must be current."""
    horizon, now = model.now, db.now
    acked: dict[int, list[int]] = {}
    for _k, (i, value), *_rest in writes:
        acked.setdefault(i, []).append(value)
    problems = []
    for i, values in acked.items():
        history = db.get_object(model.oids[i]).value["salary"]
        seen = {history.get(t) for t in range(horizon, now + 1)}
        if not set(values) <= seen or history.get(now) != values[-1]:
            problems.append(
                f"acknowledged write lost: employee {i} values {values}"
            )
    return problems


def _replay_commits(directory: str, writes, group: int, oids) -> list[float]:
    """Re-apply the run's acknowledged writes in ack order, *group* per
    ``db.batch()``, on a copy of the pre-run directory; returns the
    seconds each batch took to close."""
    db, _ = open_database(directory, sync="always")
    closes = []
    for start in range(0, len(writes), group):
        batch = db.batch()
        batch.__enter__()
        for kind, payload, *_rest in writes[start:start + group]:
            if kind == "tick":
                db.tick(1)
            else:
                i, value = payload
                db.update_attribute(oids[i], "salary", value)
        begun = time.perf_counter()
        batch.__exit__(None, None, None)
        closes.append(time.perf_counter() - begun)
    return closes


def run_pass(workload: str, workdir, seed: int, seconds: float,
             traced: bool) -> dict:
    """One full run: set up, measure, stop, check.  Returns figures."""
    workdir = str(workdir)
    sessions = SESSIONS[workload]
    write_share = WRITE_SHARE[workload]
    server = None
    try:
        directory = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        server, model, closes, times = _setup_once(directory, seed)
        setups = [times]
        if traced and write_share:
            pre_run = directory + "-pre"
            shutil.copytree(directory, pre_run)

        clock: dict = {}
        barrier = threading.Barrier(
            sessions,
            action=lambda: clock.update(
                begun=time.perf_counter(),
                deadline=time.perf_counter() + seconds,
            ),
        )
        rendezvous = threading.Barrier(sessions) if write_share else None
        outs = [{} for _ in range(sessions)]
        tracers = [Tracer(traced) for _ in range(sessions)]
        threads = [
            threading.Thread(
                target=_drive,
                args=(server,
                      Session(s, model, seed, write_share,
                              READ_BLOCK[workload]),
                      tracers[s], barrier, rendezvous, clock, outs[s]),
            )
            for s in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if any("measured" not in out for out in outs):
            raise BenchError(f"{workload}: a client session died")
        dump, leaked = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
    if dump is None:
        raise BenchError(f"{workload}: the server left no counter dump")
    # The other set-up repetitions run after the measured window, so
    # their median spans more than one stretch of machine speed.
    for _rep in range(1, SETUP_REPS):
        spare = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        spare_server, _m, _c, times = _setup_once(spare, seed)
        spare_server.stop()
        shutil.rmtree(spare, ignore_errors=True)
        setups.append(times)
    elapsed = max(out["ended"] for out in outs) - clock["begun"]
    warm = [r for out in outs for r in out["warm"]]
    measured = [r for out in outs for r in out["measured"]]
    counters = dump["perf"]

    def server_count(name: str) -> int:
        return counters.get(name, {}).get("count", 0)

    reads = [r for r in measured if r[0] not in ("update", "tick")]
    writes = sorted(
        (r for r in warm + measured
         if r[0] in ("update", "tick") and r[5] is None),
        key=lambda r: r[2] + r[3],
    )
    read_ok = [r[3] for r in reads if r[5] is None]
    write_ok = [r[3] for r in measured if r[0] in ("update", "tick")
                and r[5] is None]
    failed = sum(1 for r in measured if r[5] is not None)

    problems = _check_reads(warm + measured, model, exact_dept=not write_share)
    forks = server_count("server.executor_forks")
    workers = outs[0].get("read_workers", 1)
    spawns = forks / workers
    group_commits = server_count("server.group_commits")
    if write_share:
        if spawns <= 1:
            problems.append("mechanism did not engage: no executor re-fork")
        if group_commits <= 0:
            problems.append("mechanism did not engage: no group commit")
    elif spawns != 1:
        problems.append(
            f"mechanism did not engage: {spawns:g} executor spawns, "
            "expected exactly one"
        )

    db = None
    opened = time.perf_counter()
    if write_share or traced:
        db, _ = open_database(directory, sync="always")
    open_s = time.perf_counter() - opened
    if write_share:
        problems += _check_durable(
            db, model, [w for w in writes if w[0] == "update"]
        )

    server_writes = server_count("server.writes")
    commits = server_count("batch.commits") + max(
        0, server_writes - server_count("batch.ops")
    )
    result = {
        "problems": problems,
        "attempted": len(measured),
        "failed": failed,
        "end_to_end": {
            "setup_s": median([s["setup_s"] for s in setups]),
            "ops_per_s": (len(measured) - failed) / elapsed,
            "read_p50_ms": median(read_ok) * 1e3,
            "read_tail_ms": percentile(read_ok, 0.99) * 1e3,
            "peak_rss_mb": dump["peak_rss_kb"] / 1024.0,
        },
        "extra": {
            "clients": sessions,
            "read_tail": "p99",
            "page_cache_budget_bytes": pagecache.DEFAULT_BUDGET,
            "read_workers": workers,
            "samples": {"reads": len(reads),
                        "writes": len(measured) - len(reads)},
            "write_p50_ms": median(write_ok) * 1e3,
            "write_p99_ms": percentile(write_ok, 0.99) * 1e3,
            "executor_spawns": spawns,
            "group_commits": group_commits,
            "rejections": server_count("server.rejections"),
            "leaked_processes": leaked,
        },
        "tracer": Tracer(False),
    }
    if traced:
        tracer = Tracer(True)
        for t in tracers:
            tracer.absorb(t)
        result["tracer"] = tracer
        result["per_layer"] = _layer_metrics(
            db, reads, tracer, seed, server_count,
            len(warm) + len(measured), leaked, commits, open_s, setups,
        )
        if write_share:
            group = max(1, round(ratio(server_writes, commits)))
            closes = _replay_commits(pre_run, writes, group, model.oids)
        result["per_layer"].update(layers.commit_metrics(closes))
    if db is not None:
        parallel.shutdown(db)
    reap_children()
    return result


def _layer_metrics(db, reads, tracer, seed, server_count,
                   requests, leaked, commits, open_s, setups) -> dict:
    """Per-layer figures for a served run: the server's own counters,
    plus the engine stages re-timed in-process on the recovered
    directory with the exact query strings the run sent."""
    answered = [r for r in reads if r[5] is None]
    sample = random.Random(seed).sample(
        answered, min(RETIME_SAMPLE, len(answered))
    )
    retime = Tracer(True)
    plans = []
    before = perf.stats()
    for _kind, text, _b, _latency, _res, _err, request_id in sample:
        retime.request = request_id
        oids, plan, now = layers.staged_query(db, text, retime)
        layers.wire_costs(request_id, text, oids, now, retime)
        plans.append(plan)
    head = db.journal.last_lsn
    for _ in range(5):
        with retime.span("bitemporal.resolve"):
            asof_mod.as_of(db, head)
    delta = counter_delta(before, perf.stats())
    tracer.absorb(retime)
    # A snapshot worker encodes the oids before it replies.
    engine = layers.engine_seconds(
        retime, layers.ENGINE_STAGES + ("persistence.encode",)
    )
    outside = [(r[3] - engine[r[6]]) * 1e3 for r in sample]
    writes = server_count("server.writes")
    return {
        "server.outside_engine_ms": median(outside),
        "server.executor_forks_per_kop": ratio(
            server_count("server.executor_forks"), requests / 1000.0),
        "server.writes_per_commit": ratio(writes, commits),
        "server.rejections": server_count("server.rejections"),
        "server.leaked_processes": leaked,
        **layers.query_metrics(retime, plans, delta, len(sample)),
        "wal.syncs_per_write": ratio(server_count("wal.syncs"), writes),
        "mvcc.views_per_read": ratio(
            server_count("mvcc.views"), server_count("server.reads")),
        "mvcc.copies_per_write": ratio(server_count("mvcc.copies"), writes),
        **layers.asof_metrics(retime, delta, 5),
        "recovery.open_s": open_s,
        "batch.ingest_s": median([s["ingest_s"] for s in setups]),
    }
