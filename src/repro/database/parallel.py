"""Fork-snapshot worker pools: scatter-gather and served reads.

CPython's GIL keeps threads from evaluating two queries at once, so
the engine buys parallelism with processes, through one class:
:class:`SnapshotPool` forks its workers *once* -- each child inherits
the whole database as a copy-on-write snapshot -- and pins them to the
database's *state version* ``(now, global generation, operation
count)``.  :func:`snapshot_pool` is the one reuse decision: a live
pool whose pin still matches is reused, anything else is retired and
replaced by a fresh fork.  The pool has two uses:

* **scatter-gather** (:meth:`SnapshotPool.run`): many tasks for one
  query, and the caller blocks until all are back.  Per-object work --
  a 100%-selectivity sweep, a quantified ``ALWAYS``/``SOMETIME`` scope
  (the paper's Def 6 quantifiers), an integrity check (Defs 5.1/5.2) --
  is split by the database's
  :class:`~repro.database.database.Partitioning`, one task per
  non-empty partition.  A task carries the partition *index*; the
  worker re-derives the identical slice from its snapshot, and scan
  matches travel back as bare serials.  Slices are walked in oid order
  and merged in partition order, so the result equals the serial
  path's exactly.  ``parallel.spawns`` counts these pools (the E15
  gate holds it at one per benchmark run).
* **served reads** (:meth:`SnapshotPool.submit`): one whole-query task
  per request, awaited on the event loop, which reads result frames
  with ``loop.add_reader``.  A pool whose pin went stale after a write
  is *retired*: its in-flight results drain, then its workers go.
  ``server.executor_forks`` counts the workers forked for this use.

Both uses speak the same frames over one duplex pipe per worker:
``(task id, kind, payload)`` out, ``(task id, ok, value, busy_us)``
back.  A worker runs one task at a time; the parent hands the backlog
to whichever worker answers first.  No helper threads: nothing of
ours holds a lock across a later fork, and a dead worker shows up at
once as EOF on its pipe.

Child hygiene lives in one place, :func:`_enter_worker`: a worker
drops its inherited pool handles and journal, resets SIGINT/SIGTERM
to their defaults and clears the asyncio wakeup fd (a serving parent's
handler would make it ignore SIGTERM), closes every inherited
descriptor but its own pipe end and stdio (listeners, client sockets,
other workers' pipes), exits on EOF from its pipe -- so it dies with
its parent, however the parent died -- and leaves with ``os._exit``.

Any pool failure (no fork, a dead worker, a raising task, a gather
timeout) closes the pool and ticks ``parallel.fallbacks``; the caller
re-runs the work serially (a served read runs inline).  Parallelism
never changes a result, only the wall-clock.  Scatter is refused while
``db.batch()`` has cache maintenance suspended
(:mod:`repro.database.batch`).

Ablation: ``REPRO_NO_PARALLEL=1`` (read at import), or
:func:`set_enabled` / :func:`disabled`, turns scatter-gather off;
served reads are sized by the server's ``read_workers``.

Observability: ``parallel.scatter`` / ``parallel.gather`` spans around
the two halves of a scatter-gather, worker busy times in the
``parallel.partition`` histogram, and utilization from the
``parallel.busy_us`` / ``parallel.wall_us`` metrics
(busy / (wall x degree)).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from multiprocessing.connection import Pipe, wait
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro import perf
from repro.obs import spans as obs
from repro.obs.histograms import histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.database.database import TemporalDatabase

#: Module-level ablation switch (mirrors ``query.planner.is_enabled``).
is_enabled: bool = os.environ.get(
    "REPRO_NO_PARALLEL", ""
).strip().lower() not in ("1", "true", "yes", "on")

_QUERIES = perf.metric("parallel.queries")
_TASKS = perf.metric("parallel.tasks")
_SPAWNS = perf.metric("parallel.spawns")
_FALLBACKS = perf.metric("parallel.fallbacks")
_BUSY_US = perf.metric("parallel.busy_us")
_WALL_US = perf.metric("parallel.wall_us")
_FORKS = perf.metric("server.executor_forks")
_EXEC_QUERIES = perf.metric("server.executor_queries")

#: Extents below this size never scatter: the fork/IPC overhead cannot
#: amortize over so little per-tuple work.
MIN_PARALLEL_ITEMS = 64

#: Fixed scatter cost in planner cost units (one unit = one posting
#: touch; see ``query.planner.EVAL_COST``): task framing, pickling and
#: the gather round trip.
SCATTER_OVERHEAD = 1500.0

#: Extra per-object weight of a quantified (SOMETIME/ALWAYS) scope in
#: the parallel-degree decision: the scan path walks every history
#: segment of the object instead of evaluating one instant.
QUANTIFIED_FACTOR = 8.0

#: Per-shipped-oid cost (pickle + pipe transfer), in cost units.
SHIP_COST = 0.25

#: How long the gather waits for worker frames before declaring the
#: pool wedged (a *dead* worker's pipe reaches EOF at once, so this
#: bound only matters for a livelocked one).
GATHER_TIMEOUT_S = 120.0


def set_enabled(flag: bool) -> bool:
    """Enable/disable scatter-gather; returns the previous state."""
    global is_enabled
    previous = is_enabled
    is_enabled = bool(flag)
    return previous


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block on the serial path (the ablation baseline)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def default_partitions() -> int:
    """The default partition count: one per core."""
    return max(os.cpu_count() or 1, 1)


def fork_available() -> bool:
    """Whether this platform can fork snapshot workers."""
    return hasattr(os, "fork")


class PoolError(RuntimeError):
    """A task could not complete on the worker pool."""


class QueryWorkerError(Exception):
    """A query raised inside a snapshot worker; ``kind`` names the
    originating engine exception class."""

    def __init__(self, kind: str, text: str) -> None:
        super().__init__(f"{kind}: {text}")
        self.kind = kind
        self.text = text


# ------------------------------------------------------- task handlers
#
# A handler runs *inside a worker* against the forked database
# snapshot.  It must be pure read-only and return a picklable value.
#
# Framing discipline: scatter tasks carry the *partition index*, not
# the oid slice -- the worker derives its slice from the snapshot it
# already holds (same version as the parent's, so the derivation is
# bit-identical), and scan results travel back as bare oid serials.
# Shipping 6k OID dataclasses costs ~10ms of pickling; 6k ints cost
# ~0.2ms, and at 100% selectivity that difference is the speedup gate.


def _partition_oids(db: "TemporalDatabase", oids, index: int) -> list:
    part = db.partitioning
    return sorted(oid for oid in oids if part.partition_of(oid) == index)


def _handle_scan(db: "TemporalDatabase", payload: tuple) -> list[int]:
    query, index = payload
    from repro.query.ast import TemporalScope
    from repro.query.evaluator import partition_matches

    now = db.now
    anchor = query.at if query.scope is TemporalScope.AT else now
    extent = db.anchor_extent(query.class_name, anchor)
    bucket = _partition_oids(db, extent, index)
    return [
        oid.serial for oid in partition_matches(db, query, bucket, now)
    ]


def _handle_integrity(db: "TemporalDatabase", payload: tuple) -> dict:
    (index,) = payload
    from repro.database import integrity

    oids = _partition_oids(db, db._objects, index)
    objects = [db.get_object(oid) for oid in oids]
    known = set(db._objects)
    return {
        "invariant_5_1": integrity._check_5_1_objects(db, objects),
        "invariant_5_2": integrity.check_invariant_5_2(db, objects),
        "referential_integrity": integrity.check_referential_integrity(
            db, objects=objects, known=known
        ),
        "object_consistency": integrity.check_object_consistency(
            db, objects
        ),
    }


def _handle_query(db: "TemporalDatabase", text: str) -> list:
    """One whole served query; results ship wire-encoded."""
    from repro.database.persistence import encode_value
    from repro.query.evaluator import evaluate
    from repro.query.parser import parse_query

    return [encode_value(oid) for oid in evaluate(db, parse_query(text))]


_HANDLERS = {
    "scan": _handle_scan,
    "integrity": _handle_integrity,
    "query": _handle_query,
}


# -------------------------------------------------------- worker side


def _enter_worker(db: "TemporalDatabase", keep_fd: int) -> None:
    """Child hygiene: make a freshly forked process a clean worker."""
    # Tracing inside the worker would only grow orphaned span trees in
    # the child's copy.  Inherited pools belong to the parent: drop the
    # handles (while their descriptors are still open, so the objects
    # close cleanly) and never scatter from inside a worker.  Workers
    # are read-only, so they never touch the journal either.
    obs.set_enabled(False)
    set_enabled(False)
    db._parallel_pool = None
    db._journal = None
    # A serving parent routes SIGTERM/SIGINT into its event loop
    # through the wakeup fd; a worker must die on them instead.
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)
    # Listeners, client sockets, other workers' pipes, the loop's
    # selector: holding any of them would keep a peer from seeing the
    # parent's death.  Keep stdio and our own pipe end.
    os.closerange(3, keep_fd)
    os.closerange(keep_fd + 1, os.sysconf("SC_OPEN_MAX"))


def _worker_main(db: "TemporalDatabase", conn) -> None:
    """Serve tasks until the parent's end of the pipe closes."""
    while True:
        try:
            task_id, kind, payload = conn.recv()
        except (EOFError, OSError):
            return  # the pool was closed, or the parent died
        start_ns = time.perf_counter_ns()
        try:
            value = _HANDLERS[kind](db, payload)
            ok = True
        except Exception as exc:  # ship the failure to the parent
            value = (type(exc).__name__, str(exc))
            ok = False
        busy_us = (time.perf_counter_ns() - start_ns) // 1000
        try:
            conn.send((task_id, ok, value, busy_us))
        except OSError:
            return


def _fork_worker(db: "TemporalDatabase") -> tuple[int, Any]:
    """Fork one worker; returns ``(pid, parent end of its pipe)``."""
    parent_end, child_end = Pipe()
    try:
        pid = os.fork()
    except OSError:
        parent_end.close()
        child_end.close()
        raise
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            _enter_worker(db, child_end.fileno())
            _worker_main(db, child_end)
            code = 0
        finally:
            os._exit(code)
    child_end.close()
    return pid, parent_end


# ------------------------------------------------------------- the pool


class SnapshotPool:
    """Workers forked once over one pinned database snapshot.

    *role* is ``"scatter"`` (scatter-gather, counted in
    ``parallel.spawns``) or ``"serve"`` (served reads, counted per
    worker in ``server.executor_forks``).
    """

    def __init__(
        self, db: "TemporalDatabase", n_workers: int, role: str = "scatter"
    ) -> None:
        if n_workers < 1:
            raise ValueError("a snapshot pool needs at least one worker")
        #: The state vector the forked snapshots hold.
        self.version = db._state_version()
        self._owner = os.getpid()
        self._closed = False
        self._retired = False
        self._pids: list[int | None] = []
        self._conns: list = []
        self._idle: list[int] = []
        self._inflight: dict[int, int] = {}
        self._backlog: deque = deque()
        self._futures: dict[int, asyncio.Future] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ids = itertools.count(1)
        try:
            for index in range(n_workers):
                pid, conn = _fork_worker(db)
                self._pids.append(pid)
                self._conns.append(conn)
                self._idle.append(index)
        except BaseException:
            self.close()
            raise
        if role == "serve":
            _FORKS.add(n_workers)
        else:
            _SPAWNS.add()

    @property
    def pids(self) -> list[int]:
        """Process ids of the workers not yet reaped."""
        return [pid for pid in self._pids if pid is not None]

    # -- lifecycle -----------------------------------------------------

    def alive(self) -> bool:
        """Usable: not closed or retired, and no worker has exited (a
        pool that lost a worker closes itself)."""
        if self._closed or self._retired:
            return False
        for index, pid in enumerate(self._pids):
            try:
                exited = os.waitpid(pid, os.WNOHANG)[0]
            except ChildProcessError:
                exited = True
            if exited:
                self._pids[index] = None
                self.close()
                return False
        return True

    def retire(self) -> None:
        """Take no new work; release the workers once in-flight drains."""
        self._retired = True
        if not (self._inflight or self._backlog):
            self.close()

    def close(self) -> None:
        """Stop the workers and fail whatever is still pending."""
        if self._closed:
            return
        self._closed = True
        if os.getpid() != self._owner:
            return  # an inherited copy inside a worker: not ours to stop
        if self._loop is not None and not self._loop.is_closed():
            for conn in self._conns:
                self._loop.remove_reader(conn.fileno())
        for conn in self._conns:
            conn.close()
        for index, pid in enumerate(self._pids):
            if pid is None:
                continue
            # Read-only copies: nothing to flush, so no grace period.
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self._pids[index] = None
        futures = list(self._futures.values())
        self._futures.clear()
        for future in futures:
            if not future.done():
                future.set_exception(PoolError("snapshot pool closed"))

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- framing -------------------------------------------------------

    def _dispatch(self, kind: str, payload: Any) -> int:
        """Queue one task; returns its id.  Raises :class:`PoolError`."""
        task_id = next(self._ids)
        self._backlog.append((task_id, kind, payload))
        self._pump()
        return task_id

    def _pump(self) -> None:
        """Hand backlogged tasks to idle workers."""
        while self._backlog and self._idle:
            index = self._idle.pop()
            task = self._backlog.popleft()
            self._inflight[index] = task[0]
            try:
                self._conns[index].send(task)
            except (OSError, ValueError) as exc:
                raise PoolError(f"worker {index} is gone: {exc}") from exc

    def _receive(self, index: int) -> tuple:
        """Read worker *index*'s result frame and mark it idle."""
        try:
            frame = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise PoolError(f"worker {index} died mid-task") from exc
        del self._inflight[index]
        self._idle.append(index)
        return frame

    # -- scatter-gather ------------------------------------------------

    def run(
        self,
        kind: str,
        payloads: Sequence[tuple],
        timeout: float = GATHER_TIMEOUT_S,
    ) -> list[Any]:
        """Scatter *payloads* (one task each) and gather in order.

        Returns the per-payload results, index-aligned.  Raises
        :class:`PoolError` on any worker failure; the pool is closed
        then and the next :func:`snapshot_pool` replaces it.
        """
        if not self.alive():
            raise PoolError("worker pool is not alive")
        started_ns = time.perf_counter_ns()
        try:
            with obs.span(
                "parallel.scatter", tasks=len(payloads), task_kind=kind
            ):
                slots = {
                    self._dispatch(kind, payload): position
                    for position, payload in enumerate(payloads)
                }
            _TASKS.add(len(payloads))
            with obs.span(
                "parallel.gather", tasks=len(payloads), task_kind=kind
            ):
                results = self._gather(slots, timeout)
        except PoolError:
            self.close()
            raise
        _WALL_US.add((time.perf_counter_ns() - started_ns) // 1000)
        _QUERIES.add()
        return results

    def _gather(self, slots: dict[int, int], timeout: float) -> list[Any]:
        results: list[Any] = [None] * len(slots)
        deadline = time.monotonic() + timeout
        while slots:
            busy = [self._conns[index] for index in self._inflight]
            ready = wait(busy, max(0.0, deadline - time.monotonic()))
            if not ready:
                raise PoolError(f"gather timed out after {timeout:.0f}s")
            for conn in ready:
                index = self._conns.index(conn)
                task_id, ok, value, busy_us = self._receive(index)
                if not ok:
                    raise PoolError("worker task failed: %s: %s" % value)
                _BUSY_US.add(busy_us)
                if obs.is_enabled:
                    histogram("parallel.partition").record(busy_us)
                results[slots.pop(task_id)] = value
            self._pump()
        return results

    # -- served reads --------------------------------------------------

    async def submit(self, kind: str, payload: Any) -> Any:
        """Run one task on a worker and await its value.

        Raises :class:`QueryWorkerError` when the task raised, and
        :class:`PoolError` when the pool cannot answer (closed,
        retired, or a worker died) -- the caller then runs inline.
        """
        if self._closed or self._retired:
            raise PoolError("snapshot pool is closed")
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            for index, conn in enumerate(self._conns):
                loop.add_reader(conn.fileno(), self._on_readable, index)
        future = loop.create_future()
        try:
            self._futures[self._dispatch(kind, payload)] = future
        except PoolError:
            self.close()
            raise
        _EXEC_QUERIES.add()
        return await future

    def _on_readable(self, index: int) -> None:
        try:
            task_id, ok, value, _busy_us = self._receive(index)
            future = self._futures.pop(task_id, None)
            if future is not None and not future.done():
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(QueryWorkerError(*value))
            self._pump()
        except PoolError:
            self.close()  # fails the rest; the next read respawns
            return
        if self._retired and not self._inflight and not self._backlog:
            self.close()


# ------------------------------------------------------ orchestration


def snapshot_pool(
    db: "TemporalDatabase",
    current: SnapshotPool | None,
    n_workers: int,
    role: str = "scatter",
) -> SnapshotPool | None:
    """A live pool pinned to *db*'s current state.

    Returns *current* when it is alive and its pin still matches
    ``db._state_version()``; otherwise retires it and forks a fresh
    pool.  Returns ``None`` when no pool can be forked.  Call it with
    no await between this and the dispatch, so the pin cannot move.
    """
    if (
        current is not None
        and current.version == db._state_version()
        and current.alive()
    ):
        return current
    if current is not None:
        current.retire()
    try:
        return SnapshotPool(db, n_workers, role)
    except OSError:
        return None


def usable(db: "TemporalDatabase") -> bool:
    """Whether scatter-gather may run against *db* right now.

    False while ablated, while a bulk batch has cache maintenance
    suspended (the snapshot discipline of :mod:`repro.database.batch`
    owns correctness then), with a single partition, or on a platform
    without ``fork``.
    """
    if not is_enabled:
        return False
    caches = getattr(db, "caches", None)
    if caches is None or caches.suspended or db.in_batch:
        return False
    if db.partitioning.n_partitions < 2:
        return False
    return fork_available()


def plan_degree(
    db: "TemporalDatabase",
    extent_size: int,
    cost_serial: float,
    quantified: bool = False,
) -> tuple[int, float | None]:
    """The parallelism degree for a scan, with its estimated cost.

    The cost model is ``cost_serial / degree + scatter overhead``
    (fixed framing/IPC cost plus a per-shipped-oid term); quantified
    scopes weight the serial cost by :data:`QUANTIFIED_FACTOR` because
    their per-object evaluation walks every history segment.  Returns
    ``(1, None)`` when the scatter cannot pay for itself (small extent,
    single partition, ablated, mid-batch).
    """
    if extent_size < MIN_PARALLEL_ITEMS or not usable(db):
        return 1, None
    degree = db.partitioning.n_partitions
    weighted = cost_serial * (QUANTIFIED_FACTOR if quantified else 1.0)
    cost_parallel = (
        weighted / degree + SCATTER_OVERHEAD + extent_size * SHIP_COST
    )
    if cost_parallel >= weighted:
        return 1, cost_parallel
    return degree, cost_parallel


def shutdown(db: "TemporalDatabase") -> None:
    """Tear down the database's scatter-gather pool, if any."""
    pool = getattr(db, "_parallel_pool", None)
    if pool is not None:
        pool.close()
        db._parallel_pool = None


def _scatter(
    db: "TemporalDatabase", kind: str, payloads: list[tuple]
) -> list | None:
    """Run *payloads* on the database's pool; ``None`` = go serial."""
    pool = None
    if usable(db):
        pool = db._parallel_pool = snapshot_pool(
            db, db._parallel_pool, db.partitioning.n_partitions
        )
    if pool is None:
        _FALLBACKS.add()
        return None
    try:
        return pool.run(kind, payloads)
    except PoolError:
        _FALLBACKS.add()
        return None


def scan_query(db: "TemporalDatabase", query, plan) -> list | None:
    """Run *query*'s scan through the pool; ``None`` = caller goes serial.

    The anchor extent is computed (and cached) in the parent only to
    decide which partitions are populated; each task ships just the
    query and a partition index, the worker derives the identical
    slice from its snapshot, and matched oids come back as serials.
    The serial-sorted merge equals the serial scan's output exactly
    (oid order is serial order -- serials are globally unique).
    """
    from repro.query.ast import TemporalScope

    anchor = query.at if query.scope is TemporalScope.AT else db.now
    extent = db.anchor_extent(query.class_name, anchor)
    payloads = [
        (query, index)
        for index, bucket in enumerate(db.partitioning.split(extent))
        if bucket
    ]
    if not payloads:
        return []
    slices = _scatter(db, "scan", payloads)
    if slices is None:
        return None
    by_serial = {oid.serial: oid for oid in extent}
    return [
        by_serial[serial]
        for serial in sorted(
            serial for part in slices for serial in part
        )
    ]


def integrity_scatter(
    db: "TemporalDatabase", oids: Sequence
) -> list[dict] | None:
    """Fan the per-object integrity checkers out over oid slices.

    Returns the per-partition violation dicts in partition order, or
    ``None`` when the caller must run the serial path.
    """
    if len(oids) < MIN_PARALLEL_ITEMS:
        return None
    payloads = [
        (index,)
        for index, bucket in enumerate(db.partitioning.split(oids))
        if bucket
    ]
    if not payloads:
        return []
    return _scatter(db, "integrity", payloads)
