"""The asyncio serving layer: sessions, group commit, backpressure.

One :class:`TemporalServer` owns one :class:`TemporalDatabase` and
speaks the newline-JSON protocol of :mod:`repro.server.protocol` over
TCP.  Concurrency model (docs/server.md):

* **reads never block writers.**  Each ``query`` acquires a per-request
  :class:`~repro.database.mvcc.ReadView`; when a snapshot pool
  (:class:`~repro.database.parallel.SnapshotPool`, the same fork-once
  pool scatter-gather uses) can be forked the query runs in a
  version-pinned worker on another core, otherwise inline under the
  view's overlays.  With MVCC ablated
  (``REPRO_NO_MVCC``) reads take the global writer lock instead --
  the readers-block-writers baseline the E18 benchmark measures.
* **writes serialize through the WAL.**  Auto-commit ``exec`` requests
  from every session funnel into one writer coroutine which drains the
  pending queue under the global writer lock and applies it inside a
  single ``db.batch()`` -- one fsync barrier group-commits the writes
  of many sessions, and every acknowledgement is sent only after that
  barrier, so an acked write is a durable write.
* **per-session transactions.**  ``begin`` takes the writer lock and
  opens a :class:`~repro.database.transactions.Transaction`; the
  session's ``exec`` requests then apply inline (and journal into the
  transaction scope) until ``commit``/``rollback`` releases the lock.
  A client that disconnects mid-transaction is rolled back.
* **backpressure + admission control.**  Each session reads requests
  into a bounded queue (a full queue stops the socket reader -- TCP
  backpressure does the rest); connections beyond ``max_sessions`` and
  reads beyond ``max_inflight_reads`` are refused with ``retry: true``
  responses and counted in ``server.rejections``.
* **graceful drain.**  ``stop()`` closes the listener, lets in-flight
  requests finish within ``drain_timeout``, rolls back orphaned
  transactions, flushes the write queue, and releases every snapshot
  worker the server forked.

Crash-point knobs for the fault harness
(:func:`repro.faults.server.run_server_trial`):
``REPRO_SERVER_CRASH_BEFORE_WRITES=n`` hard-exits the process right
before applying the *n*-th write; ``REPRO_SERVER_CRASH_AFTER_WRITES=n``
hard-exits after the *n*-th write's durability barrier but before its
socket acknowledgement -- the "committed but unacked" window the trial
asserts around.
"""

from __future__ import annotations

import asyncio
import os
import re
import threading
import traceback
import weakref
from typing import TYPE_CHECKING, Any, Optional

from repro import perf
from repro.database import mvcc as mvcc_mod
from repro.database import parallel
from repro.database.transactions import Transaction
from repro.errors import ServerError, TChimeraError
from repro.obs import spans as obs
from repro.server import protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.database.database import TemporalDatabase

_REQUESTS = perf.metric("server.requests")
_READS = perf.metric("server.reads")
_WRITES = perf.metric("server.writes")
_SESSIONS = perf.metric("server.sessions")
_REJECTIONS = perf.metric("server.rejections")
_GROUP_COMMITS = perf.metric("server.group_commits")
_INTERNAL_ERRORS = perf.metric("server.internal_errors")

#: The traceback of the most recent unexpected exception a request
#: handler raised (``stats()["last_internal_error"]``).
_last_internal_error: str | None = None

#: Live servers in this process (for the aggregate :func:`stats`).
_SERVERS: "weakref.WeakSet[TemporalServer]" = weakref.WeakSet()

#: A trailing in-text ``as of N`` clause (case-insensitive, like every
#: query keyword) -- sniffed before routing so transaction-time reads
#: never reach the MVCC path, whose view proxy has no journal.
_AS_OF_CLAUSE = re.compile(r"\bas\s+of\s+(\d+)\s*$", re.IGNORECASE)


def _env_int(name: str) -> int:
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


def stats() -> dict:
    """Process-wide serving-layer gauges (``repro stats`` ``server``
    section; exported as ``repro_server_*`` Prometheus gauges)."""
    servers = list(_SERVERS)
    return {
        "sessions_active": sum(len(s._sessions) for s in servers),
        "sessions_total": _SESSIONS.count,
        "active_views": mvcc_mod.active_views(),
        "admission_rejections": _REJECTIONS.count,
        "requests": _REQUESTS.count,
        "reads": _READS.count,
        "writes": _WRITES.count,
        "group_commits": _GROUP_COMMITS.count,
        "inflight_reads": sum(s._inflight_reads for s in servers),
        "mvcc_enabled": mvcc_mod.is_enabled,
        "internal_errors": _INTERNAL_ERRORS.count,
        "last_internal_error": _last_internal_error,
    }


class TemporalServer:
    """One serving endpoint over one database."""

    def __init__(
        self,
        db: "TemporalDatabase",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 64,
        queue_depth: int = 32,
        max_inflight_reads: int | None = None,
        read_workers: int | None = None,
        use_mvcc: bool | None = None,
        drain_timeout: float = 5.0,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        self.queue_depth = max(1, queue_depth)
        if read_workers is None:
            read_workers = min(4, max(1, (os.cpu_count() or 1) - 1))
        self.read_workers = read_workers
        if max_inflight_reads is None:
            max_inflight_reads = max(4, read_workers * 4)
        self.max_inflight_reads = max_inflight_reads
        if use_mvcc is None:
            use_mvcc = mvcc_mod.is_enabled
        self.use_mvcc = use_mvcc and mvcc_mod.is_enabled
        self.drain_timeout = drain_timeout

        self._server: asyncio.AbstractServer | None = None
        self._sessions: set["_Session"] = set()
        self._draining = False
        self._inflight_reads = 0
        self._pool: parallel.SnapshotPool | None = None
        self._write_lock = asyncio.Lock()
        self._writes: list[tuple[tuple, asyncio.Future]] = []
        self._write_event = asyncio.Event()
        self._writer_task: asyncio.Task | None = None
        self._writes_applied = 0
        self._crash_before = _env_int("REPRO_SERVER_CRASH_BEFORE_WRITES")
        self._crash_after = _env_int("REPRO_SERVER_CRASH_AFTER_WRITES")

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._writer_task = asyncio.get_running_loop().create_task(
            self._writer_loop()
        )
        _SERVERS.add(self)
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, then shut down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while self._sessions and loop.time() < deadline:
            if all(s.idle for s in self._sessions):
                break
            await asyncio.sleep(0.02)
        for session in list(self._sessions):
            session.abort()
        # Let aborted sessions unwind (transaction rollbacks included).
        for _ in range(50):
            if not self._sessions:
                break
            await asyncio.sleep(0.01)
        # Flush whatever writes were accepted before the drain began.
        if self._writes:
            self._write_event.set()
            await asyncio.sleep(0)
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        # Every session is gone, so nothing awaits the read pool; the
        # scatter pool was forked here by inline reads.  Release both
        # so no worker outlives the server.
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        parallel.shutdown(self.db)
        _SERVERS.discard(self)

    # -- connections ------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._draining or len(self._sessions) >= self.max_sessions:
            _REJECTIONS.add()
            reason = (
                "server is draining"
                if self._draining
                else "server at session capacity"
            )
            writer.write(protocol.dump_line({
                "id": None,
                "ok": False,
                "error": reason,
                "kind": "ServerError",
                "retry": True,
            }))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        session = _Session(self, reader, writer)
        self._sessions.add(session)
        _SESSIONS.add()
        try:
            await session.run()
        finally:
            self._sessions.discard(session)
            session.cleanup()

    # -- reads ------------------------------------------------------------

    async def _run_query(self, text: str, as_of: int | None = None) -> dict:
        db = self.db
        _READS.add()
        if self._inflight_reads >= self.max_inflight_reads:
            _REJECTIONS.add()
            raise _Overloaded(
                f"too many in-flight reads (> {self.max_inflight_reads})"
            )
        self._inflight_reads += 1
        try:
            if as_of is None and _AS_OF_CLAUSE.search(text):
                # An in-text `... as of N` clause without the protocol
                # field: same transaction-time pin, same inline route
                # (the MVCC view proxy has no journal to resolve it).
                as_of = int(_AS_OF_CLAUSE.search(text).group(1))
            if as_of is not None:
                # Transaction-time pin: the believed-at state is
                # immutable (a committed journal prefix never changes),
                # so no read view is needed -- resolve and evaluate
                # inline under the writer lock.  At-head pins read the
                # live state; historical pins pay one reconstruction
                # (memoized in repro.bitemporal.asof).
                async with self._write_lock:
                    return self._inline_query(text, as_of)
            if not (self.use_mvcc and mvcc_mod.is_enabled):
                # Ablation baseline: reads serialize with writes on the
                # global writer lock and run on the event loop --
                # readers block writers and each other.
                async with self._write_lock:
                    return self._inline_query(text)
            if db._txn_active or db.in_batch:
                # An open session transaction owns the writer lock;
                # queue behind it and read the committed state.
                async with self._write_lock:
                    return self._inline_query(text)
            if self.read_workers >= 1 and parallel.fork_available():
                # No await between the pin check and the dispatch: the
                # pool cannot go stale in between.
                self._pool = parallel.snapshot_pool(
                    db, self._pool, self.read_workers, "serve"
                )
            if self._pool is not None:
                # The fork *is* the snapshot: pin the version through
                # the view API, then hand off -- no copy-on-write
                # overlays needed while the query runs off-loop.
                view = db.mvcc.acquire()
                pinned_now = view.now
                view.close()
                try:
                    encoded = await self._pool.submit("query", text)
                    return {
                        "oids": encoded,
                        "count": len(encoded),
                        "now": pinned_now,
                    }
                except parallel.PoolError:
                    pass  # pool torn down underneath us: fall back
            with db.mvcc.acquire() as fallback_view:
                oids = fallback_view.execute(text)
                from repro.database.persistence import encode_value

                return {
                    "oids": [encode_value(oid) for oid in oids],
                    "count": len(oids),
                    "now": fallback_view.now,
                }
        finally:
            self._inflight_reads -= 1

    def _inline_query(self, text: str, as_of: int | None = None) -> dict:
        from dataclasses import replace

        from repro.database.persistence import encode_value
        from repro.query.evaluator import evaluate
        from repro.query.parser import parse_query

        query = parse_query(text)
        if as_of is not None:
            # The protocol field wins over an in-text `as of` clause.
            query = replace(query, as_of=as_of)
        if query.as_of is None:
            oids = evaluate(self.db, query)
            return {
                "oids": [encode_value(oid) for oid in oids],
                "count": len(oids),
                "now": self.db.now,
            }
        from repro.bitemporal import asof as asof_mod

        # Resolve once so the reply can carry the believed-at clock
        # (the second resolution inside evaluate hits the same state:
        # live at the head, the LRU memo otherwise).
        believed = asof_mod.as_of(self.db, query.as_of)
        oids = evaluate(self.db, query)
        return {
            "oids": [encode_value(oid) for oid in oids],
            "count": len(oids),
            "now": believed.now,
            "as_of": query.as_of,
        }

    # -- writes -----------------------------------------------------------

    def submit_write(self, op: tuple) -> asyncio.Future:
        """Queue one auto-commit write for the group-committing
        writer coroutine; resolves after the durability barrier."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._writes.append((op, future))
        self._write_event.set()
        return future

    async def _writer_loop(self) -> None:
        while True:
            await self._write_event.wait()
            self._write_event.clear()
            if not self._writes:
                continue
            async with self._write_lock:
                pending = self._writes
                self._writes = []
                self._apply_writes(pending)

    def _apply_writes(
        self, pending: list[tuple[tuple, asyncio.Future]]
    ) -> None:
        """Apply queued writes under one durability barrier (no awaits:
        the whole block is one event-loop step)."""
        from repro.database import batch as batch_mod
        from repro.faults.harness import apply_op

        db = self.db
        group = (
            len(pending) > 1
            and db.journal is not None
            and batch_mod.is_enabled
            and not db.in_batch
        )
        outcomes: list[tuple[asyncio.Future, bool, Any]] = []

        def _apply_one(op: tuple, future: asyncio.Future) -> None:
            if (
                self._crash_before
                and self._writes_applied + 1 >= self._crash_before
            ):
                os._exit(42)  # fault harness: die before the write
            try:
                result = apply_op(db, op)
            except Exception as exc:
                outcomes.append((future, False, exc))
                return
            self._writes_applied += 1
            outcomes.append((future, True, result))

        if group:
            with db.batch():
                for op, future in pending:
                    _apply_one(op, future)
            _GROUP_COMMITS.add()
        else:
            for op, future in pending:
                _apply_one(op, future)
        # ---- durability barrier passed: the batch (or each op) is on
        # disk.  Acks only from here on.
        if self._crash_after and self._writes_applied >= self._crash_after:
            os._exit(43)  # fault harness: die between commit and ack
        for future, ok, payload in outcomes:
            if future.done():
                continue
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(payload)
        _WRITES.add(sum(1 for _f, ok, _p in outcomes if ok))

    # -- introspection ----------------------------------------------------

    def server_stats(self) -> dict:
        """This endpoint's view of :func:`stats` plus local gauges."""
        data = stats()
        data.update({
            "host": self.host,
            "port": self.port,
            "draining": self._draining,
            "read_workers": self.read_workers,
            "queue_depth": self.queue_depth,
            "max_sessions": self.max_sessions,
            "use_mvcc": self.use_mvcc,
            "mvcc": self.db.mvcc.stats(),
        })
        return data


class _Overloaded(ServerError):
    """Admission control refused the request (safe to retry)."""


class _Session:
    """One client connection: bounded request queue + processor."""

    def __init__(
        self,
        server: TemporalServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self._reader = reader
        self._writer = writer
        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=server.queue_depth
        )
        self._reader_task: asyncio.Task | None = None
        self._txn: Optional[Transaction] = None
        self._busy = False
        self._closing = False

    @property
    def idle(self) -> bool:
        return (
            not self._busy and self._queue.empty() and self._txn is None
        )

    def abort(self) -> None:
        """Hard-close the connection (drain timeout expired)."""
        self._closing = True
        if self._reader_task is not None:
            self._reader_task.cancel()
        try:
            self._writer.close()
        except Exception:
            pass

    def cleanup(self) -> None:
        """Roll back an orphaned transaction and release the lock."""
        if self._txn is not None:
            try:
                self._txn.rollback()
            except Exception:
                pass
            self._txn = None
            if self.server._write_lock.locked():
                self.server._write_lock.release()

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self._reader_task = loop.create_task(self._read_loop())
        session_span = obs.span("server.session") if obs.is_enabled else None
        if session_span is not None:
            session_span.__enter__()
        try:
            await self._process_loop()
        finally:
            if session_span is not None:
                try:
                    session_span.__exit__(None, None, None)
                except ValueError:
                    # The coroutine was torn down from the loop-close
                    # context; the histogram entry still lands.
                    pass
            self._reader_task.cancel()
            try:
                self._writer.close()
            except Exception:
                pass

    async def _read_loop(self) -> None:
        """Socket -> bounded queue.  A full queue suspends this task,
        which stops reading the socket: kernel-level backpressure."""
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._queue.put(_TOO_LONG)
                    return
                if not line:
                    await self._queue.put(None)
                    return
                if line.strip():
                    await self._queue.put(line)
        except (ConnectionError, OSError, asyncio.CancelledError):
            try:
                self._queue.put_nowait(None)
            except asyncio.QueueFull:
                pass

    async def _process_loop(self) -> None:
        while not self._closing:
            if self.server._draining and self._queue.empty():
                return
            try:
                line = await asyncio.wait_for(
                    self._queue.get(), timeout=0.25
                )
            except asyncio.TimeoutError:
                continue
            if line is None:
                return
            self._busy = True
            try:
                response = await self._handle_line(line)
            finally:
                self._busy = False
            if response is None:
                continue
            try:
                self._writer.write(protocol.dump_line(response))
                await self._writer.drain()
            except (ConnectionError, OSError):
                return
            if response.get("_close"):
                del response["_close"]
                return

    async def _handle_line(self, line: bytes) -> dict | None:
        _REQUESTS.add()
        if line is _TOO_LONG:
            self._closing = True
            return {
                "id": None,
                "ok": False,
                "error": "request line too long",
                "kind": "ProtocolError",
                "retry": False,
                "_close": True,
            }
        try:
            message = protocol.parse_line(line)
        except protocol.ProtocolError as exc:
            return _error(None, exc)
        request_id = message.get("id")
        command = message.get("cmd")
        if obs.is_enabled:
            with obs.span("server.request", cmd=str(command)):
                return await self._dispatch(request_id, command, message)
        return await self._dispatch(request_id, command, message)

    async def _dispatch(
        self, request_id: Any, command: Any, message: dict
    ) -> dict:
        server = self.server
        try:
            if command == "ping":
                return _ok(request_id, "pong")
            if command == "query":
                text = message.get("q")
                if not isinstance(text, str):
                    raise protocol.ProtocolError(
                        "query needs a string field 'q'"
                    )
                as_of = message.get("as_of")
                if as_of is not None and (
                    isinstance(as_of, bool) or not isinstance(as_of, int)
                ):
                    raise protocol.ProtocolError(
                        "query field 'as_of' must be an integer "
                        "transaction time (LSN)"
                    )
                if self._txn is not None:
                    # This session owns the writer lock: evaluate its
                    # own uncommitted state inline (re-acquiring the
                    # lock here would self-deadlock).  An AS OF read is
                    # refused here by the bitemporal layer: the open
                    # transaction's frames have no committed
                    # transaction time yet.
                    _READS.add()
                    return _ok(
                        request_id, server._inline_query(text, as_of)
                    )
                return _ok(
                    request_id, await server._run_query(text, as_of)
                )
            if command == "exec":
                return await self._exec(request_id, message)
            if command == "begin":
                return await self._begin(request_id)
            if command == "commit":
                return self._commit(request_id)
            if command == "rollback":
                return self._rollback(request_id)
            if command == "stats":
                return _ok(request_id, server.server_stats())
            if command == "close":
                response = _ok(request_id, "bye")
                response["_close"] = True
                return response
            raise protocol.ProtocolError(
                f"unknown command {command!r}"
            )
        except _Overloaded as exc:
            return _error(request_id, exc, retry=True)
        except (TChimeraError, parallel.QueryWorkerError) as exc:
            return _error(request_id, exc)
        except Exception as exc:  # engine invariant: never kill the session
            _note_internal_error()
            return _error(request_id, exc)

    async def _exec(self, request_id: Any, message: dict) -> dict:
        op = protocol.decode_op(message.get("op"))
        server = self.server
        if self._txn is not None:
            # Inside this session's transaction: apply inline (the
            # session already owns the writer lock); durability comes
            # with the transaction commit.
            from repro.faults.harness import apply_op

            result = apply_op(server.db, op)
            _WRITES.add()
            return _ok(request_id, protocol.encode_result(result))
        if server._draining:
            _REJECTIONS.add()
            raise _Overloaded("server is draining")
        result = await server.submit_write(op)
        return _ok(request_id, protocol.encode_result(result))

    async def _begin(self, request_id: Any) -> dict:
        if self._txn is not None:
            raise ServerError("transaction already open on this session")
        await self.server._write_lock.acquire()
        try:
            self._txn = Transaction(self.server.db).begin()
        except BaseException:
            self.server._write_lock.release()
            raise
        return _ok(request_id, "begun")

    def _commit(self, request_id: Any) -> dict:
        if self._txn is None:
            raise ServerError("no transaction open on this session")
        txn, self._txn = self._txn, None
        try:
            txn.commit()
        finally:
            self.server._write_lock.release()
        return _ok(request_id, "committed")

    def _rollback(self, request_id: Any) -> dict:
        if self._txn is None:
            raise ServerError("no transaction open on this session")
        txn, self._txn = self._txn, None
        try:
            txn.rollback()
        finally:
            self.server._write_lock.release()
        return _ok(request_id, "rolled back")


#: Sentinel queued when a request line exceeded the stream limit.
_TOO_LONG = object()


def _ok(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def _note_internal_error() -> None:
    """Count the exception being handled and keep its traceback."""
    global _last_internal_error
    _INTERNAL_ERRORS.add()
    _last_internal_error = traceback.format_exc()


def _error(request_id: Any, exc: Exception, retry: bool = False) -> dict:
    # QueryWorkerError/ServerError carry the originating engine
    # exception class in .kind; surface that, not the wrapper.
    kind = getattr(exc, "kind", None) or type(exc).__name__
    return {
        "id": request_id,
        "ok": False,
        "error": str(exc),
        "kind": kind,
        "retry": retry,
    }


# -- embedding helpers ------------------------------------------------------


async def serve(db: "TemporalDatabase", **kwargs: Any) -> TemporalServer:
    """Start a server on *db*; returns it once bound."""
    server = TemporalServer(db, **kwargs)
    await server.start()
    return server


class BackgroundServer:
    """A server on its own thread + event loop (tests, benchmarks).

    ::

        with BackgroundServer(db) as bg:
            client = ServerClient.connect(bg.host, bg.port)
    """

    def __init__(self, db: "TemporalDatabase", **kwargs: Any) -> None:
        self._db = db
        self._kwargs = kwargs
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._server: TemporalServer | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self.host = ""
        self.port = 0

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-server"
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServerError("server failed to start (timeout)")
        if self._failure is not None:
            raise ServerError(f"server failed to start: {self._failure}")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        """Serve until :meth:`stop` sets the event, then drain."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        try:
            self._server = TemporalServer(self._db, **self._kwargs)
            self.host, self.port = await self._server.start()
        except BaseException as exc:
            self._failure = exc
            return
        finally:
            self._ready.set()
        await self._stopping.wait()
        await self._server.stop()

    def stop(self) -> None:
        """Drain the server and join its thread."""
        if self._thread is None:
            return
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stopping.set)
            except RuntimeError:
                pass  # the loop already finished (start failed)
        self._thread.join(timeout=15)

    @property
    def server(self) -> TemporalServer:
        assert self._server is not None
        return self._server

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
