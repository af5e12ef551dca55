"""The concurrent serving layer (docs/server.md).

An asyncio TCP server speaking a newline-JSON protocol over the
existing query language: per-request MVCC read views keep readers off
the writers' path, auto-commit writes group-commit across sessions
through one ``db.batch()`` fsync barrier, and explicit per-session
transactions serialize on a global writer lock.

Public surface::

    from repro.server import TemporalServer, BackgroundServer, ServerClient

    with BackgroundServer(db) as bg:
        with ServerClient.connect(bg.host, bg.port) as client:
            client.query("select employee where salary > 2000")
"""

from repro.database.parallel import (
    QueryWorkerError,
    SnapshotPool,
    fork_available,
)
from repro.server.client import ServerClient
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_op,
    decode_result,
    dump_line,
    encode_op,
    encode_result,
    parse_line,
)
from repro.server.server import (
    BackgroundServer,
    TemporalServer,
    serve,
    stats,
)

__all__ = [
    "BackgroundServer",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "QueryWorkerError",
    "ServerClient",
    "SnapshotPool",
    "TemporalServer",
    "decode_op",
    "decode_result",
    "dump_line",
    "encode_op",
    "encode_result",
    "fork_available",
    "parse_line",
    "serve",
    "stats",
]
