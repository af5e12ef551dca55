"""Per-layer timing: the engine's read path called stage by stage.

:func:`staged_query` runs one query the way ``repro.query.evaluator.
evaluate`` does -- parse, resolve ``as of``, type-check and plan, run
the plan -- but through each module's public function in turn, inside
the benchmark's own spans.  :func:`wire_costs` adds the serving
stages: encoding the oids and the protocol's line codec.  The
``*_metrics`` helpers turn spans and counter deltas into the
``per_layer`` figures.
"""

from __future__ import annotations

from repro.bitemporal import asof as asof_mod
from repro.database.persistence import encode_value
from repro.query import planner
from repro.query.parser import parse_query
from repro.query.typing import type_check
from repro.server import protocol

from perfbench.common import (
    cache_hit_rates,
    count,
    median,
    percentile,
    ratio,
)

#: Stage spans whose sum is the in-process engine time of one query.
ENGINE_STAGES = (
    "query.parse", "bitemporal.resolve", "query.plan", "query.execute",
)


def staged_query(db, text: str, tracer):
    """Evaluate *text* on *db* stage by stage; returns ``(oids, plan,
    believed now)``."""
    with tracer.span("query.parse"):
        query = parse_query(text)
    target = db
    if query.as_of is not None:
        with tracer.span("bitemporal.resolve"):
            target = asof_mod.as_of(db, query.as_of)
    with tracer.span("query.plan"):
        type_check(query, target.get_class(query.class_name), target)
        chosen = planner.plan(target, query)
    with tracer.span("query.execute"):
        oids = planner.run(target, query, chosen)
    return oids, chosen, target.now


def wire_costs(request_id: int, text: str, oids, now: int, tracer) -> None:
    """The serving stages for one answer: encode the oids, write the
    reply line, parse the request line."""
    with tracer.span("persistence.encode"):
        encoded = [encode_value(oid) for oid in oids]
    reply = {
        "id": request_id, "ok": True,
        "result": {"oids": encoded, "count": len(encoded), "now": now},
    }
    with tracer.span("protocol.dump_line"):
        protocol.dump_line(reply)
    request = protocol.dump_line(
        {"cmd": "query", "q": text, "id": request_id}
    )
    with tracer.span("protocol.parse_line"):
        protocol.parse_line(request)


def engine_seconds(tracer, stages=ENGINE_STAGES) -> dict:
    """In-process engine time per request id (sum of *stages*)."""
    totals: dict = {}
    for span in tracer.spans:
        if span and span[2] in stages:
            totals[span[5]] = totals.get(span[5], 0.0) + span[4] - span[3]
    return totals


def query_metrics(tracer, plans, delta, queries: int) -> dict:
    """``query.*``, ``protocol.*``, ``persistence.*``, ``planner.*``,
    ``pagecache.*``, ``segment.*``, ``parallel.*`` and ``caches.*``."""
    us, ms = 1e6, 1e3
    execute = tracer.durations("query.execute")
    lookups = count(delta, "pagecache.pages", "hits") + count(
        delta, "pagecache.pages", "misses"
    )
    parallel_wall = count(delta, "parallel.wall_us")
    return {
        "protocol.dump_line_us": median(
            tracer.durations("protocol.dump_line")) * us,
        "protocol.parse_line_us": median(
            tracer.durations("protocol.parse_line")) * us,
        "query.parse_us": median(tracer.durations("query.parse")) * us,
        "query.plan_us": median(tracer.durations("query.plan")) * us,
        "query.scan_share": ratio(
            sum(1 for p in plans if p.access_path == "scan"), len(plans)
        ),
        "query.execute_ms.p50": median(execute) * ms,
        "query.execute_ms.p90": percentile(execute, 0.90) * ms,
        "planner.index_probes_per_query": ratio(
            count(delta, "planner.index_probes"), queries),
        "planner.rows_pruned_per_query": ratio(
            count(delta, "planner.rows_pruned"), queries),
        "persistence.encode_us": median(
            tracer.durations("persistence.encode")) * us,
        "pagecache.hit_rate": ratio(
            count(delta, "pagecache.pages", "hits"), lookups),
        "pagecache.lookups_per_query": ratio(lookups, queries),
        "pagecache.evictions_per_query": ratio(
            count(delta, "pagecache.pages", "invalidations"), queries),
        "segment.loaded_bytes_per_query": ratio(
            count(delta, "segment.loaded_bytes"), queries),
        "parallel.queries_per_query": ratio(
            count(delta, "parallel.queries"), queries),
        "parallel.busy_over_wall": ratio(
            count(delta, "parallel.busy_us"), parallel_wall),
        "parallel.spawns": count(delta, "parallel.spawns"),
        "parallel.fallbacks": count(delta, "parallel.fallbacks"),
        **cache_hit_rates(delta),
    }


def asof_metrics(tracer, delta, asof_queries: int) -> dict:
    """``bitemporal.*``: resolution time, memo hit rate (over the
    reads that were not at the head) and reconstructions per read."""
    historical = count(delta, "bitemporal.asof_reads") - count(
        delta, "bitemporal.head_hits"
    )
    return {
        "bitemporal.resolve_ms": median(
            tracer.durations("bitemporal.resolve")) * 1e3,
        "bitemporal.memo_hit_rate": ratio(
            count(delta, "bitemporal.cache_hits"), historical),
        "bitemporal.reconstructions_per_asof": ratio(
            count(delta, "bitemporal.reconstructions"), asof_queries),
    }


def commit_metrics(closes: list[float]) -> dict:
    return {
        "wal.commit_ms.p50": median(closes) * 1e3,
        "wal.commit_ms.p99": percentile(closes, 0.99) * 1e3,
    }
