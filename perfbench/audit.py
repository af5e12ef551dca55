"""history-audit: in-process audits over cold, paged salary histories.

No server.  A journaled database holds long salary histories; a
checkpoint spills their cold prefix to segment files, a tail of
commits (updates plus retroactive corrections) follows it, and the
page-cache budget is set below the spilled bytes.  One thread runs
``AT t`` reads into the cold past, ``SOMETIME``/``ALWAYS in [a,b]``
windows, and ``at t as of <mark>`` reads pinned to the tail's commits.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import time

from repro import perf
from repro.bitemporal import asof as asof_mod
from repro.database import pagecache, parallel
from repro.database.recovery import open_database
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query

from perfbench import layers
from perfbench.common import (
    Tracer,
    counter_delta,
    count,
    median,
    peak_rss_mb_self,
    percentile,
    reap_children,
)
from perfbench.model import (
    SALARY_HI,
    SALARY_LO,
    commit_tail,
    generate_population,
    ingest,
)

OBJECTS = 80
PAIRS = 180
DEPTS = 4
#: Post-checkpoint commits; more than the AS OF memo holds (8).
MARKS = 24
#: The page-cache budget is the spilled bytes over this.
BUDGET_DIVISOR = 8
SETUP_REPS = 3
#: One block of the closed loop: 60% AT, 20% windows, 20% AS OF, in a
#: seeded order, so every run has the same mix.
BLOCK = ("at",) * 6 + ("window",) * 2 + ("asof",) * 2
#: The newest instant whose history is still cold after the checkpoint
#: (it keeps an 8-pair hot tail plus the open pair).
COLD_END = PAIRS - 10


def _setup_once(directory: str, seed: int):
    model = generate_population(seed, OBJECTS, PAIRS, 1.0, DEPTS)
    gc.collect()
    begun = time.perf_counter()
    db, _ = open_database(directory, sync="always")
    closes = ingest(db, model)
    ingested = time.perf_counter()
    db.checkpoint()
    marks = commit_tail(db, model, seed + 1, MARKS)
    opening = time.perf_counter()
    db, _ = open_database(directory, sync="always")
    done = time.perf_counter()
    return db, model, marks, closes, {
        "setup_s": done - begun,
        "ingest_s": ingested - begun,
        "open_s": done - opening,
    }


def _recent(rng: random.Random, newest: int, scale: float) -> int:
    """An instant at or before *newest*, favouring the recent past."""
    return max(0, newest - int(rng.expovariate(1.0 / scale)))


class QueryStream:
    """The seeded audit queries, with their model answers.

    Windows alternate between ``always`` and ``sometime``.  AS OF pins
    alternate between the next commit of a seeded cycle over all marks
    (a reconstruction, unless the memo still holds it) and a revisit of
    one of the last four pins (inside the memo's reach), so every run
    pays the same mix of reconstruction depths and memo hits.
    """

    def __init__(self, rng: random.Random, model, marks) -> None:
        self.rng, self.model, self.marks = rng, model, marks
        self.windows = 0
        self.pins: list = []
        self.cycle: list = []

    def _pin(self):
        if len(self.pins) % 2:
            return self.rng.choice(self.pins[-4:])
        if not self.cycle:
            self.cycle = list(self.marks)
            self.rng.shuffle(self.cycle)
        return self.cycle.pop()

    def next(self, kind: str):
        """``(text, oracle)``: the query and a thunk computing the
        model's answer (employee indexes)."""
        rng, model = self.rng, self.model
        threshold = rng.randrange(SALARY_LO, SALARY_HI)
        base = f"select employee where salary > {threshold}"
        if kind == "at":
            t = _recent(rng, COLD_END, 25)
            return f"{base} at {t}", lambda: model.above_at(threshold, t)
        if kind == "window":
            b = _recent(rng, COLD_END, 25)
            a = max(0, b - rng.randrange(4, 24))
            self.windows += 1
            always = self.windows % 2 == 0
            word = "always" if always else "sometime"
            return (
                f"{base} {word} in [{a},{b}]",
                lambda: model.above_window(threshold, a, b, always),
            )
        mark = self._pin()
        self.pins.append(mark)
        t = _recent(rng, mark.now, 20)
        return (
            f"{base} at {t} as of {mark.lsn}",
            lambda: mark.model.above_at(threshold, t),
        )


def _same(oids, model, expected) -> bool:
    return sorted(oids) == sorted(model.oids[i] for i in expected)


def run_pass(workdir: str, seed: int, seconds: float, traced: bool) -> dict:
    """One full run: set up, measure, check.  Returns the figures."""
    directory = tempfile.mkdtemp(prefix="audit-", dir=workdir)
    db, model, marks, closes, times = _setup_once(directory, seed)
    setups = [times]
    spilled = sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory) if name.endswith(".seg")
    )
    budget = max(4096, spilled // BUDGET_DIVISOR)
    pagecache.set_budget(budget)
    pagecache.clear()
    asof_mod.clear_cache()

    rng = random.Random(seed * 7919 + 11)
    queries = QueryStream(rng, model, marks)
    tracer = Tracer(traced)
    failures: list[str] = []

    def one(kind: str, request_id: int):
        text, oracle = queries.next(kind)
        tracer.request = request_id
        begun = time.perf_counter()
        try:
            if traced:
                oids, plan, now = layers.staged_query(db, text, tracer)
            else:
                oids, plan, now = evaluate(db, parse_query(text)), None, None
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{text}: {type(exc).__name__}: {exc}")
            return None
        latency = time.perf_counter() - begun
        if traced:
            layers.wire_costs(request_id, text, oids, now, tracer)
        return kind, text, latency, oids, oracle, plan, request_id

    # Warm-up: one query of each class forks the scatter-gather pool
    # and builds the indexes before timing starts.
    warm = [one(kind, -1 - i) for i, kind in enumerate(("at", "window", "asof"))]
    warm = [record for record in warm if record is not None]
    tracer.spans.clear()
    before = perf.stats()
    attempted = 0
    records = []
    begun = time.perf_counter()
    deadline = begun + seconds
    while time.perf_counter() < deadline:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if time.perf_counter() >= deadline:
                break
            attempted += 1
            record = one(kind, attempted)
            if record is not None:
                records.append(record)
    elapsed = time.perf_counter() - begun
    delta = counter_delta(before, perf.stats())

    mismatches = [
        text for _k, text, _l, oids, oracle, *_rest in warm + records
        if not _same(oids, model, oracle())
    ]
    # AS OF at every mark, untimed: each believed state must match.
    check_rng = random.Random(seed + 3)
    for mark in marks:
        threshold = check_rng.randrange(SALARY_LO, SALARY_HI)
        t = check_rng.randrange(0, mark.now + 1)
        text = f"select employee where salary > {threshold} at {t} as of {mark.lsn}"
        oids = evaluate(db, parse_query(text))
        if not _same(oids, model, mark.model.above_at(threshold, t)):
            mismatches.append(text)
    parallel.shutdown(db)
    asof_mod.clear_cache()
    leftover = reap_children()
    shutil.rmtree(directory, ignore_errors=True)
    # The other set-up repetitions run after the measured window, so
    # their median spans more than one stretch of machine speed.
    del db
    for _rep in range(1, SETUP_REPS):
        spare = tempfile.mkdtemp(prefix="audit-", dir=workdir)
        setups.append(_setup_once(spare, seed)[-1])
        shutil.rmtree(spare, ignore_errors=True)
    engaged = {
        "segment loads": count(delta, "segment.loaded_bytes"),
        "page-cache evictions": count(
            delta, "pagecache.pages", "invalidations"),
        "AS OF reconstructions": count(
            delta, "bitemporal.reconstructions"),
    }
    problems = [f"answer differs from the model: {text}" for text in mismatches]
    problems += [
        f"mechanism did not engage: no {name}"
        for name, value in engaged.items() if value <= 0
    ]

    latencies = [r[2] for r in records]
    asof = [r[2] for r in records if r[0] == "asof"]
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": attempted - len(records),
        "end_to_end": {
            "setup_s": median([s["setup_s"] for s in setups]),
            "ops_per_s": len(records) / elapsed,
            "read_p50_ms": median(latencies) * 1e3,
            "read_tail_ms": percentile(latencies, 0.90) * 1e3,
            "peak_rss_mb": peak_rss_mb_self(),
        },
        "extra": {
            "clients": 1,
            "read_tail": "p90",
            "asof_p50_ms": median(asof) * 1e3,
            "samples": {kind: sum(1 for r in records if r[0] == kind)
                        for kind in ("at", "window", "asof")},
            "page_cache_budget_bytes": budget,
            "spilled_bytes": spilled,
            "engaged": engaged,
            "failures": failures[:5],
        },
        "tracer": tracer,
    }
    if traced:
        engine = layers.engine_seconds(tracer)
        outside = [(r[2] - engine[r[6]]) * 1e3 for r in records]
        plans = [r[5] for r in records]
        result["per_layer"] = {
            "server.outside_engine_ms": median(outside),
            "server.executor_forks_per_kop": 0,
            "server.writes_per_commit": 0,
            "server.rejections": 0,
            "server.leaked_processes": leftover,
            **layers.query_metrics(tracer, plans, delta, len(records)),
            **layers.commit_metrics(closes),
            "wal.syncs_per_write": 0,
            "mvcc.views_per_read": 0,
            "mvcc.copies_per_write": 0,
            **layers.asof_metrics(tracer, delta, len(asof)),
            "recovery.open_s": median([s["open_s"] for s in setups]),
            "batch.ingest_s": median([s["ingest_s"] for s in setups]),
        }
    return result
