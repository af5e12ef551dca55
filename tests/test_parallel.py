"""The scatter-gather executor: equivalence, lifecycle, fallback.

The contract under test is that parallelism is *invisible* except in
wall-clock: every scatter-gather result equals the serial path's
result exactly -- across every temporal scope, every partition count
(including 1 and a prime that leaves buckets empty), pool crashes,
and the batch/suspended-cache states where the executor must stand
down entirely.

The pool-forcing fixture shrinks ``MIN_PARALLEL_ITEMS`` and zeroes the
scatter overhead so the cost model chooses parallel even on the small
extents a test can afford (and on single-core CI machines).
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys

import pytest

from repro import perf
from repro.database import parallel
from repro.database.database import Partitioning, TemporalDatabase
from repro.database.integrity import check_database
from repro.query import planner
from repro.query.ast import (
    Attr,
    Compare,
    CompareOp,
    Const,
    Contains,
    Not,
    Query,
    TemporalScope,
)
from repro.query.evaluator import evaluate
from repro.values.oid import OID

pytestmark = pytest.mark.parallel


def _spawns() -> int:
    return perf.counters.metric("parallel.spawns").count


def _fallbacks() -> int:
    return perf.counters.metric("parallel.fallbacks").count


def _kill_workers(pool: parallel.SnapshotPool) -> None:
    """SIGKILL every worker and wait for it to exit, leaving the
    zombie for the pool to reap (it owns the children)."""
    for pid in pool.pids:
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


@pytest.fixture
def forced(monkeypatch):
    """Make the cost model choose parallel on tiny test extents."""
    monkeypatch.setattr(parallel, "MIN_PARALLEL_ITEMS", 1)
    monkeypatch.setattr(parallel, "SCATTER_OVERHEAD", 0.0)
    monkeypatch.setattr(parallel, "SHIP_COST", 0.0)


def build_db(
    seed: int, n_objects: int = 40, n_partitions: int = 4
) -> TemporalDatabase:
    """A seeded workload over one class with hot/cold/tags churn."""
    rng = random.Random(seed)
    db = TemporalDatabase(n_partitions=n_partitions)
    db.define_class(
        "item",
        attributes=[
            ("hot", "temporal(integer)"),
            ("cold", "integer"),
            ("tags", "temporal(set-of(integer))"),
        ],
    )

    def _tags():
        return {rng.randrange(5) for _ in range(rng.randint(0, 3))}

    for _ in range(n_objects):
        db.create_object(
            "item",
            {"hot": rng.randrange(4), "cold": rng.randrange(4),
             "tags": _tags()},
        )
    for _ in range(8):
        db.tick(rng.randint(1, 3))
        for obj in list(db.live_objects()):
            if rng.random() < 0.4:
                db.update_attribute(obj.oid, "hot", rng.randrange(4))
            if rng.random() < 0.2:
                db.update_attribute(obj.oid, "tags", _tags())
        if rng.random() < 0.3:
            candidates = list(db.live_objects())
            if len(candidates) > 4:
                victim = rng.choice(candidates)
                if victim.lifespan.start < db.now:
                    db.delete_object(victim.oid)
    db.tick()
    return db


def _queries(db) -> list[Query]:
    """One query per temporal scope, over scan-forcing predicates."""
    predicates = [
        Compare(CompareOp.GE, Attr("hot"), Const(0)),
        Not(Compare(CompareOp.EQ, Attr("hot"), Const(2))),
        Contains(Attr("tags"), Const(3)),
    ]
    out = []
    for scope in TemporalScope:
        at = db.now // 2 if scope is TemporalScope.AT else None
        interval = (
            (db.now // 4, db.now // 2)
            if scope
            in (TemporalScope.SOMETIME_IN, TemporalScope.ALWAYS_IN)
            else None
        )
        for predicate in predicates:
            out.append(Query("item", predicate, scope, at, interval))
    return out


class TestPartitioning:
    def test_split_covers_population_exactly(self):
        split = Partitioning(4).split(OID(i) for i in range(37))
        assert len(split) == 4
        flat = [oid for bucket in split for oid in bucket]
        assert sorted(flat) == [OID(i) for i in range(37)]
        for index, bucket in enumerate(split):
            assert all(oid.serial % 4 == index for oid in bucket)

    def test_partition_of_matches_split(self):
        part = Partitioning(7)
        for serial in range(50):
            oid = OID(serial, "h")
            assert part.partition_of(oid) == serial % 7

    def test_single_partition_and_validation(self):
        assert Partitioning(1).split([OID(5)]) == [[OID(5)]]
        with pytest.raises(ValueError):
            Partitioning(0)

    def test_default_is_core_count(self):
        import os

        assert Partitioning().n_partitions == max(os.cpu_count() or 1, 1)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("n_partitions", [1, 4, 7])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_all_scopes_match_serial(self, forced, seed, n_partitions):
        db = build_db(seed, n_partitions=n_partitions)
        try:
            for query in _queries(db):
                with parallel.disabled():
                    serial = evaluate(db, query)
                assert evaluate(db, query) == serial, query.scope
        finally:
            parallel.shutdown(db)

    def test_no_predicate_plan_stays_serial(self, forced):
        db = build_db(3)
        try:
            chosen = planner.plan(
                db, Query("item", None, TemporalScope.NOW, None, None)
            )
            assert chosen.degree == 1
        finally:
            parallel.shutdown(db)


class TestPoolLifecycle:
    def test_pool_forks_once_and_respawns_on_mutation(self, forced):
        db = build_db(5)
        query = _queries(db)[0]
        try:
            before = _spawns()
            evaluate(db, query)
            evaluate(db, query)
            evaluate(db, query)
            assert _spawns() == before + 1  # one fork, three queries
            db.tick()  # version changes: (now, gen, ops)
            evaluate(db, query)
            assert _spawns() == before + 2
            db.update_attribute(
                next(iter(db.live_objects())).oid, "hot", 1
            )
            evaluate(db, query)
            assert _spawns() == before + 3
        finally:
            parallel.shutdown(db)

    def test_dead_pool_respawns_between_queries(self, forced):
        db = build_db(6)
        query = _queries(db)[0]
        try:
            with parallel.disabled():
                expected = evaluate(db, query)
            assert evaluate(db, query) == expected  # spawns the pool
            _kill_workers(db._parallel_pool)
            # A crash *between* scatters is repaired, not fallen back
            # from: the next query detects the dead pool and reforks.
            spawned, before = _spawns(), _fallbacks()
            assert evaluate(db, query) == expected
            assert _spawns() == spawned + 1
            assert _fallbacks() == before
        finally:
            parallel.shutdown(db)

    def test_mid_scatter_crash_falls_back_to_serial(
        self, forced, monkeypatch
    ):
        db = build_db(6)
        query = _queries(db)[0]
        try:
            with parallel.disabled():
                expected = evaluate(db, query)
            assert evaluate(db, query) == expected  # spawns the pool
            _kill_workers(db._parallel_pool)
            # Hide the corpse from both pre-scatter liveness checks
            # (the reuse decision and the run itself) so the death is
            # only discovered mid-scatter -- the moment a worker could
            # really die under a live scatter.
            real_alive = parallel.SnapshotPool.alive
            calls = {"n": 0}

            def flaky_alive(pool):
                calls["n"] += 1
                return True if calls["n"] <= 2 else real_alive(pool)

            monkeypatch.setattr(parallel.SnapshotPool, "alive", flaky_alive)
            before = _fallbacks()
            assert evaluate(db, query) == expected
            assert _fallbacks() > before
            # flaky_alive delegates to the real check from here on.
            # The broken pool is replaced on the next query.
            spawned = _spawns()
            assert evaluate(db, query) == expected
            assert _spawns() == spawned + 1
        finally:
            parallel.shutdown(db)

    def test_worker_utilization_metrics_recorded(self, forced):
        from repro import obs

        db = build_db(7)
        busy = perf.counters.metric("parallel.busy_us").count
        wall = perf.counters.metric("parallel.wall_us").count
        hist = obs.histogram("parallel.partition").count
        try:
            evaluate(db, _queries(db)[0])
            assert perf.counters.metric("parallel.busy_us").count > busy
            assert perf.counters.metric("parallel.wall_us").count > wall
            assert obs.histogram("parallel.partition").count > hist
        finally:
            parallel.shutdown(db)


class TestBatchInteraction:
    def test_mid_batch_stands_down(self, forced):
        db = build_db(8)
        query = _queries(db)[0]
        try:
            with db.batch():
                db.create_object(
                    "item", {"hot": 1, "cold": 1, "tags": set()}
                )
                assert not parallel.usable(db)
                assert planner.plan(db, query).degree == 1
            # After the coalesced reconciliation, scatter is legal
            # again and agrees with serial on the post-batch state.
            with parallel.disabled():
                expected = evaluate(db, query)
            assert evaluate(db, query) == expected
        finally:
            parallel.shutdown(db)

    def test_suspended_caches_stand_down(self, forced):
        db = build_db(9)
        query = _queries(db)[0]
        try:
            db.caches.suspend()
            assert not parallel.usable(db)
            assert planner.plan(db, query).degree == 1
            db.caches.resume(db, [])
            assert parallel.usable(db)
        finally:
            parallel.shutdown(db)


class TestExplain:
    def test_explain_renders_degree(self, forced):
        db = build_db(10)
        query = _queries(db)[0]
        try:
            chosen = planner.explain(db, query)
            assert chosen.degree == 4
            assert "parallel degree=4" in chosen.render()
            assert chosen.to_dict()["degree"] == 4
        finally:
            parallel.shutdown(db)

    def test_serial_plan_renders_no_degree(self):
        db = build_db(10)  # thresholds NOT forced: extent is tiny
        query = _queries(db)[0]
        chosen = planner.explain(db, query)
        assert chosen.degree == 1
        assert "parallel degree" not in chosen.render()


class TestAblation:
    def test_disabled_context_manager(self, forced):
        db = build_db(11)
        query = _queries(db)[0]
        before = _spawns()
        with parallel.disabled():
            assert not parallel.usable(db)
            assert planner.plan(db, query).degree == 1
            evaluate(db, query)
        assert _spawns() == before  # no pool ever forked

    def test_set_enabled_round_trip(self):
        assert parallel.set_enabled(False) is True
        assert parallel.is_enabled is False
        assert parallel.set_enabled(True) is False
        assert parallel.is_enabled is True

    def test_env_var_ablation(self):
        code = (
            "from repro.database import parallel\n"
            "assert not parallel.is_enabled\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"REPRO_NO_PARALLEL": "1", "PYTHONPATH": "src"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )


class TestIntegrityFanout:
    def _ref_db(self, n_partitions: int = 4) -> TemporalDatabase:
        db = TemporalDatabase(n_partitions=n_partitions)
        db.define_class(
            "node",
            attributes=[("peer", "node"), ("rank", "integer")],
        )
        db.tick()
        previous = None
        for rank in range(80):
            payload = {"rank": rank}
            if previous is not None:
                # serial k points at serial k-1: every single
                # reference crosses a partition boundary (k mod 4 !=
                # (k-1) mod 4), the exact shape a naive per-slice
                # "known oids" universe would false-flag.
                payload["peer"] = previous
            previous = db.create_object("node", payload)
        db.tick()
        return db

    def test_cross_partition_references_are_clean(self, forced):
        db = self._ref_db()
        try:
            report = check_database(db, use_parallel=True)
            assert report.ok, report.all_violations()
        finally:
            parallel.shutdown(db)

    def test_parallel_reports_same_violations_as_serial(self, forced):
        db = self._ref_db()
        try:
            # Corrupt one object directly (bypassing the update API);
            # both paths must flag the dangling reference identically.
            victim = db.get_object(OID(5, "node"))
            victim.value["peer"] = OID(999, "node")
            serial = check_database(db, use_parallel=False)
            parallel.shutdown(db)  # direct poke: force a fresh fork
            fanned = check_database(db, use_parallel=True)
            assert not serial.ok
            assert sorted(serial.all_violations()) == sorted(
                fanned.all_violations()
            )
        finally:
            parallel.shutdown(db)

    def test_serial_and_parallel_agree_on_workload(self, forced):
        db = build_db(12)
        try:
            serial = check_database(db, use_parallel=False)
            fanned = check_database(db, use_parallel=True)
            assert serial.ok and fanned.ok
            assert sorted(serial.all_violations()) == sorted(
                fanned.all_violations()
            )
        finally:
            parallel.shutdown(db)
