"""The transaction-time (``AS OF``) read surface.

The value-equality property (``AS OF <lsn>`` == ``restore_to(lsn)``
for every valid-time scope) lives in ``tests/test_query_oracle.py``;
this file covers everything around it: the refusal rules, the head
fast path and the LRU memo, the parser/planner/EXPLAIN surface, the
``repro asof`` CLI, and the server's ``as_of`` request field.
"""

import json

import pytest

from repro.bitemporal import asof as asof_mod
from repro.database.recovery import open_database
from repro.database.database import TemporalDatabase
from repro.database.transactions import Transaction
from repro.errors import BitemporalError, QuerySyntaxError, ServerError
from repro.faults.fs import SimulatedFS
from repro.query import evaluate, parse_query
from repro.query.planner import RECONSTRUCT_COST, explain


@pytest.fixture(autouse=True)
def fresh_memo():
    asof_mod.clear_cache()
    yield
    asof_mod.clear_cache()


def grow(directory="/db", fs=None, people=4):
    """A journaled database with a few committed transaction times.

    Returns ``(db, fs, marks)``; *marks* are ``(lsn, now)`` pairs at
    clean commit boundaries."""
    fs = fs or SimulatedFS()
    db, _ = open_database(directory, fs=fs)
    db.define_class(
        "person",
        attributes=[("name", "string"), ("score", "temporal(integer)")],
    )
    db.tick()
    marks = []
    for index in range(people):
        oid = db.create_object(
            "person", {"name": f"p{index}", "score": index}
        )
        db.tick()
        db.update_attribute(oid, "score", index * 10)
        marks.append((db.journal.last_lsn, db.now))
    return db, fs, marks


class TestRefusals:
    def test_unjournaled_database_has_no_transaction_time(self):
        db = TemporalDatabase()
        with pytest.raises(BitemporalError, match="no journal"):
            asof_mod.transaction_now(db)
        with pytest.raises(BitemporalError, match="journal-backed"):
            asof_mod.as_of(db, 1)

    def test_future_lsn_is_refused(self):
        db, _, _ = grow()
        head = db.journal.last_lsn
        with pytest.raises(BitemporalError, match="in the future"):
            db.as_of(head + 1)

    def test_prehistoric_and_non_integer_lsns_are_refused(self):
        db, _, _ = grow()
        with pytest.raises(BitemporalError, match="starts at LSN 1"):
            db.as_of(0)
        with pytest.raises(BitemporalError, match="starts at LSN 1"):
            db.as_of(-3)
        with pytest.raises(BitemporalError, match="integer"):
            db.as_of(True)
        with pytest.raises(BitemporalError, match="integer"):
            db.as_of("7")

    def test_mid_transaction_read_is_refused(self):
        db, _, marks = grow()
        with pytest.raises(BitemporalError, match="open transaction"):
            with Transaction(db):
                db.as_of(marks[0][0])
        # Committed again: the same read succeeds.
        assert db.as_of(marks[0][0]).now == marks[0][1]

    def test_mid_batch_read_is_refused(self):
        db, _, marks = grow()
        with pytest.raises(BitemporalError, match="open batch"):
            with db.batch():
                db.as_of(marks[0][0])

    def test_checkpoint_truncation_bounds_history(self):
        db, _, marks = grow()
        db.checkpoint()
        db.tick()
        db.create_object("person", {"name": "late", "score": 99})
        # Transaction times before the checkpoint are unreachable now.
        with pytest.raises(BitemporalError, match="cannot reconstruct"):
            db.as_of(marks[0][0])
        # The head is always reachable.
        assert db.as_of(db.journal.last_lsn) is db


class TestHeadAndMemo:
    def test_head_read_returns_the_live_database(self):
        db, _, _ = grow()
        before = asof_mod.stats()["head_hits"]
        assert db.as_of(db.journal.last_lsn) is db
        assert asof_mod.stats()["head_hits"] == before + 1

    def test_transaction_now_is_the_last_committed_lsn(self):
        db, _, _ = grow()
        assert db.transaction_now == db.journal.last_lsn
        assert asof_mod.transaction_now(db) == db.journal.last_lsn
        assert TemporalDatabase().transaction_now is None

    def test_historical_reads_are_memoized(self):
        db, _, marks = grow()
        lsn = marks[1][0]
        baseline = asof_mod.stats()
        first = db.as_of(lsn)
        again = db.as_of(lsn)
        assert again is first
        stats = asof_mod.stats()
        assert stats["reconstructions"] == baseline["reconstructions"] + 1
        assert stats["cache_hits"] == baseline["cache_hits"] + 1
        assert stats["cache_entries"] >= 1

    def test_memo_capacity_is_bounded(self, monkeypatch):
        db, _, marks = grow(people=6)
        monkeypatch.setattr(asof_mod, "cache_capacity", 2)
        for lsn, _ in marks[:-1]:
            db.as_of(lsn)
        assert asof_mod.stats()["cache_entries"] <= 2

    def test_zero_capacity_disables_memoization(self, monkeypatch):
        db, _, marks = grow()
        monkeypatch.setattr(asof_mod, "cache_capacity", 0)
        lsn = marks[0][0]
        assert db.as_of(lsn) is not db.as_of(lsn)
        assert asof_mod.stats()["cache_entries"] == 0

    def test_same_path_on_two_disks_never_aliases(self):
        """Two databases sharing a directory name (distinct simulated
        disks) must not serve each other's reconstructions."""
        first, _, first_marks = grow(people=2)
        second, _, _ = grow(people=3)
        lsn = first_marks[0][0]
        assert first.as_of(lsn) is not second.as_of(lsn)
        assert first.as_of(lsn).now == first_marks[0][1]

    def test_believed_extent(self):
        db, _, marks = grow()
        lsn, believed_now = marks[0][0], marks[0][1]
        extent = asof_mod.believed_extent(db, lsn, "person", believed_now)
        assert len(extent) == 1
        head_extent = db.extent("person", db.now)
        assert len(head_extent) == 4


class TestReopen:
    """Transaction time survives ``open_database``: the trailing commit
    marker of a batch keeps its LSN, and the next append goes past it."""

    def _grow_with_batch(self):
        db, fs, _ = grow()
        with db.batch():
            db.create_object("person", {"name": "late", "score": 1})
            db.create_object("person", {"name": "later", "score": 2})
        return db, fs

    def test_lsns_stay_strictly_increasing_across_reopen(self):
        from repro.database.wal import iter_frames

        db, fs = self._grow_with_batch()
        marker = db.journal.last_lsn
        reopened, _ = open_database("/db", fs=fs)
        assert reopened.journal.last_lsn == marker
        reopened.tick()
        frames = [
            (frame.lsn, frame.kind)
            for frame in iter_frames("/db/journal.wal", fs=fs)
        ]
        assert (marker, "commit") in frames
        lsns = [lsn for lsn, _ in frames]
        assert lsns == sorted(set(lsns)), frames

    def test_as_of_commit_marker_after_reopen_equals_restore_to(self):
        from repro.replication.pitr import restore_to

        db, fs = self._grow_with_batch()
        marker = db.journal.last_lsn
        reopened, _ = open_database("/db", fs=fs)
        reopened.tick()  # the marker is no longer the head
        believed = reopened.as_of(marker)
        restored, _ = restore_to("/db", lsn=marker, fs=fs)
        assert believed.now == restored.now == db.now
        assert db_names(believed) == db_names(restored) == db_names(db)


def db_names(db) -> set:
    return {
        db.get_object(oid).value["name"]
        for oid in db.extent("person", db.now)
    }


class TestQuerySurface:
    def test_as_of_clause_parses(self):
        query = parse_query("select person where score > 5 at 2 as of 9")
        assert query.as_of == 9
        assert parse_query("select person").as_of is None

    def test_as_of_requires_an_integer(self):
        with pytest.raises(QuerySyntaxError, match="integer"):
            parse_query("select person as of soon")
        with pytest.raises(QuerySyntaxError, match="integer"):
            parse_query("select person as of 1.5")

    def test_evaluate_routes_through_the_believed_state(self):
        db, _, marks = grow()
        lsn = marks[1][0]
        believed = db.as_of(lsn)
        want = evaluate(believed, parse_query("select person"))
        got = evaluate(db, parse_query(f"select person as of {lsn}"))
        assert got == want
        assert len(got) == 2

    def test_explain_pins_the_transaction_time(self):
        db, _, marks = grow()
        head = db.journal.last_lsn
        at_head = explain(db, parse_query(f"select person as of {head}"))
        rendered = at_head.render()
        assert f"txn-time as of lsn {head}" in rendered
        assert "at head, live state" in rendered
        assert at_head.est_cost_reconstruct == 0.0

        lsn = marks[0][0]
        historical = explain(db, parse_query(f"select person as of {lsn}"))
        rendered = historical.render()
        assert f"txn-time as of lsn {lsn}" in rendered
        assert "historical" in rendered
        assert historical.est_cost_reconstruct == RECONSTRUCT_COST * lsn
        assert historical.to_dict()["as_of"] == lsn

    def test_plain_explain_has_no_txn_time_line(self):
        db, _, _ = grow()
        plan = explain(db, parse_query("select person"))
        assert "txn-time" not in plan.render()
        assert plan.as_of is None


class TestServerRoundTrip:
    @pytest.fixture()
    def served(self, tmp_path):
        from repro.server import BackgroundServer, ServerClient

        db, _ = open_database(tmp_path / "db")
        with BackgroundServer(db) as bg:
            client = ServerClient.connect(bg.host, bg.port)
            try:
                yield db, client
            finally:
                client.close()

    def _seed(self, client) -> list:
        client.execute((
            "define_class", "person", [],
            [("name", "string"), ("score", "temporal(integer)")],
        ))
        client.execute(("tick", 1))
        marks = []
        for index in range(3):
            client.execute((
                "create", "person",
                {"name": f"p{index}", "score": index},
            ))
            client.execute(("tick", 1))
            marks.append(index + 1)
        return marks

    def test_as_of_field_round_trips(self, served):
        db, client = self._seed_and_marks(served)
        head = db.journal.last_lsn
        past = head - 2  # before the last create+tick pair
        full = client.query_raw("select person", as_of=head)
        assert full["count"] == 3
        assert full["as_of"] == head
        believed = client.query_raw("select person", as_of=past)
        assert believed["count"] == 2
        assert believed["as_of"] == past
        assert believed["now"] < full["now"]

    def test_in_text_clause_matches_field(self, served):
        db, client = self._seed_and_marks(served)
        past = db.journal.last_lsn - 2
        via_field = client.query_raw("select person", as_of=past)
        via_text = client.query_raw(f"select person as of {past}")
        assert via_field["oids"] == via_text["oids"]
        assert via_field["now"] == via_text["now"]
        # The explicit field wins over the in-text clause.
        both = client.query_raw("select person as of 1", as_of=past)
        assert both["as_of"] == past
        assert both["oids"] == via_field["oids"]

    def test_malformed_as_of_field_is_a_protocol_error(self, served):
        _, client = self._seed_and_marks(served)
        for bad in (True, "7", 1.5):
            with pytest.raises(ServerError, match="as_of"):
                client.request(
                    {"cmd": "query", "q": "select person", "as_of": bad}
                )

    def test_future_lsn_is_refused_over_the_wire(self, served):
        db, client = self._seed_and_marks(served)
        with pytest.raises(ServerError, match="in the future") as info:
            client.query_raw("select person", as_of=db.journal.last_lsn + 5)
        assert info.value.kind == "BitemporalError"

    def test_as_of_inside_a_session_transaction_is_refused(self, served):
        db, client = self._seed_and_marks(served)
        past = db.journal.last_lsn - 2
        client.begin()
        try:
            with pytest.raises(ServerError, match="open transaction"):
                client.query_raw("select person", as_of=past)
        finally:
            client.rollback()
        # After rollback the same read succeeds again.
        assert client.query_raw("select person", as_of=past)["count"] == 2

    def _seed_and_marks(self, served):
        db, client = served
        self._seed(client)
        return db, client


class TestCLI:
    @pytest.fixture(scope="class")
    def journaled_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("asof") / "db"
        db, _ = open_database(directory)
        db.define_class(
            "person",
            attributes=[("name", "string"), ("score", "temporal(integer)")],
        )
        db.tick()
        for index in range(3):
            db.create_object("person", {"name": f"p{index}", "score": index})
            db.tick()
        return directory, db.journal.last_lsn

    def test_summary_and_query(self, journaled_dir):
        from tests.test_cli import run_cli

        directory, head = journaled_dir
        result = run_cli("asof", str(directory), "--lsn", str(head - 2))
        assert result.returncode == 0
        assert "a reconstruction" in result.stdout
        assert f"head lsn {head}" in result.stdout

        result = run_cli(
            "asof", str(directory), "--lsn", str(head),
            "--query", "select person",
        )
        assert result.returncode == 0
        assert "3 result(s)" in result.stdout

    def test_json_summary(self, journaled_dir):
        from tests.test_cli import run_cli

        directory, head = journaled_dir
        result = run_cli(
            "asof", str(directory), "--lsn", str(head - 2), "--json"
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["lsn"] == head - 2
        assert payload["head_lsn"] == head
        assert payload["at_head"] is False
        assert payload["objects"] == 2

    def test_future_lsn_fails_cleanly(self, journaled_dir):
        from tests.test_cli import run_cli

        directory, head = journaled_dir
        result = run_cli("asof", str(directory), "--lsn", str(head + 9))
        assert result.returncode == 1
        assert "asof failed" in result.stderr
        assert "in the future" in result.stderr
