"""Seeded data sets, their ingestion, and the plain-Python oracle.

Every input the benchmark feeds the engine is generated here from the
run's seed, with :mod:`random` only -- never with ``repro.workloads``,
so a change to the program cannot change its own inputs.  Alongside
each data set the benchmark keeps its own model of every history it
wrote: one Python list per object, ``values[t]`` being the salary at
instant ``t``.  Query answers are checked against that model.
"""

from __future__ import annotations

import random
import time

SALARY_LO, SALARY_HI = 1000, 9000


class Employees:
    """The model of one employee population.

    ``names[i]``/``depts[i]`` are static; ``salary[i][t]`` is the
    salary of employee *i* at instant *t* for ``0 <= t <= now``
    (a history extends to the current instant).
    """

    def __init__(self, names, depts, salary, now):
        self.names = names
        self.depts = depts
        self.salary = salary
        self.now = now
        self.oids: list = []

    def at(self, i: int, t: int) -> int:
        history = self.salary[i]
        return history[t] if t < len(history) else history[-1]

    def tick(self) -> None:
        self.now += 1
        for history in self.salary:
            history.append(history[-1])

    def set(self, i: int, value: int) -> None:
        self.salary[i][self.now] = value

    def correct(self, i: int, start: int, end: int, value: int) -> None:
        history = self.salary[i]
        for t in range(start, end + 1):
            history[t] = value

    def copy(self) -> "Employees":
        model = Employees(
            self.names, self.depts, [list(h) for h in self.salary], self.now
        )
        model.oids = self.oids
        return model

    # -- query oracles ---------------------------------------------------

    def name_eq(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def dept_range(self, dept: str, lo: int, hi: int) -> list[int]:
        now = self.now
        return [
            i for i, d in enumerate(self.depts)
            if d == dept and lo <= self.at(i, now) < hi
        ]

    def salary_eq_at(self, value: int, t: int) -> list[int]:
        return [i for i in range(len(self.names)) if self.at(i, t) == value]

    def above_at(self, threshold: int, t: int) -> list[int]:
        return [
            i for i in range(len(self.names)) if self.at(i, t) > threshold
        ]

    def above_window(self, threshold: int, a: int, b: int, always: bool):
        test = all if always else any
        return [
            i for i in range(len(self.names))
            if test(self.at(i, t) > threshold for t in range(a, b + 1))
        ]


def _define_schema(db) -> None:
    db.define_class("person", attributes=[("name", "string")])
    db.define_class(
        "employee",
        parents=["person"],
        attributes=[("salary", "temporal(integer)"), ("dept", "string")],
    )


def generate_population(
    seed: int, n: int, ticks: int, update_share: float, depts: int
) -> Employees:
    """*n* employees with *ticks*-instant salary histories."""
    rng = random.Random(seed)
    names = [f"e{i:05d}" for i in range(n)]
    dept_names = [f"d{k}" for k in range(depts)]
    model = Employees(
        names,
        [rng.choice(dept_names) for _ in range(n)],
        [[rng.randrange(SALARY_LO, SALARY_HI)] for _ in range(n)],
        0,
    )
    for _ in range(1, ticks):
        model.tick()
        for i in range(n):
            if update_share >= 1.0 or rng.random() < update_share:
                model.set(i, rng.randrange(SALARY_LO, SALARY_HI))
    return model


def ingest(db, model: Employees) -> list[float]:
    """Write *model* through ``db.batch()``: one batch creating the
    population, then one tick plus one batch per later instant.

    Returns the seconds each batch took to close (its commit).  Fills
    ``model.oids``.
    """
    _define_schema(db)
    closes: list[float] = []
    n = len(model.names)
    batch = db.batch()
    batch.__enter__()
    oids = [
        db.create_object(
            "employee",
            {
                "name": model.names[i],
                "dept": model.depts[i],
                "salary": model.salary[i][0],
            },
        )
        for i in range(n)
    ]
    begun = time.perf_counter()
    batch.__exit__(None, None, None)
    closes.append(time.perf_counter() - begun)
    for t in range(1, model.now + 1):
        db.tick(1)
        batch = db.batch()
        batch.__enter__()
        for i in range(n):
            if model.salary[i][t] != model.salary[i][t - 1]:
                db.update_attribute(oids[i], "salary", model.salary[i][t])
        begun = time.perf_counter()
        batch.__exit__(None, None, None)
        closes.append(time.perf_counter() - begun)
    model.oids = oids
    return closes


class Mark:
    """One post-checkpoint commit: its LSN, clock, and believed model."""

    __slots__ = ("lsn", "now", "model")

    def __init__(self, lsn: int, now: int, model: Employees) -> None:
        self.lsn = lsn
        self.now = now
        self.model = model


def commit_tail(db, model: Employees, seed: int, n_marks: int) -> list[Mark]:
    """*n_marks* post-checkpoint commits, each a tick plus one batch of
    salary updates and retroactive corrections; returns the marks."""
    rng = random.Random(seed)
    n = len(model.names)
    marks: list[Mark] = []
    for _ in range(n_marks):
        db.tick(1)
        model.tick()
        with db.batch():
            for i in rng.sample(range(n), max(1, n // 4)):
                value = rng.randrange(SALARY_LO, SALARY_HI)
                db.update_attribute(model.oids[i], "salary", value)
                model.set(i, value)
            for i in rng.sample(range(n), 2):
                end = model.now - rng.randrange(2, 40)
                start = max(0, end - rng.randrange(1, 12))
                value = rng.randrange(SALARY_LO, SALARY_HI)
                db.correct_attribute(
                    model.oids[i], "salary", start, end, value
                )
                model.correct(i, start, end, value)
        # The batch ends with its commit marker; the transaction time of
        # the commit is its last data record (recovery skips markers,
        # and a reopened journal's ``last_lsn`` is that record).
        marks.append(Mark(db.journal.last_lsn - 1, db.now, model.copy()))
    return marks
