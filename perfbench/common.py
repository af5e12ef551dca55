"""Shared pieces: percentiles, the benchmark's own spans, counter
deltas, the run envelope, and process-group hygiene."""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class BenchError(RuntimeError):
    """A run that must not report figures: a wrong answer, a mechanism
    that did not engage, or a server that would not start or stop."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around the benchmark's calls into each
    layer: ``(id, parent, name, start, end, request)``.  A disabled
    tracer records nothing and costs one attribute test per call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.request = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        begun = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id] = (
                span_id, parent, name, begun, time.perf_counter(),
                self.request,
            )

    def absorb(self, other: "Tracer") -> None:
        """Append *other*'s spans, renumbered after this tracer's."""
        offset = len(self.spans)
        self.spans.extend(
            (i + offset, None if p is None else p + offset, *rest)
            for i, p, *rest in other.spans
        )

    def durations(self, name: str) -> list[float]:
        """Seconds spent in every closed span called *name*."""
        return [s[4] - s[3] for s in self.spans if s and s[2] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of
        it that its child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s and s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + s[4] - s[3]
        totals: dict[str, float] = {}
        for s in self.spans:
            if s:
                own = s[4] - s[3] - child_time.get(s[0], 0.0)
                totals[s[2]] = totals.get(s[2], 0.0) + own
        return totals

    def dump(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
             "end": s[4], "request": s[5]}
            for s in self.spans if s
        ]
        path.write_text(json.dumps(
            {"spans": rows, "self_time_s": self.self_times()}
        ))


# -- counters ----------------------------------------------------------------


def counter_delta(before: dict, after: dict) -> dict[str, dict]:
    """Per-name differences of two ``repro.perf.stats()`` snapshots."""
    delta = {}
    for name, fields in after.items():
        base = before.get(name, {})
        delta[name] = {
            key: value - base.get(key, 0)
            for key, value in fields.items() if key != "hit_rate"
        }
    return delta


def count(delta: dict, name: str, key: str = "count") -> int:
    return delta.get(name, {}).get(key, 0)


#: Engine cache counters reported as ``caches.<name>.hit_rate``.
CACHE_COUNTERS = (
    "database.attr_index",
    "database.extent_index",
    "database.membership_times",
    "database.pi",
    "database.snapshot",
    "planner.probe_memo",
    "subtyping.is_subtype",
    "subtyping.lub",
    "temporalvalue.starts",
)


def cache_hit_rates(delta: dict) -> dict[str, float]:
    rates = {}
    for name in CACHE_COUNTERS:
        hits = count(delta, name, "hits")
        rates[f"caches.{name}.hit_rate"] = ratio(
            hits, hits + count(delta, name, "misses")
        )
    return rates


# -- envelope ----------------------------------------------------------------


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a checkout without ``.git`` reports ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def envelope(**fields) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        **fields,
    }


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine so far: the share of
    a run's CPU time the hypervisor took away, a cause of spread that
    the run cannot remove."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- process groups ----------------------------------------------------------


def _live_processes():
    """``(pid, ppid, pgrp)`` of every process that has not exited."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            yield int(entry), int(fields[1]), int(fields[2])


def group_members(pgid: int) -> list[int]:
    """Live processes whose process group is *pgid*."""
    return [pid for pid, _pp, group in _live_processes() if group == pgid]


def reap_children() -> int:
    """SIGKILL and wait for every live child of this process (workers
    an engine pool left behind); returns how many there were."""
    me = os.getpid()
    found = [p for p, parent, _g in _live_processes() if parent == me]
    for pid in found:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return len(found)


def kill_group(pgid: int, timeout: float = 10.0) -> None:
    """SIGKILL every process of group *pgid* and wait until none is
    left alive."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while group_members(pgid):
        if time.monotonic() > deadline:
            raise BenchError(f"process group {pgid} survived SIGKILL")
        time.sleep(0.02)
