#!/usr/bin/env python3
"""The end-to-end benchmark of the T_Chimera engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-point --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``serve-point``, ``serve-mixed``, ``history-audit`` (see
``perfbench/README.md``).  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off.  With ``--trace 1`` it runs the
workload twice, untraced and then with the benchmark's spans around
every call into the engine's layers, and reports the per-layer metrics
plus the tracing overhead.  Every answer is checked against the
benchmark's own model of the data it wrote.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``envelope {...}``) records the machine, the inputs and the per-class
figures that are not metrics.  Exit status 0 means the run was
correct and every workload mechanism engaged.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-point", "serve-mixed", "history-audit")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "server.outside_engine_ms": "ms",
    "server.executor_forks_per_kop": "count/kop",
    "server.writes_per_commit": "count",
    "server.rejections": "count",
    "server.leaked_processes": "count",
    "protocol.dump_line_us": "us",
    "protocol.parse_line_us": "us",
    "query.parse_us": "us",
    "query.plan_us": "us",
    "query.scan_share": "ratio",
    "query.execute_ms.p50": "ms",
    "query.execute_ms.p90": "ms",
    "planner.index_probes_per_query": "count",
    "planner.rows_pruned_per_query": "count",
    "persistence.encode_us": "us",
    "wal.commit_ms.p50": "ms",
    "wal.commit_ms.p99": "ms",
    "wal.syncs_per_write": "ratio",
    "mvcc.views_per_read": "ratio",
    "mvcc.copies_per_write": "ratio",
    "pagecache.hit_rate": "ratio",
    "pagecache.lookups_per_query": "count",
    "pagecache.evictions_per_query": "count",
    "segment.loaded_bytes_per_query": "bytes",
    "parallel.queries_per_query": "ratio",
    "parallel.busy_over_wall": "ratio",
    "parallel.spawns": "count",
    "parallel.fallbacks": "count",
    "caches.database.attr_index.hit_rate": "ratio",
    "caches.database.extent_index.hit_rate": "ratio",
    "caches.database.membership_times.hit_rate": "ratio",
    "caches.database.pi.hit_rate": "ratio",
    "caches.database.snapshot.hit_rate": "ratio",
    "caches.planner.probe_memo.hit_rate": "ratio",
    "caches.subtyping.is_subtype.hit_rate": "ratio",
    "caches.subtyping.lub.hit_rate": "ratio",
    "caches.temporalvalue.starts.hit_rate": "ratio",
    "bitemporal.resolve_ms": "ms",
    "bitemporal.memo_hit_rate": "ratio",
    "bitemporal.reconstructions_per_asof": "ratio",
    "recovery.open_s": "s",
    "batch.ingest_s": "s",
    "trace.overhead_pct": "%",
}


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args, workdir: Path) -> tuple[dict, dict]:
    from perfbench.common import cpu_ticks, envelope

    steal_before, total_before = cpu_ticks()
    if args.workload == "history-audit":
        from perfbench import audit

        def one_pass(traced):
            return audit.run_pass(str(workdir), args.seed, args.seconds, traced)
    else:
        from perfbench import serve

        def one_pass(traced):
            return serve.run_pass(
                args.workload, workdir, args.seed, args.seconds, traced
            )

    passes = [one_pass(False)]
    if args.trace:
        passes.append(one_pass(True))
    main, last = passes[0], passes[-1]
    if args.trace:
        metrics = dict(last["per_layer"])
        metrics["trace.overhead_pct"] = 100.0 * (
            main["end_to_end"]["ops_per_s"]
            / last["end_to_end"]["ops_per_s"] - 1.0
        )
        trace_file = (
            ROOT / ".perfbench"
            / f"trace-{args.workload}-seed{args.seed}.json"
        )
        last["tracer"].dump(trace_file)
        units = PER_LAYER
    else:
        metrics = main["end_to_end"]
        trace_file = None
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    report = {
        "correct": not any(p["problems"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    steal_after, total_after = cpu_ticks()
    info = envelope(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sync="always",
        cpu_steal_share=(steal_after - steal_before)
        / max(1, total_after - total_before),
        **main["extra"],
        problems=[text for p in passes for text in p["problems"]][:10],
        trace_file=str(trace_file.relative_to(ROOT)) if trace_file else None,
    )
    return report, info


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no engine source under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    # The engine reads its knobs from REPRO_* variables at import;
    # every run uses the defaults.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    from perfbench.common import BenchError

    try:
        report, info = _run(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    print(
        f"  attempted {report['attempted']}  failed {report['failed']}  "
        f"error_rate {report['failed'] / max(1, report['attempted']):.4f}"
    )
    print("envelope " + json.dumps(info, sort_keys=True))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
