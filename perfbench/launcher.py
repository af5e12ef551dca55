"""Run the stock ``repro serve`` and dump the engine's counters at exit.

Usage: ``python perfbench/launcher.py STATS.json serve DIR [options]``.

Everything after ``STATS.json`` goes unchanged to
``repro.__main__.main``.  When the server returns (after SIGTERM and
its graceful drain) this writes ``repro.perf.stats()`` and the
process's peak resident set to ``STATS.json``.  The counters live only
in the serving process, and the ``stats`` protocol command does not
carry the executor fork count, so this is the only way to read them.
Counters of forked snapshot workers never reach this process.
"""

import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    stats_path, serve_argv = argv[0], argv[1:]
    from repro import perf
    from repro.__main__ import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        payload = {
            "perf": perf.stats(),
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
        }
        tmp = stats_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, stats_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
