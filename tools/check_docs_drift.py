#!/usr/bin/env python
"""Docs-drift lint: documented names must exist in the code registries.

Scans ``README.md`` and ``docs/*.md`` (or explicit file arguments) for
three vocabularies and asserts each documented name is real:

* **perf/obs metric names** -- backtick-quoted dotted lowercase tokens
  (``database.pi``, ``wal.syncs``, ``obs.spans``, ``db.snapshot``)
  whose first segment matches a registered family.  Checked against
  the live ``repro.perf`` counter/metric registry (imported, not
  grepped, so the lint can't drift either) plus the span kinds in
  ``repro.obs.KINDS``;
* **environment variables** -- ``REPRO_*`` tokens, checked against the
  variables actually read anywhere under ``src/``;
* **CLI subcommands** -- ``repro <cmd>`` / ``python -m repro <cmd>``
  inside backticks or fenced code blocks, checked against the real
  ``repro.__main__.build_parser()`` subcommand registry.

Exit 0 when every documented name exists, 1 otherwise (listing each
orphan with its file).  Wired as the ``docs-drift`` CI job; the
negative test in tests/test_obs.py asserts a deliberately orphaned
metric name fails.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

BACKTICK = re.compile(r"`([^`\n]+)`")
FENCE = re.compile(r"^```")
ENV_VAR = re.compile(r"\b(REPRO_[A-Z0-9_]+)")
# A metric reference is an *entire* inline-backtick token: `wal.syncs`.
# Substrings of code (`db.tick(10)`) or module/file names are not.
DOTTED = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$")
FILE_SUFFIXES = (".json", ".md", ".py", ".txt", ".yml")
CLI = re.compile(r"(?:python -m repro|^\$ repro|^repro) +([a-z][a-z-]+)\b")


def _known_names() -> tuple[set, set, set]:
    """(metric/span names, env vars, CLI subcommands) from the code."""
    sys.path.insert(0, str(SRC))
    # Importing these registers every counter/metric family.
    import repro.bitemporal.asof  # noqa: F401
    import repro.constraints.constraints  # noqa: F401
    import repro.database.batch  # noqa: F401
    import repro.database.database  # noqa: F401
    import repro.database.mvcc  # noqa: F401
    import repro.database.pagecache  # noqa: F401
    import repro.database.parallel  # noqa: F401
    import repro.database.recovery  # noqa: F401
    import repro.database.segments  # noqa: F401
    import repro.database.wal  # noqa: F401
    import repro.query.planner  # noqa: F401
    import repro.replication.replica  # noqa: F401
    import repro.replication.shipper  # noqa: F401
    import repro.server.server  # noqa: F401
    import repro.temporal.temporalvalue  # noqa: F401
    import repro.types.subtyping  # noqa: F401
    from repro import obs, perf
    from repro.__main__ import build_parser

    names = set(perf.stats()) | set(obs.KINDS)

    env_vars: set[str] = set()
    for path in SRC.rglob("*.py"):
        env_vars.update(ENV_VAR.findall(path.read_text(encoding="utf-8")))

    sub_action = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    commands = set(sub_action.choices)
    return names, env_vars, commands


def _doc_snippets(text: str) -> tuple[list[str], list[str]]:
    """(inline backtick tokens, fenced-code-block lines)."""
    tokens = list(BACKTICK.findall(text))
    lines: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            lines.append(line.strip())
    return tokens, lines


def check_file(
    path: Path, names: set, env_vars: set, commands: set
) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    families = {name.split(".", 1)[0] for name in names}
    tokens, code_lines = _doc_snippets(text)
    for snippet in tokens + code_lines:
        for var in ENV_VAR.findall(snippet):
            if var not in env_vars:
                problems.append(
                    f"{path.name}: env var `{var}` is not read anywhere "
                    "under src/"
                )
        for command in CLI.findall(snippet):
            if command not in commands:
                problems.append(
                    f"{path.name}: CLI subcommand `repro {command}` does "
                    "not exist"
                )
    for token in tokens:
        if not DOTTED.fullmatch(token):
            continue
        if token.endswith(FILE_SUFFIXES):
            continue  # an example file name, not a metric
        if token.split(".", 1)[0] not in families:
            continue  # a module path, not a metric
        if token not in names:
            problems.append(
                f"{path.name}: metric/span `{token}` is not in the "
                "perf/obs registry"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="markdown files to lint (default: README.md + docs/*.md)",
    )
    args = parser.parse_args(argv)
    files = args.files or [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]
    names, env_vars, commands = _known_names()
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path, names, env_vars, commands))
    if problems:
        print(f"docs drift: {len(problems)} orphaned reference(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    checked = ", ".join(path.name for path in files)
    print(f"docs drift: OK ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
