#!/usr/bin/env python3
"""counter_catalog — every trace counter has an emitter.

Reads the TraceCounter enum in src/obs/trace.h and fails, naming each
offender, for every enumerator that no file under src/ outside src/obs/
references as `TraceCounter::kName`. Comments and string literals do not
count as references. A counter that nothing emits reads 0 in every
metrics dump and EXPLAIN ANALYZE block, so it measures nothing: delete it
from the enum and from the name table in src/obs/trace.cc.

Usage:
    tools/lint/counter_catalog.py [SRC_DIR]

SRC_DIR defaults to the repository's src/. Exit status: 0 = every counter
has an emitter, 1 = orphan counters found, 2 = the enum could not be read.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINT_DIR = Path(__file__).resolve().parent
if str(LINT_DIR) not in sys.path:
    sys.path.insert(0, str(LINT_DIR))

from lintcommon import strip_comments_and_strings  # noqa: E402

ENUM_RE = re.compile(r"enum\s+class\s+TraceCounter\b[^{]*\{(.*?)\}", re.S)
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)")
REFERENCE_RE = re.compile(r"\bTraceCounter\s*::\s*(k\w+)\b")
#: The enum's trailing count, not a counter.
SENTINEL = "kNumTraceCounters"


def read_catalog(trace_h: Path) -> list[str]:
    """The TraceCounter enumerators in declaration order, sentinel excluded."""
    code = strip_comments_and_strings(trace_h.read_text(encoding="utf-8"))
    match = ENUM_RE.search(code)
    if match is None:
        raise ValueError(f"no `enum class TraceCounter` in {trace_h}")
    names = []
    for item in match.group(1).split(","):
        enumerator = ENUMERATOR_RE.match(item)
        if enumerator and enumerator.group(1) != SENTINEL:
            names.append(enumerator.group(1))
    if not names:
        raise ValueError(f"TraceCounter in {trace_h} has no enumerators")
    return names


def referenced_counters(src: Path) -> set[str]:
    """Every `TraceCounter::kName` in code under `src`, outside src/obs/."""
    obs = src / "obs"
    found: set[str] = set()
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        if obs in path.parents:
            continue
        code = strip_comments_and_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        found.update(REFERENCE_RE.findall(code))
    return found


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else LINT_DIR.parent.parent / "src"
    src = src.resolve()
    try:
        catalog = read_catalog(src / "obs" / "trace.h")
    except (OSError, ValueError) as err:
        print(f"counter_catalog: {err}", file=sys.stderr)
        return 2
    emitted = referenced_counters(src)
    orphans = [name for name in catalog if name not in emitted]
    for name in orphans:
        print(f"src/obs/trace.h: TraceCounter::{name} has no emitter: no "
              "file under src/ outside src/obs/ references it")
    if orphans:
        print(f"counter_catalog: {len(orphans)} of {len(catalog)} counter(s) "
              "without an emitter; delete them from the enum and from "
              "src/obs/trace.cc", file=sys.stderr)
        return 1
    print(f"counter_catalog: clean ({len(catalog)} counters, each emitted)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
