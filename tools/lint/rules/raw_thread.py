"""raw-thread — threads and thread pools are created only by src/parallel.

Every parallel result in this repo is bit-identical to serial because
work fans out through ONE loop: src/parallel's OrderedParallelFor, which
runs deterministic, index-ordered blocks on a ThreadPool and consumes
their results in order on the calling thread. A std::thread spawned, or
a ThreadPool constructed, anywhere else bypasses that loop's chunking
discipline, its per-chunk state, the pool's "pool-worker" trace
labeling and the exception funneling — and is exactly how a second
serial/threaded fork, and with it nondeterministic interleavings, sneaks
into result paths. Tests may spawn threads; they exist to create hostile
interleavings.
"""

from __future__ import annotations

import re

from lintcommon import Finding, Rule, SourceFile, iter_code

RULE = Rule(
    name="raw-thread",
    description="no std::thread/std::jthread/pthread_create or ThreadPool "
    "construction outside src/parallel (fan work out through "
    "OrderedParallelFor)",
    scope="src/ except src/parallel",
)

SPAWN_RE = re.compile(
    r"std::thread\b|std::jthread\b|\bpthread_create\s*\("
)
# std::thread::hardware_concurrency() is a capability query, not a spawn.
QUERY_RE = re.compile(r"std::thread::hardware_concurrency")
# A ThreadPool constructed by declaration (`ThreadPool pool(n);`), as a
# temporary (`ThreadPool(n)`), through a factory (`make_unique<ThreadPool>`)
# or by `new`. `ThreadPool::HardwareThreads()` constructs nothing.
POOL_RE = re.compile(
    r"\bThreadPool\s+\w+\s*[({;]"
    r"|\bThreadPool\s*[({]"
    r"|<\s*ThreadPool\s*>\s*\("
    r"|\bnew\s+ThreadPool\b"
)
# `std::optional<ThreadPool> pool;` constructs nothing until
# `pool.emplace(n)`, which is the finding.
OPTIONAL_POOL_RE = re.compile(r"optional\s*<\s*ThreadPool\s*>\s*(\w+)")

MESSAGE = (
    "outside src/parallel; fan work out through OrderedParallelFor "
    "(parallel/parallel_for.h) so ordered consumption, per-chunk state "
    "and trace labeling hold"
)


def check(source: SourceFile) -> list[Finding]:
    if not source.path.startswith("src/") or source.path.startswith(
        "src/parallel/"
    ):
        return []
    lines = list(iter_code(source))
    optional_pools = {
        m.group(1)
        for _, code in lines
        for m in OPTIONAL_POOL_RE.finditer(code)
    }
    names = "|".join(sorted(optional_pools))
    emplace_re = (
        re.compile(r"\b(?:" + names + r")\s*\.\s*emplace\s*\(")
        if optional_pools
        else None
    )
    findings = []
    for lineno, code in lines:
        code = QUERY_RE.sub("", code)
        m = SPAWN_RE.search(code) or POOL_RE.search(code)
        if m is None and emplace_re is not None:
            m = emplace_re.search(code)
        if m:
            findings.append(
                Finding(
                    source.path,
                    lineno,
                    RULE.name,
                    f"`{m.group(0).strip()}` {MESSAGE}",
                )
            )
    return findings
