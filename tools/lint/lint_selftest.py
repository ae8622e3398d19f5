#!/usr/bin/env python3
"""Self-test for convoy_lint: every rule must fire on a seeded violation.

Builds a throw-away repo skeleton in a temp directory, seeds exactly the
violations each rule exists to catch, runs the real lint driver over it,
and asserts (a) each rule fires where expected, (b) clean idioms do not
fire, and (c) both suppression forms work. A rule that silently stops
matching — a regex typo, a scope change — turns CI red here rather than
letting violations drift into src/.

Run directly (exit 0 = pass) or via ctest as `lint_selftest`.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

LINT_DIR = Path(__file__).resolve().parent
if str(LINT_DIR) not in sys.path:
    sys.path.insert(0, str(LINT_DIR))

import rules  # noqa: E402
from convoy_lint import lint_paths  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        FAILURES.append(label)


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def fired(findings, rel: str, rule: str) -> bool:
    return any(f.path == rel and f.rule == rule for f in findings)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="convoy_lint_selftest_") as tmp:
        root = Path(tmp)

        # --- seeded violations: one file per rule, in the rule's scope ---
        write(root, "src/core/viol_wallclock.cc",
              "void F() {\n"
              "  auto t0 = std::chrono::steady_clock::now();\n"
              "  (void)t0;\n"
              "}\n")
        write(root, "src/core/viol_rng.cc",
              "int F() { return rand(); }\n")
        write(root, "src/core/viol_unordered.cc",
              "#include <unordered_map>\n"
              "std::unordered_map<int, int> table;\n"
              "int F() {\n"
              "  int sum = 0;\n"
              "  for (const auto& kv : table) sum += kv.second;\n"
              "  return sum;\n"
              "}\n")
        write(root, "src/io/viol_statusor.cc",
              "int F() {\n"
              "  return TryLoadThing().value();\n"
              "}\n")
        write(root, "src/core/viol_statusor_var.cc",
              "int F() {\n"
              "  StatusOr<int> result = TryParse();\n"
              "  return result.value();\n"
              "}\n")
        write(root, "src/core/viol_new.cc",
              "int* F() { return new int(7); }\n")
        write(root, "src/core/viol_thread.cc",
              "#include <thread>\n"
              "void F() {\n"
              "  std::thread worker([] {});\n"
              "  worker.join();\n"
              "}\n")
        write(root, "src/core/viol_pool.cc",
              "void F(size_t threads) {\n"
              "  ThreadPool pool(threads);\n"
              "  pool.ParallelFor(8, [](size_t, size_t) {});\n"
              "}\n")
        write(root, "src/core/viol_pool_emplace.cc",
              "void F(size_t threads) {\n"
              "  std::optional<ThreadPool> pool;\n"
              "  if (threads > 1) pool.emplace(threads);\n"
              "}\n")
        write(root, "src/core/viol_guarded.h",
              "#include <mutex>\n"
              "#include <vector>\n"
              "class Box {\n"
              " public:\n"
              "  void Add(int v);\n"
              "  void AddLocked(int v);\n"
              " private:\n"
              "  std::mutex mu_;\n"
              "  std::vector<int> items_;  // GUARDED_BY(mu_)\n"
              "};\n")
        write(root, "src/core/viol_guarded.cc",
              "#include \"viol_guarded.h\"\n"
              "void Box::Add(int v) {\n"
              "  items_.push_back(v);\n"
              "}\n"
              "\n"
              "void Box::AddLocked(int v) {\n"
              "  std::lock_guard<std::mutex> lock(mu_);\n"
              "  items_.push_back(v);\n"
              "}\n")

        # --- clean idioms that must NOT fire ---
        # Out of determinism scope: clocks/RNG allowed outside RESULT_DIRS.
        write(root, "src/util/clean_scope.cc",
              "#include <chrono>\n"
              "double Now() {\n"
              "  return std::chrono::duration<double>(\n"
              "      std::chrono::steady_clock::now().time_since_epoch())\n"
              "      .count();\n"
              "}\n")
        # Threads, pools and new are fine inside src/parallel.
        write(root, "src/parallel/clean_parallel.cc",
              "#include <thread>\n"
              "void Spawn() {\n"
              "  std::thread worker([] {});\n"
              "  worker.join();\n"
              "  ThreadPool pool(2);\n"
              "}\n")
        # Asking for the hardware thread count constructs no pool.
        write(root, "src/core/clean_pool_query.cc",
              "size_t F() { return ThreadPool::HardwareThreads(); }\n")
        # Violations inside comments and strings must be invisible.
        write(root, "src/core/clean_stripped.cc",
              "// rand() and std::thread in a comment\n"
              "/* for (auto& kv : some_unordered_map) {} */\n"
              "const char* F() { return \"new int(3) rand()\"; }\n")
        # Keyed lookup (no iteration) on an unordered_map is fine.
        write(root, "src/core/clean_lookup.cc",
              "#include <unordered_map>\n"
              "std::unordered_map<int, int> table;\n"
              "int F(int k) {\n"
              "  auto it = table.find(k);\n"
              "  return it == table.end() ? 0 : it->second;\n"
              "}\n")
        # A checked StatusOr may .value().
        write(root, "src/core/clean_checked.cc",
              "int F() {\n"
              "  StatusOr<int> result = TryParse();\n"
              "  if (!result.ok()) return -1;\n"
              "  return result.value();\n"
              "}\n")

        # --- suppression forms ---
        write(root, "src/core/suppress_same_line.cc",
              "// Seeded entropy is part of this test fixture's contract.\n"
              "int F() { return rand(); }"
              "  // convoy-lint: allow-line(rng)\n")
        write(root, "src/core/suppress_prev_line.cc",
              "int F() {\n"
              "  // justification for the exception goes here\n"
              "  // convoy-lint: allow-line(rng)\n"
              "  return rand();\n"
              "}\n")
        write(root, "src/core/suppress_file.cc",
              "// convoy-lint: allow(wallclock)\n"
              "void F() {\n"
              "  auto t0 = std::chrono::steady_clock::now();\n"
              "  auto t1 = std::chrono::steady_clock::now();\n"
              "  (void)t0; (void)t1;\n"
              "}\n")

        findings = lint_paths(root, ["src"])

        print("rule firing:")
        check(fired(findings, "src/core/viol_wallclock.cc", "wallclock"),
              "wallclock fires on steady_clock::now() in src/core")
        check(fired(findings, "src/core/viol_rng.cc", "rng"),
              "rng fires on rand() in src/core")
        check(fired(findings, "src/core/viol_unordered.cc", "unordered-iter"),
              "unordered-iter fires on range-for over unordered_map")
        check(fired(findings, "src/io/viol_statusor.cc", "statusor-value"),
              "statusor-value fires on chained Try*().value()")
        check(fired(findings, "src/core/viol_statusor_var.cc",
                    "statusor-value"),
              "statusor-value fires on unchecked StatusOr variable")
        check(fired(findings, "src/core/viol_new.cc", "naked-new"),
              "naked-new fires on raw new outside src/parallel")
        check(fired(findings, "src/core/viol_thread.cc", "raw-thread"),
              "raw-thread fires on std::thread outside src/parallel")
        pool = [f for f in findings
                if f.path == "src/core/viol_pool.cc" and f.rule == "raw-thread"]
        check(len(pool) == 1 and pool[0].line == 2
              and "OrderedParallelFor" in pool[0].message,
              "raw-thread fires on a ThreadPool declared outside src/parallel "
              f"(got {[(f.line) for f in pool]})")
        emplaced = [f for f in findings
                    if f.path == "src/core/viol_pool_emplace.cc"
                    and f.rule == "raw-thread"]
        check(len(emplaced) == 1 and emplaced[0].line == 3,
              "raw-thread fires on a ThreadPool emplaced into an optional "
              f"(got {[(f.line) for f in emplaced]})")
        guarded = [f for f in findings
                   if f.path == "src/core/viol_guarded.cc"
                   and f.rule == "guarded-member"]
        check(len(guarded) == 1 and guarded[0].line == 3,
              "guarded-member fires on the unlocked mutation only "
              f"(got {[(f.line) for f in guarded]})")

        print("clean idioms:")
        for rel in ("src/util/clean_scope.cc",
                    "src/parallel/clean_parallel.cc",
                    "src/core/clean_pool_query.cc",
                    "src/core/clean_stripped.cc",
                    "src/core/clean_lookup.cc",
                    "src/core/clean_checked.cc"):
            check(not any(f.path == rel for f in findings),
                  f"no findings in {rel}")

        print("suppressions:")
        for rel in ("src/core/suppress_same_line.cc",
                    "src/core/suppress_prev_line.cc",
                    "src/core/suppress_file.cc"):
            check(not any(f.path == rel for f in findings),
                  f"suppressed in {rel}")

        # Every registered rule must have fired somewhere above — a rule
        # whose seed drifted out from under it is a dead rule.
        fired_rules = {f.rule for f in findings}
        for module in rules.ALL_RULES:
            check(module.RULE.name in fired_rules,
                  f"rule `{module.RULE.name}` fired at least once")

    if FAILURES:
        print(f"lint_selftest: {len(FAILURES)} check(s) FAILED",
              file=sys.stderr)
        return 1
    print("lint_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
