#!/usr/bin/env python3
"""rdfref_lint: fast AST-free checker for rdfref-specific invariants.

Run from anywhere: `python3 tools/rdfref_lint.py` (add --root to point at a
checkout). Exits non-zero when any finding is reported; CI runs it as a
blocking step of the `static-analysis` job, and `ctest -R rdfref_lint`
runs it locally. `--self-test` checks the lint against a synthetic tree
(every rule must fire, every escape state must be classified).

Rules (see DESIGN.md section 8):

  raw-sync      No raw std::mutex / std::condition_variable / lock scopes
                outside src/common/synchronization.h. Everything must go
                through the capability-annotated wrappers so Clang's
                -Wthread-safety can see every lock in the repository.
  nodiscard     Result<T> and Status stay class-level [[nodiscard]], and
                every Answer*/Evaluate* function declared in a public
                header carries [[nodiscard]] (directly or via a
                [[nodiscard]] return type).
  rng-seed      No wall-clock or entropy seeding (std::random_device,
                srand, time(...)): every random stream in rdfref is
                seeded explicitly so fault injection, fuzzing and jitter
                replay bit-exactly.
  delta-mutation
                The engine evaluates immutable TripleSource views; naming
                the mutable VersionSet from src/engine/ is banned.
                Updates go through api::QueryAnswerer, and concurrent
                evaluation pins an immutable SnapshotSource
                (storage/version_set.h) — engine code reaching for the
                version set would bypass epoch isolation.
  layering      Library-level include DAG: each of the src/ libraries
                may only include the libraries listed in ALLOWED_DEPS
                (common at the bottom, engine never includes federation,
                ...). New edges are a design decision: add them here in
                the same PR, with a reason.
  include-cycle No #include cycles among src/ headers (file-level DFS).
  stale-escape / unknown-escape
                Escape hygiene: a `// rdfref-lint: allow(<rule>)` comment
                that no longer suppresses anything, or that names a rule
                this lint does not have, is itself a finding. Escapes must
                die with the code they excused.

The former `std-function` and `termid-arith` regex rules moved to the
Clang-AST backend (tools/rdfref_check.py, DESIGN.md section 14), which
sees real types instead of token patterns; their escapes are spelled
`// rdfref-check: allow(...)` there.

A finding can be silenced for one line with a trailing
`// rdfref-lint: allow(<rule>)` comment — pair it with a justification.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from collections import defaultdict

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

# The one file allowed to name the raw primitives.
SYNC_SHIM = os.path.join("common", "synchronization.h")

RAW_SYNC_PATTERNS = [
    (re.compile(r"\bstd::(recursive_|shared_|timed_)?mutex\b"), "std::mutex"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"),
     "std::condition_variable"),
    (re.compile(r"\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "raw lock scope"),
    (re.compile(r'#\s*include\s*<(mutex|condition_variable|shared_mutex)>'),
     "raw synchronization header"),
]

RNG_SEED_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time(...)"),
    (re.compile(r"\bseed\s*\(\s*std::chrono\b"), "clock-seeded RNG"),
]

# Library-level allowed dependencies (edges not listed here are findings).
# This is the architecture: `common` at the bottom of everything, the
# engine never reaching into the federation, `testing` alone allowed to
# see it all. Adding an edge is a deliberate design change — do it here,
# in the PR that introduces the include.
ALLOWED_DEPS = {
    "common": set(),
    "rdf": {"common"},
    "schema": {"rdf", "common"},
    "query": {"common", "rdf"},
    "storage": {"common", "rdf"},
    "reasoner": {"rdf", "schema", "common"},
    "cost": {"query", "rdf", "storage", "common"},
    "engine": {"common", "query", "rdf", "storage"},
    "datagen": {"common", "rdf"},
    "reformulation": {"common", "query", "rdf", "schema"},
    "datalog": {"common", "engine", "query", "rdf", "storage"},
    "optimizer": {"common", "cost", "query", "reformulation"},
    "federation": {"common", "cost", "engine", "optimizer", "query", "rdf",
                   "reformulation", "schema", "storage"},
    "api": {"common", "datalog", "engine", "optimizer", "query", "rdf",
            "reasoner", "reformulation", "schema", "storage"},
    # Closed-loop workload driver: sits above api (it drives a shared
    # QueryAnswerer) and uses datagen's sp2b scenario for its pinned mix.
    "workload": {"api", "common", "datagen", "engine", "query", "rdf",
                 "storage"},
    "testing": {"api", "common", "engine", "federation", "query", "rdf",
                "reformulation", "schema", "storage", "datagen"},
}

ALLOW_RE = re.compile(r"//\s*rdfref-lint:\s*allow\(([a-z-]+)\)")

INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

# Rules this lint owns (escape targets). include-cycle deliberately has no
# allow path — a cycle cannot be excused, only broken.
LINT_RULES = ("raw-sync", "rng-seed", "delta-mutation", "nodiscard",
              "layering", "include-cycle")
# Rules that live on the AST backend now; escapes naming them here get a
# pointed hint instead of a generic unknown-rule message.
CHECK_RULES = ("std-function", "termid-arith", "span-escape", "snapshot-pin",
               "guard-completeness")

# Answer*/Evaluate* declarations in headers must be [[nodiscard]], either
# on the declaration itself or via a [[nodiscard]] return type
# (Result<T>/Status are class-level [[nodiscard]]).
ENTRY_POINT_RE = re.compile(
    r"^\s*(?:virtual\s+)?"
    r"(?P<ret>[A-Za-z_][\w:<>,\s&*]*?)\s+"
    r"(?P<name>Answer\w*|Evaluate\w*)\s*\(")
NODISCARD_COVERED_TYPES = re.compile(r"^(Result\s*<|::rdfref::Status\b|Status\b|void\b)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Lint:
    """One lint run: findings plus the set of escapes that earned their
    keep, so the post-pass can flag the stale ones."""

    def __init__(self, src_root):
        self.src_root = src_root
        self.findings = []
        self.used_escapes = set()  # (rel, line_no)

    def allowed(self, line, rule, rel, line_no):
        m = ALLOW_RE.search(line)
        if m and m.group(1) == rule:
            self.used_escapes.add((rel, line_no))
            return True
        return False

    def add(self, path, line, rule, message):
        self.findings.append(Finding(path, line, rule, message))


def iter_source_files(src_root):
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                yield os.path.join(dirpath, name)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def check_raw_sync(lint, path, rel, lines):
    if rel == SYNC_SHIM:
        return
    for i, line in enumerate(lines, 1):
        for pattern, what in RAW_SYNC_PATTERNS:
            if pattern.search(line) and not lint.allowed(line, "raw-sync",
                                                         rel, i):
                lint.add(path, i, "raw-sync",
                    f"{what} outside common/synchronization.h — use "
                    "common::Mutex / common::MutexLock / common::CondVar")


def check_rng_seed(lint, path, rel, lines):
    for i, line in enumerate(lines, 1):
        for pattern, what in RNG_SEED_PATTERNS:
            if pattern.search(line) and not lint.allowed(line, "rng-seed",
                                                         rel, i):
                lint.add(path, i, "rng-seed",
                    f"{what}: rdfref randomness must be explicitly seeded "
                    "(deterministic replay of faults/fuzzing/jitter)")


# The engine must see the database only through immutable TripleSource
# views: snapshot isolation is enforced at the storage layer, and an
# evaluator holding the version set itself could observe a torn epoch.
# Only api/ wires updates to evaluation.
DELTA_MUTATION_DIRS = ("engine",)
DELTA_MUTATION_RE = re.compile(r"\bVersionSet\b")


def check_delta_mutation(lint, path, rel, lines):
    if rel.split(os.sep, 1)[0] not in DELTA_MUTATION_DIRS:
        return
    for i, line in enumerate(lines, 1):
        code = line.split("//", 1)[0]  # prose mentions in comments are fine
        if not DELTA_MUTATION_RE.search(code):
            continue
        if lint.allowed(line, "delta-mutation", rel, i):
            continue
        lint.add(path, i, "delta-mutation",
            "engine code must not name the mutable VersionSet — evaluate "
            "an immutable TripleSource; pin a SnapshotSource via "
            "api::QueryAnswerer::PinSnapshot()")


def check_nodiscard_classes(lint, src_root):
    for rel, cls in (("common/result.h", "Result"),
                     ("common/status.h", "Status")):
        path = os.path.join(src_root, rel)
        try:
            text = open(path, encoding="utf-8").read()
        except OSError:
            lint.add(path, 1, "nodiscard", "file missing")
            continue
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls, text):
            lint.add(path, 1, "nodiscard",
                f"class {cls} must be declared `class [[nodiscard]] {cls}` "
                "(dropped statuses are correctness bugs)")


def check_entry_points(lint, path, rel, lines):
    if not rel.endswith(".h"):
        return
    for i, line in enumerate(lines, 1):
        m = ENTRY_POINT_RE.match(line)
        if not m:
            continue
        ret = m.group("ret").strip()
        if NODISCARD_COVERED_TYPES.match(ret):
            continue  # Result<T>/Status are class-level [[nodiscard]]
        window = (lines[i - 2] if i >= 2 else "") + " " + line
        if "[[nodiscard]]" in window:
            continue
        if lint.allowed(line, "nodiscard", rel, i):
            continue
        lint.add(path, i, "nodiscard",
            f"{m.group('name')}() returns {ret} without [[nodiscard]] — "
            "answer-producing entry points must not be silently droppable")


def library_of(rel):
    head = rel.split(os.sep, 1)[0]
    return head if head in ALLOWED_DEPS else None


def check_layering_and_cycles(lint, src_root):
    includes = {}  # rel path -> [(line_no, included rel path)]
    for path in iter_source_files(src_root):
        rel = os.path.relpath(path, src_root)
        entries = []
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                m = INCLUDE_RE.search(line)
                if not m:
                    continue
                inc = m.group(1)
                if library_of(inc) is None:
                    continue  # not an intra-src include
                if lint.allowed(line, "layering", rel, i):
                    continue
                entries.append((i, inc, line))
        includes[rel] = entries

    # Library-level layering.
    for rel, entries in sorted(includes.items()):
        lib = library_of(rel)
        if lib is None:
            continue
        for line_no, inc, line in entries:
            target = library_of(inc)
            if target == lib:
                continue
            if target not in ALLOWED_DEPS[lib]:
                lint.add(
                    os.path.join(src_root, rel), line_no, "layering",
                    f'library "{lib}" must not include "{target}" '
                    f'("{inc}"); allowed deps: '
                    f'{sorted(ALLOWED_DEPS[lib]) or "none"}')

    # File-level include cycles among headers (iterative DFS).
    graph = {rel: [inc for _, inc, _ in entries if inc in includes]
             for rel, entries in includes.items() if rel.endswith(".h")}
    WHITE, GRAY, BLACK = 0, 1, 2
    color = defaultdict(int)
    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(graph.get(start, ())))]
        color[start] = GRAY
        trail = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    lint.add(
                        os.path.join(src_root, nxt), 1, "include-cycle",
                        "#include cycle: " + " -> ".join(cycle))
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    trail.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                trail.pop()


def check_escape_hygiene(lint, src_root):
    """Every `rdfref-lint: allow(...)` must (a) name a rule this lint has
    and (b) still suppress a live finding. Anything else rots: an escape
    that outlives its violation is a suppression waiting to hide the next
    real one."""
    for path in iter_source_files(src_root):
        rel = os.path.relpath(path, src_root)
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                for m in ALLOW_RE.finditer(line):
                    rule = m.group(1)
                    if rule in CHECK_RULES:
                        lint.add(path, i, "unknown-escape",
                            f"'{rule}' is a tools/rdfref_check.py rule; "
                            "spell the escape `// rdfref-check: "
                            f"allow({rule})`")
                    elif rule not in LINT_RULES:
                        lint.add(path, i, "unknown-escape",
                            f"escape names unknown rule '{rule}'; known "
                            f"rules: {', '.join(LINT_RULES)}")
                    elif (rel, i) not in lint.used_escapes:
                        lint.add(path, i, "stale-escape",
                            f"escape for '{rule}' no longer suppresses "
                            "anything on this line; delete it")


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run_lint(root):
    src_root = os.path.join(root, "src")
    if not os.path.isdir(src_root):
        return None
    lint = Lint(src_root)
    for path in iter_source_files(src_root):
        rel = os.path.relpath(path, src_root)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        check_raw_sync(lint, path, rel, lines)
        check_rng_seed(lint, path, rel, lines)
        check_delta_mutation(lint, path, rel, lines)
        check_entry_points(lint, path, rel, lines)
    check_nodiscard_classes(lint, src_root)
    check_layering_and_cycles(lint, src_root)
    check_escape_hygiene(lint, src_root)
    return lint


def self_test():
    """Synthetic tree: every rule must fire where expected, escapes must
    be classified used / stale / unknown, and the clean files must stay
    clean. Runs without touching the real checkout."""
    files = {
        # Minimal [[nodiscard]] carriers so check_nodiscard_classes passes.
        "common/result.h": "template <typename T>\nclass [[nodiscard]] Result {};\n",
        "common/status.h": "class [[nodiscard]] Status {};\n",
        "common/synchronization.h": "#include <mutex>\n",  # the one shim
        "engine/bad.cc":
            "#include <mutex>\n"                      # raw-sync
            "std::mutex m;  // rdfref-lint: allow(raw-sync) justified\n"  # used escape
            "std::random_device rd;\n"                # rng-seed
            "storage::VersionSet* vs;\n"              # delta-mutation
            "int x;  // rdfref-lint: allow(rng-seed) nothing here\n"  # stale
            "int y;  // rdfref-lint: allow(no-such-rule)\n"           # unknown
            "int z;  // rdfref-lint: allow(termid-arith)\n",          # moved rule
        "engine/bad.h":
            '#include "federation/federation.h"\n'    # layering
            "bool AnswerFast(const Q& q);\n",         # nodiscard entry point
        "federation/federation.h": "#pragma once\n",
        # Include cycle pair.
        "rdf/a.h": '#include "rdf/b.h"\n',
        "rdf/b.h": '#include "rdf/a.h"\n',
    }
    expect = {
        ("engine/bad.cc", 1, "raw-sync"),
        ("engine/bad.cc", 3, "rng-seed"),
        ("engine/bad.cc", 4, "delta-mutation"),
        ("engine/bad.cc", 5, "stale-escape"),
        ("engine/bad.cc", 6, "unknown-escape"),
        ("engine/bad.cc", 7, "unknown-escape"),
        ("engine/bad.h", 1, "layering"),
        ("engine/bad.h", 2, "nodiscard"),
        ("rdf/a.h", 1, "include-cycle"),
    }
    with tempfile.TemporaryDirectory(prefix="rdfref_lint_selftest") as tmp:
        src = os.path.join(tmp, "src")
        for rel, content in files.items():
            path = os.path.join(src, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        lint = run_lint(tmp)
        got = {(os.path.relpath(f.path, src), f.line, f.rule)
               for f in lint.findings}
    # The cycle may be reported from either header; normalize.
    got = {(p.replace("rdf/b.h", "rdf/a.h") if r == "include-cycle" else p,
            l if r != "include-cycle" else 1, r) for p, l, r in got}
    missing = expect - got
    extra = got - expect
    for what, items in (("missing", missing), ("unexpected", extra)):
        for item in sorted(items):
            print(f"self-test {what}: {item}")
    ok = not missing and not extra
    print(f"rdfref_lint --self-test: {'PASS' if ok else 'FAIL'} "
          f"({len(got)} finding(s) on the synthetic tree)")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--quiet", action="store_true",
                        help="print findings only, no summary")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint against its synthetic tree")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    lint = run_lint(root)
    if lint is None:
        print(f"rdfref_lint: no src/ under {root}", file=sys.stderr)
        return 2

    for finding in lint.findings:
        print(finding)
    if not args.quiet:
        n_files = sum(1 for _ in iter_source_files(lint.src_root))
        print(f"rdfref_lint: {len(lint.findings)} finding(s) across "
              f"{n_files} files", file=sys.stderr)
    return 1 if lint.findings else 0


if __name__ == "__main__":
    sys.exit(main())
