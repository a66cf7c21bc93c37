#!/usr/bin/env python3
"""rdfref_check: rdfref's static analyzer (DESIGN.md §14).

Every Ref strategy must answer exactly as Sat does, and that rests on
invariants no compiler checks: a borrowed span must not outlive its store,
a snapshot must stay pinned while it is read, every lock must be visible
to Clang's thread-safety analysis, and every random stream must be seeded
so fuzz runs replay. Two passes over src/ check them.

The text pass needs nothing but Python and runs on every invocation,
before the AST pass:

  raw-sync             No raw std::mutex / std::condition_variable / lock
                       scopes outside src/common/synchronization.h:
                       everything goes through the capability-annotated
                       wrappers, so -Wthread-safety sees every lock.
  rng-seed             No wall-clock or entropy seeding (std::random_device,
                       srand, time(...)): every random stream is seeded
                       explicitly so data generation, workload mixes and
                       fuzzing replay bit-exactly.
  delta-mutation       src/engine/ must not name the mutable VersionSet: the
                       engine evaluates immutable TripleSource views, and
                       updates go through api::QueryAnswerer.
  nodiscard            Every Answer*/Evaluate* function declared in a header
                       carries [[nodiscard]], directly or through a
                       Result<T>/Status return type (both classes are
                       [[nodiscard]]; tests/negative/discard_result.cc
                       proves each at configure time).
  layering             Library-level include DAG: each src/ library includes
                       only the libraries ALLOWED_DEPS lists.
  include-cycle        No #include cycle among src/ headers. A cycle cannot
                       be excused, only broken.

The AST pass drives the stock clang driver (`clang++ -Xclang
-ast-dump=json -fsyntax-only`, no LibTooling) over the compile database:

  span-escape          A borrowed span must not be stored in a field of an
                       un-annotated class, a global/static, or a by-value
                       lambda capture; any function returning a borrowed
                       span must carry RDFREF_LIFETIME_BOUND or
                       RDFREF_BORROWS_FROM (src/common/annotations.h).
  snapshot-pin         No raw SnapshotSource pointer/reference stored in a
                       field or global outside its pinning shared_ptr, and
                       no `.get()` called directly on the temporary
                       returned by VersionSet::snapshot()/PinSnapshot() —
                       the pin dies at the end of the full-expression.
  guard-completeness   In a class that owns a common::Mutex, every mutable
                       field written outside constructors and touched from
                       two or more methods must carry RDFREF_GUARDED_BY
                       (or RDFREF_NOT_GUARDED with a reason). This is the
                       gap Clang's thread-safety analysis silently skips:
                       unannotated fields are simply not checked.
  termid-arith         +, -, +=, -=, ++, -- on an operand whose type is
                       rdf::TermId, outside src/rdf/ and the hierarchy
                       encoder. Ids are interval codes, not integers.
  std-function         std::function parameters on engine/storage hot paths
                       (virtual dispatch per triple; prefer spans or
                       templates).

A deliberate violation is silenced with `// rdfref-check: allow(<rule>)`
on the finding line, up to two lines above it, or the line after
(multi-line signatures) — plus a prose justification. An escape that no
longer suppresses anything (stale-escape) or names no rule
(unknown-escape) is itself a finding, so suppressions cannot outlive the
code they excuse. An escape is judged stale only when the pass owning its
rule ran: without clang, AST-rule escapes are not judged.

Modes:
  (default)        the text pass over src/, then the AST pass over every
                   src/**.cc entry of the compile database. Without
                   clang++ or a compile database the AST pass is skipped
                   with a note and the text pass alone decides the exit
                   code (CI installs clang-19 for the AST pass).
  --require-clang  same, but a skipped AST pass is an error (CI).
  --ast-json FILE  both passes over one pre-dumped AST (or a fixture
                   wrapper with embedded source text); exit 1 on findings.
                   Used by the tests/negative/ WILL_FAIL ctest entries.
  --probe FILE     AST-dump and check one source file with
                   -DRDFREF_NEGATIVE; exit 0 iff at least one AST finding
                   fires (the negative gate's live-clang half).
  --self-test      both passes over every fixture in
                   tools/rdfref_check_testdata/ (hand-written JSON ASTs,
                   and text-only synthetic trees without an AST).

Per-TU AST results are cached in .rdfref_check_cache/ keyed on the
compile command, the TU contents, and every repo-local header it includes
(via clang -MM), so incremental CI runs stay fast; CI persists the
directory with actions/cache. `--json-out findings.json` writes the
machine-readable artifact CI uploads on failure.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TEXT_RULES = (
    "raw-sync",
    "rng-seed",
    "delta-mutation",
    "nodiscard",
    "layering",
    "include-cycle",
)
AST_RULES = (
    "span-escape",
    "snapshot-pin",
    "guard-completeness",
    "termid-arith",
    "std-function",
)
# The pass that owns each rule: its escapes are judged only when it ran.
RULE_PASS = {**{r: "text" for r in TEXT_RULES}, **{r: "ast" for r in AST_RULES}}
ESCAPE_RE = re.compile(r"//\s*rdfref-check:\s*allow\(([a-z-]+)\)")
# termid-arith does not apply where ids are *assigned*: the dictionary and
# the hierarchy encoder own the id space.
TERMID_EXEMPT = ("src/rdf/", "src/schema/encoder")
STD_FUNCTION_SCOPE = ("src/engine/", "src/storage/")
# Wrapper nodes to strip when matching expression shapes.
EXPR_WRAPPERS = frozenset({
    "ExprWithCleanups", "MaterializeTemporaryExpr", "ImplicitCastExpr",
    "CXXBindTemporaryExpr", "ParenExpr", "ConstantExpr", "CXXConstructExpr",
})
ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                        "<<=", ">>="})
CACHE_VERSION = "rdfref-check-v1"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path          # repo-relative, '/'-separated
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self):
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}


class SourceIndex:
    """Line-level access to source text, from disk or a fixture's embedded
    file map. Escape comments and annotation macros are recovered from the
    text because older clangs omit AnnotateAttr string values from the
    JSON dump."""

    def __init__(self, repo_root, virtual_files=None):
        self.repo_root = repo_root
        self.virtual = dict(virtual_files or {})
        self.cache = {}

    def lines(self, relpath):
        if relpath in self.cache:
            return self.cache[relpath]
        if relpath in self.virtual:
            out = self.virtual[relpath].splitlines()
        else:
            full = os.path.join(self.repo_root, relpath)
            try:
                with open(full, encoding="utf-8", errors="replace") as f:
                    out = f.read().splitlines()
            except OSError:
                out = []
        self.cache[relpath] = out
        return out

    def line(self, relpath, lineno):
        lines = self.lines(relpath)
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    def window(self, relpath, lo, hi):
        return "\n".join(self.line(relpath, n) for n in range(max(1, lo), hi + 1))


# ---- text pass -----------------------------------------------------------

# The one file allowed to name the raw primitives.
SYNC_SHIM = "src/common/synchronization.h"

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

# The engine must see the database only through immutable TripleSource
# views: snapshot isolation is enforced at the storage layer, and an
# evaluator holding the version set itself could observe a torn epoch.
VERSION_SET_RE = re.compile(r"\bVersionSet\b")

# Answer*/Evaluate* declarations in headers must be [[nodiscard]], either
# on the declaration (or the line above it) or via a [[nodiscard]] return
# type.
ENTRY_POINT_RE = re.compile(
    r"^\s*(?:virtual\s+)?"
    r"(?P<ret>[A-Za-z_][\w:<>,\s&*]*?)\s+"
    r"(?P<name>Answer\w*|Evaluate\w*)\s*\(")
NODISCARD_RETURN_RE = re.compile(r"^(Result\s*<|::rdfref::Status\b|Status\b|void\b)")

INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

# Library-level allowed dependencies (edges not listed here are findings).
# This is the architecture: `common` at the bottom of everything, the
# engine never reaching into the federation, `testing` alone allowed to
# see it all. Adding an edge is a deliberate design change — do it here,
# in the change that introduces the include.
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
    "testing": {"api", "common", "engine", "federation", "query", "rdf",
                "reformulation", "schema", "storage", "datagen"},
}


def library_of(rel):
    """The src/ library a repo-relative path belongs to, or None."""
    parts = rel.split("/")
    if len(parts) > 2 and parts[0] == "src" and parts[1] in ALLOWED_DEPS:
        return parts[1]
    return None


def line_findings(rel, lines):
    """raw-sync, rng-seed, delta-mutation and nodiscard over one file."""
    lib = library_of(rel)
    for i, line in enumerate(lines, 1):
        if rel != SYNC_SHIM:
            for pattern, what in RAW_SYNC_PATTERNS:
                if pattern.search(line):
                    yield Finding(
                        rel, i, "raw-sync",
                        f"{what} outside common/synchronization.h — use "
                        "common::Mutex / common::MutexLock / common::CondVar")
                    break
        for pattern, what in RNG_SEED_PATTERNS:
            if pattern.search(line):
                yield Finding(
                    rel, i, "rng-seed",
                    f"{what}: rdfref randomness must be explicitly seeded "
                    "(deterministic replay of data, workloads and fuzzing)")
                break
        # Prose mentions in comments are fine.
        if lib == "engine" and VERSION_SET_RE.search(line.split("//", 1)[0]):
            yield Finding(
                rel, i, "delta-mutation",
                "engine code must not name the mutable VersionSet — "
                "evaluate an immutable TripleSource; pin a SnapshotSource "
                "via api::QueryAnswerer::PinSnapshot()")
        m = ENTRY_POINT_RE.match(line) if rel.endswith(".h") else None
        if m:
            ret = m.group("ret").strip()
            above = lines[i - 2] if i >= 2 else ""
            if not NODISCARD_RETURN_RE.match(ret) and \
                    "[[nodiscard]]" not in above + " " + line:
                yield Finding(
                    rel, i, "nodiscard",
                    f"{m.group('name')}() returns {ret} without "
                    "[[nodiscard]] — answer-producing entry points must not "
                    "be silently droppable")


def include_cycles(graph):
    """File-level #include cycles among headers (iterative DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = defaultdict(int)
    out = []
    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack = [(start, iter(graph[start]))]
        trail = [start]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == GRAY:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    out.append(Finding(nxt, 1, "include-cycle",
                                       "#include cycle: " + " -> ".join(cycle)))
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    trail.append(nxt)
                    break
            else:
                color[node] = BLACK
                stack.pop()
                trail.pop()
    return out


def text_pass(source, relpaths):
    """Text-rule findings over `relpaths` with escapes applied, and the
    escapes that excused something."""
    raw = []
    graph = {}  # header -> the src/ files it includes
    for rel in relpaths:
        lines = source.lines(rel)
        raw.extend(line_findings(rel, lines))
        lib = library_of(rel)
        edges = []
        for i, line in enumerate(lines, 1):
            m = INCLUDE_RE.search(line)
            target = library_of("src/" + m.group(1)) if m else None
            if target is None:
                continue  # not an intra-src include
            edges.append("src/" + m.group(1))
            if lib is not None and target != lib and \
                    target not in ALLOWED_DEPS[lib]:
                raw.append(Finding(
                    rel, i, "layering",
                    f'library "{lib}" must not include "{target}" '
                    f'("{m.group(1)}"); allowed deps: '
                    f'{sorted(ALLOWED_DEPS[lib]) or "none"}'))
        if rel.endswith(".h"):
            graph[rel] = edges
    used = set()
    kept = apply_escapes(raw, source, used)
    return kept + include_cycles(graph), used


# ---- AST pass ------------------------------------------------------------

def qual_type(node):
    t = node.get("type")
    if not isinstance(t, dict):
        return ""
    return t.get("qualType", "") + " " + t.get("desugaredQualType", "")


def is_span_type(qt):
    return "span<" in qt


def is_raw_snapshot_type(qt):
    if "shared_ptr" in qt or "SnapshotPtr" in qt:
        return False
    return bool(re.search(r"SnapshotSource\s*[*&]", qt))


def strip_wrappers(node):
    while isinstance(node, dict) and node.get("kind") in EXPR_WRAPPERS:
        inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
        if len(inner) != 1:
            break
        node = inner[0]
    return node


class RecordInfo:
    def __init__(self, rec_id, name, path, line, is_closure):
        self.id = rec_id
        self.name = name
        self.path = path
        self.line = line
        self.is_closure = is_closure
        self.mutexes = []            # field names of common::Mutex members
        self.fields = {}             # field id -> FieldInfo
        self.has_borrows_from = False


class FieldInfo:
    def __init__(self, name, path, line, qt, annotated):
        self.name = name
        self.path = path
        self.line = line
        self.qt = qt
        self.annotated = annotated   # GUARDED_BY / NOT_GUARDED present


class MethodInfo:
    def __init__(self, owner_id, name, is_ctor):
        self.owner_id = owner_id
        self.name = name
        self.is_ctor = is_ctor
        self.accessed = set()        # field ids
        self.written = set()


class TuAnalyzer:
    """One pass over one translation unit's JSON AST.

    Clang delta-encodes source locations: a loc object carries `file` and
    `line` only when they differ from the previously emitted location, in
    document order. The walker therefore maintains a single (file, line)
    state, updated by every loc-bearing object it passes — including
    range begin/end and spelling/expansion pairs — exactly mirroring the
    dumper's emission order (`loc` before `range` before `inner`)."""

    def __init__(self, source, repo_root):
        self.source = source
        self.repo_root = os.path.abspath(repo_root)
        self.cur_file = ""
        self.cur_line = 0
        self.raw_findings = []       # pre-escape Finding list
        self.records = {}            # id -> RecordInfo
        self.methods = []            # MethodInfo list
        self.record_stack = []

    # ---- location state ------------------------------------------------

    def _consume_bare(self, loc):
        if "line" in loc:
            self.cur_line = loc["line"]
        if "file" in loc:
            self.cur_file = loc["file"]
        return self.cur_file, self.cur_line

    def _consume_loc(self, loc):
        """Update state from a loc object; returns the *expansion*
        position (where the code is written, not where a macro was
        defined)."""
        if not isinstance(loc, dict):
            return self.cur_file, self.cur_line
        if "spellingLoc" in loc or "expansionLoc" in loc:
            # Emission order in the dumper: spelling first, expansion
            # second; the shared delta state sees both.
            res = (self.cur_file, self.cur_line)
            if isinstance(loc.get("spellingLoc"), dict):
                self._consume_bare(loc["spellingLoc"])
            if isinstance(loc.get("expansionLoc"), dict):
                res = self._consume_bare(loc["expansionLoc"])
            return res
        return self._consume_bare(loc)

    def _relpath(self, path):
        if not path:
            return None
        ap = os.path.abspath(os.path.join(self.repo_root, path))
        if not ap.startswith(self.repo_root + os.sep):
            return None
        rel = os.path.relpath(ap, self.repo_root).replace(os.sep, "/")
        if rel.startswith("src/") or rel.startswith("tests/"):
            return rel
        return None

    # ---- helpers over the tree ----------------------------------------

    def _subtree_has_kind(self, node, kinds):
        if isinstance(node, list):
            return any(self._subtree_has_kind(x, kinds) for x in node)
        if not isinstance(node, dict):
            return False
        if node.get("kind") in kinds:
            return True
        return self._subtree_has_kind(node.get("inner", []), kinds)

    def _member_ids(self, node, out):
        """Collect referencedMemberDecl ids in a subtree (no loc updates —
        used only after the subtree was already walked)."""
        if isinstance(node, list):
            for x in node:
                self._member_ids(x, out)
            return
        if not isinstance(node, dict):
            return
        if node.get("kind") == "MemberExpr" and "referencedMemberDecl" in node:
            out.add(node["referencedMemberDecl"])
        self._member_ids(node.get("inner", []), out)

    def _mentions_termid(self, node, depth=0):
        """True if the expression (casts/parens stripped) has TermId value
        type. Pointer types are excluded: TermId* arithmetic is ordinary
        pointer math over an arena, not id arithmetic."""
        if not isinstance(node, dict) or depth > 4:
            return False
        qt = node.get("type", {}).get("qualType", "") if isinstance(
            node.get("type"), dict) else ""
        if "TermId" in qt and "*" not in qt:
            return True
        if node.get("kind") in EXPR_WRAPPERS:
            for c in node.get("inner", []):
                if self._mentions_termid(c, depth + 1):
                    return True
        return False

    def _finding(self, path, line, rule, message):
        self.raw_findings.append(Finding(path, line, rule, message))

    # ---- main walk -----------------------------------------------------

    def run(self, root):
        self.walk(root, method=None)
        self._finish_guard_completeness()
        return self.raw_findings

    def walk(self, node, method):
        if isinstance(node, list):
            for x in node:
                self.walk(x, method)
            return
        if not isinstance(node, dict):
            return
        kind = node.get("kind")

        pos = (self.cur_file, self.cur_line)
        if "loc" in node:
            pos = self._consume_loc(node["loc"])
        rng = node.get("range")
        range_begin = pos
        if isinstance(rng, dict):
            if "begin" in rng:
                range_begin = self._consume_loc(rng["begin"])
                if "loc" not in node:
                    pos = range_begin
            if "end" in rng:
                self._consume_loc(rng["end"])

        handler = getattr(self, "visit_" + kind, None) if kind else None
        if handler is not None:
            handler(node, pos, method)
            return  # handlers own the recursion into inner
        self.walk(node.get("inner", []), method)

    # ---- declarations --------------------------------------------------

    def visit_CXXRecordDecl(self, node, pos, method):
        rel = self._relpath(pos[0])
        defn = node.get("completeDefinition", False)
        if not defn or rel is None:
            self.walk(node.get("inner", []), method)
            return
        is_closure = bool(node.get("definitionData", {}).get("isLambda")) or \
            "name" not in node
        info = RecordInfo(node.get("id"), node.get("name", "<lambda>"),
                          rel, pos[1], is_closure)
        # The annotation must be known before the fields are visited:
        # check the source line the class head sits on, plus any direct
        # AnnotateAttr child (the dump carries it when clang serializes
        # attribute nodes for the record).
        src_line = self.source.window(rel, pos[1], pos[1] + 1)
        if "RDFREF_BORROWS_FROM" in src_line:
            info.has_borrows_from = True
        if any(isinstance(c, dict) and c.get("kind") == "AnnotateAttr"
               for c in node.get("inner", [])):
            info.has_borrows_from = True
        self.records[info.id] = info
        self.record_stack.append(info)
        self.walk(node.get("inner", []), method)
        self.record_stack.pop()

    def visit_FieldDecl(self, node, pos, method):
        self.walk(node.get("inner", []), method)
        rel = self._relpath(pos[0])
        if rel is None or not self.record_stack:
            return
        rec = self.record_stack[-1]
        qt = qual_type(node)
        name = node.get("name", "")
        if "common::Mutex" in qt or qt.strip().startswith("Mutex"):
            rec.mutexes.append(name)
            return
        # Annotation recovery: attribute nodes when the dump carries them,
        # source text otherwise (AnnotateAttr values are absent in some
        # clang versions' JSON output).
        annotated = self._subtree_has_kind(
            node.get("inner", []),
            {"GuardedByAttr", "PtGuardedByAttr", "AnnotateAttr"})
        # Text fallback scoped to this declaration only: its own line,
        # plus the continuation line when the declaration does not end
        # here (multi-line field types put the macro on the last line).
        text = self.source.line(rel, pos[1])
        if ";" not in text:
            text += "\n" + self.source.line(rel, pos[1] + 1)
        if re.search(r"RDFREF(_PT)?_GUARDED_BY|RDFREF_NOT_GUARDED", text):
            annotated = True
        rec.fields[node.get("id")] = FieldInfo(name, rel, pos[1], qt, annotated)

        if is_span_type(qt):
            if rec.is_closure:
                self._finding(
                    rel, pos[1], "span-escape",
                    "by-value lambda capture of a borrowed span; capture by "
                    "reference, or re-derive the span inside the lambda")
            elif not rec.has_borrows_from:
                self._finding(
                    rel, pos[1], "span-escape",
                    f"borrowed span stored in field '{name}' of "
                    f"'{rec.name}'; declare the holder with "
                    "RDFREF_BORROWS_FROM(<source>) naming what it borrows "
                    "from, or own the data")
        if is_raw_snapshot_type(qt):
            self._finding(
                rel, pos[1], "snapshot-pin",
                f"raw SnapshotSource pointer stored in field '{name}'; "
                "store the pinning storage::SnapshotPtr instead — the "
                "epoch it reads from is reclaimed when the last pin drops")

    def visit_VarDecl(self, node, pos, method):
        self.walk(node.get("inner", []), method)
        rel = self._relpath(pos[0])
        if rel is None:
            return
        at_global_scope = method is None and not self.record_stack
        is_static = node.get("storageClass") == "static"
        if not (at_global_scope or is_static):
            return
        qt = qual_type(node)
        name = node.get("name", "")
        if is_span_type(qt):
            self._finding(
                rel, pos[1], "span-escape",
                f"borrowed span stored in static/global '{name}' outlives "
                "every source; materialize an owned copy instead")
        if is_raw_snapshot_type(qt):
            self._finding(
                rel, pos[1], "snapshot-pin",
                f"raw SnapshotSource pointer stored in static/global "
                f"'{name}'; keep the pinning storage::SnapshotPtr instead")

    def _enter_method(self, node):
        owner = None
        if self.record_stack:
            owner = self.record_stack[-1].id
        elif "parentDeclContextId" in node:
            owner = node["parentDeclContextId"]
        m = MethodInfo(owner, node.get("name", ""),
                       node.get("kind") in ("CXXConstructorDecl",
                                            "CXXDestructorDecl"))
        self.methods.append(m)
        return m

    def visit_FunctionDecl(self, node, pos, method):
        self._visit_function_like(node, pos, method)

    def visit_CXXMethodDecl(self, node, pos, method):
        self._visit_function_like(node, pos, self._enter_method(node))

    def visit_CXXConstructorDecl(self, node, pos, method):
        self._visit_function_like(node, pos, self._enter_method(node))

    def visit_CXXDestructorDecl(self, node, pos, method):
        self._visit_function_like(node, pos, self._enter_method(node))

    def visit_CXXConversionDecl(self, node, pos, method):
        self._visit_function_like(node, pos, self._enter_method(node))

    def _visit_function_like(self, node, pos, method):
        rel = self._relpath(pos[0])
        self.walk(node.get("inner", []), method)
        if rel is None or node.get("isImplicit"):
            return
        if self.record_stack and self.record_stack[-1].is_closure:
            return  # lambdas: covered by the capture rule
        qt = node.get("type", {}).get("qualType", "") if isinstance(
            node.get("type"), dict) else ""
        ret = qt.split("(")[0]
        if not is_span_type(ret):
            return
        # Out-of-line definitions inherit attributes from the in-class
        # declaration, which is checked on its own.
        if "previousDecl" in node:
            return
        if self._subtree_has_kind(node.get("inner", []),
                                  {"LifetimeBoundAttr", "AnnotateAttr"}):
            return
        text = self.source.window(rel, pos[1] - 1, pos[1] + 4)
        if "RDFREF_LIFETIME_BOUND" in text or "RDFREF_BORROWS_FROM" in text:
            return
        self._finding(
            rel, pos[1], "span-escape",
            f"'{node.get('name', '?')}' returns a borrowed span without a "
            "lifetime contract; add RDFREF_LIFETIME_BOUND (after the "
            "cv-qualifiers, or on the borrowed-from parameter) or "
            "RDFREF_BORROWS_FROM(...)")

    def visit_ParmVarDecl(self, node, pos, method):
        self.walk(node.get("inner", []), method)
        rel = self._relpath(pos[0])
        if rel is None:
            return
        if "std::function<" in qual_type(node) and \
                rel.startswith(STD_FUNCTION_SCOPE):
            self._finding(
                rel, pos[1], "std-function",
                "std::function parameter on an engine/storage hot path: "
                "one indirect call per triple; prefer spans, cursors, or a "
                "template parameter")

    # ---- expressions ---------------------------------------------------

    def visit_MemberExpr(self, node, pos, method):
        rel = self._relpath(pos[0])
        if method is not None and "referencedMemberDecl" in node:
            method.accessed.add(node["referencedMemberDecl"])
        if rel is not None and node.get("name") == "get":
            inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
            base = strip_wrappers(inner[0]) if inner else None
            if isinstance(base, dict) and base.get("kind") == \
                    "CXXMemberCallExpr":
                callee = [c for c in base.get("inner", [])
                          if isinstance(c, dict)]
                callee = strip_wrappers(callee[0]) if callee else None
                if isinstance(callee, dict) and callee.get("name") in (
                        "snapshot", "PinSnapshot"):
                    self._finding(
                        rel, pos[1], "snapshot-pin",
                        ".get() on the temporary snapshot pin: the epoch "
                        "is released at the end of this full-expression; "
                        "bind the SnapshotPtr to a named local that "
                        "outlives every use of the raw pointer")
        self.walk(node.get("inner", []), method)

    def visit_BinaryOperator(self, node, pos, method):
        self._arith_check(node, pos)
        self.walk(node.get("inner", []), method)
        if method is not None and node.get("opcode") in ASSIGN_OPS:
            inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
            if inner:
                self._member_ids(inner[0], method.written)

    def visit_CompoundAssignOperator(self, node, pos, method):
        self._arith_check(node, pos)
        self.walk(node.get("inner", []), method)
        if method is not None:
            inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
            if inner:
                self._member_ids(inner[0], method.written)

    def visit_UnaryOperator(self, node, pos, method):
        op = node.get("opcode", "")
        if op in ("++", "--"):
            self._arith_check(node, pos, unary=True)
        self.walk(node.get("inner", []), method)
        if method is not None and op in ("++", "--", "&"):
            self._member_ids(node.get("inner", []), method.written)

    def visit_CXXOperatorCallExpr(self, node, pos, method):
        self.walk(node.get("inner", []), method)
        if method is None:
            return
        inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
        if len(inner) >= 2:
            callee = strip_wrappers(inner[0])
            name = ""
            if isinstance(callee, dict):
                name = callee.get("name", "") or callee.get(
                    "referencedDecl", {}).get("name", "")
            if name == "operator=":
                self._member_ids(inner[1], method.written)

    def visit_CallExpr(self, node, pos, method):
        self.walk(node.get("inner", []), method)
        if method is None:
            return
        inner = [c for c in node.get("inner", []) if isinstance(c, dict)]
        if not inner:
            return
        callee = strip_wrappers(inner[0])
        name = ""
        if isinstance(callee, dict):
            name = callee.get("name", "") or callee.get(
                "referencedDecl", {}).get("name", "")
        if name == "move":
            for arg in inner[1:]:
                self._member_ids(arg, method.written)

    def _arith_check(self, node, pos, unary=False):
        rel = self._relpath(pos[0])
        if rel is None or rel.startswith(TERMID_EXEMPT):
            return
        op = node.get("opcode", "")
        if not unary and op not in ("+", "-", "+=", "-="):
            return
        kids = [c for c in node.get("inner", []) if isinstance(c, dict)]
        if any(self._mentions_termid(c) for c in kids):
            self._finding(
                rel, pos[1], "termid-arith",
                f"raw '{op}' on a TermId: ids are hierarchy interval codes "
                "(DESIGN.md §12), not dense integers; go through the "
                "dictionary/encoder, or justify with an allow escape")

    # ---- guard-completeness post-pass ----------------------------------

    def _finish_guard_completeness(self):
        by_owner = {}
        for m in self.methods:
            if m.owner_id is not None:
                by_owner.setdefault(m.owner_id, []).append(m)
        for rec in self.records.values():
            if not rec.mutexes or rec.is_closure:
                continue
            methods = by_owner.get(rec.id, [])
            for fid, field in rec.fields.items():
                if field.annotated:
                    continue
                qt = field.qt
                if qt.strip().startswith("const ") or any(
                        tok in qt for tok in ("Mutex", "CondVar", "atomic")):
                    continue
                touching = [m for m in methods if fid in m.accessed]
                written = any(fid in m.written and not m.is_ctor
                              for m in touching)
                if len(touching) >= 2 and written:
                    self._finding(
                        field.path, field.line, "guard-completeness",
                        f"'{rec.name}' owns a Mutex "
                        f"({', '.join(rec.mutexes)}) but mutable field "
                        f"'{field.name}' is written from "
                        f"{len(touching)} methods without "
                        "RDFREF_GUARDED_BY; annotate it (thread-safety "
                        "analysis skips unannotated fields) or mark it "
                        "RDFREF_NOT_GUARDED(\"why\")")


# ---- escapes -------------------------------------------------------------

def apply_escapes(findings, source, used_escapes):
    """Drop findings excused by a nearby `// rdfref-check: allow(rule)`.
    The window is [line-2, line+1]: above for leading comments, below for
    multi-line signatures whose closing line carries the escape. Records
    every escape that excused something into `used_escapes`."""
    kept = []
    for f in findings:
        excused = False
        for n in range(max(1, f.line - 2), f.line + 2):
            for m in ESCAPE_RE.finditer(source.line(f.path, n)):
                if m.group(1) == f.rule:
                    used_escapes.add((f.path, n, f.rule))
                    excused = True
        if not excused:
            kept.append(f)
    return kept


def escape_findings(source, relpaths, used_escapes, passes_run):
    """Stale and unknown escapes are findings themselves: a suppression
    must die with the code it excused. An escape is stale only if the pass
    owning its rule ran, since a skipped pass used nothing."""
    out = []
    for rel in relpaths:
        for line, text in enumerate(source.lines(rel), start=1):
            for m in ESCAPE_RE.finditer(text):
                rule = m.group(1)
                if rule not in RULE_PASS:
                    out.append(Finding(
                        rel, line, "unknown-escape",
                        f"escape names unknown rule '{rule}'; known rules: "
                        f"{', '.join(TEXT_RULES + AST_RULES)}"))
                elif RULE_PASS[rule] in passes_run and \
                        (rel, line, rule) not in used_escapes:
                    out.append(Finding(
                        rel, line, "stale-escape",
                        f"escape for '{rule}' no longer suppresses anything; "
                        "delete it"))
    return out


def unique_sorted(findings):
    """One finding per (file, line, rule): a header's AST findings repeat
    in every TU that includes it."""
    by_key = {}
    for f in findings:
        by_key.setdefault(f.key(), f)
    return sorted(by_key.values(), key=Finding.key)


def write_json(path, findings):
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"findings": [x.as_json() for x in findings]}, f, indent=2)


# ---- clang driving -----------------------------------------------------

def find_clang():
    for name in ("clang++", "clang++-19", "clang++-18", "clang++-17",
                 "clang++-16", "clang++-15", "clang++-14"):
        path = shutil.which(name)
        if path:
            return path
    return None


def load_compile_db(build_dir):
    path = os.path.join(build_dir, "compile_commands.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def entry_args(entry):
    if "arguments" in entry:
        return list(entry["arguments"])
    # shlex-free split is wrong for quoted paths, but CMake-generated
    # commands in this repo have none; keep the dependency surface small.
    return entry["command"].split()


def dump_args(entry, clang, extra=None):
    """Rewrite a compile-DB entry into an AST-dump invocation."""
    args = entry_args(entry)
    out = [clang]
    skip_next = False
    for a in args[1:]:
        if skip_next:
            skip_next = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip_next = True
            continue
        if a in ("-c", "-MD", "-MMD") or a.startswith("-W") or a == "-Werror":
            continue
        out.append(a)
    out += ["-w", "-fsyntax-only", "-Xclang", "-ast-dump=json"]
    out += extra or []
    return out


def tu_cache_key(entry, clang, repo_root):
    """sha256 over the compile command, the TU, and every repo-local file
    it includes (clang -MM): any edit that can change the AST changes the
    key."""
    h = hashlib.sha256()
    h.update(CACHE_VERSION.encode())
    h.update(clang.encode())
    h.update(" ".join(entry_args(entry)).encode())
    deps = [entry["file"]]
    mm = dump_args(entry, clang)
    mm = [a for a in mm if a not in ("-Xclang", "-ast-dump=json")]
    mm += ["-MM", "-MF", "-"]
    try:
        res = subprocess.run(mm, cwd=entry.get("directory", repo_root),
                             capture_output=True, text=True, timeout=120)
        if res.returncode == 0:
            for tok in res.stdout.replace("\\\n", " ").split()[1:]:
                ap = os.path.abspath(
                    os.path.join(entry.get("directory", repo_root), tok))
                if ap.startswith(os.path.abspath(repo_root) + os.sep):
                    deps.append(ap)
    except (subprocess.TimeoutExpired, OSError):
        pass
    for dep in sorted(set(deps)):
        try:
            with open(dep, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def analyze_ast(root, source, repo_root):
    analyzer = TuAnalyzer(source, repo_root)
    raw = analyzer.run(root)
    used = set()
    kept = apply_escapes(raw, source, used)
    return kept, used


def analyze_tu(entry, clang, repo_root, cache_dir, log):
    key = tu_cache_key(entry, clang, repo_root)
    cache_path = os.path.join(cache_dir, key + ".json")
    if os.path.exists(cache_path):
        try:
            with open(cache_path, encoding="utf-8") as f:
                cached = json.load(f)
            findings = [Finding(d["file"], d["line"], d["rule"], d["message"])
                        for d in cached["findings"]]
            used = {tuple(e) for e in cached["used_escapes"]}
            return findings, used, True
        except (OSError, ValueError, KeyError):
            pass
    cmd = dump_args(entry, clang)
    res = subprocess.run(cmd, cwd=entry.get("directory", repo_root),
                         capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        log(f"warning: AST dump failed for {entry['file']}:\n"
            f"{res.stderr[-2000:]}")
        return [], set(), False
    root = json.loads(res.stdout)
    del res
    source = SourceIndex(repo_root)
    findings, used = analyze_ast(root, source, repo_root)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = cache_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump({"findings": [x.as_json() for x in findings],
                   "used_escapes": sorted(list(e) for e in used)}, f)
    os.replace(tmp, cache_path)
    return findings, used, False


def repo_source_files():
    out = []
    for dirpath, _, names in os.walk(os.path.join(REPO, "src")):
        for n in names:
            if n.endswith((".h", ".cc")):
                rel = os.path.relpath(os.path.join(dirpath, n), REPO)
                out.append(rel.replace(os.sep, "/"))
    return sorted(out)


def ast_pass(opts):
    """AST findings and used escapes over the compile database's src/ TUs,
    or None and the reason the pass was skipped."""
    clang = find_clang()
    if clang is None:
        return None, "no clang++ on PATH"
    try:
        db = load_compile_db(opts.build_dir)
    except OSError as e:
        return None, (f"cannot read compile database ({e}); configure with "
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON")
    entries = [e for e in db
               if os.path.abspath(e["file"]).startswith(
                   os.path.join(REPO, "src") + os.sep)
               and e["file"].endswith(".cc")]
    entries.sort(key=lambda e: e["file"])
    findings, used, hits = [], set(), 0
    for entry in entries:
        tu_findings, tu_used, was_hit = analyze_tu(
            entry, clang, REPO, opts.cache_dir,
            lambda m: print(m, file=sys.stderr))
        hits += was_hit
        used |= tu_used
        findings += tu_findings
    return (findings, used), f"{len(entries)} TUs ({hits} cache hits)"


# ---- modes -------------------------------------------------------------

def analyze(source, relpaths, ast, check_escapes=True):
    """The text pass over `relpaths`, merged with the AST pass's findings
    and used escapes (`ast`, None when it did not run), plus the escape
    accounting."""
    findings, used = text_pass(source, relpaths)
    passes_run = {"text"}
    if ast is not None:
        findings += ast[0]
        used |= ast[1]
        passes_run.add("ast")
    if check_escapes:
        findings += escape_findings(source, relpaths, used, passes_run)
    return unique_sorted(findings)


def run_full_tree(opts):
    source = SourceIndex(REPO)
    relpaths = repo_source_files()
    ast, note = ast_pass(opts)
    findings = analyze(source, relpaths, ast)
    if ast is None:
        note = "skipped: " + note
    print(f"rdfref_check: text pass {len(relpaths)} files; AST pass {note}; "
          f"{len(findings)} finding(s)")
    for f in findings:
        print(f"  {f}")
    if opts.json_out:
        write_json(opts.json_out, findings)
    if ast is None and opts.require_clang:
        return 2
    return 1 if findings else 0


def load_fixture(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "kind" in doc:  # a bare clang AST dump
        return {"ast": doc}
    return doc


def check_fixture(doc, repo_root):
    """Both passes over a fixture: the text pass over its embedded files,
    the AST pass over its AST when it has one; escapes are accounted when
    the fixture asks for it."""
    source = SourceIndex(repo_root, virtual_files=doc.get("source_files"))
    ast = analyze_ast(doc["ast"], source, repo_root) if "ast" in doc else None
    return analyze(source, sorted(doc.get("source_files", {})), ast,
                   doc.get("check_escapes"))


def run_ast_json(opts):
    findings = check_fixture(load_fixture(opts.ast_json),
                             opts.source_root or REPO)
    for f in findings:
        print(f)
    if opts.json_out:
        write_json(opts.json_out, findings)
    return 1 if findings else 0


def run_probe(opts):
    clang = find_clang()
    if clang is None:
        print("rdfref_check --probe: no clang++ on PATH", file=sys.stderr)
        return 2
    entry = {
        "file": os.path.abspath(opts.probe),
        "directory": REPO,
        "arguments": [clang, "-std=c++20", "-I", os.path.join(REPO, "src"),
                      "-DRDFREF_NEGATIVE", opts.probe],
    }
    cmd = dump_args(entry, clang)
    res = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        print(f"rdfref_check --probe: dump failed:\n{res.stderr[-2000:]}",
              file=sys.stderr)
        return 2
    source = SourceIndex(REPO)
    findings, _ = analyze_ast(json.loads(res.stdout), source, REPO)
    for f in findings:
        print(f)
    if findings:
        print(f"rdfref_check --probe: {len(findings)} finding(s) as expected")
        return 0
    print("rdfref_check --probe: expected at least one finding, got none",
          file=sys.stderr)
    return 1


def run_self_test(opts):
    testdata = os.path.join(REPO, "tools", "rdfref_check_testdata")
    fixtures = sorted(f for f in os.listdir(testdata) if f.endswith(".json"))
    failures = 0
    for name in fixtures:
        doc = load_fixture(os.path.join(testdata, name))
        findings = check_fixture(doc, REPO)
        got = sorted(f"{f.rule}@{f.path}:{f.line}" for f in findings)
        want = sorted(doc.get("expect") or [])
        if got == want:
            print(f"PASS {name} ({len(got)} finding(s))")
        else:
            failures += 1
            print(f"FAIL {name}\n  want: {want}\n  got:  {got}")
            for f in findings:
                print(f"    {f}")
    print(f"rdfref_check --self-test: {len(fixtures) - failures}/"
          f"{len(fixtures)} fixtures pass")
    return 1 if failures else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"),
                    help="build dir holding compile_commands.json")
    ap.add_argument("--cache-dir",
                    default=os.path.join(REPO, ".rdfref_check_cache"),
                    help="per-TU findings cache directory")
    ap.add_argument("--require-clang", action="store_true",
                    help="fail (exit 2) instead of skipping the AST pass "
                         "without clang++ or a compile database")
    ap.add_argument("--ast-json", metavar="FILE",
                    help="analyze one pre-dumped AST or fixture file")
    ap.add_argument("--source-root", help="repo root for --ast-json paths")
    ap.add_argument("--probe", metavar="FILE",
                    help="dump+check FILE with -DRDFREF_NEGATIVE; succeed "
                         "iff findings fire")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite in tools/rdfref_check_testdata")
    ap.add_argument("--json-out", metavar="FILE",
                    help="write findings JSON artifact")
    opts = ap.parse_args(argv)
    if opts.self_test:
        return run_self_test(opts)
    if opts.ast_json:
        return run_ast_json(opts)
    if opts.probe:
        return run_probe(opts)
    return run_full_tree(opts)


if __name__ == "__main__":
    sys.exit(main())
