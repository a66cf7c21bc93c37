#include "engine/evaluator.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "common/timer.h"
#include "engine/scan_cache.h"
#include "engine/view_cache.h"
#include "query/canonical.h"
#include "storage/store.h"

namespace rdfref {
namespace engine {

namespace {

using query::Atom;
using query::Cq;
using query::QTerm;
using query::VarId;

constexpr rdf::TermId kUnbound = rdf::kInvalidTermId;

// Engine invariant violations abort with a message in every build mode
// (NDEBUG included): a silently truncated answer table is worse than a
// crash.
[[noreturn]] void EngineFatal(const char* msg) {
  std::fprintf(stderr, "rdfref: engine invariant violated: %s\n", msg);
  std::fflush(stderr);
  std::abort();
}

// What existential pruning lets one join depth skip (DESIGN.md §9). Bit k
// of `keep` is set when position k (s, p, o) of the depth's atom binds a
// variable that the head or a later depth reads. `prunes` is set when the
// atom also binds a variable that nothing reads: two of its triples that
// agree on `keep` then lead to the same emissions, and with `keep` empty
// the depth stops after its first bind. `binds_head` marks a depth that
// binds a head variable; after an emit, the join returns to the deepest
// such depth.
struct DepthPrune {
  uint8_t keep = 0;
  bool prunes = false;
  bool binds_head = false;

  friend bool operator==(const DepthPrune&, const DepthPrune&) = default;
};

// The join plan of one CQ: the greedy static order, plus each atom's
// variables as a bitmask for the per-binding expansion choice
// (ChooseAtDepth) and for existential pruning. Masks are 64 bits wide, so
// a CQ with more than 64 atoms or variables keeps the static order at
// every depth and is not pruned; a CQ with fewer than three atoms, where
// no depth can have two expansions, and one whose static order never
// departs keep the static order too (OrderAtoms). Pruning applies when
// the body has a variable the head lacks; a static plan then carries each
// depth's decision, and a dynamic plan's frames derive theirs from the
// masks.
struct JoinPlan {
  std::vector<int> order;
  std::vector<uint64_t> vars;  // empty unless dynamic or existential
  bool dynamic = false;
  bool existential = false;
  uint64_t head_vars = 0;               // set iff existential
  std::vector<DepthPrune> depth_prune;  // existential static plans only
};

// True when some variable of q's body is missing from its head. Allocates
// nothing: a CQ without one pays no pruning work at all.
bool HasExistential(const Cq& q) {
  auto in_head = [&](const QTerm& t) {
    return !t.is_var ||
           std::any_of(q.head().begin(), q.head().end(),
                       [&](const QTerm& h) { return h == t; });
  };
  return std::any_of(q.body().begin(), q.body().end(), [&](const Atom& a) {
    return !in_head(a.s) || !in_head(a.p) || !in_head(a.o);
  });
}

// The pruning decision for opening atom `a` when the atoms in `open` are
// already open: a variable is bound by the first open atom that mentions
// it, and read later when the head or an atom still to open mentions it.
// It depends only on the open set and the atom, so a dynamic plan's frame
// memoizes it like ChooseAtDepth's decision.
DepthPrune PruneAt(const JoinPlan& plan, const Atom& atom, uint64_t open,
                   int a) {
  uint64_t bound = 0;
  uint64_t read = plan.head_vars;
  for (size_t b = 0; b < plan.vars.size(); ++b) {
    if ((open >> b) & 1) {
      bound |= plan.vars[b];
    } else if (static_cast<int>(b) != a) {
      read |= plan.vars[b];
    }
  }
  DepthPrune p;
  const QTerm* terms[3] = {&atom.s, &atom.p, &atom.o};
  for (int k = 0; k < 3; ++k) {
    if (!terms[k]->is_var) continue;
    const uint64_t bit = uint64_t{1} << terms[k]->var();
    if ((bound & bit) != 0) continue;
    if ((read & bit) != 0) {
      p.keep |= static_cast<uint8_t>(1 << k);
    } else {
      p.prunes = true;
    }
    p.binds_head = p.binds_head || (plan.head_vars & bit) != 0;
  }
  return p;
}

// True when triples a and b agree on every position in `keep`.
bool SameOn(const rdf::Triple& a, const rdf::Triple& b, uint8_t keep) {
  return ((keep & 1) == 0 || a.s == b.s) && ((keep & 2) == 0 || a.p == b.p) &&
         ((keep & 4) == 0 || a.o == b.o);
}

// ExplainCq's mark for a depth that prunes: `(exists)` when it stops after
// its first bind, else `(distinct s,o)` naming the positions it keeps.
std::string PruneMark(const DepthPrune& p) {
  if (!p.prunes) return "";
  if (p.keep == 0) return " (exists)";
  std::string mark = " (distinct";
  char sep = ' ';
  for (int k = 0; k < 3; ++k) {
    if (((p.keep >> k) & 1) == 0) continue;
    mark += sep;
    mark += "spo"[k];
    sep = ',';
  }
  mark += ')';
  return mark;
}

// One depth's decision (see ChooseAtDepth).
struct DepthChoice {
  int atom;             // the atom to open, or -1 when expansions compete
  uint64_t candidates;  // the competing expansions, when atom is -1
};

// What a dynamic plan's join opens at the depth whose already-open atoms
// are `open` (a bitmask over q's body): one atom, or — when `atom` is -1 —
// whichever of the competing expansions in `candidates` has the fewest
// matches under the current bindings. It depends only on which atoms are
// open, never on their values, so the join memoizes it per depth. The
// remaining atoms classify by the variables the open ones bound:
//   - a filter has every variable bound; the first one (in static order)
//     opens next, since it binds nothing new;
//   - an expansion shares a bound variable and binds one that another
//     remaining atom uses; two or more of them compete;
//   - anything else (dangling or unconnected) never competes.
// Otherwise the first remaining atom in static order opens, which is the
// static order itself as long as no earlier depth departed from it.
DepthChoice ChooseAtDepth(const JoinPlan& plan, uint64_t open) {
  if (open == 0) return {plan.order[0], 0};
  uint64_t bound = 0;
  uint64_t once = 0;
  uint64_t twice = 0;  // variables of two or more remaining atoms
  for (int a : plan.order) {
    const uint64_t vars = plan.vars[static_cast<size_t>(a)];
    if ((open >> a) & 1) {
      bound |= vars;
    } else {
      twice |= once & vars;
      once |= vars;
    }
  }
  int first = -1;
  uint64_t expansions = 0;
  for (int a : plan.order) {
    if ((open >> a) & 1) continue;
    if (first < 0) first = a;
    const uint64_t vars = plan.vars[static_cast<size_t>(a)];
    const uint64_t unbound = vars & ~bound;
    if (unbound == 0) return {a, 0};  // filter
    if ((vars & bound) != 0 && (unbound & twice) != 0) {
      expansions |= uint64_t{1} << a;
    }
  }
  if (std::popcount(expansions) >= 2) return {-1, expansions};
  return {first, 0};
}

// Greedy join order: start from the atom with the smallest index-estimated
// match count (variables wildcarded), then repeatedly append the
// smallest-count atom connected to the already-ordered ones. Counts come
// from the shared per-UCQ cache, so sibling members with the same atoms
// never re-count; each atom's variables are computed once up front (flat
// vectors probed against a bound bitmap) instead of a std::set rebuilt
// inside the O(n²) selection loop.
JoinPlan OrderAtoms(const ScanCache& cache, const Cq& q) {
  const std::vector<Atom>& body = q.body();
  const int n = static_cast<int>(body.size());
  JoinPlan plan;
  const bool masks = n <= 64 && q.num_vars() <= 64;
  plan.dynamic = masks && n >= 3;
  plan.existential = masks && HasExistential(q);
  if (plan.dynamic || plan.existential) plan.vars.assign(n, 0);
  std::vector<uint64_t> base(n);
  std::vector<std::vector<VarId>> atom_vars(n);
  for (int i = 0; i < n; ++i) {
    base[i] = cache.Count(AtomPattern(body[i]));
    const std::set<VarId> vars = Cq::AtomVars(body[i]);
    atom_vars[i].assign(vars.begin(), vars.end());
    if (!plan.vars.empty()) {
      for (VarId v : vars) plan.vars[i] |= uint64_t{1} << v;
    }
  }
  std::vector<int>& order = plan.order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  std::vector<char> bound(q.num_vars(), 0);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    uint64_t best_count = std::numeric_limits<uint64_t>::max();
    bool best_connected = false;
    for (int i = 0; i < n; ++i) {
      if (used[i]) continue;
      const std::vector<VarId>& vars = atom_vars[i];
      bool connected =
          step == 0 || std::any_of(vars.begin(), vars.end(),
                                   [&](VarId v) { return bound[v] != 0; });
      // Prefer connected atoms; among equals, the smaller base count.
      if (best == -1 || (connected && !best_connected) ||
          (connected == best_connected && base[i] < best_count)) {
        best = i;
        best_count = base[i];
        best_connected = connected;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (VarId v : atom_vars[best]) bound[v] = 1;
  }
  // A plan that never departs from the static order along its static
  // prefixes opens that order for every binding (a departure can only
  // start at such a prefix), so it skips the per-open choice entirely.
  if (plan.dynamic) {
    uint64_t open = 0;
    bool departs = false;
    for (int d = 1; d < n && !departs; ++d) {
      open |= uint64_t{1} << order[d - 1];
      departs = ChooseAtDepth(plan, open).atom != order[d];
    }
    plan.dynamic = departs;
  }
  if (plan.existential) {
    for (const QTerm& h : q.head()) {
      if (h.is_var) plan.head_vars |= uint64_t{1} << h.var();
    }
    if (!plan.dynamic) {
      plan.depth_prune.reserve(n);
      uint64_t open = 0;
      for (int a : order) {
        plan.depth_prune.push_back(PruneAt(plan, body[a], open, a));
        open |= uint64_t{1} << a;
      }
    }
  }
  return plan;
}

// The exact match count of an atom's pattern under `bindings`, which
// depends only on the visible triples the pattern matches: the per-binding
// choice rests on it, so every evaluation over the same visible set — a
// cold one, a cached view's fill, either side of a Compact — chooses
// alike (DESIGN.md §9). A classic pattern, and an interval whose bound
// shape some clustered order keeps contiguous, is one CountPattern call,
// exact for that shape; the two shapes no order serves, which CountPattern
// widens, sum the exact counts of their interval's ids. `pat` is the atom's
// AtomPattern under the current bindings.
size_t CountBound(const storage::TripleSource& source, const Atom& atom,
                  const storage::Pattern& pat) {
  if (storage::Store::OrderFor(pat).has_value()) {
    return source.CountPattern(pat);
  }
  storage::Pattern member = pat.Widened();
  rdf::TermId& slot = atom.range_pos == Atom::kRangeP ? member.p : member.o;
  size_t count = 0;
  // Enumerates the encoded interval's member ids, which are contiguous.
  // rdfref-check: allow(termid-arith)
  for (rdf::TermId id = atom.range_lo(); id <= atom.range_hi; ++id) {
    slot = id;
    count += source.CountPattern(member);
    if (id == atom.range_hi) break;  // range_hi may be the largest id
  }
  return count;
}

// The home slot of a hash among n slots: the high half of their product
// (multiply-shift, any slot count), as in table.cc's SliceIndex.
size_t HomeSlot(size_t hash, size_t n) {
  return static_cast<size_t>((static_cast<unsigned __int128>(hash) * n) >> 64);
}

// A hash of three ids for the join's per-evaluation maps: one multiply per
// id, since these maps are probed once per binding.
size_t MixIds(uint64_t a, uint64_t b, uint64_t c) {
  const uint64_t h = (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL) ^
                     (c * 0x165667b19e3779f9ULL);
  return static_cast<size_t>(h ^ (h >> 32));
}

// CountBound's answers within one CQ's evaluation, keyed by the atom and
// its bound pattern: the count depends on nothing else, and a Zipf-hot
// value repeats one key across many bindings. A flat open-addressing map,
// probed linearly and kept at most half full by doubling; nothing is
// allocated before the first count.
class CountMemo {
 public:
  // Atom `a`'s count under its bound pattern `pat`, from `count()` on the
  // first ask.
  template <typename CountFn>
  size_t Get(int a, const storage::Pattern& pat, CountFn&& count) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot* slot = &slots_[Find(a, pat)];
    if (slot->atom == kEmpty) {
      *slot = {static_cast<uint32_t>(a), pat.s, pat.p, pat.o, count()};
      ++size_;
    }
    return slot->count;
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  struct Slot {
    uint32_t atom = kEmpty;
    rdf::TermId s, p, o;
    size_t count;

    bool Holds(int a, const storage::Pattern& pat) const {
      return atom == static_cast<uint32_t>(a) && s == pat.s && p == pat.p &&
             o == pat.o;
    }
  };

  // The slot holding (a, pat), or the empty one where it belongs.
  size_t Find(int a, const storage::Pattern& pat) const {
    const size_t n = slots_.size();
    size_t i = HomeSlot(MixIds(static_cast<uint64_t>(a), pat.s,
                               (uint64_t{pat.p} << 32) | pat.o),
                        n);
    while (slots_[i].atom != kEmpty && !slots_[i].Holds(a, pat)) {
      if (++i == n) i = 0;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
    for (const Slot& s : old) {
      if (s.atom == kEmpty) continue;
      slots_[Find(static_cast<int>(s.atom), {s.s, s.p, s.o})] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// Bit k set when position k (s, p, o) of the atom holds a variable.
uint8_t VarPositions(const Atom& atom) {
  return static_cast<uint8_t>((atom.s.is_var ? 1 : 0) |
                              (atom.p.is_var ? 2 : 0) |
                              (atom.o.is_var ? 4 : 0));
}

// The matches of a filter atom's unbound pattern, grouped by the values at
// its variable positions (DESIGN.md §9). Over a source that delivers each
// triple once, a group holds exactly the triples a probe of the atom bound
// to that group's values returns, in the order of `leaf`; a value no match
// has opens an empty group. A slot is empty or a 32-bit group index, 2n
// slots for n matches, and one for none (a widened count can pass the
// threshold over an empty interval). When every group is one triple, the
// groups are `leaf` itself and nothing is copied.
class RDFREF_BORROWS_FROM(leaf) FilterIndex {
 public:
  FilterIndex(std::span<const rdf::Triple> leaf, uint8_t vars)
      : vars_(vars), triples_(leaf) {
    if (leaf.size() >= kEmptySlot) {
      EngineFatal("more filter matches than a 32-bit hash slot can index");
    }
    slots_.assign(std::max<size_t>(1, 2 * leaf.size()), kEmptySlot);
    std::vector<uint32_t> group_of(leaf.size());
    std::vector<uint32_t> first;  // each group's first match in `leaf`
    for (size_t i = 0; i < leaf.size(); ++i) {
      uint32_t& slot =
          slots_[Find(leaf[i], [&](uint32_t g) { return leaf[first[g]]; })];
      if (slot == kEmptySlot) {
        slot = static_cast<uint32_t>(first.size());
        first.push_back(static_cast<uint32_t>(i));
      }
      group_of[i] = slot;
    }
    if (first.size() == leaf.size()) return;  // group g is leaf[g]
    begin_.assign(first.size() + 1, 0);
    for (uint32_t g : group_of) ++begin_[g + 1];
    for (size_t g = 1; g < begin_.size(); ++g) begin_[g] += begin_[g - 1];
    std::vector<uint32_t> next(begin_.begin(), begin_.end() - 1);
    grouped_.resize(leaf.size());
    for (size_t i = 0; i < leaf.size(); ++i) {
      grouped_[next[group_of[i]]++] = leaf[i];
    }
    triples_ = grouped_;
  }

  // The group of the matches that agree with `pat` on the variable
  // positions.
  std::span<const rdf::Triple> Probe(const storage::Pattern& pat) const {
    const rdf::Triple key(pat.s, pat.p, pat.o);
    const uint32_t g = slots_[Find(
        key, [this](uint32_t group) { return triples_[Begin(group)]; })];
    if (g == kEmptySlot) return {};
    return triples_.subspan(Begin(g), Begin(g + 1) - Begin(g));
  }

 private:
  static constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();

  size_t Begin(uint32_t g) const { return begin_.empty() ? g : begin_[g]; }

  // The slot whose group agrees with `t` on the variable positions (its
  // first match read through `first_of`), or the empty one where it
  // belongs.
  template <typename FirstOf>
  size_t Find(const rdf::Triple& t, FirstOf first_of) const {
    const size_t n = slots_.size();
    size_t i = HomeSlot(MixIds(vars_ & 1 ? t.s : 0, vars_ & 2 ? t.p : 0,
                               vars_ & 4 ? t.o : 0),
                        n);
    while (slots_[i] != kEmptySlot && !SameOn(first_of(slots_[i]), t, vars_)) {
      if (++i == n) i = 0;
    }
    return i;
  }

  uint8_t vars_;
  std::span<const rdf::Triple> triples_;  // `leaf`, or `grouped_`
  std::vector<rdf::Triple> grouped_;      // the matches, group by group
  std::vector<uint32_t> begin_;  // group g is [begin_[g], begin_[g + 1])
  std::vector<uint32_t> slots_;
};

// How the join probes an atom as a filter, with every variable bound when
// it opens: the probes so far, the atom's unbound match count once the
// first probe read it, and past that many probes the hash of its matches
// that every later probe opens instead of the index.
struct FilterProbes {
  size_t probes = 0;
  size_t threshold = 0;
  std::unique_ptr<FilterIndex> index;
};

// Labels a cover fragment with the indexes its atoms occupy in q's body,
// in Cover::ToString notation (e.g. "{t0,t2}"). Duplicate atoms in q are
// matched lowest-unused-index-first, so labels stay a bijection.
std::string FragmentLabel(const Cq& q, const Cq& fragment) {
  std::vector<bool> used(q.body().size(), false);
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const Atom& a : fragment.body()) {
    int idx = -1;
    for (size_t j = 0; j < q.body().size(); ++j) {
      if (!used[j] && q.body()[j] == a) {
        idx = static_cast<int>(j);
        used[j] = true;
        break;
      }
    }
    if (!first) out << ",";
    first = false;
    if (idx >= 0) {
      out << "t" << idx;
    } else {
      out << "t?";  // not an atom of q (hand-built fragment query)
    }
  }
  out << "}";
  return out.str();
}

// A necessary condition for two fragments to share their query
// CanonicalKey() and union UcqPlanKey(), checked without building either:
// unions of one size, and queries that are equal, slot by slot in head and
// body, under a one-to-one renaming of their variables.
bool MayRepeat(const Cq& a, const query::Ucq& a_ucq, const Cq& b,
               const query::Ucq& b_ucq) {
  if (a_ucq.size() != b_ucq.size() || a_ucq.empty() ||
      a.head().size() != b.head().size() ||
      a.body().size() != b.body().size()) {
    return false;
  }
  // The renaming found so far, both ways; kNone where a variable has not
  // occurred yet.
  constexpr VarId kNone = std::numeric_limits<VarId>::max();
  std::vector<VarId> to(a.num_vars(), kNone);
  std::vector<VarId> from(b.num_vars(), kNone);
  auto same = [&](const QTerm& x, const QTerm& y) {
    if (x.is_var != y.is_var) return false;
    if (!x.is_var) return x.id == y.id;
    VarId& forward = to[x.var()];
    VarId& backward = from[y.var()];
    if (forward == kNone && backward == kNone) {
      forward = y.var();
      backward = x.var();
    }
    return forward == y.var() && backward == x.var();
  };
  for (size_t i = 0; i < a.head().size(); ++i) {
    if (!same(a.head()[i], b.head()[i])) return false;
  }
  for (size_t i = 0; i < a.body().size(); ++i) {
    const Atom& x = a.body()[i];
    const Atom& y = b.body()[i];
    if (!same(x.s, y.s) || !same(x.p, y.p) || !same(x.o, y.o) ||
        x.range_pos != y.range_pos || x.range_hi != y.range_hi) {
      return false;
    }
  }
  return true;
}

// For each cover fragment, the earlier fragment whose table it reuses, or
// its own index: a fragment whose query CanonicalKey() and union
// UcqPlanKey() equal an earlier one's evaluates to the same table up to
// column labels (DESIGN.md §4). Keys are built only for fragments that
// MayRepeat an earlier one.
std::vector<size_t> FragmentSources(const std::vector<Cq>& queries,
                                    const std::vector<query::Ucq>& ucqs) {
  const size_t nf = ucqs.size();
  std::vector<size_t> source(nf);
  std::vector<std::string> keys;  // sized on the first candidate pair
  auto key = [&](size_t i) -> const std::string& {
    if (keys.empty()) keys.resize(nf);
    if (keys[i].empty()) {
      keys[i] = queries[i].CanonicalKey() + '|' + query::UcqPlanKey(ucqs[i]);
    }
    return keys[i];
  };
  for (size_t i = 0; i < nf; ++i) {
    source[i] = i;
    for (size_t j = 0; j < i; ++j) {
      if (source[j] == j &&
          MayRepeat(queries[i], ucqs[i], queries[j], ucqs[j]) &&
          key(i) == key(j)) {
        source[i] = j;
        break;
      }
    }
  }
  return source;
}

// Indents every line of `text` (including a final line that lacks a
// trailing newline) and newline-terminates the result, so a nested plan
// never bleeds into the next line of the enclosing plan.
std::string IndentBlock(const std::string& text, const std::string& prefix) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    size_t end = nl == std::string::npos ? text.size() : nl + 1;
    out += prefix;
    out.append(text, pos, end - pos);
    pos = end;
  }
  if (!out.empty() && out.back() != '\n') out += '\n';
  return out;
}

Status UcqDeadlineError(size_t evaluated, size_t total) {
  return Status::DeadlineExceeded(
      "deadline exceeded after " + std::to_string(evaluated) + " of " +
      std::to_string(total) + " reformulation CQs");
}

// True when q's rows over `source` cannot repeat, so deduplicating them
// would change nothing (DESIGN.md §9). The join enumerates each tuple of
// matching triples once, one triple per atom. Without an interval, an atom's
// triple is the image of the variable binding, and with every body variable
// in the head the binding is the image of the row; so distinct tuples give
// distinct rows once the source delivers each triple once. A ranged
// position is a hidden existential: `(?x [lo..hi] c)` emits ?x once per
// matching property.
bool RowsAreDistinct(const Cq& q, const storage::TripleSource& source) {
  if (!source.DeliversDistinctTriples()) return false;
  auto in_head = [&q](const QTerm& t) {
    return !t.is_var ||
           std::find(q.head().begin(), q.head().end(), t) != q.head().end();
  };
  for (const Atom& a : q.body()) {
    if (a.has_range() || !in_head(a.s) || !in_head(a.p) || !in_head(a.o)) {
      return false;
    }
  }
  return true;
}

// One open atom of the iterative binding-stack join: which atom of the
// body it is, the contiguous range being iterated (zero-copy for
// range-capable sources, else owned by the frame's cursor buffer, which is
// reused across re-openings at the same depth), the iteration position,
// and the undo record of the variables the current row bound.
struct RDFREF_BORROWS_FROM(source, cursor) JoinFrame {
  int atom = -1;
  uint64_t open = 0;  // atoms opened at shallower depths (bitmask)
  // ChooseAtDepth's decision for the open set `choice_for` (no open set
  // has every bit set, so the initial value never matches).
  uint64_t choice_for = ~uint64_t{0};
  DepthChoice choice{-1, 0};
  std::span<const rdf::Triple> range;
  size_t pos = 0;
  storage::PatternCursor cursor;
  // Carried across re-openings of the same atom at this depth: the outer
  // range is iterated in index order, so successive inner prefixes are
  // non-decreasing and the source can gallop from the previous position
  // (see RangeHint).
  storage::RangeHint hint;
  VarId newly[3];
  int num_new = 0;
  // Existential pruning: this depth's decision (in a dynamic plan, the one
  // memoized for the open set `prune_for` and atom `prune_atom`), the
  // deepest depth up to this one that binds a head variable (-1: none),
  // and the triple of `range` that last bound here (null: none yet).
  DepthPrune prune;
  uint64_t prune_for = ~uint64_t{0};
  int prune_atom = -1;
  int head_depth = -1;
  const rdf::Triple* last = nullptr;
  // Not this depth's own: frames[i] keeps atom i's filter probes (a CQ has
  // as many frames as atoms), since a dynamic plan may probe one atom as a
  // filter at several depths.
  FilterProbes filter;
};

}  // namespace

Evaluator::Evaluator(const storage::TripleSource* source, int threads)
    : store_(source) {
  if (threads != 1) EngineFatal("Evaluator: evaluation is sequential");
}

std::vector<int> Evaluator::AtomOrder(const query::Cq& q) const {
  ScanCache cache(store_);
  return OrderAtoms(cache, q).order;
}

std::string Evaluator::ExplainCq(const Cq& q) const {
  ScanCache cache(store_);
  const JoinPlan plan = OrderAtoms(cache, q);
  std::ostringstream out;
  out << "CQ plan (index nested-loop join):\n";
  // Every open-atom set the join can reach before this depth, walked with
  // the join's own ChooseAtDepth: a depth decided per binding lists every
  // atom it may open, and so does each later depth that inherits the
  // choice.
  std::vector<uint64_t> reach = {0};
  for (size_t depth = 0; depth < plan.order.size(); ++depth) {
    std::vector<int> atoms;
    bool compete = false;
    // The depth's pruning, marked only when every open set reaching it
    // prunes alike.
    std::optional<DepthPrune> prune;
    bool prune_varies = false;
    if (!plan.dynamic) {
      atoms.push_back(plan.order[depth]);
      if (plan.existential) prune = plan.depth_prune[depth];
    } else {
      std::vector<uint64_t> next;
      uint64_t may_open = 0;
      for (uint64_t open : reach) {
        const DepthChoice c = ChooseAtDepth(plan, open);
        compete = compete || c.atom < 0;
        if (plan.existential && c.atom >= 0) {
          const DepthPrune p = PruneAt(
              plan, q.body()[static_cast<size_t>(c.atom)], open, c.atom);
          prune_varies = prune_varies || (prune.has_value() && *prune != p);
          prune = p;
        }
        const uint64_t opens =
            c.atom >= 0 ? uint64_t{1} << c.atom : c.candidates;
        may_open |= opens;
        for (uint64_t rest = opens; rest != 0; rest &= rest - 1) {
          next.push_back(open | (rest & ~(rest - 1)));
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      reach = std::move(next);
      for (int a : plan.order) {
        if ((may_open >> a) & 1) atoms.push_back(a);
      }
    }
    out << "  " << (depth == 0 ? "scan " : "probe") << " ";
    if (atoms.size() > 1) {
      for (size_t i = 0; i < atoms.size(); ++i) {
        out << (i == 0 ? "t" : "|t") << atoms[i];
      }
      out << "  (per binding: "
          << (compete ? "fewest matches" : "follows the choice above")
          << ")\n";
      continue;
    }
    const storage::Pattern pat =
        AtomPattern(q.body()[static_cast<size_t>(atoms[0])]);
    out << "t" << atoms[0] << "  (~" << store_->CountPattern(pat)
        << " index matches unbound" << (pat.has_range() ? ", interval" : "")
        << ")" << (prune.has_value() && !prune_varies ? PruneMark(*prune) : "")
        << "\n";
  }
  return out.str();
}

std::string Evaluator::ExplainJucq(
    const Cq& q, const std::vector<Cq>& fragment_queries,
    const std::vector<query::Ucq>& fragment_ucqs,
    const std::vector<uint64_t>& raw_members) const {
  (void)q;
  const std::vector<size_t> source =
      FragmentSources(fragment_queries, fragment_ucqs);
  std::ostringstream out;
  out << "JUCQ plan: materialize " << fragment_queries.size()
      << " fragment(s), then hash-join smallest-connected-first:\n";
  for (size_t i = 0; i < fragment_queries.size(); ++i) {
    out << "  fragment " << i << ": UCQ of " << fragment_ucqs[i].size();
    if (i < raw_members.size()) {
      out << " of " << raw_members[i] << " members";
    } else {
      out << " CQ(s)";
    }
    out << ", head arity " << fragment_queries[i].head().size();
    if (source[i] != i) {
      out << ", same as fragment " << source[i] << "\n";
      continue;
    }
    out << "\n";
    if (!fragment_ucqs[i].empty()) {
      out << "    first member plan:\n";
      out << IndentBlock(ExplainCq(fragment_ucqs[i].members()[0]), "    ");
    }
  }
  return out.str();
}

bool Evaluator::EvaluateCqInto(const Cq& q, const Deadline& deadline,
                               ScanCache* cache, Table* out) const {
  if (!out->has_arity()) out->SetArity(q.head().size());
  // The CQ-boundary check: a union stops before its next member.
  if (deadline.expired()) return false;
  const std::vector<Atom>& body = q.body();
  if (body.empty()) return true;
  const JoinPlan plan = OrderAtoms(*cache, q);
  std::vector<rdf::TermId> bindings(q.num_vars(), kUnbound);
  // Resource-constrained variables (reformulation rules 3/7) reject
  // literal bindings: a literal cannot be the subject of an entailed
  // rdf:type triple.
  std::vector<char> resource_only(q.num_vars(), 0);
  for (VarId v : q.resource_vars()) resource_only[v] = 1;
  const rdf::Dictionary& dict = store_->dict();

  // The deadline is polled every kCancelStride consumed triples, bounding
  // the overrun of a runaway CQ. A single pattern scan (one cache
  // fill or cursor reset) is not cancellable mid-buffer, exactly like the
  // scan callbacks of the recursive engine this replaces.
  constexpr size_t kCancelStride = 1024;
  size_t steps = 0;

  const size_t num_atoms = plan.order.size();
  const size_t head_arity = q.head().size();
  std::vector<JoinFrame> frames(num_atoms);

  // A static plan's frames hold their atoms, and their pruning, for the
  // whole evaluation.
  const bool pruning = plan.existential;
  if (!plan.dynamic) {
    int head_depth = -1;
    for (size_t d = 0; d < num_atoms; ++d) {
      JoinFrame& f = frames[d];
      f.atom = plan.order[d];
      if (!pruning) continue;
      f.prune = plan.depth_prune[d];
      if (f.prune.binds_head) head_depth = static_cast<int>(d);
      f.head_depth = head_depth;
    }
  }

  // A dynamic plan picks frame f's atom when it opens: ChooseAtDepth's
  // decision for the open set, or among competing expansions the one with
  // the fewest matches under the current bindings (ties keep the static
  // order). Each (atom, bound pattern) is counted once.
  CountMemo counts;
  auto choose_atom = [&](JoinFrame& f) -> int {
    if (f.choice_for != f.open) {
      f.choice = ChooseAtDepth(plan, f.open);
      f.choice_for = f.open;
    }
    if (f.choice.atom >= 0) return f.choice.atom;
    int best = -1;
    size_t best_count = std::numeric_limits<size_t>::max();
    for (int a : plan.order) {
      if (((f.choice.candidates >> a) & 1) == 0) continue;
      const Atom& atom = body[static_cast<size_t>(a)];
      const storage::Pattern pat = AtomPattern(atom, &bindings);
      const size_t count =
          counts.Get(a, pat, [&] { return CountBound(*store_, atom, pat); });
      if (count < best_count) {
        best = a;
        best_count = count;
        if (count == 0) break;
      }
    }
    return best;
  };

  // A filter atom's matches for its bound pattern `pat`: an index probe
  // until the atom's probes outnumber its unbound matches, then its group
  // in a hash of those matches, built once. A group holds exactly what the
  // probe returns only when the source delivers each triple once, so other
  // sources always probe the index (DESIGN.md §9).
  const bool hash_filters = store_->DeliversDistinctTriples();
  auto probe_filter = [&](JoinFrame& f, const storage::Pattern& pat)
      -> std::span<const rdf::Triple> {
    FilterProbes& probes = frames[static_cast<size_t>(f.atom)].filter;
    if (probes.index != nullptr) return probes.index->Probe(pat);
    const Atom& atom = body[static_cast<size_t>(f.atom)];
    if (probes.probes++ == 0) {
      probes.threshold = cache->Count(AtomPattern(atom));
    }
    if (probes.probes <= probes.threshold) {
      return f.cursor.Reset(*store_, pat, {}, &f.hint);
    }
    probes.index = std::make_unique<FilterIndex>(cache->Leaf(AtomPattern(atom)),
                                                 VarPositions(atom));
    return probes.index->Probe(pat);
  };

  // Opens frame d: picks its atom (dynamic plans), resolves the atom's
  // pattern under the current bindings and binds the frame's range.
  // Depth-0 patterns with no residual go through the shared cache (they
  // are identical across sibling members of a reformulation union); inner
  // patterns depend on the outer bindings and use the frame's reusable
  // cursor, or the filter hash once it is built.
  auto open_frame = [&](size_t d) {
    JoinFrame& f = frames[d];
    if (plan.dynamic) {
      if (d > 0) {
        const JoinFrame& outer = frames[d - 1];
        f.open = outer.open | (uint64_t{1} << outer.atom);
      }
      const int chosen = choose_atom(f);
      if (chosen != f.atom) f.hint = storage::RangeHint();
      f.atom = chosen;
      if (pruning) {
        if (f.prune_for != f.open || f.prune_atom != chosen) {
          f.prune = PruneAt(plan, body[static_cast<size_t>(chosen)], f.open,
                            chosen);
          f.prune_for = f.open;
          f.prune_atom = chosen;
        }
        f.head_depth = f.prune.binds_head ? static_cast<int>(d)
                       : d == 0           ? -1
                                          : frames[d - 1].head_depth;
      }
    }
    const Atom& atom = body[static_cast<size_t>(f.atom)];
    const storage::Pattern pat = AtomPattern(atom, &bindings);
    // An intra-atom repeated *unbound* variable becomes a residual filter
    // (a bound repeat is already a constant in the pattern).
    storage::ResidualEq residual;
    residual.s_eq_p = atom.s.is_var && atom.p.is_var &&
                      atom.s.var() == atom.p.var() && pat.s == storage::kAny;
    residual.s_eq_o = atom.s.is_var && atom.o.is_var &&
                      atom.s.var() == atom.o.var() && pat.s == storage::kAny;
    residual.p_eq_o = atom.p.is_var && atom.o.is_var &&
                      atom.p.var() == atom.o.var() && pat.p == storage::kAny;
    f.pos = 0;
    f.num_new = 0;
    f.last = nullptr;
    const bool filter = (!atom.s.is_var || pat.s != storage::kAny) &&
                        (!atom.p.is_var || pat.p != storage::kAny) &&
                        (!atom.o.is_var || pat.o != storage::kAny);
    if (d == 0 && !residual.any()) {
      f.range = cache->Leaf(pat);
    } else if (hash_filters && filter) {
      f.range = probe_filter(f, pat);
    } else {
      f.range = f.cursor.Reset(*store_, pat, residual, &f.hint);
    }
  };

  // Binds the free variables of frame d's atom against triple t, recording
  // the undo set in the frame. Honors repeated variables within the atom
  // (the residual filter already discharged unbound repeats; the equality
  // recheck is kept as the single source of truth) and the resource-only
  // constraint.
  auto bind_row = [&](size_t d, const rdf::Triple& t) -> bool {
    JoinFrame& f = frames[d];
    const Atom& atom = body[static_cast<size_t>(f.atom)];
    auto bind = [&](const QTerm& qt, rdf::TermId value) -> bool {
      if (!qt.is_var) return true;  // matched by the scan pattern
      rdf::TermId& slot = bindings[qt.var()];
      if (slot == kUnbound) {
        if (resource_only[qt.var()] && dict.Lookup(value).is_literal()) {
          return false;
        }
        slot = value;
        f.newly[f.num_new++] = qt.var();
        return true;
      }
      return slot == value;
    };
    return bind(atom.s, t.s) && bind(atom.p, t.p) && bind(atom.o, t.o);
  };

  auto unbind = [&](JoinFrame& f) {
    for (int k = 0; k < f.num_new; ++k) bindings[f.newly[k]] = kUnbound;
    f.num_new = 0;
  };

  // Iterative index nested-loop join. Each loop iteration first undoes the
  // bindings of the current frame's previous row (mirroring the recursive
  // engine's unbind-after-recurse), then advances it: descend on a
  // successful bind, emit at the deepest frame, pop when exhausted.
  // Existential pruning skips only emissions that repeat an earlier one
  // (DESIGN.md §9): a pruning frame skips the triples that agree with its
  // last bound one on the positions read later, or stops after its first
  // bind when none is read, and an emit returns to the deepest frame that
  // binds a head variable.
  open_frame(0);
  size_t depth = 0;
  while (true) {
    JoinFrame& f = frames[depth];
    unbind(f);
    if (f.prune.prunes && f.last != nullptr) {
      while (f.pos < f.range.size() &&
             SameOn(f.range[f.pos], *f.last, f.prune.keep)) {
        ++f.pos;
      }
    }
    if (f.pos == f.range.size()) {
      if (depth == 0) break;
      --depth;
      continue;
    }
    const rdf::Triple& t = f.range[f.pos++];
    if (++steps % kCancelStride == 0 && deadline.expired()) return false;
    if (!bind_row(depth, t)) continue;
    if (f.prune.prunes) {
      if (f.prune.keep == 0) {
        f.pos = f.range.size();  // a semi-join: one bind decides
      } else {
        f.last = &t;
      }
    }
    if (depth + 1 == num_atoms) {
      rdf::TermId* row = out->AppendUninitialized();
      for (size_t k = 0; k < head_arity; ++k) {
        const QTerm& h = q.head()[k];
        row[k] = h.is_var ? bindings[h.var()] : h.term();
      }
      if (pruning && f.head_depth < static_cast<int>(depth)) {
        // The frames below the deepest head binding can only emit this
        // row again: unwind them, or finish when no frame binds the head.
        const int target = f.head_depth;
        for (int k = static_cast<int>(depth); k > target; --k) {
          unbind(frames[static_cast<size_t>(k)]);
        }
        if (target < 0) break;
        depth = static_cast<size_t>(target);
      }
      continue;
    }
    ++depth;
    open_frame(depth);
  }
  return true;
}

Table Evaluator::EvaluateCq(const Cq& q) const {
  Table table;
  for (const QTerm& h : q.head()) {
    table.columns.push_back(h.is_var ? h.var() : kConstColumn);
  }
  table.SetArity(q.head().size());
  ScanCache cache(store_);
  // An infinite deadline never expires; a partial result here would mean
  // the engine truncated an answer under an infinite budget.
  if (!EvaluateCqInto(q, Deadline::Infinite(), &cache, &table)) {
    EngineFatal("EvaluateCq: stopped under an infinite deadline");
  }
  if (!RowsAreDistinct(q, *store_)) table.Dedup();
  return table;
}

Table Evaluator::EvaluateUcq(const query::Ucq& ucq) const {
  // An infinite deadline never fails.
  return EvaluateUcq(ucq, Deadline::Infinite()).value();
}

Result<Table> Evaluator::EvaluateUcq(const query::Ucq& ucq,
                                     const Deadline& deadline) const {
  // One scan memo for the whole union: members of a reformulation UCQ
  // overlap heavily in their atoms.
  ScanCache cache(store_);
  return EvaluateUcqWithCache(ucq, deadline, &cache);
}

Result<Table> Evaluator::EvaluateUcqView(const query::Cq& q,
                                         const query::Ucq& ucq,
                                         const Deadline& deadline) const {
  ScanCache cache(store_);
  return EvaluateUcqThroughViewCache(q, ucq, deadline, &cache);
}

Result<Table> Evaluator::EvaluateUcqThroughViewCache(
    const query::Cq& q, const query::Ucq& ucq, const Deadline& deadline,
    ScanCache* cache) const {
  if (view_cache_ == nullptr) {
    return EvaluateUcqWithCache(ucq, deadline, cache);
  }
  const ViewKey key = view_cache_->KeyFor(q, ucq);
  if (!key.ok()) return EvaluateUcqWithCache(ucq, deadline, cache);
  if (std::optional<Table> hit = view_cache_->Lookup(key.full, view_epoch_)) {
    // Relabel with *this* union's head: the cached entry may have been
    // installed by an α-equivalent plan whose VarIds differ. Values are
    // bit-identical (equal plan keys evaluate identically); only the
    // column labels belong to the caller.
    Table table = std::move(*hit);
    table.columns.clear();
    for (const QTerm& h : ucq.members()[0].head()) {
      table.columns.push_back(h.is_var ? h.var() : kConstColumn);
    }
    return table;
  }
  Timer fill;
  Result<Table> computed = EvaluateUcqWithCache(ucq, deadline, cache);
  if (computed.ok()) {
    ViewFootprint footprint;
    footprint.AddUcq(ucq);
    view_cache_->Install(key, view_epoch_, computed.value(),
                         std::move(footprint), fill.ElapsedMillis());
  }
  return computed;
}

Result<Table> Evaluator::EvaluateUcqWithCache(const query::Ucq& ucq,
                                              const Deadline& deadline,
                                              ScanCache* cache) const {
  Table table;
  if (!ucq.empty()) {
    for (const QTerm& h : ucq.members()[0].head()) {
      table.columns.push_back(h.is_var ? h.var() : kConstColumn);
    }
    table.SetArity(ucq.members()[0].head().size());
  }
  const size_t n = ucq.size();
  for (size_t i = 0; i < n; ++i) {
    if (!EvaluateCqInto(ucq.members()[i], deadline, cache, &table)) {
      return UcqDeadlineError(i, n);
    }
  }
  // Two members may derive one row; a lone member repeats none when its
  // rows are distinct.
  if (n != 1 || !RowsAreDistinct(ucq.members()[0], *store_)) table.Dedup();
  return table;
}

Table Evaluator::EvaluateJucq(const Cq& q,
                              const std::vector<Cq>& fragment_queries,
                              const std::vector<query::Ucq>& fragment_ucqs,
                              JucqProfile* profile) const {
  return EvaluateJucq(q, fragment_queries, fragment_ucqs, Deadline::Infinite(),
                      profile)
      .value();
}

Result<Table> Evaluator::EvaluateJucq(
    const Cq& q, const std::vector<Cq>& fragment_queries,
    const std::vector<query::Ucq>& fragment_ucqs, const Deadline& deadline,
    JucqProfile* profile) const {
  Timer total;
  const size_t nf = fragment_ucqs.size();

  // 1. Materialize the fragments in order, through the view cache when
  // one is attached. The scan memo is shared across fragments: cover
  // fragments of one query re-reformulate the same atoms, so their leaf
  // patterns and counts coincide. Columns are relabeled from the fragment
  // query, so hits, misses and reused fragments feed the join identically.
  // A fragment that repeats an earlier one (the same query and union up to
  // variable names) is not evaluated: it reuses that fragment's table.
  ScanCache cache(store_);
  const std::vector<size_t> source =
      FragmentSources(fragment_queries, fragment_ucqs);
  std::vector<Table> tables;
  tables.reserve(nf);
  for (size_t i = 0; i < nf; ++i) {
    const size_t from = source[i];
    double millis = 0.0;
    Table table;
    if (from == i) {
      Timer t;
      Result<Table> got = EvaluateUcqThroughViewCache(
          fragment_queries[i], fragment_ucqs[i], deadline, &cache);
      if (!got.ok()) {
        // Partial profile: the fragments materialized so far stay recorded.
        if (profile != nullptr) profile->total_millis = total.ElapsedMillis();
        return Status(got.status().code(), "fragment " + std::to_string(i) +
                                               ": " + got.status().message());
      }
      table = std::move(got).value();
      millis = t.ElapsedMillis();
    } else {
      table = tables[from];  // an earlier fragment, so already in `tables`
    }
    // Columns must reflect the *fragment query* head terms (member heads
    // may have constants substituted in, but slot j is still the value of
    // head slot j of the fragment subquery). A constant head slot carries
    // no variable: it gets the same sentinel EvaluateCq uses, so it can
    // never alias a real VarId during the fragment joins.
    table.columns.clear();
    for (const QTerm& h : fragment_queries[i].head()) {
      table.columns.push_back(h.is_var ? h.var() : kConstColumn);
    }
    if (profile != nullptr) {
      FragmentProfile fp;
      fp.cover_fragment = FragmentLabel(q, fragment_queries[i]);
      fp.ucq_members = fragment_ucqs[i].size();
      fp.result_rows = table.NumRows();
      fp.millis = millis;
      if (from != i) fp.same_as = static_cast<int>(from);
      profile->fragments.push_back(fp);
    }
    tables.push_back(std::move(table));
  }

  // 2. Join fragments: start from the smallest, then greedily pick the
  // smallest fragment *connected* to the joined columns (avoiding cross
  // products, as an RDBMS join-order heuristic would).
  if (deadline.expired()) {
    if (profile != nullptr) profile->total_millis = total.ElapsedMillis();
    return Status::DeadlineExceeded(
        "deadline exceeded before the fragment join");
  }
  Timer join_timer;
  Table result;
  if (!tables.empty()) {
    std::vector<bool> joined(tables.size(), false);
    size_t first = 0;
    for (size_t i = 1; i < tables.size(); ++i) {
      if (tables[i].NumRows() < tables[first].NumRows()) first = i;
    }
    joined[first] = true;
    std::set<VarId> joined_cols(tables[first].columns.begin(),
                                tables[first].columns.end());
    result = std::move(tables[first]);
    for (size_t step = 1; step < tables.size(); ++step) {
      int best = -1;
      bool best_connected = false;
      for (size_t i = 0; i < tables.size(); ++i) {
        if (joined[i]) continue;
        bool connected =
            std::any_of(tables[i].columns.begin(), tables[i].columns.end(),
                        [&](VarId v) { return joined_cols.count(v) > 0; });
        if (best == -1 || (connected && !best_connected) ||
            (connected == best_connected &&
             tables[i].NumRows() <
                 tables[static_cast<size_t>(best)].NumRows())) {
          best = static_cast<int>(i);
          best_connected = connected;
        }
      }
      joined[static_cast<size_t>(best)] = true;
      joined_cols.insert(tables[static_cast<size_t>(best)].columns.begin(),
                         tables[static_cast<size_t>(best)].columns.end());
      result = HashJoin(result, tables[static_cast<size_t>(best)]);
    }
  }

  // 3. Project the original head into a table sized to the answer. Where
  // every head slot is a distinct variable in the joined table's column
  // order, as a one-fragment cover gives, the projection is the identity
  // and the rows are copied as one block. Otherwise: one arena append per
  // row, reading the joined rows as stride slices. Fragment tables are
  // sets, so their natural join is one too: a projection that keeps every
  // joined column cannot repeat a row. The joined table itself is not
  // returned: its arena grew by doubling, and handing that arena to the
  // caller made the allocator trim and regrow its heap far more often
  // (DESIGN.md §9, "The JUCQ projection").
  std::vector<int> proj;
  proj.reserve(q.head().size());
  std::vector<bool> kept(result.columns.size(), false);
  bool identity = result.has_arity() && q.head().size() == kept.size();
  for (const QTerm& h : q.head()) {
    proj.push_back(h.is_var ? result.ColumnOf(h.var()) : -1);
    if (proj.back() >= 0) kept[static_cast<size_t>(proj.back())] = true;
    identity = identity && proj.back() + 1 == static_cast<int>(proj.size());
  }
  Table answer;
  for (const QTerm& h : q.head()) {
    answer.columns.push_back(h.is_var ? h.var() : kConstColumn);
  }
  answer.SetArity(q.head().size());
  const size_t num_rows = result.NumRows();
  answer.ReserveRows(num_rows);
  if (identity) {
    answer.Append(result);
  } else {
    for (size_t r = 0; r < num_rows; ++r) {
      const std::span<const rdf::TermId> row = result.row(r);
      rdf::TermId* dst = answer.AppendUninitialized();
      for (size_t i = 0; i < proj.size(); ++i) {
        dst[i] = proj[i] >= 0 ? row[proj[i]] : q.head()[i].term();
      }
    }
    if (std::find(kept.begin(), kept.end(), false) != kept.end()) {
      answer.Dedup();
    }
  }
  if (profile != nullptr) {
    profile->join_millis = join_timer.ElapsedMillis();
    profile->total_millis = total.ElapsedMillis();
  }
  return answer;
}

}  // namespace engine
}  // namespace rdfref
