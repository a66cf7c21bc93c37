#include "testing/reference_eval.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "api/query_answering.h"
#include "engine/evaluator.h"
#include "reformulation/reformulator.h"
#include "storage/version_set.h"

namespace rdfref {
namespace testing {

namespace {

using query::Atom;
using query::Cq;
using query::QTerm;
using query::VarId;

constexpr rdf::TermId kUnbound = rdf::kInvalidTermId;

rdf::TermId Resolve(const QTerm& t, const std::vector<rdf::TermId>& bindings) {
  if (!t.is_var) return t.term();
  rdf::TermId v = bindings[t.var()];
  return v == kUnbound ? storage::kAny : v;
}

// The seed engine's greedy join order, kept with its original O(n²)
// std::set bookkeeping: the reference must agree with the engine's order
// (the counts are the same store answers), not share its code.
std::vector<int> ReferenceOrderAtoms(const storage::TripleSource& store,
                                     const Cq& q) {
  const std::vector<Atom>& body = q.body();
  const int n = static_cast<int>(body.size());
  std::vector<uint64_t> base(n);
  for (int i = 0; i < n; ++i) {
    rdf::TermId s = body[i].s.is_var ? storage::kAny : body[i].s.term();
    rdf::TermId p = body[i].p.is_var ? storage::kAny : body[i].p.term();
    rdf::TermId o = body[i].o.is_var ? storage::kAny : body[i].o.term();
    base[i] = body[i].has_range()
                  ? store.CountIntervalMatches(s, p, o, body[i].range_pos,
                                               body[i].range_hi)
                  : store.CountMatches(s, p, o);
  }
  std::vector<int> order;
  std::vector<bool> used(n, false);
  std::set<VarId> bound_vars;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    uint64_t best_count = std::numeric_limits<uint64_t>::max();
    bool best_connected = false;
    for (int i = 0; i < n; ++i) {
      if (used[i]) continue;
      std::set<VarId> vars = Cq::AtomVars(body[i]);
      bool connected =
          step == 0 || std::any_of(vars.begin(), vars.end(), [&](VarId v) {
            return bound_vars.count(v) > 0;
          });
      if (best == -1 || (connected && !best_connected) ||
          (connected == best_connected && base[i] < best_count)) {
        best = i;
        best_count = base[i];
        best_connected = connected;
      }
    }
    used[best] = true;
    order.push_back(best);
    std::set<VarId> vars = Cq::AtomVars(body[best]);
    bound_vars.insert(vars.begin(), vars.end());
  }
  return order;
}

// The engine's per-binding expansion choice (DESIGN.md §9), re-derived
// over std::set bookkeeping: which atom opens at `depth`, given the atoms
// open so far and the current bindings. A filter (every variable bound)
// opens first; two or more expansions (sharing a bound variable, binding
// one that another remaining atom uses) compete on the exact match count
// of their bound pattern, ties to the static order; otherwise the first
// remaining atom in static order opens. CQs with fewer than three atoms,
// or more than 64 atoms or variables (the engine's bitmask width), keep
// the static order.
int ReferenceChooseAtom(const storage::TripleSource& store, const Cq& q,
                        const std::vector<std::set<VarId>>& atom_vars,
                        const std::vector<int>& order,
                        const std::vector<bool>& opened, size_t depth,
                        const std::vector<rdf::TermId>& bindings) {
  const std::vector<Atom>& body = q.body();
  if (depth == 0 || body.size() < 3 || body.size() > 64 ||
      q.num_vars() > 64) {
    return order[depth];
  }
  std::vector<int> remaining;
  std::set<VarId> bound;
  for (int a : order) {
    if (opened[a]) {
      bound.insert(atom_vars[a].begin(), atom_vars[a].end());
    } else {
      remaining.push_back(a);
    }
  }
  std::vector<int> expansions;
  for (int a : remaining) {
    bool shares = false;
    bool feeds = false;
    bool all_bound = true;
    for (VarId v : atom_vars[a]) {
      if (bound.contains(v)) {
        shares = true;
        continue;
      }
      all_bound = false;
      for (int b : remaining) {
        if (b != a && atom_vars[b].contains(v)) feeds = true;
      }
    }
    if (all_bound) return a;
    if (shares && feeds) expansions.push_back(a);
  }
  if (expansions.size() < 2) return remaining.front();
  int best = -1;
  size_t best_count = 0;
  for (int a : expansions) {
    const Atom& atom = body[a];
    rdf::TermId s = Resolve(atom.s, bindings);
    rdf::TermId p = Resolve(atom.p, bindings);
    rdf::TermId o = Resolve(atom.o, bindings);
    // Interval patterns are counted by scanning them: exact for every
    // shape, where CountIntervalMatches may widen.
    storage::PatternCursor cursor;
    size_t count =
        atom.has_range()
            ? cursor.Reset(store, {s, p, o, atom.range_pos, atom.range_hi})
                  .size()
            : store.CountMatches(s, p, o);
    if (best == -1 || count < best_count) {
      best = a;
      best_count = count;
    }
  }
  return best;
}

// The seed engine's recursive nested-loop join, opening atoms by
// ReferenceChooseAtom: one materialized row vector per emitted head tuple.
void ReferenceEvaluateCqInto(const storage::TripleSource& store, const Cq& q,
                             std::vector<std::vector<rdf::TermId>>* out) {
  const std::vector<Atom>& body = q.body();
  if (body.empty()) return;
  std::vector<int> order = ReferenceOrderAtoms(store, q);
  std::vector<std::set<VarId>> atom_vars;
  for (const Atom& atom : body) atom_vars.push_back(Cq::AtomVars(atom));
  std::vector<bool> opened(body.size(), false);
  std::vector<rdf::TermId> bindings(q.num_vars(), kUnbound);
  std::vector<char> resource_only(q.num_vars(), 0);
  for (VarId v : q.resource_vars()) resource_only[v] = 1;
  const rdf::Dictionary& dict = store.dict();

  auto emit = [&]() {
    std::vector<rdf::TermId> row;
    row.reserve(q.head().size());
    for (const QTerm& h : q.head()) {
      row.push_back(h.is_var ? bindings[h.var()] : h.term());
    }
    out->push_back(std::move(row));
  };

  std::function<void(size_t)> recurse = [&](size_t depth) {
    if (depth == order.size()) {
      emit();
      return;
    }
    const int chosen = ReferenceChooseAtom(store, q, atom_vars, order, opened,
                                           depth, bindings);
    const Atom& atom = body[chosen];
    rdf::TermId ps = Resolve(atom.s, bindings);
    rdf::TermId pp = Resolve(atom.p, bindings);
    rdf::TermId po = Resolve(atom.o, bindings);
    auto per_triple = [&](const rdf::Triple& t) {
      VarId newly[3];
      int num_new = 0;
      auto bind = [&](const QTerm& qt, rdf::TermId value) -> bool {
        if (!qt.is_var) return true;
        rdf::TermId& slot = bindings[qt.var()];
        if (slot == kUnbound) {
          if (resource_only[qt.var()] && dict.Lookup(value).is_literal()) {
            return false;
          }
          slot = value;
          newly[num_new++] = qt.var();
          return true;
        }
        return slot == value;
      };
      bool ok = bind(atom.s, t.s) && bind(atom.p, t.p) && bind(atom.o, t.o);
      if (ok) {
        opened[chosen] = true;
        recurse(depth + 1);
        opened[chosen] = false;
      }
      for (int k = 0; k < num_new; ++k) bindings[newly[k]] = kUnbound;
    };
    if (atom.has_range()) {
      // Interval atom: iterate exactly what the engine's interval access
      // path delivers (same order — the bit-for-bit comparison depends on
      // the enumeration order, not just the set).
      storage::PatternCursor cursor;
      for (const rdf::Triple& t : cursor.Reset(
               store, {ps, pp, po, atom.range_pos, atom.range_hi})) {
        per_triple(t);
      }
    } else {
      store.Scan(ps, pp, po, per_triple);
    }
  };
  recurse(0);
}

// Seed-order dedup: keep the first occurrence of each row, in order.
void ReferenceDedup(std::vector<std::vector<rdf::TermId>>* rows) {
  std::unordered_set<std::vector<rdf::TermId>, engine::RowHash> seen;
  std::vector<std::vector<rdf::TermId>> kept;
  kept.reserve(rows->size());
  for (std::vector<rdf::TermId>& row : *rows) {
    if (seen.insert(row).second) kept.push_back(std::move(row));
  }
  *rows = std::move(kept);
}

engine::Table ToTable(std::vector<query::VarId> columns,
                      const std::vector<std::vector<rdf::TermId>>& rows,
                      size_t arity) {
  engine::Table t;
  t.columns = std::move(columns);
  t.SetArity(arity);
  for (const std::vector<rdf::TermId>& row : rows) t.AppendRow(row);
  return t;
}

std::vector<query::VarId> HeadColumns(const Cq& q) {
  std::vector<query::VarId> columns;
  columns.reserve(q.head().size());
  for (const QTerm& h : q.head()) {
    columns.push_back(h.is_var ? h.var() : engine::kConstColumn);
  }
  return columns;
}

}  // namespace

Divergence CompareBitForBit(const std::string& relation,
                            const engine::Table& columnar,
                            const engine::Table& reference, const Cq& q,
                            const rdf::Dictionary& dict) {
  std::ostringstream os;
  if (columnar.columns != reference.columns) {
    os << "column labels differ: columnar has " << columnar.columns.size()
       << ", reference has " << reference.columns.size();
  } else if (columnar.NumRows() != reference.NumRows()) {
    os << "row counts differ: columnar " << columnar.NumRows()
       << ", reference " << reference.NumRows();
  } else {
    for (size_t r = 0; r < reference.NumRows(); ++r) {
      const auto a = columnar.row(r);
      const auto b = reference.row(r);
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
        os << "row " << r << " differs";
        break;
      }
    }
  }
  std::string diff = os.str();
  if (diff.empty()) return Divergence::None();
  os << "\nquery: " << q.ToString(dict);
  return Divergence::Of(relation, os.str());
}

engine::Table ReferenceEvaluateCq(const storage::TripleSource& source,
                                  const query::Cq& q) {
  std::vector<std::vector<rdf::TermId>> rows;
  ReferenceEvaluateCqInto(source, q, &rows);
  ReferenceDedup(&rows);
  return ToTable(HeadColumns(q), rows, q.head().size());
}

engine::Table ReferenceEvaluateUcq(const storage::TripleSource& source,
                                   const query::Ucq& ucq) {
  std::vector<std::vector<rdf::TermId>> rows;
  for (const Cq& member : ucq.members()) {
    ReferenceEvaluateCqInto(source, member, &rows);
  }
  ReferenceDedup(&rows);
  if (ucq.empty()) return engine::Table();
  return ToTable(HeadColumns(ucq.members()[0]), rows,
                 ucq.members()[0].head().size());
}

Divergence CheckColumnarVsReference(const Scenario& sc,
                                    const query::Cq& scenario_q,
                                    uint64_t* refusals) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  const query::Cq q =
      TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  storage::SnapshotPtr pinned = answerer.PinSnapshot();
  const storage::TripleSource& source = *pinned;
  const rdf::Dictionary& dict = answerer.dict();
  engine::Evaluator evaluator(&source);

  // 1. Plain CQ over the explicit database.
  {
    engine::Table fast = evaluator.EvaluateCq(q);
    engine::Table ref = ReferenceEvaluateCq(source, q);
    Divergence d = CompareBitForBit("columnar:cq", fast, ref, q, dict);
    if (d.found) return d;
  }

  // 2. The full UCQ reformulation — the path the scan memo accelerates.
  reformulation::Reformulator reformulator(&answerer.schema(), {}, &dict);
  auto ucq = reformulator.Reformulate(q);
  if (!ucq.ok()) {
    if (refusals != nullptr &&
        ucq.status().code() == StatusCode::kResourceExhausted) {
      ++*refusals;
    }
    return Divergence::None();
  }
  engine::Table fast = evaluator.EvaluateUcq(*ucq);
  engine::Table ref = ReferenceEvaluateUcq(source, *ucq);
  return CompareBitForBit("columnar:ucq", fast, ref, q, dict);
}

}  // namespace testing
}  // namespace rdfref
