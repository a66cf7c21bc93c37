#include "reformulation/reformulator.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "query/minimize.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace reformulation {

namespace {

using query::Atom;
using query::Cq;
using query::QTerm;
using query::Ucq;
using query::VarId;

/// Placeholder for the fresh existential variable a rule introduces; it is
/// materialized as a real query variable when the atom lands in a CQ.
constexpr VarId kFreshMark = 0xFFFFFFFFu;

bool IsFresh(const QTerm& t) { return t.is_var && t.var() == kFreshMark; }

QTerm Fresh() { return QTerm::Var(kFreshMark); }

/// Replaces variable `v` by constant `c` within one atom.
Atom SubstAtom(const Atom& a, VarId v, rdf::TermId c) {
  Atom out = a;
  auto fix = [v, c](QTerm* t) {
    if (t->is_var && t->var() == v) *t = QTerm::Const(c);
  };
  fix(&out.s);
  fix(&out.p);
  fix(&out.o);
  return out;
}

/// Dedup key over (atom, bindings, resource restrictions). With `blank`
/// set to Atom::kRangeP or kRangeO, the key leaves out that position's
/// term, the interval and the resource restrictions: members sharing such a
/// key differ at most there.
std::string MemberKey(const AtomReformulation& m,
                      uint8_t blank = Atom::kRangeNone) {
  std::string key;
  auto add = [&key](const QTerm& t) {
    key += t.is_var ? 'v' : 'c';
    key += std::to_string(t.id);
    key += ' ';
  };
  auto add_at = [&](uint8_t pos, const QTerm& t) {
    if (pos == blank) {
      key += "* ";
    } else {
      add(t);
    }
  };
  add(m.atom.s);
  add_at(Atom::kRangeP, m.atom.p);
  add_at(Atom::kRangeO, m.atom.o);
  if (blank == Atom::kRangeNone && m.atom.has_range()) {
    // An interval member and a classic member on the interval's low endpoint
    // must not collide.
    key += 'R';
    key += std::to_string(m.atom.range_pos);
    key += "..";
    key += std::to_string(m.atom.range_hi);
    key += ' ';
  }
  std::vector<std::pair<VarId, rdf::TermId>> sorted = m.bindings;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [v, c] : sorted) {
    key += std::to_string(v);
    key += "->";
    key += std::to_string(c);
    key += ' ';
  }
  if (blank != Atom::kRangeNone) return key;
  std::vector<VarId> res = m.resource_vars;
  std::sort(res.begin(), res.end());
  for (VarId v : res) {
    key += 'r';
    key += std::to_string(v);
    key += ' ';
  }
  return key;
}

/// True when `child` is the interval member rule 1 or 4 fused from the
/// constant of `parent` itself. It then subsumes `parent`: the interval
/// holds that constant, and those rules change nothing else.
bool FusesOwnTerm(const Atom& parent, const AtomReformulation& child) {
  if (!child.atom.has_range() || (child.rule != 1 && child.rule != 4)) {
    return false;
  }
  const QTerm& at = child.atom.range_pos == Atom::kRangeP ? parent.p : parent.o;
  return !at.is_var && at.term() >= child.atom.range_lo() &&
         at.term() <= child.atom.range_hi;
}

/// One position of one union member, as subsumption pruning sees it: the
/// member's key with that position blanked, the constant or interval the
/// position holds, and the member's resource restrictions (sorted, named
/// as in the key).
struct Facet {
  std::string key;
  rdf::TermId lo = 0;
  rdf::TermId hi = 0;  // == lo for a classic position
  bool interval = false;
  std::vector<VarId> resources;
  size_t member = 0;
};

/// Subsumption pruning over a union: returns which members to drop. A
/// member is dropped when, for one of its classic atoms, another member is
/// equal to it except that this atom ranges over an interval holding the
/// classic constant, and restricts a subset of its resource variables: that
/// member returns a superset of its answers. A cover has one interval atom
/// more than what it covers, so every chain of covers ends at a member that
/// stays, and the union keeps its answers. `atoms_of(m)`
/// lists member m's atoms; `key_of(m, i, pos, &resources)` renders m's key
/// with position `pos` of its atom i blanked (bindings included) and fills
/// m's resource restrictions named as in that key.
template <typename AtomsFn, typename KeyFn>
std::vector<bool> FindSubsumed(size_t num_members, const AtomsFn& atoms_of,
                               const KeyFn& key_of) {
  std::vector<bool> subsumed(num_members, false);
  // The intervals each (atom index, position) carries anywhere in the
  // union: a classic constant none of them holds costs no key.
  std::map<std::pair<size_t, uint8_t>,
           std::set<std::pair<rdf::TermId, rdf::TermId>>>
      intervals;
  for (size_t m = 0; m < num_members; ++m) {
    const std::span<const Atom> atoms = atoms_of(m);
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (!atoms[i].has_range()) continue;
      intervals[{i, atoms[i].range_pos}].emplace(atoms[i].range_lo(),
                                                 atoms[i].range_hi);
    }
  }
  if (intervals.empty()) return subsumed;
  auto covered = [&](size_t i, uint8_t pos, const QTerm& t) {
    if (t.is_var) return false;
    auto it = intervals.find({i, pos});
    if (it == intervals.end()) return false;
    for (const auto& [lo, hi] : it->second) {
      if (t.term() >= lo && t.term() <= hi) return true;
    }
    return false;
  };
  std::vector<Facet> facets;
  for (size_t m = 0; m < num_members; ++m) {
    const std::span<const Atom> atoms = atoms_of(m);
    for (size_t i = 0; i < atoms.size(); ++i) {
      auto add = [&](uint8_t pos, rdf::TermId lo, rdf::TermId hi) {
        Facet f;
        f.key = key_of(m, i, pos, &f.resources);
        f.lo = lo;
        f.hi = hi;
        f.interval = atoms[i].has_range();
        f.member = m;
        facets.push_back(std::move(f));
      };
      const Atom& a = atoms[i];
      if (a.has_range()) {
        add(a.range_pos, a.range_lo(), a.range_hi);
        continue;
      }
      if (covered(i, Atom::kRangeP, a.p)) {
        add(Atom::kRangeP, a.p.term(), a.p.term());
      }
      if (covered(i, Atom::kRangeO, a.o)) {
        add(Atom::kRangeO, a.o.term(), a.o.term());
      }
    }
  }
  std::sort(facets.begin(), facets.end(),
            [](const Facet& x, const Facet& y) { return x.key < y.key; });
  for (size_t begin = 0, end = 0; begin < facets.size(); begin = end) {
    end = begin + 1;
    while (end < facets.size() && facets[end].key == facets[begin].key) ++end;
    for (size_t c = begin; c < end; ++c) {
      if (facets[c].interval) continue;
      for (size_t f = begin; f < end; ++f) {
        if (facets[f].interval && facets[c].lo >= facets[f].lo &&
            facets[c].lo <= facets[f].hi &&
            std::includes(facets[c].resources.begin(),
                          facets[c].resources.end(),
                          facets[f].resources.begin(),
                          facets[f].resources.end())) {
          subsumed[facets[c].member] = true;
          break;
        }
      }
    }
  }
  return subsumed;
}

/// Cq::CanonicalKey of `q` with position `pos` of atom `at` blanked, and
/// that atom's interval and the resource restrictions left out;
/// `resources` receives the restricted variables under the key's renaming.
std::string BlankedCqKey(const Cq& q, size_t at, uint8_t pos,
                         std::vector<VarId>* resources) {
  std::unordered_map<VarId, VarId> renaming;
  std::string key;
  auto add = [&](const QTerm& t) {
    if (t.is_var) {
      auto it = renaming.emplace(t.var(), static_cast<VarId>(renaming.size()))
                    .first;
      key += 'v';
      key += std::to_string(it->second);
    } else {
      key += 'c';
      key += std::to_string(t.id);
    }
    key += ' ';
  };
  for (const QTerm& t : q.head()) add(t);
  key += ":-";
  for (size_t i = 0; i < q.body().size(); ++i) {
    const Atom& a = q.body()[i];
    const uint8_t blank = i == at ? pos : Atom::kRangeNone;
    auto add_at = [&](uint8_t p, const QTerm& t) {
      if (p == blank) {
        key += "* ";
      } else {
        add(t);
      }
    };
    add(a.s);
    add_at(Atom::kRangeP, a.p);
    add_at(Atom::kRangeO, a.o);
    if (blank == Atom::kRangeNone && a.has_range()) {
      key += 'R';
      key += std::to_string(a.range_pos);
      key += "..";
      key += std::to_string(a.range_hi);
    }
    key += '.';
  }
  resources->clear();
  for (VarId v : q.resource_vars()) {
    auto it = renaming.find(v);
    if (it != renaming.end()) resources->push_back(it->second);
  }
  std::sort(resources->begin(), resources->end());
  return key;
}

AtomReformulation Derive(const AtomReformulation& base, Atom atom, int rule) {
  AtomReformulation out;
  out.atom = atom;
  out.bindings = base.bindings;
  out.resource_vars = base.resource_vars;
  out.rule = rule;
  return out;
}

AtomReformulation DeriveBound(const AtomReformulation& base, Atom atom,
                              VarId v, rdf::TermId c, int rule) {
  AtomReformulation out;
  out.atom = SubstAtom(atom, v, c);
  out.bindings = base.bindings;
  out.bindings.emplace_back(v, c);
  out.resource_vars = base.resource_vars;
  out.rule = rule;
  return out;
}

}  // namespace

Reformulator::Reformulator(const schema::Schema* schema,
                           ReformulationOptions options,
                           const rdf::Dictionary* dict)
    : schema_(schema), options_(options), dict_(dict) {}

void Reformulator::EmitSubTermMembers(const AtomReformulation& member,
                                      const Atom& atom, rdf::TermId term,
                                      const std::set<rdf::TermId>& subs,
                                      bool property_position,
                                      std::optional<VarId> bind_var, int rule,
                                      std::vector<AtomReformulation>* out)
    const {
  auto classic_atom = [&](rdf::TermId sub) {
    return property_position ? Atom(atom.s, QTerm::Const(sub), atom.o)
                             : Atom(atom.s, atom.p, QTerm::Const(sub));
  };
  auto emit = [&](const Atom& a) {
    out->push_back(bind_var ? DeriveBound(member, a, *bind_var, term, rule)
                            : Derive(member, a, rule));
  };
  const rdf::TermEncoding* enc =
      options_.use_encoding && dict_ != nullptr ? dict_->encoding() : nullptr;
  std::optional<rdf::TermEncoding::Interval> iv;
  if (enc != nullptr) {
    iv = property_position ? enc->PropertyInterval(term)
                           : enc->ClassInterval(term);
  }
  if (!iv.has_value() || iv->lo >= iv->hi) {
    // No usable interval (or a single-id one, which fuses nothing):
    // classic enumeration.
    for (rdf::TermId sub : subs) emit(classic_atom(sub));
    return;
  }
  // One interval member covers term's whole encoded subtree (including the
  // term itself and its hierarchy cycle, which share the interval)...
  Atom fused = atom;
  if (property_position) {
    fused.p = QTerm::Const(iv->lo);
    fused.range_pos = Atom::kRangeP;
  } else {
    fused.o = QTerm::Const(iv->lo);
    fused.range_pos = Atom::kRangeO;
  }
  fused.range_hi = iv->hi;
  emit(fused);
  // ... and the sub-terms escaping it (secondary parents of multi-parent
  // nodes, terms subordinated after encoding) keep classic members.
  for (rdf::TermId sub : subs) {
    if (sub >= iv->lo && sub <= iv->hi) continue;
    emit(classic_atom(sub));
  }
}

void Reformulator::ApplyRules(const Cq& q, const AtomReformulation& member,
                              std::vector<AtomReformulation>* out) const {
  (void)q;
  const Atom& atom = member.atom;
  // Interval members are closed under the rules: the fused hierarchy is
  // already exhausted, and the saturated schema's (S1)-(S6) closure makes
  // the seed atom's own domain/range/sub-term members cover everything the
  // interval's individual ids could contribute.
  if (atom.has_range()) return;
  if (!atom.p.is_var) {
    const rdf::TermId p = atom.p.term();
    if (p == rdf::vocab::kTypeId) {
      if (!atom.o.is_var) {
        // Rules 1-3: type atom with a constant class.
        const rdf::TermId c = atom.o.term();
        EmitSubTermMembers(member, atom, c, schema_->SubClassesOf(c),
                           /*property_position=*/false, std::nullopt, 1, out);
        for (rdf::TermId pp : schema_->DomainPropertiesOf(c)) {
          out->push_back(
              Derive(member, Atom(atom.s, QTerm::Const(pp), Fresh()), 2));
        }
        for (rdf::TermId pp : schema_->RangePropertiesOf(c)) {
          if (!atom.s.is_var && dict_ != nullptr &&
              dict_->Lookup(atom.s.term()).is_literal()) {
            continue;  // a literal cannot be typed
          }
          AtomReformulation derived =
              Derive(member, Atom(Fresh(), QTerm::Const(pp), atom.s), 3);
          if (atom.s.is_var) derived.resource_vars.push_back(atom.s.var());
          out->push_back(std::move(derived));
        }
      } else if (!IsFresh(atom.o)) {
        // Rules 5-7: type atom with a variable class position; rewriting
        // binds the variable to the class whose instances the rewrite
        // retrieves.
        const VarId y = atom.o.var();
        for (const auto& [super, subs] : schema_->sub_class_map()) {
          EmitSubTermMembers(member, atom, super, subs,
                             /*property_position=*/false, y, 5, out);
        }
        for (const auto& [pp, classes] : schema_->domain_map()) {
          for (rdf::TermId c : classes) {
            out->push_back(DeriveBound(
                member, Atom(atom.s, QTerm::Const(pp), Fresh()), y, c, 6));
          }
        }
        for (const auto& [pp, classes] : schema_->range_map()) {
          if (!atom.s.is_var && dict_ != nullptr &&
              dict_->Lookup(atom.s.term()).is_literal()) {
            break;  // a literal cannot be typed
          }
          for (rdf::TermId c : classes) {
            AtomReformulation derived = DeriveBound(
                member, Atom(Fresh(), QTerm::Const(pp), atom.s), y, c, 7);
            if (atom.s.is_var) derived.resource_vars.push_back(atom.s.var());
            out->push_back(std::move(derived));
          }
        }
      }
    } else if (!rdf::vocab::IsSchemaProperty(p)) {
      // Rule 4: property atom with a constant (non-built-in) property.
      EmitSubTermMembers(member, atom, p, schema_->SubPropertiesOf(p),
                         /*property_position=*/true, std::nullopt, 4, out);
    }
    // Constant RDFS schema property: answered directly against the
    // saturated schema stored in the database; no rule applies.
  } else if (!IsFresh(atom.p)) {
    // Rules 8-13: variable in property position.
    const VarId y = atom.p.var();
    for (const auto& [super, subs] : schema_->sub_property_map()) {
      EmitSubTermMembers(member, atom, super, subs,
                         /*property_position=*/true, y, 8, out);
    }
    out->push_back(DeriveBound(
        member, Atom(atom.s, QTerm::Const(rdf::vocab::kTypeId), atom.o), y,
        rdf::vocab::kTypeId, 9));
    const rdf::TermId kSchemaProps[4] = {
        rdf::vocab::kSubClassOfId, rdf::vocab::kSubPropertyOfId,
        rdf::vocab::kDomainId, rdf::vocab::kRangeId};
    for (int i = 0; i < 4; ++i) {
      out->push_back(DeriveBound(member,
                                 Atom(atom.s, QTerm::Const(kSchemaProps[i]),
                                      atom.o),
                                 y, kSchemaProps[i], 10 + i));
    }
  }
}

void IncompleteReformulator::ApplyRules(
    const Cq& q, const AtomReformulation& member,
    std::vector<AtomReformulation>* out) const {
  (void)q;
  // Hierarchies only (rules 1 and 4): the fixed strategy of Virtuoso /
  // AllegroGraph-style engines, which ignore rdfs:domain and rdfs:range [6].
  const Atom& atom = member.atom;
  if (atom.has_range()) return;  // interval members are closed
  if (atom.p.is_var) return;
  const rdf::TermId p = atom.p.term();
  if (p == rdf::vocab::kTypeId) {
    if (!atom.o.is_var) {
      EmitSubTermMembers(member, atom, atom.o.term(),
                         schema_->SubClassesOf(atom.o.term()),
                         /*property_position=*/false, std::nullopt, 1, out);
    }
  } else if (!rdf::vocab::IsSchemaProperty(p)) {
    EmitSubTermMembers(member, atom, p, schema_->SubPropertiesOf(p),
                       /*property_position=*/true, std::nullopt, 4, out);
  }
}

std::vector<AtomReformulation> Reformulator::ReformulateAtom(
    const Cq& q, const Atom& atom) const {
  std::vector<AtomReformulation> result;
  std::unordered_set<std::string> seen;
  std::deque<size_t> worklist;

  AtomReformulation seed;
  seed.atom = atom;
  seed.rule = 0;
  seen.insert(MemberKey(seed));
  result.push_back(seed);
  worklist.push_back(0);

  std::vector<AtomReformulation> step;
  while (!worklist.empty()) {
    size_t idx = worklist.front();
    worklist.pop_front();
    step.clear();
    ApplyRules(q, result[idx], &step);
    for (AtomReformulation& m : step) {
      std::string key = MemberKey(m);
      if (seen.insert(std::move(key)).second) {
        result.push_back(std::move(m));
        worklist.push_back(result.size() - 1);
      }
    }
  }
  // Every member has expanded, so dropping the subsumed ones now keeps
  // their domain and range members; only their own output goes.
  const std::vector<bool> subsumed = FindSubsumed(
      result.size(),
      [&](size_t m) { return std::span<const Atom>(&result[m].atom, 1); },
      [&](size_t m, size_t, uint8_t pos, std::vector<VarId>* resources) {
        *resources = result[m].resource_vars;
        std::sort(resources->begin(), resources->end());
        return MemberKey(result[m], pos);
      });
  size_t kept = 0;
  for (size_t i = 0; i < result.size(); ++i) {
    if (subsumed[i]) continue;
    if (kept != i) result[kept] = std::move(result[i]);
    ++kept;
  }
  result.resize(kept);
  return result;
}

bool Reformulator::AtomsIndependent(const Cq& q) const {
  const std::vector<Atom>& body = q.body();
  for (size_t i = 0; i < body.size(); ++i) {
    // Variables that rules may bind in atom i: a property-position
    // variable, and the class-position variable of a (potential) type atom.
    std::vector<VarId> bindable;
    if (body[i].p.is_var) {
      bindable.push_back(body[i].p.var());
      if (body[i].o.is_var) bindable.push_back(body[i].o.var());
    } else if (body[i].p.term() == rdf::vocab::kTypeId && body[i].o.is_var) {
      bindable.push_back(body[i].o.var());
    }
    for (VarId v : bindable) {
      for (size_t j = 0; j < body.size(); ++j) {
        if (j == i) continue;
        if (Cq::AtomVars(body[j]).count(v)) return false;
      }
    }
  }
  return true;
}

Result<Ucq> Reformulator::ReformulateByProduct(const Cq& q) const {
  const size_t n = q.body().size();
  std::vector<std::vector<AtomReformulation>> sets;
  sets.reserve(n);
  uint64_t total = 1;
  for (size_t i = 0; i < n; ++i) {
    sets.push_back(ReformulateAtom(q, q.body()[i]));
    uint64_t size = sets.back().size();
    if (total > options_.max_cqs / size + 1) {
      return Status::ResourceExhausted(
          "UCQ reformulation exceeds max_cqs = " +
          std::to_string(options_.max_cqs));
    }
    total *= size;
  }
  if (total > options_.max_cqs) {
    return Status::ResourceExhausted("UCQ reformulation of " +
                                     std::to_string(total) +
                                     " CQs exceeds max_cqs = " +
                                     std::to_string(options_.max_cqs));
  }

  Ucq out;
  std::vector<size_t> odometer(n, 0);
  while (true) {
    Cq member = q;  // copy: head, body, variable table
    for (size_t i = 0; i < n; ++i) {
      const AtomReformulation& m = sets[i][odometer[i]];
      Atom atom = m.atom;
      if (IsFresh(atom.s) || IsFresh(atom.o)) {
        VarId fresh = member.FreshVar();
        if (IsFresh(atom.s)) atom.s = QTerm::Var(fresh);
        if (IsFresh(atom.o)) atom.o = QTerm::Var(fresh);
      }
      (*member.mutable_body())[i] = atom;
      for (VarId rv : m.resource_vars) member.AddResourceVar(rv);
      // Bindable variables are atom-local (checked by AtomsIndependent), so
      // the substitution only affects the head.
      for (const auto& [v, c] : m.bindings) member.Substitute(v, c);
    }
    out.Add(std::move(member));
    // Advance the odometer.
    size_t pos = 0;
    while (pos < n) {
      if (++odometer[pos] < sets[pos].size()) break;
      odometer[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return out;
}

Result<Ucq> Reformulator::ReformulateByWorklist(const Cq& q) const {
  std::vector<Cq> result;
  std::unordered_set<std::string> seen;
  std::deque<size_t> worklist;
  // A CQ that rule 1 or 4 rewrites into an interval over its own term is
  // subsumed by that rewrite. It is released once expanded, so the budget
  // bounds the CQs still held (`live`), which the output never exceeds.
  std::vector<bool> released;
  size_t live = 1;

  result.push_back(q);
  released.push_back(false);
  seen.insert(q.CanonicalKey());
  worklist.push_back(0);

  std::vector<AtomReformulation> step;
  while (!worklist.empty()) {
    size_t idx = worklist.front();
    worklist.pop_front();
    bool subsumed = false;
    const size_t num_atoms = result[idx].body().size();
    for (size_t i = 0; i < num_atoms; ++i) {
      AtomReformulation member;
      member.atom = result[idx].body()[i];
      step.clear();
      ApplyRules(result[idx], member, &step);
      for (const AtomReformulation& m : step) {
        subsumed = subsumed || FusesOwnTerm(member.atom, m);
        Cq next = result[idx];
        Atom atom = m.atom;
        if (IsFresh(atom.s) || IsFresh(atom.o)) {
          VarId fresh = next.FreshVar();
          if (IsFresh(atom.s)) atom.s = QTerm::Var(fresh);
          if (IsFresh(atom.o)) atom.o = QTerm::Var(fresh);
        }
        (*next.mutable_body())[i] = atom;
        for (VarId rv : m.resource_vars) next.AddResourceVar(rv);
        for (const auto& [v, c] : m.bindings) next.Substitute(v, c);
        std::string key = next.CanonicalKey();
        if (seen.insert(std::move(key)).second) {
          if (live >= options_.max_cqs) {
            return Status::ResourceExhausted(
                "UCQ reformulation exceeds max_cqs = " +
                std::to_string(options_.max_cqs));
          }
          result.push_back(std::move(next));
          released.push_back(false);
          ++live;
          worklist.push_back(result.size() - 1);
        }
      }
    }
    if (subsumed) {
      result[idx] = Cq();
      released[idx] = true;
      --live;
    }
  }
  std::vector<Cq> held;
  held.reserve(live);
  for (size_t i = 0; i < result.size(); ++i) {
    if (!released[i]) held.push_back(std::move(result[i]));
  }
  // The rest of ReformulateAtom's pruning, over whole CQs compared up to
  // renaming, so that both paths emit UCQs of one size. A released CQ never
  // covers a held one: it shares the classic atom that released it.
  const std::vector<bool> covered = FindSubsumed(
      held.size(),
      [&](size_t m) { return std::span<const Atom>(held[m].body()); },
      [&](size_t m, size_t i, uint8_t pos, std::vector<VarId>* resources) {
        return BlankedCqKey(held[m], i, pos, resources);
      });
  Ucq out;
  for (size_t i = 0; i < held.size(); ++i) {
    if (!covered[i]) out.Add(std::move(held[i]));
  }
  return out;
}

Result<Ucq> Reformulator::ReformulateUnminimized(const Cq& q) const {
  if (q.body().empty()) {
    return Status::InvalidArgument("cannot reformulate an empty BGP");
  }
  return (!options_.force_worklist && AtomsIndependent(q))
             ? ReformulateByProduct(q)
             : ReformulateByWorklist(q);
}

Result<Ucq> Reformulator::Reformulate(const Cq& q, uint64_t* raw_cqs) const {
  RDFREF_ASSIGN_OR_RETURN(Ucq ucq, ReformulateUnminimized(q));
  if (raw_cqs != nullptr) *raw_cqs = ucq.size();
  return query::MinimizeUcq(std::move(ucq), dict_);
}

Result<uint64_t> Reformulator::CountReformulations(const Cq& q) const {
  if (q.body().empty()) {
    return Status::InvalidArgument("cannot reformulate an empty BGP");
  }
  if (!options_.force_worklist && AtomsIndependent(q)) {
    // Closed form: the UCQ is the product of the per-atom member sets.
    uint64_t total = 1;
    for (const Atom& atom : q.body()) {
      uint64_t size = ReformulateAtom(q, atom).size();
      if (size != 0 && total > UINT64_MAX / size) {
        return Status::ResourceExhausted("reformulation count overflows");
      }
      total *= size;
    }
    return total;
  }
  RDFREF_ASSIGN_OR_RETURN(Ucq ucq, ReformulateByWorklist(q));
  return static_cast<uint64_t>(ucq.size());
}

}  // namespace reformulation
}  // namespace rdfref
