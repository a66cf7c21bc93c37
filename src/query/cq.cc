#include "query/cq.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <unordered_map>

namespace rdfref {
namespace query {

VarId Cq::AddVar(std::string name) {
  VarId id = static_cast<VarId>(var_names_.size());
  var_names_.push_back(std::move(name));
  return id;
}

VarId Cq::FreshVar() {
  return AddVar("_f" + std::to_string(fresh_counter_++));
}

void Cq::Substitute(VarId v, rdf::TermId c) {
  auto subst = [v, c](QTerm* t) {
    if (t->is_var && t->var() == v) *t = QTerm::Const(c);
  };
  for (QTerm& t : head_) subst(&t);
  for (Atom& a : body_) {
    subst(&a.s);
    subst(&a.p);
    subst(&a.o);
  }
  // Substituted constants are schema URIs (the only constants rules bind),
  // which trivially satisfy a resource constraint.
  resource_vars_.erase(v);
}

std::set<VarId> Cq::BodyVars() const {
  std::set<VarId> vars;
  for (const Atom& a : body_) {
    for (const QTerm* t : {&a.s, &a.p, &a.o}) {
      if (t->is_var) vars.insert(t->var());
    }
  }
  return vars;
}

std::set<VarId> Cq::AtomVars(const Atom& a) {
  std::set<VarId> vars;
  for (const QTerm* t : {&a.s, &a.p, &a.o}) {
    if (t->is_var) vars.insert(t->var());
  }
  return vars;
}

std::set<VarId> Cq::HeadVars() const {
  std::set<VarId> vars;
  for (const QTerm& t : head_) {
    if (t.is_var) vars.insert(t.var());
  }
  return vars;
}

bool Cq::IsSafe() const {
  std::set<VarId> body_vars = BodyVars();
  for (const QTerm& t : head_) {
    if (t.is_var && !body_vars.count(t.var())) return false;
  }
  return true;
}

std::string Cq::CanonicalKey() const {
  std::unordered_map<VarId, uint32_t> renaming;
  std::string key;
  auto number = [&key](uint32_t n) {
    char digits[10];
    key.append(digits, std::to_chars(digits, digits + sizeof(digits), n).ptr);
  };
  auto canon = [&](const QTerm& t) {
    if (!t.is_var) {
      key += 'c';
      number(t.id);
      return;
    }
    key += 'v';
    number(renaming
               .try_emplace(t.var(), static_cast<uint32_t>(renaming.size()))
               .first->second);
  };
  for (const QTerm& t : head_) {
    canon(t);
    key += ',';
  }
  key += ":-";
  for (const Atom& a : body_) {
    canon(a.s);
    key += ' ';
    canon(a.p);
    key += ' ';
    canon(a.o);
    if (a.has_range()) {
      // Interval atoms reference concrete dictionary intervals, so the raw
      // bounds (not renamed) are the canonical form.
      key += 'R';
      number(a.range_pos);
      key += "..";
      number(a.range_hi);
    }
    key += '.';
  }
  // Resource constraints distinguish otherwise-identical CQs.
  for (VarId v : resource_vars_) {
    auto it = renaming.find(v);
    if (it == renaming.end()) continue;
    key += 'r';
    number(it->second);
    key += ';';
  }
  // Keys are held in dedup sets and cache maps: keep no growth slack.
  key.shrink_to_fit();
  return key;
}

std::string Cq::ToString(const rdf::Dictionary& dict) const {
  auto render = [this, &dict](const QTerm& t) -> std::string {
    if (t.is_var) return "?" + var_names_[t.var()];
    return dict.Lookup(t.term()).ToString();
  };
  std::ostringstream out;
  out << "q(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out << ", ";
    out << render(head_[i]);
  }
  out << ") :- ";
  auto render_pos = [&](const Atom& a, const QTerm& t, uint8_t pos) {
    if (a.range_pos != pos) return render(t);
    // Interval position: [lo..hi] over the encoded id space.
    std::string interval = "[";
    interval += render(t);
    interval += " .. ";
    interval += dict.Lookup(a.range_hi).ToString();
    interval += ']';
    return interval;
  };
  for (size_t i = 0; i < body_.size(); ++i) {
    if (i > 0) out << ", ";
    const Atom& a = body_[i];
    out << render(a.s) << " " << render_pos(a, a.p, Atom::kRangeP) << " "
        << render_pos(a, a.o, Atom::kRangeO);
  }
  return out.str();
}

Cq Cq::FragmentQuery(const std::vector<int>& atom_indexes,
                     const std::set<VarId>& extra_distinguished) const {
  Cq fragment;
  fragment.var_names_ = var_names_;  // same variable numbering as the parent
  fragment.fresh_counter_ = fresh_counter_;
  fragment.resource_vars_ = resource_vars_;
  std::set<VarId> in_fragment;
  for (int idx : atom_indexes) {
    fragment.body_.push_back(body_[idx]);
    std::set<VarId> vars = AtomVars(body_[idx]);
    in_fragment.insert(vars.begin(), vars.end());
  }
  // Head: parent head variables occurring here, then extra distinguished
  // (shared) variables, deduplicated, in deterministic order.
  std::set<VarId> emitted;
  for (const QTerm& t : head_) {
    if (t.is_var && in_fragment.count(t.var()) && !emitted.count(t.var())) {
      fragment.head_.push_back(t);
      emitted.insert(t.var());
    }
  }
  for (VarId v : extra_distinguished) {
    if (in_fragment.count(v) && !emitted.count(v)) {
      fragment.head_.push_back(QTerm::Var(v));
      emitted.insert(v);
    }
  }
  return fragment;
}

}  // namespace query
}  // namespace rdfref
