#include "query/minimize.h"

#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace rdfref {
namespace query {

namespace {

/// The image of a container variable no mapping has bound yet.
constexpr QTerm kUnmapped = QTerm{true, 0xFFFFFFFFu};

/// Searches homomorphisms over scratch state sized once per pass: a flat
/// variable map undone through a trail, so a check allocates nothing, and
/// one work counter shared by every check of the pass (kMinimizeWorkLimit).
class Matcher {
 public:
  explicit Matcher(const rdf::Dictionary* dict) : dict_(dict) {}

  /// True when a homomorphism maps `from` into `to` without using `to`'s
  /// atom at `skip`, head slot to head slot. False when none exists or the
  /// work ran out first.
  bool Maps(const Cq& from, const Cq& to, size_t skip = SIZE_MAX) {
    if (from.head().size() != to.head().size() || exhausted()) return false;
    if (image_.size() < from.num_vars()) {
      image_.resize(from.num_vars(), kUnmapped);
    }
    Flag(from, &from_resource_);
    Flag(to, &to_resource_);
    bool found = true;
    for (size_t i = 0; found && i < from.head().size(); ++i) {
      found = MapTerm(from.head()[i], to.head()[i]);
    }
    found = found && Search(from.body(), to.body(), skip);
    Undo(0);
    return found;
  }

  /// Charges `units` of work; false once the budget is spent.
  bool Charge(uint64_t units) {
    steps_ += units;
    return !exhausted();
  }

  bool exhausted() const { return steps_ > kMinimizeWorkLimit; }

 private:
  static void Flag(const Cq& q, std::vector<uint8_t>* flags) {
    flags->assign(q.num_vars(), 0);
    for (VarId v : q.resource_vars()) {
      if (v < flags->size()) (*flags)[v] = 1;
    }
  }

  bool Bind(VarId v, const QTerm& image) {
    QTerm& slot = image_[v];
    if (slot != kUnmapped) return slot == image;
    if (from_resource_[v]) {
      // The image must be unable to bind a literal.
      if (image.is_var) {
        if (to_resource_[image.var()] == 0) return false;
      } else if (dict_ == nullptr || !dict_->Contains(image.term()) ||
                 dict_->Lookup(image.term()).is_literal()) {
        return false;
      }
    }
    slot = image;
    trail_.push_back(v);
    return true;
  }

  bool MapTerm(const QTerm& from, const QTerm& to) {
    return from.is_var ? Bind(from.var(), to) : from == to;
  }

  bool MapAtom(const Atom& from, const Atom& to) {
    // A classic position never maps onto an interval.
    if (to.has_range() && to.range_pos != from.range_pos) return false;
    auto map_at = [&](uint8_t pos, const QTerm& f, const QTerm& t) {
      if (pos != from.range_pos) return MapTerm(f, t);
      // The container's interval must hold the contained value: a constant
      // or, at the same ranged position, an interval.
      if (t.is_var) return false;
      const rdf::TermId hi = to.range_pos == pos ? to.range_hi : t.term();
      return t.term() >= from.range_lo() && hi <= from.range_hi;
    };
    // The subject is never ranged: position 0 matches no range_pos.
    return map_at(Atom::kRangeP, from.p, to.p) &&
           map_at(Atom::kRangeO, from.o, to.o) && map_at(0, from.s, to.s);
  }

  // Maps from[0] onto some atom of `to` but the one at `skip`, then the
  // rest of `from` recursively, undoing each failed choice.
  bool Search(std::span<const Atom> from, std::span<const Atom> to,
              size_t skip) {
    if (from.empty()) return true;
    for (size_t i = 0; i < to.size(); ++i) {
      if (i == skip) continue;
      if (!Charge(1)) return false;
      const size_t mark = trail_.size();
      if (MapAtom(from[0], to[i]) && Search(from.subspan(1), to, skip)) {
        return true;
      }
      Undo(mark);
    }
    return false;
  }

  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      image_[trail_.back()] = kUnmapped;
      trail_.pop_back();
    }
  }

  const rdf::Dictionary* dict_;
  uint64_t steps_ = 0;
  std::vector<QTerm> image_;  // per `from` variable
  std::vector<VarId> trail_;  // variables bound, in binding order
  std::vector<uint8_t> from_resource_;
  std::vector<uint8_t> to_resource_;
};

/// Drops q's redundant atoms in place (see MinimizeCq).
void Core(Cq* q, Matcher* matcher) {
  std::vector<Atom>& body = *q->mutable_body();
  for (size_t i = 0; i < body.size() && body.size() > 1;) {
    if (matcher->Maps(*q, *q, i)) {
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

/// The exact constants a CQ holds, as bits of one 64-bit mask: each head
/// slot's constant and each non-ranged constant of an atom, tagged with its
/// position. A container's constants all reappear in what it contains (a
/// homomorphism is the identity on them, a ranged position aside), so its
/// mask is a subset of the contained member's.
uint64_t ConstantMask(const Cq& q) {
  uint64_t mask = 0;
  auto add = [&mask](uint64_t tag, const QTerm& t) {
    if (!t.is_var) mask |= uint64_t{1} << (HashCombine(tag, t.term()) >> 58);
  };
  for (size_t i = 0; i < q.head().size(); ++i) add(8 + i, q.head()[i]);
  for (const Atom& a : q.body()) {
    if (a.range_pos != Atom::kRangeP) add(1, a.p);
    if (a.range_pos != Atom::kRangeO) add(2, a.o);
    add(3, a.s);
  }
  return mask;
}

}  // namespace

bool CqContains(const Cq& container, const Cq& contained,
                const rdf::Dictionary* dict) {
  Matcher matcher(dict);
  return matcher.Maps(container, contained);
}

Cq MinimizeCq(Cq q, const rdf::Dictionary* dict) {
  Matcher matcher(dict);
  Core(&q, &matcher);
  return q;
}

Ucq MinimizeUcq(Ucq ucq, const rdf::Dictionary* dict) {
  std::vector<Cq>& members = *ucq.mutable_members();
  const size_t n = members.size();
  if (n > kMinimizeThreshold) return ucq;
  Matcher matcher(dict);
  for (Cq& member : members) Core(&member, &matcher);

  std::vector<uint64_t> masks(n);
  for (size_t i = 0; i < n; ++i) masks[i] = ConstantMask(members[i]);
  std::vector<bool> redundant(n, false);
  for (size_t i = 0; i < n && !matcher.exhausted(); ++i) {
    // The prefilter is one unit of work per candidate container.
    if (!matcher.Charge(n)) break;
    for (size_t j = 0; j < n && !redundant[i]; ++j) {
      if (i == j || redundant[j] || (masks[j] & ~masks[i]) != 0) continue;
      if (!matcher.Maps(members[j], members[i])) continue;
      // members[i] ⊆ members[j]: drop i, unless they are equivalent and i
      // comes first (keep the earliest of an equivalence class).
      if (j > i && (masks[i] & ~masks[j]) == 0 &&
          matcher.Maps(members[i], members[j])) {
        continue;
      }
      redundant[i] = true;
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (redundant[i]) continue;
    if (kept != i) members[kept] = std::move(members[i]);
    ++kept;
  }
  members.resize(kept);
  return ucq;
}

}  // namespace query
}  // namespace rdfref
