#ifndef RDFREF_STORAGE_STORE_H_
#define RDFREF_STORAGE_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "common/annotations.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/triple.h"
#include "storage/statistics.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace storage {

/// \brief The sort orders of a Store's four clustered permutations.
enum class IndexOrder { kSpo, kPso, kPos, kOsp };

/// \brief True when `a` sorts strictly before `b` in permutation `order`.
inline bool IndexLess(IndexOrder order, const rdf::Triple& a,
                      const rdf::Triple& b) {
  auto key = [order](const rdf::Triple& t) {
    switch (order) {
      case IndexOrder::kSpo:
        return std::tie(t.s, t.p, t.o);
      case IndexOrder::kPso:
        return std::tie(t.p, t.s, t.o);
      case IndexOrder::kPos:
        return std::tie(t.p, t.o, t.s);
      case IndexOrder::kOsp:
        return std::tie(t.o, t.s, t.p);
    }
    return std::tie(t.s, t.p, t.o);
  };
  return key(a) < key(b);
}

/// \brief RDBMS-style storage substrate: a dictionary-encoded triple table
/// with clustered permutation indexes.
///
/// This plays the role of the relational back-ends of the demonstration (the
/// paper evaluates reformulated queries "through performant RDBMSs"): a
/// single Triple(s, p, o) table, fully indexed so that any classic triple
/// pattern, and every interval pattern but two shapes, is answerable by a
/// binary-searched range scan of the permutation OrderFor names.
///
/// The store is read-only after Build; the Sat strategy rebuilds it from the
/// saturated graph (mirroring the paper's "materialize then query" setup).
/// The dictionary of the source graph must outlive the store.
class Store : public TripleSource {
 public:
  /// \brief Builds the table and all indexes from a graph.
  explicit Store(const rdf::Graph& graph);

  /// \brief Builds from triples already encoded against `dict` (used by
  /// the federation mediator, whose endpoints share one dictionary).
  Store(const rdf::Dictionary* dict, std::vector<rdf::Triple> triples);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  Store(Store&&) = default;
  Store& operator=(Store&&) = default;

  /// \brief The clustered permutation that stores `pat`'s matches as one
  /// contiguous run: its key leads with the bound positions, then the
  /// ranged one, then the free ones —
  ///   SPO  (? ? ?) (s ? ?) (s p ?) (s p o) (s p [lo..hi]) (s [lo..hi] ?)
  ///   PSO  (? p ?) (? [lo..hi] ?)
  ///   POS  (? p o) (? p [lo..hi])
  ///   OSP  (? ? o) (s ? o) (? ? [lo..hi]) (s [lo..hi] o)
  /// and nullopt for the two interval shapes every order interleaves with
  /// other ids, (s ? [lo..hi]) and (? [lo..hi] o). A constant table lookup
  /// by bound positions × ranged position.
  static std::optional<IndexOrder> OrderFor(const Pattern& pat) {
    using enum IndexOrder;
    // Rows: the ranged position (kRangeP, kRangeO, kRangeNone). Columns:
    // the bound positions, s = 1, p = 2, o = 4; a ranged position holds its
    // low endpoint, so it counts as bound. Empty entries are the two shapes
    // no order keeps contiguous, and masks a ranged row cannot have.
    static constexpr std::optional<IndexOrder> kOrders[3][8] = {
        // none  s     p     sp    o     so    po    spo
        {{},     {},   kPso, kSpo, {},   {},   {},   kOsp},   // [p]
        {{},     {},   {},   {},   kOsp, {},   kPos, kSpo},   // [o]
        {kSpo,   kSpo, kPso, kSpo, kOsp, kOsp, kPos, kSpo}};  // classic
    const int bound = (pat.s != kAny ? 1 : 0) | (pat.p != kAny ? 2 : 0) |
                      (pat.o != kAny ? 4 : 0);
    return kOrders[pat.range_pos - 1][bound];
  }

  /// \brief Fenced lookup: when OrderFor(pat) names an order, sets `*out`
  /// to the run of that index between the pattern with its free positions
  /// at their minimum and at their maximum (the ranged one at the
  /// interval's low and high endpoint) and returns true; the span is
  /// zero-copy and valid for the store's lifetime. Restricted to a classic
  /// pattern's matches every order is SPO order; an interval's come back in
  /// the named order.
  ///
  /// With a non-null `hint` the run is found by galloping forward from the
  /// previous lookup's position when the hint is for the same index and
  /// the new prefix is not below it (O(log gap) instead of O(log n) for the
  /// monotone lookup sequences a nested-loop join produces). A stale or
  /// backward hint falls back to a full search; the hint is updated to the
  /// returned run. The result never depends on the hint.
  RDFREF_BORROWS_FROM(this)
  bool Lookup(const Pattern& pat, std::span<const rdf::Triple>* out,
              RangeHint* hint = nullptr) const;

  /// \brief Number of `pat`'s matches when OrderFor names an order, else
  /// of pat.Widened()'s (index-only).
  size_t Count(const Pattern& pat) const;

  RDFREF_BORROWS_FROM(this)
  bool TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                   std::span<const rdf::Triple>* out) const override {
    return Lookup({s, p, o}, out);
  }

  RDFREF_BORROWS_FROM(this)
  bool TryGetRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                         std::span<const rdf::Triple>* out,
                         RangeHint* hint) const override {
    return Lookup({s, p, o}, out, hint);
  }

  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override {
    std::span<const rdf::Triple> range;
    Lookup({s, p, o}, &range);
    out->assign(range.begin(), range.end());
  }

  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override {
    return Count({s, p, o});
  }

  RDFREF_BORROWS_FROM(this)
  bool TryGetIntervalRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                           int range_pos, rdf::TermId hi,
                           std::span<const rdf::Triple>* out) const override {
    return Lookup({s, p, o, range_pos, hi}, out);
  }

  RDFREF_BORROWS_FROM(this)
  bool TryGetIntervalRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 int range_pos, rdf::TermId hi,
                                 std::span<const rdf::Triple>* out,
                                 RangeHint* hint) const override {
    return Lookup({s, p, o, range_pos, hi}, out, hint);
  }

  size_t CountIntervalMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                              int range_pos, rdf::TermId hi) const override {
    return Count({s, p, o, range_pos, hi});
  }

  /// \brief The indexes hold each triple once (construction uniques them).
  bool DeliversDistinctTriples() const override { return true; }

  /// \brief Membership test for a fully bound triple.
  bool Contains(const rdf::Triple& t) const;

  size_t size() const { return spo_.size(); }

  const rdf::Dictionary& dict() const RDFREF_LIFETIME_BOUND override {
    return *dict_;
  }
  const Statistics& stats() const RDFREF_LIFETIME_BOUND { return stats_; }

 private:
  const rdf::Dictionary* dict_;
  std::vector<rdf::Triple> spo_;  // sorted (s, p, o)
  std::vector<rdf::Triple> pso_;  // sorted (p, s, o)
  std::vector<rdf::Triple> pos_;  // sorted (p, o, s)
  std::vector<rdf::Triple> osp_;  // sorted (o, s, p)
  Statistics stats_;
};

}  // namespace storage
}  // namespace rdfref

#endif  // RDFREF_STORAGE_STORE_H_
