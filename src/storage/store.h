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
/// single Triple(s, p, o) table, fully indexed so that any triple pattern is
/// answerable by a binary-searched range scan:
///   - SPO  serves  (s ? ?), (s p ?), (s p o)
///   - PSO  serves  (? p ?)
///   - POS  serves  (? p o)
///   - OSP  serves  (? ? o), (s ? o)
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

  /// \brief Zero-overhead range scan: every pattern is a binary-searched
  /// contiguous run of one clustered permutation (SPO/PSO/POS/OSP), so the
  /// matches come back as one span into the index — no callback, no copy.
  /// Valid for the store's lifetime (the store is immutable after build).
  std::span<const rdf::Triple> EqualRangeSpan(rdf::TermId s, rdf::TermId p,
                                              rdf::TermId o) const
      RDFREF_LIFETIME_BOUND;

  /// \brief Hinted range scan: identical result to EqualRangeSpan, found by
  /// galloping forward from the previous lookup's position when the hint is
  /// for the same permutation index and the new prefix is not below it
  /// (O(log gap) instead of O(log n) for the monotone lookup sequences a
  /// nested-loop join produces). A stale or backward hint falls back to the
  /// full binary search; the hint is updated to the returned range.
  std::span<const rdf::Triple> EqualRangeSpanHinted(rdf::TermId s,
                                                    rdf::TermId p,
                                                    rdf::TermId o,
                                                    RangeHint* hint) const
      RDFREF_LIFETIME_BOUND;

  /// \brief Batch fast path: always succeeds (see EqualRangeSpan).
  RDFREF_BORROWS_FROM(this)
  bool TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                   std::span<const rdf::Triple>* out) const override {
    *out = EqualRangeSpan(s, p, o);
    return true;
  }

  /// \brief Hinted batch fast path (see EqualRangeSpanHinted).
  RDFREF_BORROWS_FROM(this)
  bool TryGetRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                         std::span<const rdf::Triple>* out,
                         RangeHint* hint) const override {
    *out = hint == nullptr ? EqualRangeSpan(s, p, o)
                           : EqualRangeSpanHinted(s, p, o, hint);
    return true;
  }

  /// \brief Batch fallback: a copy of the EqualRangeSpan matches.
  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override {
    std::span<const rdf::Triple> range = EqualRangeSpan(s, p, o);
    out->assign(range.begin(), range.end());
  }

  /// \brief Interval fast path for hierarchy-encoded atoms: succeeds when
  /// one clustered permutation stores the interval contiguously (see
  /// IntervalOrder). The matches come back in that permutation's order.
  bool TryGetIntervalRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                           int range_pos, rdf::TermId hi,
                           std::span<const rdf::Triple>* out) const override {
    return TryGetIntervalRangeHinted(s, p, o, range_pos, hi, out, nullptr);
  }

  /// \brief Hinted interval fast path: the same span as TryGetIntervalRange,
  /// found by galloping from `hint` as EqualRangeSpanHinted does (a null
  /// hint binary-searches).
  RDFREF_BORROWS_FROM(this)
  bool TryGetIntervalRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 int range_pos, rdf::TermId hi,
                                 std::span<const rdf::Triple>* out,
                                 RangeHint* hint) const override;

  /// \brief The clustered permutation that stores an interval shape
  /// contiguously: the bound positions, then the ranged one, lead its key —
  ///   object interval   (s p [lo..hi]) on SPO, (? p [lo..hi]) on POS,
  ///                     (? ? [lo..hi]) on OSP;
  ///   property interval (s [lo..hi] ?) on SPO, (? [lo..hi] ?) on PSO,
  ///                     (s [lo..hi] o) on OSP under the prefix (o, s).
  /// The remaining shapes, (s ? [lo..hi]) and (? [lo..hi] o), interleave
  /// other ids inside every order: nullopt (buffered fallback).
  static std::optional<IndexOrder> IntervalOrder(rdf::TermId s, rdf::TermId p,
                                                 rdf::TermId o, int range_pos);

  /// \brief Exact number of triples matching the pattern (index-only).
  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override;

  /// \brief Membership test for a fully bound triple.
  bool Contains(const rdf::Triple& t) const;

  size_t size() const { return spo_.size(); }

  const rdf::Dictionary& dict() const RDFREF_LIFETIME_BOUND override {
    return *dict_;
  }
  const Statistics& stats() const RDFREF_LIFETIME_BOUND { return stats_; }

 private:
  // Returns [begin, end) of the index range matching the bound prefix.
  // With a non-null `hint`, searches resume from the hinted position.
  using Range = std::pair<const rdf::Triple*, const rdf::Triple*>;
  Range EqualRange(rdf::TermId s, rdf::TermId p, rdf::TermId o) const;
  Range EqualRangeImpl(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                       RangeHint* hint) const;

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
