#include "storage/store.h"

#include <algorithm>

#include "rdf/vocab.h"

namespace rdfref {
namespace storage {

namespace {

struct OrderSpo {
  bool operator()(const rdf::Triple& a, const rdf::Triple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct OrderPso {
  bool operator()(const rdf::Triple& a, const rdf::Triple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.s != b.s) return a.s < b.s;
    return a.o < b.o;
  }
};
struct OrderPos {
  bool operator()(const rdf::Triple& a, const rdf::Triple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};
struct OrderOsp {
  bool operator()(const rdf::Triple& a, const rdf::Triple& b) const {
    if (a.o != b.o) return a.o < b.o;
    if (a.s != b.s) return a.s < b.s;
    return a.p < b.p;
  }
};

// Range of `index` whose triples match every bound field of the pattern
// that participates in the index prefix covered by `lo`/`hi`.
template <typename Order>
std::pair<const rdf::Triple*, const rdf::Triple*> PrefixRange(
    const std::vector<rdf::Triple>& index, const rdf::Triple& lo,
    const rdf::Triple& hi) {
  auto begin = std::lower_bound(index.begin(), index.end(), lo, Order());
  auto end = std::upper_bound(index.begin(), index.end(), hi, Order());
  if (begin >= end) return {nullptr, nullptr};
  return {&*begin, &*begin + (end - begin)};
}

// Galloping lower_bound: first i in [from, n) with base[i] >= key.
// Probes from..from+1, +2, +4, ... then binary-searches the bracketed gap,
// so a lookup `gap` positions past the hint costs O(log gap) comparisons.
template <typename Order>
size_t GallopLowerBound(const rdf::Triple* base, size_t from, size_t n,
                        const rdf::Triple& key) {
  Order less;
  size_t lo = from, hi = from, step = 1;
  while (hi < n && less(base[hi], key)) {
    lo = hi + 1;
    hi = from + step;
    step *= 2;
  }
  if (hi > n) hi = n;
  return static_cast<size_t>(
      std::lower_bound(base + lo, base + hi, key, less) - base);
}

// Galloping upper_bound: first i in [from, n) with base[i] > key.
template <typename Order>
size_t GallopUpperBound(const rdf::Triple* base, size_t from, size_t n,
                        const rdf::Triple& key) {
  Order less;
  size_t lo = from, hi = from, step = 1;
  while (hi < n && !less(key, base[hi])) {
    lo = hi + 1;
    hi = from + step;
    step *= 2;
  }
  if (hi > n) hi = n;
  return static_cast<size_t>(
      std::upper_bound(base + lo, base + hi, key, less) - base);
}

// PrefixRange resumed from a hint: identical result, found by galloping
// forward from the previous lookup's begin offset when that offset is
// still a valid lower fence for the new prefix (everything before it
// compares below `lo`). Repeated lookups of the same prefix keep the
// fence, so they cost O(1) probes; a backward or cross-index hint falls
// back to galloping from 0, which is within a constant of the plain
// binary search. The hint is always rewritten to the returned range.
template <typename Order>
std::pair<const rdf::Triple*, const rdf::Triple*> PrefixRangeHinted(
    const std::vector<rdf::Triple>& index, const rdf::Triple& lo,
    const rdf::Triple& hi, RangeHint* hint) {
  const rdf::Triple* base = index.data();
  const size_t n = index.size();
  size_t from = 0;
  if (hint->index == &index && hint->pos <= n &&
      (hint->pos == 0 || Order()(base[hint->pos - 1], lo))) {
    from = hint->pos;
  }
  const size_t begin = GallopLowerBound<Order>(base, from, n, lo);
  const size_t end = GallopUpperBound<Order>(base, begin, n, hi);
  hint->index = &index;
  hint->pos = begin;
  if (begin >= end) return {nullptr, nullptr};
  return {base + begin, base + end};
}

// Dispatches to the hinted or the plain search per index + prefix pair.
template <typename Order>
std::pair<const rdf::Triple*, const rdf::Triple*> PrefixRangeImpl(
    const std::vector<rdf::Triple>& index, const rdf::Triple& lo,
    const rdf::Triple& hi, RangeHint* hint) {
  if (hint == nullptr) return PrefixRange<Order>(index, lo, hi);
  return PrefixRangeHinted<Order>(index, lo, hi, hint);
}

}  // namespace

Store::Store(const rdf::Graph& graph)
    : Store(&graph.dict(), std::vector<rdf::Triple>(graph.triples().begin(),
                                                    graph.triples().end())) {}

Store::Store(const rdf::Dictionary* dict, std::vector<rdf::Triple> triples)
    : dict_(dict), spo_(std::move(triples)) {
  std::sort(spo_.begin(), spo_.end(), OrderSpo());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  pso_ = spo_;
  std::sort(pso_.begin(), pso_.end(), OrderPso());
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), OrderPos());
  osp_ = spo_;
  std::sort(osp_.begin(), osp_.end(), OrderOsp());

  // ANALYZE: exact statistics from one pass over the clustered indexes.
  stats_.total_triples_ = spo_.size();
  for (size_t i = 0; i < spo_.size(); ++i) {
    if (i == 0 || spo_[i].s != spo_[i - 1].s) ++stats_.distinct_subjects_;
  }
  for (size_t i = 0; i < osp_.size(); ++i) {
    if (i == 0 || osp_[i].o != osp_[i - 1].o) ++stats_.distinct_objects_;
  }
  for (size_t i = 0; i < pso_.size(); ++i) {
    PropertyStats& ps = stats_.property_stats_[pso_[i].p];
    ++ps.count;
    if (i == 0 || pso_[i].p != pso_[i - 1].p || pso_[i].s != pso_[i - 1].s) {
      ++ps.distinct_subjects;
    }
  }
  for (size_t i = 0; i < pos_.size(); ++i) {
    if (i == 0 || pos_[i].p != pos_[i - 1].p || pos_[i].o != pos_[i - 1].o) {
      ++stats_.property_stats_[pos_[i].p].distinct_objects;
    }
    if (pos_[i].p == rdf::vocab::kTypeId) {
      ++stats_.class_cardinality_[pos_[i].o];
    }
  }

  // Attribute-pair distribution (demo step 1): subjects carrying both
  // properties, from the subject-clustered index. Wide subjects are capped
  // to keep this linear in practice.
  constexpr size_t kMaxPropsPerSubject = 24;
  std::vector<rdf::TermId> props;
  size_t begin = 0;
  auto flush = [&](size_t end) {
    props.clear();
    for (size_t k = begin; k < end; ++k) {
      if (props.empty() || props.back() != spo_[k].p) {
        props.push_back(spo_[k].p);
      }
    }
    if (props.size() > kMaxPropsPerSubject) {
      props.resize(kMaxPropsPerSubject);
    }
    for (size_t a = 0; a < props.size(); ++a) {
      for (size_t b = a + 1; b < props.size(); ++b) {
        ++stats_.subject_pair_counts_[Statistics::PairKey(props[a],
                                                          props[b])];
      }
    }
  };
  for (size_t i = 1; i <= spo_.size(); ++i) {
    if (i == spo_.size() || spo_[i].s != spo_[i - 1].s) {
      flush(i);
      begin = i;
    }
  }
}

Store::Range Store::EqualRange(rdf::TermId s, rdf::TermId p,
                               rdf::TermId o) const {
  return EqualRangeImpl(s, p, o, nullptr);
}

Store::Range Store::EqualRangeImpl(rdf::TermId s, rdf::TermId p,
                                   rdf::TermId o, RangeHint* hint) const {
  const bool bs = s != kAny, bp = p != kAny, bo = o != kAny;
  const rdf::TermId kMin = 0;
  const rdf::TermId kMax = static_cast<rdf::TermId>(-2);
  if (bs) {
    if (bp) {
      // (s p ?) or (s p o) on SPO.
      rdf::Triple lo(s, p, bo ? o : kMin), hi(s, p, bo ? o : kMax);
      return PrefixRangeImpl<OrderSpo>(spo_, lo, hi, hint);
    }
    if (bo) {
      // (s ? o) on OSP, prefix (o, s).
      rdf::Triple lo(s, kMin, o), hi(s, kMax, o);
      return PrefixRangeImpl<OrderOsp>(osp_, lo, hi, hint);
    }
    // (s ? ?) on SPO.
    rdf::Triple lo(s, kMin, kMin), hi(s, kMax, kMax);
    return PrefixRangeImpl<OrderSpo>(spo_, lo, hi, hint);
  }
  if (bp) {
    if (bo) {
      // (? p o) on POS.
      rdf::Triple lo(kMin, p, o), hi(kMax, p, o);
      return PrefixRangeImpl<OrderPos>(pos_, lo, hi, hint);
    }
    // (? p ?) on PSO.
    rdf::Triple lo(kMin, p, kMin), hi(kMax, p, kMax);
    return PrefixRangeImpl<OrderPso>(pso_, lo, hi, hint);
  }
  if (bo) {
    // (? ? o) on OSP.
    rdf::Triple lo(kMin, kMin, o), hi(kMax, kMax, o);
    return PrefixRangeImpl<OrderOsp>(osp_, lo, hi, hint);
  }
  // (? ? ?): full scan.
  if (spo_.empty()) return {nullptr, nullptr};
  return {spo_.data(), spo_.data() + spo_.size()};
}

std::span<const rdf::Triple> Store::EqualRangeSpan(rdf::TermId s,
                                                   rdf::TermId p,
                                                   rdf::TermId o) const {
  Range r = EqualRange(s, p, o);
  return {r.first, static_cast<size_t>(r.second - r.first)};
}

std::span<const rdf::Triple> Store::EqualRangeSpanHinted(
    rdf::TermId s, rdf::TermId p, rdf::TermId o, RangeHint* hint) const {
  Range r = EqualRangeImpl(s, p, o, hint);
  return {r.first, static_cast<size_t>(r.second - r.first)};
}

std::optional<IndexOrder> Store::IntervalOrder(rdf::TermId s, rdf::TermId p,
                                               rdf::TermId o, int range_pos) {
  const bool bs = s != kAny;
  if (range_pos == 2) {
    const bool bp = p != kAny;
    if (bs && bp) return IndexOrder::kSpo;
    if (bp) return IndexOrder::kPos;
    if (!bs) return IndexOrder::kOsp;
    return std::nullopt;  // (s ? [lo..hi])
  }
  if (o == kAny) return bs ? IndexOrder::kSpo : IndexOrder::kPso;
  if (bs) return IndexOrder::kOsp;
  return std::nullopt;  // (? [lo..hi] o)
}

bool Store::TryGetIntervalRangeHinted(rdf::TermId s, rdf::TermId p,
                                      rdf::TermId o, int range_pos,
                                      rdf::TermId hi,
                                      std::span<const rdf::Triple>* out,
                                      RangeHint* hint) const {
  const std::optional<IndexOrder> order = IntervalOrder(s, p, o, range_pos);
  if (!order.has_value()) return false;
  // In the chosen order the bound positions lead, the ranged one follows
  // and the free ones trail, so the matches lie between the pattern with
  // the interval's endpoints and the free positions at their extremes.
  const rdf::TermId kMin = 0;
  const rdf::TermId kMax = static_cast<rdf::TermId>(-2);
  const bool on_p = range_pos == 1;
  auto fence = [&](rdf::TermId bound, rdf::TermId free) {
    auto at = [free](rdf::TermId v) { return v == kAny ? free : v; };
    return rdf::Triple(at(s), on_p ? bound : at(p), on_p ? at(o) : bound);
  };
  const rdf::Triple lo = fence(on_p ? p : o, kMin);
  const rdf::Triple hi_fence = fence(hi, kMax);
  Range r{nullptr, nullptr};
  switch (*order) {
    case IndexOrder::kSpo:
      r = PrefixRangeImpl<OrderSpo>(spo_, lo, hi_fence, hint);
      break;
    case IndexOrder::kPso:
      r = PrefixRangeImpl<OrderPso>(pso_, lo, hi_fence, hint);
      break;
    case IndexOrder::kPos:
      r = PrefixRangeImpl<OrderPos>(pos_, lo, hi_fence, hint);
      break;
    case IndexOrder::kOsp:
      r = PrefixRangeImpl<OrderOsp>(osp_, lo, hi_fence, hint);
      break;
  }
  *out = {r.first, static_cast<size_t>(r.second - r.first)};
  return true;
}

size_t Store::CountMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o) const {
  Range r = EqualRange(s, p, o);
  return static_cast<size_t>(r.second - r.first);
}

bool Store::Contains(const rdf::Triple& t) const {
  return std::binary_search(spo_.begin(), spo_.end(), t, OrderSpo());
}

}  // namespace storage
}  // namespace rdfref
