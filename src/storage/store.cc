#include "storage/store.h"

#include <algorithm>

#include "rdf/vocab.h"

namespace rdfref {
namespace storage {

namespace {

// IndexLess with the order fixed at compile time, for the sorts and
// searches over one permutation.
template <IndexOrder kOrder>
struct Less {
  bool operator()(const rdf::Triple& a, const rdf::Triple& b) const {
    return IndexLess(kOrder, a, b);
  }
};

using Range = std::pair<const rdf::Triple*, const rdf::Triple*>;

// Galloping lower_bound: first i in [from, n) with base[i] >= key.
// Probes from..from+1, +2, +4, ... then binary-searches the bracketed gap,
// so a lookup `gap` positions past the hint costs O(log gap) comparisons.
template <IndexOrder kOrder>
size_t GallopLowerBound(const rdf::Triple* base, size_t from, size_t n,
                        const rdf::Triple& key) {
  Less<kOrder> less;
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
template <IndexOrder kOrder>
size_t GallopUpperBound(const rdf::Triple* base, size_t from, size_t n,
                        const rdf::Triple& key) {
  Less<kOrder> less;
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

// The run of `index` between the fences `lo` and `hi`. Without a hint,
// two binary searches. With one, galloping forward from the previous
// lookup's begin offset when that offset is still a valid lower fence for
// the new prefix (everything before it compares below `lo`): repeated
// lookups of the same prefix keep the fence, so they cost O(1) probes; a
// backward or cross-index hint falls back to galloping from 0, which is
// within a constant of the plain binary search. The hint is always
// rewritten to the returned range.
template <IndexOrder kOrder>
Range FencedRange(const std::vector<rdf::Triple>& index, const rdf::Triple& lo,
                  const rdf::Triple& hi, RangeHint* hint) {
  const rdf::Triple* base = index.data();
  const size_t n = index.size();
  size_t begin = 0;
  size_t end = 0;
  if (hint == nullptr) {
    begin = static_cast<size_t>(
        std::lower_bound(base, base + n, lo, Less<kOrder>()) - base);
    end = static_cast<size_t>(
        std::upper_bound(base, base + n, hi, Less<kOrder>()) - base);
  } else {
    size_t from = 0;
    if (hint->index == &index && hint->pos <= n &&
        (hint->pos == 0 || Less<kOrder>()(base[hint->pos - 1], lo))) {
      from = hint->pos;
    }
    begin = GallopLowerBound<kOrder>(base, from, n, lo);
    end = GallopUpperBound<kOrder>(base, begin, n, hi);
    hint->index = &index;
    hint->pos = begin;
  }
  if (begin >= end) return {nullptr, nullptr};
  return {base + begin, base + end};
}

}  // namespace

Store::Store(const rdf::Graph& graph)
    : Store(&graph.dict(), std::vector<rdf::Triple>(graph.triples().begin(),
                                                    graph.triples().end())) {}

Store::Store(const rdf::Dictionary* dict, std::vector<rdf::Triple> triples)
    : dict_(dict), spo_(std::move(triples)) {
  std::sort(spo_.begin(), spo_.end(), Less<IndexOrder::kSpo>());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  pso_ = spo_;
  std::sort(pso_.begin(), pso_.end(), Less<IndexOrder::kPso>());
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), Less<IndexOrder::kPos>());
  osp_ = spo_;
  std::sort(osp_.begin(), osp_.end(), Less<IndexOrder::kOsp>());

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

bool Store::Lookup(const Pattern& pat, std::span<const rdf::Triple>* out,
                   RangeHint* hint) const {
  const std::optional<IndexOrder> order = OrderFor(pat);
  if (!order.has_value()) return false;
  // In the chosen order the bound positions lead, the ranged one follows
  // and the free ones trail, so the matches lie between the pattern with
  // the free positions at their extremes and the ranged one at the
  // interval's endpoints.
  const rdf::TermId kMin = 0;
  const rdf::TermId kMax = static_cast<rdf::TermId>(-2);
  auto at = [](rdf::TermId v, rdf::TermId free) { return v == kAny ? free : v; };
  const rdf::Triple lo(at(pat.s, kMin), at(pat.p, kMin), at(pat.o, kMin));
  rdf::Triple hi(at(pat.s, kMax), at(pat.p, kMax), at(pat.o, kMax));
  if (pat.range_pos == Pattern::kRangeP) hi.p = pat.hi;
  if (pat.range_pos == Pattern::kRangeO) hi.o = pat.hi;
  Range r{nullptr, nullptr};
  switch (*order) {
    case IndexOrder::kSpo:
      r = FencedRange<IndexOrder::kSpo>(spo_, lo, hi, hint);
      break;
    case IndexOrder::kPso:
      r = FencedRange<IndexOrder::kPso>(pso_, lo, hi, hint);
      break;
    case IndexOrder::kPos:
      r = FencedRange<IndexOrder::kPos>(pos_, lo, hi, hint);
      break;
    case IndexOrder::kOsp:
      r = FencedRange<IndexOrder::kOsp>(osp_, lo, hi, hint);
      break;
  }
  *out = {r.first, static_cast<size_t>(r.second - r.first)};
  return true;
}

size_t Store::Count(const Pattern& pat) const {
  std::span<const rdf::Triple> range;
  if (!Lookup(pat, &range)) Lookup(pat.Widened(), &range);
  return range.size();
}

bool Store::Contains(const rdf::Triple& t) const {
  return std::binary_search(spo_.begin(), spo_.end(), t);
}

}  // namespace storage
}  // namespace rdfref
