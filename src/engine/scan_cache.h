#ifndef RDFREF_ENGINE_SCAN_CACHE_H_
#define RDFREF_ENGINE_SCAN_CACHE_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/hash.h"
#include "common/synchronization.h"
#include "query/cq.h"
#include "rdf/triple.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace engine {

/// \brief The storage pattern an atom scans: its constants, each variable's
/// value in `bindings` (indexed by VarId; kAny while unbound, and for every
/// variable when `bindings` is null), and its interval, if any. Inline: the
/// join builds one per opened frame.
inline storage::Pattern AtomPattern(
    const query::Atom& atom,
    const std::vector<rdf::TermId>* bindings = nullptr) {
  static_assert(storage::Pattern::kRangeP == query::Atom::kRangeP &&
                storage::Pattern::kRangeO == query::Atom::kRangeO &&
                storage::Pattern::kRangeNone == query::Atom::kRangeNone);
  // An unbound slot holds rdf::kInvalidTermId, which is storage::kAny.
  auto resolve = [bindings](const query::QTerm& t) {
    if (!t.is_var) return t.term();
    return bindings == nullptr ? storage::kAny : (*bindings)[t.var()];
  };
  return {resolve(atom.s), resolve(atom.p), resolve(atom.o), atom.range_pos,
          atom.range_hi};
}

/// \brief Per-query scan memo shared across the members of one UCQ (or all
/// fragment UCQs of one JUCQ).
///
/// Reformulation unions are massively redundant: the members of a
/// reformulated UCQ share most of their atoms (Example 1's 318,096-CQ
/// reformulation touches a handful of distinct properties), so the same
/// bound pattern is counted by OrderAtoms and range-scanned at join depth 0
/// over and over — once per member in the seed engine. The ScanCache keys
/// both on the bound storage::Pattern, classic or interval:
///
///  - `Count` memoizes the source's cardinality answers, so a 462-member
///    UCQ pays one count per *distinct* pattern instead of one per member
///    atom (this matters most for the federation mediator, where a count is
///    a per-endpoint fan-out);
///  - `Leaf` memoizes materialized leaf scans for patterns the source
///    cannot expose as a contiguous range (overlay and mediator sources,
///    and the interval shapes no clustered order keeps contiguous).
///    Zero-copy ranges bypass the cache entirely — caching them would only
///    add a lock.
///
/// Thread-safety: all methods are const and safe to call concurrently; the
/// parallel UCQ chunk path and the parallel JUCQ fragment path share one
/// cache instance. Returned spans stay valid for the cache's lifetime:
/// materialized scans are held behind unique_ptr, never erased, and a map
/// rehash does not move the pointed-to vectors. Misses are materialized
/// OUTSIDE the lock (a federation scan can take milliseconds and must not
/// serialize sibling chunks); on a racing double-materialization the first
/// insert wins and the loser's buffer is discarded.
///
/// Deadline/cancellation interaction: a cache fill is one source-level
/// batch scan, which is not cancellable mid-pattern — exactly like the
/// seed engine's Scan callbacks. Cancellation is polled by the evaluator
/// between pattern scans (every kCancelStride consumed triples), so an
/// expired deadline aborts after the current pattern, never mid-buffer.
class ScanCache {
 public:
  /// \brief `source` must outlive the cache.
  explicit ScanCache(const storage::TripleSource* source) : source_(source) {}

  ScanCache(const ScanCache&) = delete;
  ScanCache& operator=(const ScanCache&) = delete;

  /// \brief Memoized source->CountPattern(pat).
  size_t Count(const storage::Pattern& pat) const RDFREF_EXCLUDES(mu_);

  /// \brief All matches of `pat` as a contiguous span: zero-copy when the
  /// source's TryGetPattern succeeds, otherwise materialized once per
  /// distinct pattern and shared by every later caller (and every thread).
  std::span<const rdf::Triple> Leaf(const storage::Pattern& pat) const
      RDFREF_LIFETIME_BOUND RDFREF_EXCLUDES(mu_);

  const storage::TripleSource& source() const RDFREF_LIFETIME_BOUND {
    return *source_;
  }

  /// \brief Introspection for tests: distinct patterns memoized so far.
  size_t num_cached_counts() const RDFREF_EXCLUDES(mu_) {
    common::MutexLock lock(&mu_);
    return counts_.size();
  }
  size_t num_cached_leaves() const RDFREF_EXCLUDES(mu_) {
    common::MutexLock lock(&mu_);
    return leaves_.size();
  }

 private:
  struct PatternHash {
    size_t operator()(const storage::Pattern& k) const {
      size_t h = HashCombine(HashCombine(HashCombine(0x5ca9c4a3, k.s), k.p), k.o);
      return HashCombine(HashCombine(h, static_cast<size_t>(k.range_pos)),
                         k.hi);
    }
  };

  const storage::TripleSource* source_;
  mutable common::Mutex mu_;
  mutable std::unordered_map<storage::Pattern, size_t, PatternHash> counts_
      RDFREF_GUARDED_BY(mu_);
  // unique_ptr: span stability across rehash; entries are never erased.
  mutable std::unordered_map<storage::Pattern,
                             std::unique_ptr<std::vector<rdf::Triple>>,
                             PatternHash>
      leaves_ RDFREF_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace rdfref

#endif  // RDFREF_ENGINE_SCAN_CACHE_H_
