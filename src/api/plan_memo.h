#ifndef RDFREF_API_PLAN_MEMO_H_
#define RDFREF_API_PLAN_MEMO_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/synchronization.h"
#include "optimizer/gcov.h"
#include "query/cover.h"
#include "query/cq.h"
#include "query/ucq.h"

namespace rdfref {
namespace api {

/// \brief What preparing a Ref query produces (DESIGN.md §16): the cover,
/// its fragment subqueries and their reformulations. Immutable once built,
/// so concurrent calls share one plan without copying or locking.
struct QueryPlan {
  /// REF-UCQ and REF-INCOMPLETE evaluate their one union as a whole-query
  /// view; the JUCQ family (REF-SCQ/JUCQ/GCOV) joins per-fragment unions.
  bool whole_query = false;
  query::Cover cover;
  /// Fragment subqueries of `cover` (empty for a whole-query plan).
  std::vector<query::Cq> fragment_queries;
  /// One union per fragment; a whole-query plan holds exactly one.
  std::vector<query::Ucq> fragment_ucqs;
  uint64_t total_cqs = 0;
  /// The rule closures' total size before minimization.
  uint64_t raw_cqs = 0;
  /// REF-GCOV's search summary: the chosen cover, its cost and the
  /// iteration count. The explored list is dropped, since a replay explores
  /// nothing.
  optimizer::GcovTrace search;
};

/// \brief Counters of a PlanMemo.
struct PlanMemoStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// \brief A bounded, thread-safe memo of prepared plans keyed by the exact
/// query (see QueryAnswerer::Answer). It holds at most kMaxEntries plans
/// and kMaxCqs reformulated CQs in total, evicting the least recently used
/// plan first; a plan larger than kMaxCqs is not kept. The lock covers the
/// index only: a found plan is a shared_ptr read outside it, and it
/// outlives a concurrent eviction or Clear.
class PlanMemo {
 public:
  static constexpr size_t kMaxEntries = 256;
  static constexpr uint64_t kMaxCqs = uint64_t{1} << 16;

  PlanMemo() = default;
  PlanMemo(const PlanMemo&) = delete;
  PlanMemo& operator=(const PlanMemo&) = delete;

  /// \brief The plan under `key`, or null (counted as a miss).
  std::shared_ptr<const QueryPlan> Find(const std::string& key)
      RDFREF_EXCLUDES(mu_);

  /// \brief Keeps `plan` under `key`, evicting least recently used plans
  /// to stay within both bounds. A plan already under `key` stays.
  void Insert(std::string key, std::shared_ptr<const QueryPlan> plan)
      RDFREF_EXCLUDES(mu_);

  /// \brief Drops every plan (the counters keep counting).
  void Clear() RDFREF_EXCLUDES(mu_);

  PlanMemoStats Stats() const RDFREF_EXCLUDES(mu_);

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const QueryPlan>>;

  void EvictLocked() RDFREF_REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::list<Entry> lru_ RDFREF_GUARDED_BY(mu_);  // most recently used first
  // Keys view the strings held in lru_'s nodes, which never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_
      RDFREF_GUARDED_BY(mu_);
  uint64_t cqs_ RDFREF_GUARDED_BY(mu_) = 0;
  uint64_t hits_ RDFREF_GUARDED_BY(mu_) = 0;
  uint64_t misses_ RDFREF_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ RDFREF_GUARDED_BY(mu_) = 0;
};

}  // namespace api
}  // namespace rdfref

#endif  // RDFREF_API_PLAN_MEMO_H_
