#ifndef RDFREF_ENGINE_VIEW_CACHE_H_
#define RDFREF_ENGINE_VIEW_CACHE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/synchronization.h"
#include "engine/table.h"
#include "query/cq.h"
#include "query/ucq.h"
#include "rdf/triple.h"
#include "storage/epoch_observer.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace engine {

/// \brief Tuning knobs of the cross-query view cache.
struct ViewCacheOptions {
  /// Total bytes of cached answers (arenas + keys + footprints).
  /// Crossing it evicts lowest-benefit entries; a single result larger
  /// than the whole budget is rejected outright.
  size_t byte_budget = 64ull << 20;
  /// Plans with more members than this are not cached: their plan key
  /// alone would rival the materialized result in size (Example 1's
  /// 318,096-member reformulation is the poster child).
  size_t max_plan_members = 4096;
  /// Recent-write window used to re-validate entries across epochs. An
  /// entry whose validity lags the newest write by more than this many
  /// writes can no longer prove itself untouched and is capped. Sized so
  /// a saturating writer (~1M ops/s) cannot scroll it between a view's
  /// fill and its next probe at serving-rate intervals; 64Ki records cost
  /// ~2 MiB.
  size_t write_log_window = 64 * 1024;
};

/// \brief Monotonic counters + gauges of one ViewCache (perfbench's traced
/// `engine.cache_*` counters report these).
struct ViewCacheStats {
  uint64_t hits = 0;           ///< Lookup served from cache
  uint64_t misses = 0;         ///< Lookup fell through to evaluation
  uint64_t installs = 0;       ///< entries admitted
  uint64_t evictions = 0;      ///< entries dropped for budget
  uint64_t invalidations = 0;  ///< validity windows capped by writes
  uint64_t rejected = 0;       ///< results too large to admit
  uint64_t lost_races = 0;     ///< concurrent duplicate installs discarded
  size_t bytes = 0;            ///< gauge: current cached bytes
  size_t entries = 0;          ///< gauge: current entry count

  double hit_rate() const {
    uint64_t probes = hits + misses;
    return probes == 0 ? 0.0 : static_cast<double>(hits) / probes;
  }
};

/// \brief The two-part cache key of a view: `canonical` groups α-equivalent
/// fragment *shapes* (the selection pass and eviction preference operate on
/// it), `full` additionally pins the exact evaluation plan
/// (query::UcqPlanKey of the reformulation) so a hit is guaranteed to
/// replay bit-identically. Empty `full` means "not cacheable" (plan over
/// ViewCacheOptions::max_plan_members).
struct ViewKey {
  std::string canonical;
  std::string full;

  bool ok() const { return !full.empty(); }
};

/// \brief Conservative write-overlap summary of a cached view: the distinct
/// atom patterns its evaluation scanned, with variables widened to
/// wildcards and interval atoms kept as [lo, hi] ranges. A write that
/// matches no pattern cannot change the view's answer — evaluation reads
/// the database only through these patterns, and residual joins/filters
/// only ever *restrict* what the scans produced.
///
/// This is the probe-direction inverse of storage::PatternPresence (which
/// stores concrete triples and probes with patterns); here the *stored*
/// side holds the wildcards and the probe is a concrete triple.
class ViewFootprint {
 public:
  /// \brief Adds every atom of every member; the pattern list is sorted
  /// and deduplicated once per call.
  void AddUcq(const query::Ucq& ucq);
  void AddCq(const query::Cq& q);

  /// \brief True when writing `t` could change the view's answer.
  bool MayTouch(const rdf::Triple& t) const;

  RDFREF_BORROWS_FROM(this)
  std::span<const storage::Pattern> patterns() const { return patterns_; }

 private:
  // Appends q's atom patterns, unsorted.
  void AddAtoms(const query::Cq& q);
  // Sorts and deduplicates patterns_.
  void Normalize();

  std::vector<storage::Pattern> patterns_;
  // Quick reject on the property position: most writes (e.g. the workload
  // driver's churn property) miss every cached view, and one hash probe
  // settles that without walking patterns_.
  std::unordered_set<rdf::TermId> properties_;
  bool any_property_ = false;  ///< some pattern has a variable/ranged p
};

/// \brief Process-wide cache of materialized subplan results — the
/// cross-query generalization of ScanCache (DESIGN.md §15).
///
/// Entries map a ViewKey plus a *validity window* of write epochs
/// [computed_epoch, valid_hi] to a materialized answer table. Lookup(key,
/// epoch) hits iff the probing snapshot's epoch lies inside the window.
/// Windows grow lazily: the version set feeds every visibility-changing
/// write through OnEpochWrite (see storage/epoch_observer.h), the cache
/// remembers the last `write_log_window` writes, and a lookup beyond an
/// entry's current window replays the intervening writes against the
/// entry's ViewFootprint — extending the window when none overlap, capping
/// it (counted as an invalidation) at the first that does. Capped entries
/// still serve readers pinned to older epochs inside their window.
///
/// Concurrency follows the ScanCache discipline: misses are materialized
/// entirely OUTSIDE the lock; on a racing double-computation the first
/// Install wins and the loser's result is discarded. The lock is held only
/// for map/window bookkeeping — a hit copies the stored answer outside the
/// lock (entry payloads are immutable after install, shared_ptr-held, so
/// eviction never invalidates an in-flight materialization).
///
/// Memory is bounded by `byte_budget` with benefit-ordered eviction
/// (capped entries first, then lowest fill_millis·(1+hits)/bytes,
/// LRU-tiebroken); keys pinned by SetPreferred — the workload-driven
/// selection pass — are evicted only when nothing else is left.
class ViewCache : public storage::EpochWriteObserver {
 public:
  explicit ViewCache(const ViewCacheOptions& options = {});

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// \brief Builds the cache key of `view_query` evaluated via the
  /// reformulated `plan`. !ok() when the plan is too large to cache.
  ViewKey KeyFor(const query::Cq& view_query, const query::Ucq& plan) const;

  /// \brief Returns a copy of the cached answer valid at `epoch`, or
  /// nullopt (counted as a miss) when none is. The returned table is the
  /// bit-exact result the plan would evaluate to at that epoch; its
  /// `columns` are the stored ones — callers relabel them for their own
  /// head, exactly as the JUCQ path does for freshly materialized
  /// fragments.
  std::optional<Table> Lookup(const std::string& full_key, uint64_t epoch)
      RDFREF_EXCLUDES(mu_);

  /// \brief Admits `result` (computed against write epoch `epoch`) under
  /// `key`. First insert wins; oversized results are rejected; lowest-
  /// benefit entries are evicted to make room. `fill_millis` (the miss's
  /// evaluation cost) is the benefit numerator.
  void Install(const ViewKey& key, uint64_t epoch, const Table& result,
               ViewFootprint footprint, double fill_millis)
      RDFREF_EXCLUDES(mu_);

  /// \brief storage::EpochWriteObserver: appends to the recent-write
  /// window. Runs under the version set's mutex — O(1), touches only the
  /// cache's own (leaf) lock.
  void OnEpochWrite(const rdf::Triple& t, uint64_t epoch,
                    bool added) override RDFREF_EXCLUDES(mu_);

  /// \brief Pins the canonical keys chosen by the view-selection pass:
  /// matching entries (current and future) are evicted last.
  void SetPreferred(std::vector<std::string> canonical_keys)
      RDFREF_EXCLUDES(mu_);

  /// \brief Drops every entry, the write window and the eviction
  /// preferences (e.g. when the id space is re-encoded and cached ids,
  /// preferred canonical keys included, become meaningless). Counters
  /// survive; gauges reset.
  void Clear() RDFREF_EXCLUDES(mu_);

  ViewCacheStats Stats() const RDFREF_EXCLUDES(mu_);

  const ViewCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    Table table;       // the installed answer; immutable after install
    size_t bytes = 0;  // table + keys + footprint + this entry
    ViewFootprint footprint;
    std::string canonical_key;
    uint64_t computed_epoch = 0;
    uint64_t valid_hi = 0;
    bool capped = false;  // window can no longer grow
    bool preferred = false;
    uint64_t hits = 0;
    uint64_t last_use = 0;  // tick_ at last hit/install
    double fill_millis = 0.0;
  };

  struct WriteRec {
    uint64_t epoch;
    rdf::Triple triple;
  };

  // Grows e's validity window toward `target` by replaying the write
  // window; caps at the first overlapping write or when the window has
  // scrolled past. True iff the window now covers target.
  bool AdvanceLocked(Entry* e, uint64_t target) RDFREF_REQUIRES(mu_);

  // Evicts lowest-benefit entries until `needed` more bytes fit the
  // budget. False when impossible (needed exceeds the whole budget).
  bool MakeRoomLocked(size_t needed) RDFREF_REQUIRES(mu_);

  const ViewCacheOptions options_;

  mutable common::Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
      RDFREF_GUARDED_BY(mu_);
  std::deque<WriteRec> writes_ RDFREF_GUARDED_BY(mu_);
  uint64_t applied_epoch_ RDFREF_GUARDED_BY(mu_) = 0;
  std::unordered_set<std::string> preferred_ RDFREF_GUARDED_BY(mu_);
  size_t bytes_ RDFREF_GUARDED_BY(mu_) = 0;
  uint64_t tick_ RDFREF_GUARDED_BY(mu_) = 0;
  ViewCacheStats stats_ RDFREF_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace rdfref

#endif  // RDFREF_ENGINE_VIEW_CACHE_H_
