#ifndef RDFREF_STORAGE_VERSION_SET_H_
#define RDFREF_STORAGE_VERSION_SET_H_

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/synchronization.h"
#include "rdf/triple.h"
#include "storage/epoch_observer.h"
#include "storage/store.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace storage {

/// \file
/// \brief Epoch-based snapshot isolation for the explicit database — the
/// LSM-flavored versioned storage layer (DESIGN.md §11).
///
/// A VersionSet holds {immutable base Store, ordered frozen sorted delta
/// runs, one mutable head overlay}. Readers pin an epoch-numbered
/// SnapshotSource (shared_ptr-held, so reclamation is automatic when the
/// last reader releases it) and evaluate whole queries against that frozen
/// view; writers append to the head, and maintenance — explicit Freeze() /
/// Compact() calls or the background compaction thread — seals the head
/// into a new sorted run, merges base + runs into a fresh base, and
/// publishes the new version with a single pointer swap under the lock.
/// Writers never block readers holding snapshots; readers never observe a
/// torn overlay.

/// \brief One sealed generation of updates: the added triples as a fully
/// indexed immutable Store (so every pattern is a zero-copy range, exactly
/// like the base), plus the sorted set of triples this generation removed
/// from *older* generations. Immutable after construction.
class DeltaRun {
 public:
  /// \brief `dict` must outlive the run; `added`/`removed` are the sealed
  /// head's side sets (`removed` entries always name triples that were
  /// visible in an older generation when recorded).
  DeltaRun(const rdf::Dictionary* dict, std::vector<rdf::Triple> added,
           std::vector<rdf::Triple> removed);

  const Store& adds() const RDFREF_LIFETIME_BOUND { return adds_; }

  /// \brief Conservatively true when an added triple could match the
  /// pattern — three hash probes that let hot scans skip the adds index
  /// entirely for the (common) patterns a small run cannot touch.
  bool MayAddMatch(const Pattern& pat) const {
    return adds_.size() > 0 && added_presence_.MayMatch(pat);
  }

  /// \brief True when this generation removed `t` from an older one.
  bool Removes(const rdf::Triple& t) const;

  bool has_removals() const { return !removed_.empty(); }
  const std::vector<rdf::Triple>& removed() const RDFREF_LIFETIME_BOUND {
    return removed_;
  }

  /// \brief Conservatively true when a removal could filter the pattern.
  bool MayRemoveMatch(const Pattern& pat) const {
    return !removed_.empty() && removed_presence_.MayMatch(pat);
  }

  /// \brief Exact number of removed triples matching the pattern (linear;
  /// runs stay small relative to the base by compaction policy).
  size_t CountRemovedMatches(const Pattern& pat) const;

 private:
  Store adds_;
  std::vector<rdf::Triple> removed_;  // sorted (s, p, o)
  PatternPresence added_presence_;
  PatternPresence removed_presence_;
};

/// \brief The mutable head overlay of a VersionSet, or a snapshot's frozen
/// copy of it: triples added/removed since the last Freeze, with
/// per-position presence sets, so a non-empty head only forces the buffered
/// path on the patterns it may affect.
struct HeadDelta {
  std::unordered_set<rdf::Triple, rdf::TripleHash> added;
  std::unordered_set<rdf::Triple, rdf::TripleHash> removed;
  PatternPresence added_presence;
  PatternPresence removed_presence;

  bool empty() const { return added.empty() && removed.empty(); }
  size_t size() const { return added.size() + removed.size(); }
  bool MayAffect(const Pattern& pat) const {
    return (!added.empty() && added_presence.MayMatch(pat)) ||
           (!removed.empty() && removed_presence.MayMatch(pat));
  }
};

/// \brief One published immutable version: the base plus the sealed runs,
/// oldest first. Shared by every snapshot pinned while it was current.
struct Version {
  /// Publish counter (bumped by Freeze/Compact); diagnostics only —
  /// visibility is identified by the snapshot epoch, not the generation.
  uint64_t generation = 0;
  std::shared_ptr<const Store> base;
  std::vector<std::shared_ptr<const DeltaRun>> runs;
  /// Union of the runs' add/remove presences, built once at publication:
  /// a hot range probe pays two presence checks total — independent of the
  /// number of sealed runs — before falling back to per-run work.
  PatternPresence runs_added_presence;
  PatternPresence runs_removed_presence;

  bool RunsMayAdd(const Pattern& pat) const {
    return !runs.empty() && runs_added_presence.MayMatch(pat);
  }
  bool RunsMayRemove(const Pattern& pat) const {
    return !runs.empty() && runs_removed_presence.MayMatch(pat);
  }
};

/// \brief An immutable, epoch-numbered view of the database: {base, runs,
/// frozen head copy} merged with removal filtering. This is what query
/// evaluation runs against — the whole query sees one frozen epoch no
/// matter how writers race.
///
/// Visibility rule: generation 0 is the base, generations 1..R the runs
/// (oldest first), generation R+1 the frozen head. A triple is visible iff
/// some generation adds it and no *newer* generation removes it.
///
/// Every TripleSource call is a one-line forward to one of three
/// per-generation bodies, each taking a storage::Pattern, classic or
/// interval alike: Lookup (the zero-copy fast path), Collect (the buffered
/// scan) and Count. Presence filters are probed with the pattern widened
/// (see PatternPresence), so an interval is gated by every id it spans.
class SnapshotSource : public TripleSource {
 public:
  SnapshotSource(uint64_t epoch, std::shared_ptr<const Version> version,
                 HeadDelta head);

  /// \brief The write epoch this snapshot pinned: the number of
  /// visibility-changing updates applied to the VersionSet before it.
  uint64_t epoch() const { return epoch_; }

  RDFREF_BORROWS_FROM(this)
  bool TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                   std::span<const rdf::Triple>* out) const override {
    return Lookup({s, p, o}, out, nullptr);
  }

  RDFREF_BORROWS_FROM(this)
  bool TryGetRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                         std::span<const rdf::Triple>* out,
                         RangeHint* hint) const override {
    return Lookup({s, p, o}, out, hint);
  }

  RDFREF_BORROWS_FROM(this)
  bool TryGetIntervalRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                           int range_pos, rdf::TermId hi,
                           std::span<const rdf::Triple>* out) const override {
    return Lookup({s, p, o, range_pos, hi}, out, nullptr);
  }

  RDFREF_BORROWS_FROM(this)
  bool TryGetIntervalRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 int range_pos, rdf::TermId hi,
                                 std::span<const rdf::Triple>* out,
                                 RangeHint* hint) const override {
    return Lookup({s, p, o, range_pos, hi}, out, hint);
  }

  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override {
    Collect({s, p, o}, out);
  }

  void ScanIntervalInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                        int range_pos, rdf::TermId hi,
                        std::vector<rdf::Triple>* out) const override {
    Collect({s, p, o, range_pos, hi}, out);
  }

  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override {
    return Count({s, p, o});
  }

  size_t CountIntervalMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                              int range_pos, rdf::TermId hi) const override {
    return Count({s, p, o, range_pos, hi});
  }

  const rdf::Dictionary& dict() const RDFREF_LIFETIME_BOUND override {
    return version_->base->dict();
  }

  /// \brief A visible triple lives in exactly one generation that no newer
  /// one hides: VersionSet::Insert refuses a triple already visible, and a
  /// removal hides the one visible occurrence.
  bool DeliversDistinctTriples() const override { return true; }

  /// \brief True when `t` is visible at this epoch.
  bool Contains(const rdf::Triple& t) const;

  /// \brief The full visible triple set at this epoch, sorted (s, p, o) —
  /// what a from-scratch Store over this snapshot would index. The fuzz
  /// oracle compares pinned-epoch answers against exactly this.
  std::vector<rdf::Triple> Materialize() const;

  size_t num_runs() const { return version_->runs.size(); }
  size_t head_size() const { return head_.size(); }

 private:
  // The zero-copy fast path, which generalizes the empty-overlay rule to
  // every sealed generation: when the frozen head cannot affect the
  // pattern, no run's removals can filter it, the base Store keeps its
  // shape contiguous and at most one generation holds matches, that
  // generation's own run of the order Store::OrderFor names is returned
  // as-is — so a fully compacted snapshot (or any pattern whose matches
  // live in one generation) scans exactly as fast as a pristine Store,
  // hinted galloping search included. Everyone else is served by Collect.
  RDFREF_BORROWS_FROM(this)
  bool Lookup(const Pattern& pat, std::span<const rdf::Triple>* out,
              RangeHint* hint) const;

  // The buffered scan: each generation's run of the order Store::OrderFor
  // names (the base, each run's adds, the frozen head's matches sorted),
  // minus what a newer generation removes, merged in that order. The
  // result is element for element what a pristine Store over Materialize()
  // returns: SPO order for a classic pattern, since every order is SPO
  // order restricted to one classic pattern's matches. The two interval
  // shapes no order keeps contiguous read the widened pattern and filter
  // it (the TripleSource default), which is that Store's order for them.
  void Collect(const Pattern& pat, std::vector<rdf::Triple>* out) const;

  // The match count, which depends only on the visible triple set and
  // never on how the overlays happen to lay it out (which decides whether
  // Lookup succeeds): exact when Store::OrderFor names an order for the
  // shape, otherwise the exact count of the widened pattern. The engine's
  // join choices rest on it (DESIGN.md §9), so a Freeze or Compact never
  // changes a plan.
  size_t Count(const Pattern& pat) const;

  // True when some generation newer than `gen` (0 = base, i = runs[i-1],
  // R+1 = head) removes `t`.
  bool RemovedAbove(const rdf::Triple& t, size_t gen) const;

  uint64_t epoch_;
  std::shared_ptr<const Version> version_;
  HeadDelta head_;
  bool any_removals_;  // fast path: no generation filters anything
};

/// \brief Shared-ownership handle to a pinned snapshot. Copy freely; the
/// base, runs and frozen head stay alive until the last reader releases.
using SnapshotPtr = std::shared_ptr<const SnapshotSource>;

/// \brief Maintenance thresholds for background compaction.
struct VersionSetOptions {
  /// Seal the head into a frozen run once it holds this many entries.
  size_t freeze_threshold = 1024;
  /// Merge base + runs into a fresh base once this many runs are sealed.
  size_t compact_min_runs = 4;
};

/// \brief The writer-facing versioned store: one mutable head, atomic
/// version publication, snapshot pinning, and (optional) background
/// compaction on a dedicated maintenance thread.
///
/// Thread-safety: every public method is safe to call concurrently.
/// Writers serialize on the internal mutex; pinning a snapshot takes the
/// same mutex briefly (to copy the small head and share the version) and
/// readers then evaluate entirely lock-free against immutable state.
/// Freeze holds the lock while indexing the (small, threshold-bounded)
/// head; Compact does its O(base) merge *outside* the lock and publishes
/// with a compare-and-swap-style base identity check, so a racing manual
/// and background compaction cannot tear the version.
class VersionSet {
 public:
  /// \brief Non-owning initial base: `base` (and its dictionary) must
  /// outlive the VersionSet. Compacted bases are owned internally.
  explicit VersionSet(const Store* base);

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  ~VersionSet();

  /// \brief Makes `t` visible at the next epoch; returns true when
  /// visibility changed.
  bool Insert(const rdf::Triple& t) RDFREF_EXCLUDES(mu_);

  /// \brief Hides `t` from the next epoch; returns true when visibility
  /// changed.
  bool Remove(const rdf::Triple& t) RDFREF_EXCLUDES(mu_);

  /// \brief True when `t` is visible at the current write epoch.
  bool Contains(const rdf::Triple& t) const RDFREF_EXCLUDES(mu_);

  /// \brief The current write epoch: bumped by every visibility-changing
  /// Insert/Remove (Freeze/Compact reorganize storage without changing
  /// visibility, so they do not bump it).
  uint64_t epoch() const RDFREF_EXCLUDES(mu_);

  /// \brief Pins the current epoch as an immutable snapshot.
  SnapshotPtr snapshot() const RDFREF_EXCLUDES(mu_);

  /// \brief Seals the head into a new frozen sorted run (no-op when the
  /// head is empty). Visibility is unchanged; the sealed triples become
  /// zero-copy range-scannable.
  void Freeze() RDFREF_EXCLUDES(mu_);

  /// \brief Freezes the head, then merges base + all sealed runs into a
  /// fresh fully indexed base Store (removals applied and discarded) and
  /// publishes it. The merge runs outside the lock; snapshots pinned
  /// before, during or after observe identical visible sets.
  void Compact() RDFREF_EXCLUDES(mu_);

  /// \brief Starts the background maintenance thread: it freezes the head
  /// when it crosses `options.freeze_threshold` and compacts when
  /// `options.compact_min_runs` runs have accumulated. Writers signal it;
  /// it never blocks readers. No-op if already running.
  void StartBackgroundCompaction(const VersionSetOptions& options = {})
      RDFREF_EXCLUDES(mu_);

  /// \brief Stops and joins the maintenance thread (idempotent; also run
  /// by the destructor). In-flight compaction completes first.
  void StopBackgroundCompaction() RDFREF_EXCLUDES(mu_);

  /// \brief Registers (or, with nullptr, unregisters) the write observer
  /// fed by every visibility-changing Insert/Remove — see
  /// storage/epoch_observer.h for the callback contract. At most one
  /// observer; it must outlive the VersionSet or be unregistered first.
  void SetWriteObserver(EpochWriteObserver* observer) RDFREF_EXCLUDES(mu_);

  /// \brief Entries currently in the mutable head overlay.
  size_t head_size() const RDFREF_EXCLUDES(mu_);

  /// \brief Sealed runs in the current version.
  size_t num_runs() const RDFREF_EXCLUDES(mu_);

 private:
  // Visibility of `t` through the sealed generations only (base + runs,
  // head excluded): newest run wins, then the base.
  bool ContainsSealedLocked(const rdf::Triple& t) const RDFREF_REQUIRES(mu_);

  void FreezeLocked() RDFREF_REQUIRES(mu_);

  // Body of the maintenance thread.
  void MaintenanceLoop() RDFREF_EXCLUDES(mu_);

  const rdf::Dictionary* dict_;

  mutable common::Mutex mu_;
  std::shared_ptr<const Version> current_ RDFREF_GUARDED_BY(mu_);
  HeadDelta head_ RDFREF_GUARDED_BY(mu_);
  uint64_t epoch_ RDFREF_GUARDED_BY(mu_) = 0;
  // Notified under mu_ right after the epoch bump, so the observer sees
  // writes in epoch order with no gaps (see epoch_observer.h).
  EpochWriteObserver* observer_ RDFREF_GUARDED_BY(mu_) = nullptr;

  // Background maintenance (StartBackgroundCompaction).
  common::CondVar work_cv_;
  bool stop_maintenance_ RDFREF_GUARDED_BY(mu_) = false;
  VersionSetOptions options_ RDFREF_GUARDED_BY(mu_);
  bool maintenance_enabled_ RDFREF_GUARDED_BY(mu_) = false;
  // Found by the first full-tree rdfref_check sweep (guard-completeness):
  // assigned in StartBackgroundCompaction and moved out in
  // StopBackgroundCompaction, both under mu_, but unannotated — so TSA
  // never checked it. The join itself runs on the moved-out handle,
  // outside the lock, which is exactly why the field must stay guarded.
  std::thread maintenance_ RDFREF_GUARDED_BY(mu_);
};

}  // namespace storage
}  // namespace rdfref

#endif  // RDFREF_STORAGE_VERSION_SET_H_
