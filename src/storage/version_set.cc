#include "storage/version_set.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

namespace rdfref {
namespace storage {

// ---------------------------------------------------------------------------
// DeltaRun
// ---------------------------------------------------------------------------

DeltaRun::DeltaRun(const rdf::Dictionary* dict, std::vector<rdf::Triple> added,
                   std::vector<rdf::Triple> removed)
    : adds_(dict, std::move(added)), removed_(std::move(removed)) {
  std::sort(removed_.begin(), removed_.end());
  std::span<const rdf::Triple> all;
  adds_.Lookup({}, &all);
  for (const rdf::Triple& t : all) added_presence_.Add(t);
  for (const rdf::Triple& t : removed_) removed_presence_.Add(t);
}

bool DeltaRun::Removes(const rdf::Triple& t) const {
  return std::binary_search(removed_.begin(), removed_.end(), t);
}

size_t DeltaRun::CountRemovedMatches(const Pattern& pat) const {
  if (!MayRemoveMatch(pat)) return 0;
  return static_cast<size_t>(std::count_if(
      removed_.begin(), removed_.end(),
      [&pat](const rdf::Triple& t) { return pat.Matches(t); }));
}

namespace {

/// Folds one sealed run into a version's combined presence union.
void AddRunToPresence(const DeltaRun& run, PatternPresence* added,
                      PatternPresence* removed) {
  std::span<const rdf::Triple> all;
  run.adds().Lookup({}, &all);
  for (const rdf::Triple& t : all) added->Add(t);
  for (const rdf::Triple& t : run.removed()) removed->Add(t);
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotSource
// ---------------------------------------------------------------------------

SnapshotSource::SnapshotSource(uint64_t epoch,
                               std::shared_ptr<const Version> version,
                               HeadDelta head)
    : epoch_(epoch), version_(std::move(version)), head_(std::move(head)) {
  any_removals_ = !head_.removed.empty();
  for (const auto& run : version_->runs) {
    any_removals_ = any_removals_ || run->has_removals();
  }
}

bool SnapshotSource::RemovedAbove(const rdf::Triple& t, size_t gen) const {
  if (!any_removals_) return false;
  // runs[j] is generation j + 1, so generations above `gen` start at j = gen.
  const auto& runs = version_->runs;
  for (size_t j = gen; j < runs.size(); ++j) {
    if (runs[j]->Removes(t)) return true;
  }
  return !head_.removed.empty() && head_.removed.count(t) > 0;
}

bool SnapshotSource::Contains(const rdf::Triple& t) const {
  // Newest generation wins: a generation never both adds and removes one
  // triple, so the first verdict walking downward is the visibility.
  if (!head_.added.empty() && head_.added.count(t) > 0) return true;
  if (!head_.removed.empty() && head_.removed.count(t) > 0) return false;
  const auto& runs = version_->runs;
  for (size_t i = runs.size(); i-- > 0;) {
    if (runs[i]->Removes(t)) return false;
    if (runs[i]->adds().Contains(t)) return true;
  }
  return version_->base->Contains(t);
}

bool SnapshotSource::Lookup(const Pattern& pat,
                            std::span<const rdf::Triple>* out,
                            RangeHint* hint) const {
  // The combined presence unions make the hot case (pattern untouched by
  // every run) cost two presence checks regardless of the run count, so a
  // snapshot probe stays within a few percent of a pristine Store's.
  if (!head_.empty() && head_.MayAffect(pat)) return false;
  if (version_->RunsMayRemove(pat)) return false;
  // The hint always tracks the base index: in the monotone lookup sequences
  // it accelerates, the base is overwhelmingly the contributing generation.
  std::span<const rdf::Triple> chosen;
  if (!version_->base->Lookup(pat, &chosen, hint)) return false;
  if (!version_->RunsMayAdd(pat)) {
    *out = chosen;
    return true;
  }
  size_t contributors = chosen.empty() ? 0 : 1;
  for (const auto& run : version_->runs) {
    // Every generation is a Store, so a shape the base serves contiguously
    // is contiguous in each run's adds too.
    std::span<const rdf::Triple> adds;
    if (!run->MayAddMatch(pat) || !run->adds().Lookup(pat, &adds) ||
        adds.empty()) {
      continue;
    }
    if (++contributors > 1) return false;
    chosen = adds;
  }
  *out = chosen;  // contributors == 0 delivers the empty range, still exact
  return true;
}

void SnapshotSource::Collect(const Pattern& pat,
                             std::vector<rdf::Triple>* out) const {
  const std::optional<IndexOrder> order = Store::OrderFor(pat);
  if (!order.has_value()) {
    TripleSource::ScanIntervalInto(pat.s, pat.p, pat.o, pat.range_pos, pat.hi,
                                   out);
    return;
  }
  auto less = [order](const rdf::Triple& a, const rdf::Triple& b) {
    return IndexLess(*order, a, b);
  };
  // One pattern-level presence check decides whether any generation's
  // removals can filter this scan; when none can, every run is appended
  // verbatim with no per-triple membership probes.
  bool filter = !head_.removed.empty() && head_.removed_presence.MayMatch(pat);
  if (!filter && version_->RunsMayRemove(pat)) {
    for (const auto& run : version_->runs) {
      filter = filter || run->MayRemoveMatch(pat);
    }
  }
  out->clear();
  // Appends generation `gen`'s run (sorted in `*order`) and merges it with
  // what is already there.
  auto append = [&](const Store& store, size_t gen) {
    std::span<const rdf::Triple> range;
    store.Lookup(pat, &range);
    const size_t mid = out->size();
    if (!filter) {
      out->insert(out->end(), range.begin(), range.end());
    } else {
      for (const rdf::Triple& t : range) {
        if (!RemovedAbove(t, gen)) out->push_back(t);
      }
    }
    std::inplace_merge(out->begin(), out->begin() + mid, out->end(), less);
  };
  append(*version_->base, 0);
  if (version_->RunsMayAdd(pat)) {
    const auto& runs = version_->runs;
    for (size_t i = 0; i < runs.size(); ++i) {
      if (runs[i]->MayAddMatch(pat)) append(runs[i]->adds(), i + 1);
    }
  }
  if (!head_.added.empty() && head_.added_presence.MayMatch(pat)) {
    const size_t mid = out->size();
    for (const rdf::Triple& t : head_.added) {  // hash order: sort the tail
      if (pat.Matches(t)) out->push_back(t);
    }
    std::sort(out->begin() + mid, out->end(), less);
    std::inplace_merge(out->begin(), out->begin() + mid, out->end(), less);
  }
}

size_t SnapshotSource::Count(const Pattern& pat) const {
  std::span<const rdf::Triple> range;
  if (!version_->base->Lookup(pat, &range)) return Count(pat.Widened());
  // Exact by the generation invariants: every add was invisible when
  // recorded, every removal kills exactly one visible older occurrence.
  size_t count = range.size();
  if (version_->RunsMayAdd(pat) || version_->RunsMayRemove(pat)) {
    for (const auto& run : version_->runs) {
      if (run->MayAddMatch(pat) && run->adds().Lookup(pat, &range)) {
        count += range.size();
      }
      count -= run->CountRemovedMatches(pat);
    }
  }
  if (!head_.added.empty() && head_.added_presence.MayMatch(pat)) {
    for (const rdf::Triple& t : head_.added) {
      if (pat.Matches(t)) ++count;
    }
  }
  if (!head_.removed.empty() && head_.removed_presence.MayMatch(pat)) {
    for (const rdf::Triple& t : head_.removed) {
      if (pat.Matches(t)) --count;
    }
  }
  return count;
}

std::vector<rdf::Triple> SnapshotSource::Materialize() const {
  std::vector<rdf::Triple> triples;
  Collect({}, &triples);  // SPO-sorted (see Collect)
  return triples;
}

// ---------------------------------------------------------------------------
// VersionSet
// ---------------------------------------------------------------------------

VersionSet::VersionSet(const Store* base) : dict_(&base->dict()) {
  auto initial = std::make_shared<Version>();
  initial->generation = 0;
  // Non-owning alias: the caller keeps the initial base alive.
  initial->base = std::shared_ptr<const Store>(base, [](const Store*) {});
  current_ = std::move(initial);
}

VersionSet::~VersionSet() { StopBackgroundCompaction(); }

bool VersionSet::ContainsSealedLocked(const rdf::Triple& t) const {
  const auto& runs = current_->runs;
  for (size_t i = runs.size(); i-- > 0;) {
    if (runs[i]->Removes(t)) return false;
    if (runs[i]->adds().Contains(t)) return true;
  }
  return current_->base->Contains(t);
}

bool VersionSet::Insert(const rdf::Triple& t) {
  bool changed = false;
  bool signal = false;
  {
    common::MutexLock lock(&mu_);
    if (head_.removed.erase(t) > 0) {  // un-hide a sealed triple
      if (head_.removed.empty()) head_.removed_presence.Clear();
      changed = true;
    } else if (!ContainsSealedLocked(t) && head_.added.insert(t).second) {
      head_.added_presence.Add(t);
      changed = true;
    }
    if (changed) {
      ++epoch_;
      if (observer_ != nullptr) observer_->OnEpochWrite(t, epoch_, true);
    }
    signal = maintenance_enabled_ && head_.size() >= options_.freeze_threshold;
  }
  if (signal) work_cv_.Signal();
  return changed;
}

bool VersionSet::Remove(const rdf::Triple& t) {
  bool changed = false;
  bool signal = false;
  {
    common::MutexLock lock(&mu_);
    if (head_.added.erase(t) > 0) {  // retract a head-only addition
      if (head_.added.empty()) head_.added_presence.Clear();
      changed = true;
    } else if (ContainsSealedLocked(t) && head_.removed.insert(t).second) {
      head_.removed_presence.Add(t);
      changed = true;
    }
    if (changed) {
      ++epoch_;
      if (observer_ != nullptr) observer_->OnEpochWrite(t, epoch_, false);
    }
    signal = maintenance_enabled_ && head_.size() >= options_.freeze_threshold;
  }
  if (signal) work_cv_.Signal();
  return changed;
}

void VersionSet::SetWriteObserver(EpochWriteObserver* observer) {
  common::MutexLock lock(&mu_);
  observer_ = observer;
}

bool VersionSet::Contains(const rdf::Triple& t) const {
  common::MutexLock lock(&mu_);
  if (!head_.added.empty() && head_.added.count(t) > 0) return true;
  if (!head_.removed.empty() && head_.removed.count(t) > 0) return false;
  return ContainsSealedLocked(t);
}

uint64_t VersionSet::epoch() const {
  common::MutexLock lock(&mu_);
  return epoch_;
}

SnapshotPtr VersionSet::snapshot() const {
  common::MutexLock lock(&mu_);
  // Copies the (small, threshold-bounded) head; the version is shared.
  // From here the reader never touches the VersionSet again.
  return std::make_shared<const SnapshotSource>(epoch_, current_, head_);
}

void VersionSet::FreezeLocked() {
  if (head_.empty()) return;
  std::vector<rdf::Triple> added(head_.added.begin(), head_.added.end());
  std::vector<rdf::Triple> removed(head_.removed.begin(), head_.removed.end());
  auto run =
      std::make_shared<const DeltaRun>(dict_, std::move(added), std::move(removed));
  auto next = std::make_shared<Version>();
  next->generation = current_->generation + 1;
  next->base = current_->base;
  next->runs = current_->runs;
  // Extend the combined presence unions with the newly sealed run.
  next->runs_added_presence = current_->runs_added_presence;
  next->runs_removed_presence = current_->runs_removed_presence;
  AddRunToPresence(*run, &next->runs_added_presence,
                   &next->runs_removed_presence);
  next->runs.push_back(std::move(run));
  current_ = std::move(next);  // the single publication point
  head_ = HeadDelta{};
}

void VersionSet::Freeze() {
  bool signal = false;
  {
    common::MutexLock lock(&mu_);
    FreezeLocked();
    signal = maintenance_enabled_ &&
             current_->runs.size() >= options_.compact_min_runs;
  }
  if (signal) work_cv_.Signal();
}

void VersionSet::Compact() {
  std::shared_ptr<const Version> captured;
  {
    common::MutexLock lock(&mu_);
    FreezeLocked();
    captured = current_;
  }
  if (captured->runs.empty()) return;  // already fully compacted

  // The O(base) merge runs outside the lock: writers and snapshots proceed
  // against `captured` (or newer) meanwhile. An all-sealed snapshot of the
  // captured version materializes exactly its visible set.
  SnapshotSource frozen_view(0, captured, HeadDelta{});
  auto merged = std::make_shared<const Store>(dict_, frozen_view.Materialize());

  common::MutexLock lock(&mu_);
  // Publish only if no racing compaction replaced the base while we merged
  // (our merge would silently drop the runs that compaction consumed).
  if (current_->base != captured->base) return;
  auto next = std::make_shared<Version>();
  next->generation = current_->generation + 1;
  next->base = std::move(merged);
  // Runs sealed after our capture still overlay the merged base; their
  // combined presence is rebuilt from scratch (the unions cannot subtract).
  next->runs.assign(current_->runs.begin() + captured->runs.size(),
                    current_->runs.end());
  for (const auto& run : next->runs) {
    AddRunToPresence(*run, &next->runs_added_presence,
                     &next->runs_removed_presence);
  }
  current_ = std::move(next);
}

void VersionSet::StartBackgroundCompaction(const VersionSetOptions& options) {
  common::MutexLock lock(&mu_);
  if (maintenance_enabled_) return;
  assert(options.freeze_threshold > 0 && "freeze_threshold must be positive");
  maintenance_enabled_ = true;
  stop_maintenance_ = false;
  options_ = options;
  maintenance_ = std::thread([this] { MaintenanceLoop(); });
}

void VersionSet::StopBackgroundCompaction() {
  std::thread joiner;
  {
    common::MutexLock lock(&mu_);
    if (!maintenance_enabled_) return;
    stop_maintenance_ = true;
    maintenance_enabled_ = false;
    joiner = std::move(maintenance_);
  }
  work_cv_.SignalAll();
  if (joiner.joinable()) joiner.join();
}

void VersionSet::MaintenanceLoop() {
  for (;;) {
    bool do_compact = false;
    {
      common::MutexLock lock(&mu_);
      work_cv_.Wait(&mu_, [this]() RDFREF_REQUIRES(mu_) {
        return stop_maintenance_ ||
               head_.size() >= options_.freeze_threshold ||
               current_->runs.size() >= options_.compact_min_runs;
      });
      if (stop_maintenance_) return;
      if (head_.size() >= options_.freeze_threshold) FreezeLocked();
      do_compact = current_->runs.size() >= options_.compact_min_runs;
    }
    // Compaction re-acquires the lock only to capture and to publish; the
    // merge itself never blocks writers or snapshot pinning.
    if (do_compact) Compact();
  }
}

size_t VersionSet::head_size() const {
  common::MutexLock lock(&mu_);
  return head_.size();
}

size_t VersionSet::num_runs() const {
  common::MutexLock lock(&mu_);
  return current_->runs.size();
}

}  // namespace storage
}  // namespace rdfref
