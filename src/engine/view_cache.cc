#include "engine/view_cache.h"

#include <algorithm>
#include <utility>

#include "engine/scan_cache.h"
#include "query/canonical.h"

namespace rdfref {
namespace engine {

// ---------------------------------------------------------------------------
// ViewFootprint
// ---------------------------------------------------------------------------

void ViewFootprint::AddAtoms(const query::Cq& q) {
  for (const query::Atom& a : q.body()) {
    patterns_.push_back(AtomPattern(a));
    if (a.range_pos == query::Atom::kRangeP || a.p.is_var) {
      any_property_ = true;
    } else {
      properties_.insert(a.p.term());
    }
  }
}

void ViewFootprint::Normalize() {
  std::sort(patterns_.begin(), patterns_.end());
  patterns_.erase(std::unique(patterns_.begin(), patterns_.end()),
                  patterns_.end());
}

void ViewFootprint::AddCq(const query::Cq& q) {
  AddAtoms(q);
  Normalize();
}

void ViewFootprint::AddUcq(const query::Ucq& ucq) {
  for (const query::Cq& member : ucq.members()) AddAtoms(member);
  Normalize();
}

bool ViewFootprint::MayTouch(const rdf::Triple& t) const {
  if (!any_property_ && properties_.find(t.p) == properties_.end()) {
    return false;
  }
  return std::any_of(
      patterns_.begin(), patterns_.end(),
      [&t](const storage::Pattern& pat) { return pat.Matches(t); });
}

// ---------------------------------------------------------------------------
// ViewCache
// ---------------------------------------------------------------------------

ViewCache::ViewCache(const ViewCacheOptions& options) : options_(options) {}

ViewKey ViewCache::KeyFor(const query::Cq& view_query,
                          const query::Ucq& plan) const {
  ViewKey key;
  key.canonical = query::Canonicalize(view_query).key;
  if (plan.empty() || plan.size() > options_.max_plan_members) return key;
  key.full = key.canonical + '|' + query::UcqPlanKey(plan);
  return key;
}

bool ViewCache::AdvanceLocked(Entry* e, uint64_t target) {
  if (target <= e->valid_hi) return true;
  if (e->capped) return false;
  // The window holds consecutive epochs front..applied_epoch_; the entry
  // needs (valid_hi, target]. When the writes just past its edge have
  // already scrolled out, the entry can never prove itself current again.
  if (writes_.empty() || writes_.front().epoch > e->valid_hi + 1) {
    e->capped = true;
    ++stats_.invalidations;
    return false;
  }
  size_t idx = static_cast<size_t>(e->valid_hi + 1 - writes_.front().epoch);
  while (e->valid_hi < target && idx < writes_.size()) {
    const WriteRec& w = writes_[idx];
    if (e->footprint.MayTouch(w.triple)) {
      e->capped = true;
      ++stats_.invalidations;
      return false;
    }
    e->valid_hi = w.epoch;
    ++idx;
  }
  return e->valid_hi >= target;
}

std::optional<Table> ViewCache::Lookup(const std::string& full_key,
                                       uint64_t epoch) {
  std::shared_ptr<Entry> hit;
  {
    common::MutexLock lock(&mu_);
    auto it = entries_.find(full_key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    Entry* e = it->second.get();
    if (epoch < e->computed_epoch || !AdvanceLocked(e, epoch)) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    ++e->hits;
    e->last_use = ++tick_;
    hit = it->second;
  }
  // Payloads are immutable after install and shared_ptr-held, so the copy
  // runs outside the lock and survives a concurrent eviction.
  return hit->table;
}

bool ViewCache::MakeRoomLocked(size_t needed) {
  if (needed > options_.byte_budget) return false;
  while (bytes_ + needed > options_.byte_budget) {
    auto victim = entries_.end();
    // Eviction order: non-preferred before preferred, capped (dead to new
    // epochs) before live, then lowest benefit, LRU-tiebroken.
    std::tuple<bool, bool, double, uint64_t> best_score{};
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& e = *it->second;
      double benefit = e.fill_millis * (1.0 + static_cast<double>(e.hits)) /
                       static_cast<double>(e.bytes ? e.bytes : 1);
      std::tuple<bool, bool, double, uint64_t> score{e.preferred, !e.capped,
                                                     benefit, e.last_use};
      if (victim == entries_.end() || score < best_score) {
        victim = it;
        best_score = score;
      }
    }
    if (victim == entries_.end()) return false;
    bytes_ -= victim->second->bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }
  return true;
}

void ViewCache::Install(const ViewKey& key, uint64_t epoch,
                        const Table& result, ViewFootprint footprint,
                        double fill_millis) {
  if (!key.ok()) return;
  // Copy the payload before taking the lock: a large result must not
  // serialize concurrent probes (same discipline as ScanCache fills).
  auto entry = std::make_shared<Entry>();
  entry->table = result;
  entry->footprint = std::move(footprint);
  entry->bytes =
      result.data().size() * sizeof(rdf::TermId) +
      result.columns.size() * sizeof(query::VarId) + sizeof(Entry) +
      key.full.size() + key.canonical.size() +
      entry->footprint.patterns().size() * sizeof(storage::Pattern);
  entry->canonical_key = key.canonical;
  entry->computed_epoch = epoch;
  entry->valid_hi = epoch;
  entry->fill_millis = fill_millis;

  common::MutexLock lock(&mu_);
  entry->preferred = preferred_.find(key.canonical) != preferred_.end();
  // Bind the window to the present if the write log can prove the result
  // unaffected by writes that landed while it was being computed.
  AdvanceLocked(entry.get(), applied_epoch_);
  auto it = entries_.find(key.full);
  if (it != entries_.end()) {
    const Entry& old = *it->second;
    // A capped incumbent below this fill's window is dead to every epoch
    // the cache will ever be probed at again: replace it, or the one
    // invalidation would poison the key forever. A live incumbent wins
    // over the racing fill (first insert wins).
    if (!(old.capped && old.valid_hi < entry->computed_epoch)) {
      ++stats_.lost_races;
      return;
    }
    bytes_ -= old.bytes;
    entries_.erase(it);
  }
  if (!MakeRoomLocked(entry->bytes)) {
    ++stats_.rejected;
    return;
  }
  bytes_ += entry->bytes;
  ++stats_.installs;
  entries_.emplace(key.full, std::move(entry));
}

void ViewCache::OnEpochWrite(const rdf::Triple& t, uint64_t epoch,
                             bool /*added*/) {
  // Adds and removes invalidate identically: any visibility change inside
  // a view's footprint may change its answer.
  common::MutexLock lock(&mu_);
  writes_.push_back(WriteRec{epoch, t});
  while (writes_.size() > options_.write_log_window) writes_.pop_front();
  applied_epoch_ = epoch;
}

void ViewCache::SetPreferred(std::vector<std::string> canonical_keys) {
  common::MutexLock lock(&mu_);
  preferred_.clear();
  preferred_.insert(std::make_move_iterator(canonical_keys.begin()),
                    std::make_move_iterator(canonical_keys.end()));
  for (auto& [full, entry] : entries_) {
    entry->preferred = preferred_.find(entry->canonical_key) != preferred_.end();
  }
}

void ViewCache::Clear() {
  common::MutexLock lock(&mu_);
  entries_.clear();
  writes_.clear();
  preferred_.clear();
  applied_epoch_ = 0;
  bytes_ = 0;
}

ViewCacheStats ViewCache::Stats() const {
  common::MutexLock lock(&mu_);
  ViewCacheStats out = stats_;
  out.bytes = bytes_;
  out.entries = entries_.size();
  return out;
}

}  // namespace engine
}  // namespace rdfref
