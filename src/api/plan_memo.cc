#include "api/plan_memo.h"

namespace rdfref {
namespace api {

std::shared_ptr<const QueryPlan> PlanMemo::Find(const std::string& key) {
  common::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PlanMemo::Insert(std::string key, std::shared_ptr<const QueryPlan> plan) {
  if (plan->total_cqs > kMaxCqs) return;
  common::MutexLock lock(&mu_);
  if (index_.count(key) > 0) return;  // a concurrent miss got here first
  cqs_ += plan->total_cqs;
  lru_.emplace_front(std::move(key), std::move(plan));
  index_.emplace(lru_.front().first, lru_.begin());
  EvictLocked();
}

void PlanMemo::EvictLocked() {
  while (lru_.size() > kMaxEntries || cqs_ > kMaxCqs) {
    const Entry& victim = lru_.back();
    cqs_ -= victim.second->total_cqs;
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanMemo::Clear() {
  common::MutexLock lock(&mu_);
  index_.clear();
  lru_.clear();
  cqs_ = 0;
}

PlanMemoStats PlanMemo::Stats() const {
  common::MutexLock lock(&mu_);
  PlanMemoStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace api
}  // namespace rdfref
