#include "engine/scan_cache.h"

#include <utility>

namespace rdfref {
namespace engine {

size_t ScanCache::Count(const storage::Pattern& pat) const {
  {
    common::MutexLock lock(&mu_);
    auto it = counts_.find(pat);
    if (it != counts_.end()) return it->second;
  }
  // Compute outside the lock: a federation count fans out to every
  // endpoint, and sibling chunks must not queue behind it.
  const size_t count = source_->CountPattern(pat);
  common::MutexLock lock(&mu_);
  return counts_.emplace(pat, count).first->second;
}

std::span<const rdf::Triple> ScanCache::Leaf(
    const storage::Pattern& pat) const {
  std::span<const rdf::Triple> range;
  if (source_->TryGetPattern(pat, &range)) return range;  // zero-copy
  {
    common::MutexLock lock(&mu_);
    auto it = leaves_.find(pat);
    if (it != leaves_.end()) return {it->second->data(), it->second->size()};
  }
  auto owned = std::make_unique<std::vector<rdf::Triple>>();
  source_->ScanPatternInto(pat, owned.get());
  common::MutexLock lock(&mu_);
  auto it = leaves_.find(pat);
  if (it == leaves_.end()) {
    it = leaves_.emplace(pat, std::move(owned)).first;
  }
  // On a lost race `owned` is dropped: first insert wins, so every caller
  // sees one stable buffer.
  return {it->second->data(), it->second->size()};
}

}  // namespace engine
}  // namespace rdfref
