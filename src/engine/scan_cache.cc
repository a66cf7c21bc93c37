#include "engine/scan_cache.h"

namespace rdfref {
namespace engine {

size_t ScanCache::Count(const storage::Pattern& pat) const {
  auto [it, inserted] = counts_.try_emplace(pat, 0);
  if (inserted) it->second = source_->CountPattern(pat);
  return it->second;
}

std::span<const rdf::Triple> ScanCache::Leaf(
    const storage::Pattern& pat) const {
  std::span<const rdf::Triple> range;
  if (source_->TryGetPattern(pat, &range)) return range;  // zero-copy
  std::unique_ptr<std::vector<rdf::Triple>>& leaf = leaves_[pat];
  if (leaf == nullptr) {
    leaf = std::make_unique<std::vector<rdf::Triple>>();
    source_->ScanPatternInto(pat, leaf.get());
  }
  return {leaf->data(), leaf->size()};
}

}  // namespace engine
}  // namespace rdfref
