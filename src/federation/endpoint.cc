#include "federation/endpoint.h"

#include <algorithm>
#include <span>

namespace rdfref {
namespace federation {

void Endpoint::Request(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                       std::vector<rdf::Triple>* out) const {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  // A Store serves every classic pattern as one index range; the cap
  // models a server that truncates its response to that range's prefix.
  std::span<const rdf::Triple> range;
  store_->Lookup({s, p, o}, &range);
  const size_t cap = options_.max_answers_per_request;
  if (cap != 0 && range.size() > cap) range = range.first(cap);
  out->insert(out->end(), range.begin(), range.end());
}

size_t Endpoint::CountMatches(rdf::TermId s, rdf::TermId p,
                              rdf::TermId o) const {
  size_t n = store_->CountMatches(s, p, o);
  const size_t cap = options_.max_answers_per_request;
  if (cap != 0) n = std::min(n, cap);
  return n;
}

}  // namespace federation
}  // namespace rdfref
