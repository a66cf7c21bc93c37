#ifndef RDFREF_FEDERATION_ENDPOINT_H_
#define RDFREF_FEDERATION_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rdf/graph.h"
#include "storage/store.h"

namespace rdfref {
namespace federation {

/// \brief Behaviour of one independent RDF source.
struct EndpointOptions {
  /// Maximum triples returned per pattern request, 0 = unlimited. Models
  /// public SPARQL endpoints that "return only restricted answers (e.g.,
  /// the first 50) to a query, to avoid overloading their servers"
  /// (Section 1 of the paper).
  size_t max_answers_per_request = 0;
  /// Whether this source saturated its *local* data with its *local*
  /// constraints before publishing. Cross-endpoint consequences (a fact in
  /// one source entailed by a constraint in another) are still missing —
  /// that is precisely why "computing the complete (distributed) set of
  /// consequences in this setting is unfeasible".
  bool locally_saturated = false;
};

/// \brief An independent RDF endpoint, as in the Linked Open Data cloud:
/// its own triples, possibly its own constraints, possibly rate-limited.
///
/// Triples are encoded against the *federation's* shared dictionary (URIs
/// are global identifiers; the mediator interns them once).
class Endpoint {
 public:
  /// \brief Wraps a store whose triples are encoded against the shared
  /// federation dictionary (Federation::AddEndpoint builds it).
  Endpoint(std::string name, std::unique_ptr<storage::Store> store,
           EndpointOptions options)
      : name_(std::move(name)),
        options_(options),
        store_(std::move(store)) {}

  const std::string& name() const { return name_; }
  const EndpointOptions& options() const { return options_; }
  const storage::Store& store() const { return *store_; }

  /// \brief Pattern request: appends to `out` the first
  /// max_answers_per_request matches (all of them when uncapped), in the
  /// store's index order. Safe to call from several threads at once.
  void Request(rdf::TermId s, rdf::TermId p, rdf::TermId o,
               std::vector<rdf::Triple>* out) const;

  /// \brief How many triples a Request for this pattern delivers: the
  /// store's match count clamped to max_answers_per_request. This is what
  /// the mediator's cost model must use so estimated cardinalities match
  /// what Scan actually delivers.
  size_t CountMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o) const;

  /// \brief Total requests served (for the demo's cost displays).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  // Immutable after construction (safe to read from any thread).
  std::string name_;
  EndpointOptions options_;
  std::unique_ptr<storage::Store> store_;
  // A counter only: no other state is read with it, so relaxed suffices.
  mutable std::atomic<uint64_t> requests_served_{0};
};

}  // namespace federation
}  // namespace rdfref

#endif  // RDFREF_FEDERATION_ENDPOINT_H_
