#ifndef RDFREF_FEDERATION_FEDERATION_H_
#define RDFREF_FEDERATION_FEDERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"
#include "federation/endpoint.h"
#include "query/cover.h"
#include "query/cq.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "schema/schema.h"
#include "storage/statistics.h"
#include "storage/store.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace federation {

/// \brief Mediator view over the endpoints: one TripleSource whose ScanInto
/// sends a pattern request to every endpoint in registration order (each
/// endpoint applying its answer cap) and whose dictionary is the shared
/// one. A non-null `local` store is the mediator's own data: its matches
/// follow the endpoints', uncapped.
class FederatedSource : public storage::TripleSource {
 public:
  FederatedSource(const rdf::Dictionary* dict,
                  const std::vector<std::unique_ptr<Endpoint>>* endpoints,
                  const storage::Store* local = nullptr)
      : dict_(dict), endpoints_(endpoints), local_(local) {}

  /// \brief Appends each endpoint's matches to `out`, in registration
  /// order, then the local store's. The inherited Scan iterates this
  /// buffer.
  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override;
  /// \brief Cost-model cardinality: per-endpoint match counts clamped to
  /// each endpoint's answer cap, plus the local store's count — estimates
  /// match what ScanInto returns.
  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override;
  const rdf::Dictionary& dict() const override { return *dict_; }

 private:
  const rdf::Dictionary* dict_;
  const std::vector<std::unique_ptr<Endpoint>>* endpoints_;
  const storage::Store* local_;
};

/// \brief A federation of independent RDF endpoints, per the motivation of
/// Section 1: "Semantic Web data is often split across independent
/// [sources] ... implicit facts may be due to the presence of one fact in
/// one endpoint, and a constraint in another. Computing the complete
/// (distributed) set of consequences in this setting is unfeasible" —
/// which is exactly why reformulation-based answering matters.
///
/// The federation interns every endpoint's values into one shared
/// dictionary (URIs are global), gathers the *mediated schema* (the union
/// of all endpoints' constraint triples, saturated), and answers queries by
/// reformulating against that schema and evaluating over the mediator
/// source. Saturation is impossible here by construction: no endpoint may
/// be written to.
///
/// AddEndpoint is a setup step; the const methods may then run from
/// several threads at once.
class Federation {
 public:
  Federation() = default;

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// \brief Registers a source. Its triples are re-encoded against the
  /// shared dictionary; with options.locally_saturated the endpoint's data
  /// is saturated with the endpoint's own constraints first (sources
  /// "may or may not be saturated").
  void AddEndpoint(const std::string& name, const rdf::Graph& graph,
                   EndpointOptions options = {});

  /// \brief Answers q completely via reformulation against the mediated
  /// schema, over the endpoints plus the mediated schema's closure (so
  /// schema-position atoms are answerable). With `cover == nullptr`, GCov
  /// picks the cover; otherwise the given cover is used.
  Result<engine::Table> Answer(const query::Cq& q,
                               const query::Cover* cover = nullptr) const;

  /// \brief Evaluates q against the endpoints without any reasoning
  /// (what a naive mediator would return — incomplete).
  [[nodiscard]] engine::Table EvaluateWithoutReasoning(
      const query::Cq& q) const;

  /// \brief Shared dictionary, for parsing queries against the federation.
  rdf::Dictionary& dict() { return dict_; }

  /// \brief The mediated (saturated) schema.
  const schema::Schema& schema() const { return schema_; }

  /// \brief The endpoints as published: the naive mediator's source.
  const FederatedSource& source() const { return source_; }
  /// \brief The registered endpoints, in registration order.
  const std::vector<std::unique_ptr<Endpoint>>& endpoints() const {
    return endpoints_;
  }

  /// \brief Summed statistics across endpoints and the mediated schema's
  /// closure (counts add exactly; distinct counts add as an upper bound) —
  /// the mediator's cost-model input.
  storage::Statistics MergedStatistics() const;

 private:
  rdf::Dictionary dict_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  schema::Schema schema_;
  // The mediated schema's constraint triples, rebuilt by AddEndpoint.
  // Mediator-local: never rate-limited, and not an endpoint.
  storage::Store schema_store_{&dict_, std::vector<rdf::Triple>{}};
  FederatedSource source_{&dict_, &endpoints_};
  FederatedSource mediator_{&dict_, &endpoints_, &schema_store_};
};

}  // namespace federation
}  // namespace rdfref

#endif  // RDFREF_FEDERATION_FEDERATION_H_
