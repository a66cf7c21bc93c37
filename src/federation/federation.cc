#include "federation/federation.h"

#include <deque>
#include <span>
#include <unordered_set>
#include <utility>

#include "cost/cost_model.h"
#include "engine/evaluator.h"
#include "optimizer/gcov.h"
#include "reformulation/reformulator.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace federation {

namespace {

/// Adds the constraint triples among `triples` to `schema` (unsaturated).
void AddConstraints(const std::vector<rdf::Triple>& triples,
                    schema::Schema* schema) {
  for (const rdf::Triple& t : triples) {
    switch (t.p) {
      case rdf::vocab::kSubClassOfId:
        schema->AddSubClass(t.s, t.o);
        break;
      case rdf::vocab::kSubPropertyOfId:
        schema->AddSubProperty(t.s, t.o);
        break;
      case rdf::vocab::kDomainId:
        schema->AddDomain(t.s, t.o);
        break;
      case rdf::vocab::kRangeId:
        schema->AddRange(t.s, t.o);
        break;
      default:
        break;
    }
  }
}

/// Saturates a triple vector in place with the given (saturated) local
/// schema — the endpoint-side variant of reasoner::Saturator, operating on
/// shared-dictionary triples rather than an owning Graph.
void SaturateTriples(const schema::Schema& local, const rdf::Dictionary& dict,
                     std::vector<rdf::Triple>* triples) {
  std::unordered_set<rdf::Triple, rdf::TripleHash> have(triples->begin(),
                                                        triples->end());
  std::deque<rdf::Triple> worklist(triples->begin(), triples->end());
  auto add = [&](const rdf::Triple& t) {
    if (have.insert(t).second) {
      triples->push_back(t);
      worklist.push_back(t);
    }
  };
  while (!worklist.empty()) {
    rdf::Triple t = worklist.front();
    worklist.pop_front();
    if (t.p == rdf::vocab::kTypeId) {
      for (rdf::TermId super : local.SuperClassesOf(t.o)) {
        add(rdf::Triple(t.s, rdf::vocab::kTypeId, super));
      }
    } else if (!rdf::vocab::IsSchemaProperty(t.p)) {
      for (rdf::TermId super : local.SuperPropertiesOf(t.p)) {
        add(rdf::Triple(t.s, super, t.o));
      }
      for (rdf::TermId c : local.DomainsOf(t.p)) {
        add(rdf::Triple(t.s, rdf::vocab::kTypeId, c));
      }
      if (!dict.Lookup(t.o).is_literal()) {
        for (rdf::TermId c : local.RangesOf(t.p)) {
          add(rdf::Triple(t.o, rdf::vocab::kTypeId, c));
        }
      }
    }
  }
}

/// All constraint triples of a (saturated) schema as a vector.
std::vector<rdf::Triple> SchemaTriples(const schema::Schema& schema) {
  std::vector<rdf::Triple> out;
  for (const auto& [super, subs] : schema.sub_class_map()) {
    for (rdf::TermId sub : subs) {
      out.emplace_back(sub, rdf::vocab::kSubClassOfId, super);
    }
  }
  for (const auto& [super, subs] : schema.sub_property_map()) {
    for (rdf::TermId sub : subs) {
      out.emplace_back(sub, rdf::vocab::kSubPropertyOfId, super);
    }
  }
  for (const auto& [p, classes] : schema.domain_map()) {
    for (rdf::TermId c : classes) {
      out.emplace_back(p, rdf::vocab::kDomainId, c);
    }
  }
  for (const auto& [p, classes] : schema.range_map()) {
    for (rdf::TermId c : classes) {
      out.emplace_back(p, rdf::vocab::kRangeId, c);
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// FederatedSource
// ---------------------------------------------------------------------------

void FederatedSource::ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                               std::vector<rdf::Triple>* out) const {
  out->clear();
  for (const std::unique_ptr<Endpoint>& ep : *endpoints_) {
    ep->Request(s, p, o, out);
  }
  if (local_ != nullptr) {
    std::span<const rdf::Triple> range;
    local_->Lookup({s, p, o}, &range);
    out->insert(out->end(), range.begin(), range.end());
  }
}

size_t FederatedSource::CountMatches(rdf::TermId s, rdf::TermId p,
                                     rdf::TermId o) const {
  size_t total = local_ != nullptr ? local_->CountMatches(s, p, o) : 0;
  for (const std::unique_ptr<Endpoint>& ep : *endpoints_) {
    total += ep->CountMatches(s, p, o);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Federation
// ---------------------------------------------------------------------------

void Federation::AddEndpoint(const std::string& name,
                             const rdf::Graph& graph,
                             EndpointOptions options) {
  // Re-encode the endpoint's triples against the shared dictionary (the
  // built-ins keep their stable ids, so constraints stay recognizable).
  std::vector<rdf::Triple> triples;
  triples.reserve(graph.size());
  const rdf::Dictionary& source_dict = graph.dict();
  for (const rdf::Triple& t : graph.triples()) {
    triples.emplace_back(dict_.Intern(source_dict.Lookup(t.s)),
                         dict_.Intern(source_dict.Lookup(t.p)),
                         dict_.Intern(source_dict.Lookup(t.o)));
  }

  if (options.locally_saturated) {
    // The endpoint saturated with its *own* constraints only.
    schema::Schema local;
    AddConstraints(triples, &local);
    local.Saturate();
    SaturateTriples(local, dict_, &triples);
  }

  // Fold the endpoint's constraints into the mediated schema.
  AddConstraints(triples, &schema_);
  schema_.Saturate();

  schema_store_ = storage::Store(&dict_, SchemaTriples(schema_));

  endpoints_.push_back(std::make_unique<Endpoint>(
      name, std::make_unique<storage::Store>(&dict_, std::move(triples)),
      options));
}

Result<engine::Table> Federation::Answer(const query::Cq& q,
                                         const query::Cover* cover) const {
  if (endpoints_.empty()) {
    return Status::InvalidArgument("federation has no endpoints");
  }
  reformulation::Reformulator reformulator(&schema_, {}, &dict_);
  query::Cover chosen;
  if (cover != nullptr) {
    chosen = *cover;
  } else {
    storage::Statistics merged = MergedStatistics();
    cost::CostModel cost_model(&merged);
    optimizer::CoverOptimizer optimizer(&reformulator, &cost_model);
    RDFREF_ASSIGN_OR_RETURN(chosen, optimizer.Greedy(q));
  }
  RDFREF_RETURN_NOT_OK(chosen.Validate(q));

  std::vector<query::Cq> fragment_queries = chosen.FragmentQueries(q);
  std::vector<query::Ucq> fragment_ucqs;
  fragment_ucqs.reserve(fragment_queries.size());
  for (const query::Cq& fq : fragment_queries) {
    RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq, reformulator.Reformulate(fq));
    fragment_ucqs.push_back(std::move(ucq));
  }
  engine::Evaluator evaluator(&mediator_);
  return evaluator.EvaluateJucq(q, fragment_queries, fragment_ucqs);
}

engine::Table Federation::EvaluateWithoutReasoning(const query::Cq& q) const {
  engine::Evaluator evaluator(&source_);
  return evaluator.EvaluateCq(q);
}

storage::Statistics Federation::MergedStatistics() const {
  storage::Statistics merged;
  for (const std::unique_ptr<Endpoint>& ep : endpoints_) {
    merged.Absorb(ep->store().stats());
  }
  merged.Absorb(schema_store_.stats());
  return merged;
}

}  // namespace federation
}  // namespace rdfref
