#ifndef RDFREF_TESTING_METAMORPHIC_H_
#define RDFREF_TESTING_METAMORPHIC_H_

#include <cstdint>

#include "common/hash.h"
#include "query/cq.h"
#include "testing/oracle.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// Metamorphic relations: transformations of an answering call whose result
/// is *known* to be invariant (or monotone), checked differentially. They
/// cross-check the subsystems the plain oracle never exercises — the
/// deadline plumbing, projection, the federation mediator, and
/// incremental (chase / DRed) maintenance.

/// \brief An explicit infinite deadline (and a generous finite one) must
/// not change answers — the in-scan cancellation polling is transparent.
Divergence CheckDeadlineInvariance(const Scenario& sc, const query::Cq& q);

/// \brief Partitioning the scenario's triples across `num_endpoints`
/// federation endpoints and answering through the mediator must
/// equal the centralized ground truth: implicit facts whose fact and
/// constraint land on *different* endpoints are exactly what reformulation
/// recovers. `seed` drives the random partition.
Divergence CheckFederationPartition(const Scenario& sc, const query::Cq& q,
                                    int num_endpoints, uint64_t seed);

/// \brief Projecting variables away: drops a non-empty proper subset of
/// q's head slots (drawn from `seed`; q needs two to 63 head slots) and
/// checks the projected query, whose body keeps variables its head lacks,
/// three ways: the columnar engine against the reference evaluator on the
/// plain CQ and on its UCQ reformulation, bit for bit; and every complete
/// strategy against the projection of Sat's answer to the full query. A
/// budget refusal (kResourceExhausted) of a reformulation or a strategy is
/// not compared: it adds one to `*refusals`, when non-null.
Divergence CheckProjection(const Scenario& sc, const query::Cq& q,
                           uint64_t seed, uint64_t* refusals = nullptr);

/// \brief Inserting random instance triples grows answers monotonically
/// (certain answers are preserved under graph growth), and all complete
/// strategies still agree after every insertion.
Divergence CheckInsertionMonotonicity(const Scenario& sc, const query::Cq& q,
                                      Rng* rng, int num_inserts);

/// \brief Random insert/delete sequence through the facade: after every
/// update, the incrementally maintained saturation (forward chase on
/// insert, DRed on delete) and every Ref strategy must equal a
/// from-scratch QueryAnswerer over the current explicit triples.
Divergence CheckUpdateConsistency(const Scenario& sc, const query::Cq& q,
                                  Rng* rng, int num_ops);

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_METAMORPHIC_H_
