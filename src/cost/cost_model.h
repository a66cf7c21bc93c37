#ifndef RDFREF_COST_COST_MODEL_H_
#define RDFREF_COST_COST_MODEL_H_

#include <vector>

#include "cost/cardinality.h"
#include "query/cq.h"
#include "query/ucq.h"

namespace rdfref {
namespace cost {

/// \brief Unit costs of the textbook formulas. The absolute scale is
/// arbitrary (costs are only compared against one another); the ratios
/// model an RDBMS evaluating a JUCQ: scanning rows from a clustered index,
/// probing indexes in a nested-loop join, building/probing hash tables for
/// the fragment join, parsing/planning each union member, and eliminating
/// duplicates.
struct CostParams {
  double scan_per_row = 1.0;       ///< reading one row off an index
  double probe_per_row = 0.5;      ///< one index probe in an INLJ step
  double output_per_row = 0.2;     ///< producing one intermediate row
  double hash_build_per_row = 1.0; ///< building a hash table entry
  double hash_probe_per_row = 0.5; ///< probing the hash table
  double dedup_per_row = 0.2;      ///< duplicate elimination per row
  double per_union_member = 10.0;  ///< parse/plan overhead per member CQ
  /// Fraction of the non-largest members' rows that survive union
  /// deduplication (reformulation members overlap heavily).
  double union_overlap = 0.05;
  /// Correct star-join estimates with the attribute-pair distribution
  /// (Statistics::SubjectPairCount) instead of pure independence.
  bool use_pair_statistics = false;
};

/// \brief The cost estimation function `c` of the paper (Section 4): for a
/// JUCQ, returns the estimated cost of evaluating it through the RDBMS.
/// GCov minimizes this function over the space of covers.
class CostModel {
 public:
  CostModel(const storage::Statistics* stats, CostParams params = {})
      : estimator_(stats, params.use_pair_statistics), params_(params) {}

  /// \brief Cost of one CQ as a selectivity-ordered index nested-loop join
  /// in the engine's static greedy order (engine::Evaluator::AtomOrder),
  /// from statistics rather than index counts. The engine departs from
  /// that order per binding on cyclic joins: where two atoms would both
  /// bind a variable a third one needs, it opens the one with the fewest
  /// exact matches, and it opens a fully bound atom as soon as it can
  /// (DESIGN.md §9). The model keeps the static order: on such joins it
  /// can overestimate what the engine pays (a skewed triangle's static
  /// order scans the sum of squared degrees), and the departure never
  /// moves GCov's choice of cover.
  double CostCq(const query::Cq& q) const;

  /// \brief Cost of a UCQ: member costs + per-member overhead + union
  /// duplicate elimination.
  double CostUcq(const query::Ucq& ucq) const;

  /// \brief Per-fragment inputs of the JUCQ join-phase costing, so callers
  /// (notably GCov) can cache fragment reformulation costs across covers.
  struct FragmentCostInput {
    double eval_cost = 0.0;          ///< CostUcq of the fragment's UCQ
    double rows = 0.0;               ///< EstimateUcqRows of that UCQ
    const query::Cq* fragment_query = nullptr;  ///< the fragment subquery
  };

  /// \brief Full JUCQ strategy cost: evaluating every fragment UCQ, then
  /// hash-joining the fragment tables (smallest-first), then projecting.
  double CostJucq(const query::Cq& q,
                  const std::vector<query::Cq>& fragment_queries,
                  const std::vector<query::Ucq>& fragment_ucqs) const;

  /// \brief As CostJucq, from precomputed per-fragment costs.
  double CostJucqFromFragments(
      const std::vector<FragmentCostInput>& fragments) const;

  /// \brief Estimated result rows of a UCQ (sum of member estimates).
  double EstimateUcqRows(const query::Ucq& ucq) const;

  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostParams& params() const { return params_; }

 private:
  /// Estimated distinct values of `v` across the materialized result of
  /// `fragment` (bounded by the fragment cardinality estimate).
  double FragmentDistinct(const query::Cq& fragment, query::VarId v,
                          double fragment_rows) const;

  CardinalityEstimator estimator_;
  CostParams params_;
};

}  // namespace cost
}  // namespace rdfref

#endif  // RDFREF_COST_COST_MODEL_H_
