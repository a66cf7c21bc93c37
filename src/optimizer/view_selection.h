#ifndef RDFREF_OPTIMIZER_VIEW_SELECTION_H_
#define RDFREF_OPTIMIZER_VIEW_SELECTION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "cost/cost_model.h"
#include "optimizer/gcov.h"
#include "query/cq.h"
#include "reformulation/reformulator.h"

namespace rdfref {
namespace optimizer {

/// \file
/// \brief Workload-driven view selection (DESIGN.md §15) — the RDFViewS
/// idea scoped to the view cache: given the workload mix, decide which
/// canonical CQ fragments are worth keeping materialized, so the cache can
/// protect them from eviction and GCov can align JUCQ covers with them.

/// \brief One query of the workload mix with its traffic share. The whole
/// query is the candidate view.
struct WorkloadQueryProfile {
  query::Cq cq;
  double weight = 1.0;  ///< relative frequency in the mix
};

/// \brief One candidate view with its scores.
struct ViewCandidate {
  std::string canonical_key;  ///< query::Canonicalize of the fragment
  query::Cq representative;   ///< the canonical fragment subquery
  double frequency = 0.0;     ///< weight-sum of mix entries using it
  double eval_cost = 0.0;     ///< CostUcq of its reformulation (cold cost)
  double rescan_cost = 0.0;   ///< est_rows × scan_per_row (warm cost)
  double est_rows = 0.0;
  double est_bytes = 0.0;
  /// frequency × (eval_cost − rescan_cost): workload cost saved per unit
  /// time by keeping this view warm.
  double benefit = 0.0;
  bool chosen = false;
};

struct ViewSelectionOptions {
  /// Byte budget the chosen set must fit (should match — or undershoot —
  /// the cache's ViewCacheOptions::byte_budget).
  size_t byte_budget = 64ull << 20;
  size_t max_views = 64;
};

struct ViewSelectionResult {
  /// Every scored candidate, highest benefit-density first.
  std::vector<ViewCandidate> candidates;
  /// Canonical keys of the chosen views (feed ViewCache::SetPreferred).
  std::vector<std::string> chosen_keys;
  /// Cover-alignment hints for the chosen views (feed CoverOptimizer).
  ViewHints hints;
  /// Σ benefit of the chosen set (model units; diagnostics).
  double estimated_saving = 0.0;
};

/// \brief Harvests canonical-query frequencies from the mix, scores
/// each candidate with the cost model (cold union evaluation vs warm
/// rescan), and greedily packs the byte budget by benefit density.
class ViewSelector {
 public:
  /// \brief Both pointees must outlive the selector.
  ViewSelector(const reformulation::Reformulator* reformulator,
               const cost::CostModel* cost_model)
      : reformulator_(reformulator), cost_model_(cost_model) {}

  Result<ViewSelectionResult> Select(
      const std::vector<WorkloadQueryProfile>& workload,
      const ViewSelectionOptions& options = {}) const;

 private:
  const reformulation::Reformulator* reformulator_;
  const cost::CostModel* cost_model_;
};

}  // namespace optimizer
}  // namespace rdfref

#endif  // RDFREF_OPTIMIZER_VIEW_SELECTION_H_
