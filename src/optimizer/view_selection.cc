#include "optimizer/view_selection.h"

#include <algorithm>
#include <map>
#include <utility>

#include "query/canonical.h"

namespace rdfref {
namespace optimizer {

namespace {
using query::CanonicalCq;
using query::Cq;
using query::Ucq;
}  // namespace

Result<ViewSelectionResult> ViewSelector::Select(
    const std::vector<WorkloadQueryProfile>& workload,
    const ViewSelectionOptions& options) const {
  // 1. Harvest: every query contributes its own body (the whole-union
  // view), bucketed by canonical form so α-equivalent queries pool their
  // traffic.
  struct Bucket {
    Cq representative;
    double frequency = 0.0;
  };
  std::map<std::string, Bucket> buckets;
  for (const WorkloadQueryProfile& wq : workload) {
    if (wq.cq.body().empty()) continue;
    CanonicalCq canon = query::Canonicalize(wq.cq);
    auto [it, inserted] =
        buckets.emplace(std::move(canon.key), Bucket{std::move(canon.cq), 0.0});
    it->second.frequency += wq.weight;
  }

  // 2. Score: cold cost is the reformulated union's evaluation cost, warm
  // cost a rescan of the materialized rows. Fragments whose reformulation
  // blows the budget are skipped — they cannot be materialized either.
  ViewSelectionResult result;
  const double scan_per_row = cost_model_->params().scan_per_row;
  for (auto& [key, bucket] : buckets) {
    Result<Ucq> ucq = reformulator_->Reformulate(bucket.representative);
    if (!ucq.ok()) continue;
    ViewCandidate c;
    c.canonical_key = key;
    c.frequency = bucket.frequency;
    c.eval_cost = cost_model_->CostUcq(*ucq);
    c.est_rows = cost_model_->EstimateUcqRows(*ucq);
    c.rescan_cost = c.est_rows * scan_per_row;
    c.est_bytes = c.est_rows *
                  static_cast<double>(bucket.representative.head().size()) *
                  sizeof(rdf::TermId);
    c.benefit = c.frequency * (c.eval_cost - c.rescan_cost);
    c.representative = std::move(bucket.representative);
    if (c.benefit > 0.0) result.candidates.push_back(std::move(c));
  }

  // 3. Pack the budget greedily by benefit density.
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const ViewCandidate& a, const ViewCandidate& b) {
              double da = a.benefit / (a.est_bytes + 1.0);
              double db = b.benefit / (b.est_bytes + 1.0);
              if (da != db) return da > db;
              return a.canonical_key < b.canonical_key;  // deterministic
            });
  double budget = static_cast<double>(options.byte_budget);
  for (ViewCandidate& c : result.candidates) {
    if (result.chosen_keys.size() >= options.max_views) break;
    if (c.est_bytes > budget) continue;
    c.chosen = true;
    budget -= c.est_bytes;
    result.chosen_keys.push_back(c.canonical_key);
    result.hints.cached_rows.emplace(c.canonical_key, c.est_rows);
    result.estimated_saving += c.benefit;
  }
  return result;
}

}  // namespace optimizer
}  // namespace rdfref
