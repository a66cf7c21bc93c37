// Experiment T4 — demo step 3: "the space of explored alternatives, and
// their estimated costs". For small queries, enumerate all partition
// covers, compare the cost model's estimate against measured evaluation
// time (rank agreement), and check where GCov's pick lands. A regret
// table then prices GCov's pick for the LUBM suite, Example 1 and the
// sp2b templates: its evaluation time over the best of every connected
// partition cover, REF-UCQ and REF-SCQ (1.00 = GCov picked the best).
//
// Expected shape (EDBT'15): JUCQ alternatives differ by orders of
// magnitude; the cost model ranks them well enough that the greedy pick is
// at or near the measured optimum.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"

namespace rdfref {
namespace bench {
namespace {

struct CoverPoint {
  query::Cover cover;
  double estimated;
  double measured_ms;
};

void PrintCoverSpace() {
  api::QueryAnswerer* answerer = SharedLubm();
  query::Cq q = ParseUb(
      answerer,
      "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . "
      "?x ub:mastersDegreeFrom <http://www.University1.edu> . "
      "?x ub:memberOf ?z . }");

  reformulation::Reformulator reformulator(&answerer->schema());
  cost::CostModel cost_model(&answerer->ref_store().stats());
  optimizer::CoverOptimizer optimizer(&reformulator, &cost_model);

  auto covers = optimizer.EnumeratePartitionCovers(q);
  if (!covers.ok()) {
    std::printf("enumeration failed: %s\n",
                covers.status().ToString().c_str());
    return;
  }

  std::printf("\n== T4: cover space — estimated cost vs measured time ==\n");
  std::printf("%-24s %14s %14s %9s\n", "cover", "est. cost", "measured(ms)",
              "answers");
  std::vector<CoverPoint> points;
  for (const query::Cover& cover : *covers) {
    auto estimate = optimizer.CostOfCover(q, cover);
    if (!estimate.ok()) continue;
    api::AnswerOptions options;
    options.cover = cover;
    // Median-of-3 measurement.
    double best_ms = 1e18;
    size_t answers = 0;
    for (int rep = 0; rep < 3; ++rep) {
      api::AnswerProfile profile;
      auto table =
          answerer->Answer(q, api::Strategy::kRefJucq, &profile, options);
      if (!table.ok()) break;
      best_ms = std::min(best_ms, profile.eval_millis);
      answers = table->NumRows();
    }
    std::printf("%-24s %14.0f %14.3f %9zu\n", cover.ToString().c_str(),
                *estimate, best_ms, answers);
    points.push_back({cover, *estimate, best_ms});
  }

  // Rank agreement between estimate and measurement (Kendall tau-a).
  int concordant = 0, discordant = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      double de = points[i].estimated - points[j].estimated;
      double dm = points[i].measured_ms - points[j].measured_ms;
      if (de * dm > 0) {
        ++concordant;
      } else if (de * dm < 0) {
        ++discordant;
      }
    }
  }
  if (concordant + discordant > 0) {
    std::printf("Kendall tau-a (estimate vs measurement): %.2f\n",
                static_cast<double>(concordant - discordant) /
                    (concordant + discordant));
  }

  // Where does GCov land?
  optimizer::GcovTrace trace;
  auto chosen = optimizer.Greedy(q, &trace);
  if (chosen.ok() && !points.empty()) {
    auto best = std::min_element(points.begin(), points.end(),
                                 [](const CoverPoint& a, const CoverPoint& b) {
                                   return a.measured_ms < b.measured_ms;
                                 });
    double chosen_ms = -1;
    for (const CoverPoint& p : points) {
      if (p.cover == *chosen) chosen_ms = p.measured_ms;
    }
    if (chosen_ms < 0) {
      // The greedy pick uses overlapping fragments, outside the partition
      // sample: measure it directly.
      api::AnswerOptions options;
      options.cover = *chosen;
      api::AnswerProfile profile;
      auto table =
          answerer->Answer(q, api::Strategy::kRefJucq, &profile, options);
      if (table.ok()) chosen_ms = profile.eval_millis;
    }
    std::printf("GCov chose %s (measured %.3f ms); measured partition "
                "optimum %s (%.3f ms); explored %zu covers\n\n",
                chosen->ToString().c_str(), chosen_ms,
                best->cover.ToString().c_str(), best->measured_ms,
                trace.explored.size());
  }
}

// Best of three evaluations of an already prepared plan (the first call
// prepares and is not counted); a negative time when the strategy fails.
double EvalMillis(api::QueryAnswerer* answerer, const query::Cq& q,
                  api::Strategy strategy, const query::Cover& cover = {}) {
  api::AnswerOptions options;
  options.cover = cover;
  if (!answerer->Answer(q, strategy, nullptr, options).ok()) return -1.0;
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    api::AnswerProfile profile;
    if (!answerer->Answer(q, strategy, &profile, options).ok()) return -1.0;
    best = std::min(best, profile.eval_millis);
  }
  return best;
}

void PrintRegretRow(api::QueryAnswerer* answerer, const std::string& name,
                    const query::Cq& q) {
  reformulation::Reformulator reformulator(&answerer->schema(), {},
                                           &answerer->dict());
  cost::CostModel cost_model(&answerer->ref_store().stats());
  optimizer::CoverOptimizer optimizer(&reformulator, &cost_model);
  Result<query::Cover> gcov = optimizer.Greedy(q);
  Result<std::vector<query::Cover>> covers =
      optimizer.EnumeratePartitionCovers(q);
  if (!gcov.ok() || !covers.ok()) {
    std::printf("%-22s search failed\n", name.c_str());
    return;
  }
  const double gcov_ms =
      EvalMillis(answerer, q, api::Strategy::kRefJucq, *gcov);
  std::string best_name = "REF-UCQ";
  double best_ms = EvalMillis(answerer, q, api::Strategy::kRefUcq);
  const double ucq_ms = best_ms;
  const double scq_ms = EvalMillis(answerer, q, api::Strategy::kRefScq);
  auto consider = [&](const std::string& label, double ms) {
    if (ms >= 0 && (best_ms < 0 || ms < best_ms)) {
      best_name = label;
      best_ms = ms;
    }
  };
  consider("REF-SCQ", scq_ms);
  for (const query::Cover& cover : *covers) {
    consider(cover.ToString(),
             EvalMillis(answerer, q, api::Strategy::kRefJucq, cover));
  }
  std::printf("%-22s %-22s %9.3f %9.3f %9.3f %-22s %9.3f %7.2f\n",
              name.c_str(), gcov->ToString().c_str(), gcov_ms, ucq_ms, scq_ms,
              best_name.c_str(), best_ms,
              best_ms > 0 ? gcov_ms / best_ms : 1.0);
}

void PrintRegretTable() {
  std::printf("\n== T4: GCov regret (evaluation ms, best of 3) ==\n");
  std::printf("%-22s %-22s %9s %9s %9s %-22s %9s %7s\n", "query", "GCov cover",
              "GCov", "REF-UCQ", "REF-SCQ", "best", "best", "regret");
  api::QueryAnswerer* lubm = SharedLubm();
  for (const auto& [name, text] : LubmQuerySuite()) {
    PrintRegretRow(lubm, name, ParseUb(lubm, text));
  }
  PrintRegretRow(lubm, "Example1", Example1Query(lubm));
  // The sp2b-rw dataset: 2,000 documents.
  api::QueryAnswerer* sp2b = SharedSp2b(2.0);
  for (const auto& [name, text] : Sp2bTemplateSuite()) {
    Result<query::Cq> q = query::ParseSparql(text, &sp2b->dict());
    if (q.ok()) PrintRegretRow(sp2b, name, *q);
  }
  std::printf("\n");
}

void BM_CostOfCover(benchmark::State& state) {
  api::QueryAnswerer* answerer = SharedLubm();
  query::Cq q = ParseUb(
      answerer,
      "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . "
      "?x ub:mastersDegreeFrom <http://www.University1.edu> . "
      "?x ub:memberOf ?z . }");
  reformulation::Reformulator reformulator(&answerer->schema());
  cost::CostModel cost_model(&answerer->ref_store().stats());
  optimizer::CoverOptimizer optimizer(&reformulator, &cost_model);
  query::Cover cover({{0, 1}, {1, 2}});
  for (auto _ : state) {
    auto cost = optimizer.CostOfCover(q, cover);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_CostOfCover)->Unit(benchmark::kMicrosecond);

void BM_GreedySearch(benchmark::State& state) {
  api::QueryAnswerer* answerer = SharedLubm();
  query::Cq q = Example1Query(answerer);
  reformulation::Reformulator reformulator(&answerer->schema());
  cost::CostModel cost_model(&answerer->ref_store().stats());
  optimizer::CoverOptimizer optimizer(&reformulator, &cost_model);
  for (auto _ : state) {
    auto cover = optimizer.Greedy(q);
    benchmark::DoNotOptimize(cover);
  }
}
BENCHMARK(BM_GreedySearch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace rdfref

int main(int argc, char** argv) {
  rdfref::bench::PrintCoverSpace();
  rdfref::bench::PrintRegretTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
