// Experiment T3 — "reformulated queries may be syntactically huge"
// (Section 1): UCQ reformulation sizes, and what minimization keeps of
// them, for the LUBM suite, the fragments GCov picks for Example 1 and the
// sp2b templates.
//
// Each row prints the classic rule closure's size (no hierarchy encoding:
// the paper's measure, 318,096 for Example 1), the fused closure the
// engine starts from, the minimized union it evaluates, and the time of
// the closure and of minimization. The program exits non-zero when a
// minimized union is larger than its raw closure.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "query/minimize.h"

namespace rdfref {
namespace bench {
namespace {

// Prints one row; returns false when minimization grew the union.
bool PrintRow(api::QueryAnswerer* answerer, const std::string& name,
              const query::Cq& q) {
  const reformulation::Reformulator classic(&answerer->schema());
  const reformulation::Reformulator fused(&answerer->schema(), {},
                                          &answerer->dict());
  Result<uint64_t> count = classic.CountReformulations(q);
  Timer closure_timer;
  Result<query::Ucq> raw = fused.ReformulateUnminimized(q);
  const double closure_ms = closure_timer.ElapsedMillis();
  if (!raw.ok()) {
    std::printf("%-22s %s\n", name.c_str(), raw.status().ToString().c_str());
    return true;
  }
  const size_t raw_size = raw->size();
  Timer minimize_timer;
  const query::Ucq minimized =
      query::MinimizeUcq(std::move(*raw), &answerer->dict());
  const double minimize_ms = minimize_timer.ElapsedMillis();
  std::printf("%-22s %10s %9zu %9zu %11.3f %12.3f\n", name.c_str(),
              count.ok() ? std::to_string(*count).c_str() : "overflow",
              raw_size, minimized.size(), closure_ms, minimize_ms);
  if (minimized.size() > raw_size) {
    std::printf("  ERROR: minimization grew %s from %zu to %zu members\n",
                name.c_str(), raw_size, minimized.size());
    return false;
  }
  return true;
}

bool PrintReformulationSizes() {
  bool ok = true;
  api::QueryAnswerer* lubm = SharedLubm();
  std::printf("\n== T3: UCQ reformulation sizes ==\n");
  std::printf("%-22s %10s %9s %9s %11s %12s\n", "query", "classic", "raw",
              "minimized", "closure(ms)", "minimize(ms)");
  for (const auto& [name, text] : LubmQuerySuite()) {
    ok = PrintRow(lubm, name, ParseUb(lubm, text)) && ok;
  }

  // Example 1 as a whole (paper: 318,096 classic CQs), then each fragment
  // of the cover GCov picks for it.
  const query::Cq example1 = Example1Query(lubm);
  ok = PrintRow(lubm, "E1-query", example1) && ok;
  const reformulation::Reformulator fused(&lubm->schema(), {}, &lubm->dict());
  const cost::CostModel cost_model(&lubm->ref_store().stats());
  const optimizer::CoverOptimizer optimizer(&fused, &cost_model);
  Result<query::Cover> cover = optimizer.Greedy(example1);
  if (cover.ok()) {
    const std::vector<query::Cq> fragments = cover->FragmentQueries(example1);
    for (size_t f = 0; f < fragments.size(); ++f) {
      const query::Cover fragment({cover->fragments()[f]});
      ok = PrintRow(lubm, "E1-gcov" + fragment.ToString(), fragments[f]) && ok;
    }
  }

  // The sp2b-rw templates (scale 0.1).
  api::QueryAnswerer* sp2b = SharedSp2b();
  for (const auto& [name, text] : Sp2bTemplateSuite()) {
    Result<query::Cq> q = query::ParseSparql(text, &sp2b->dict());
    if (!q.ok()) {
      std::printf("%-22s %s\n", name.c_str(), q.status().ToString().c_str());
      ok = false;
      continue;
    }
    ok = PrintRow(sp2b, name, *q) && ok;
  }

  // Per-atom member counts of Example 1 (paper: (t1)ref and (t2)ref are
  // the dominant factors), classic closure.
  const reformulation::Reformulator classic(&lubm->schema());
  std::printf("\nper-atom reformulation sizes of the Example 1 query:\n");
  for (size_t i = 0; i < example1.body().size(); ++i) {
    size_t members =
        classic.ReformulateAtom(example1, example1.body()[i]).size();
    std::printf("  (t%zu)ref: %zu member(s)\n", i + 1, members);
  }
  std::printf("\n");
  return ok;
}

void BM_ReformulateSuiteQuery(benchmark::State& state) {
  api::QueryAnswerer* answerer = SharedLubm();
  const auto& suite = LubmQuerySuite();
  query::Cq q =
      ParseUb(answerer, suite[static_cast<size_t>(state.range(0))].second);
  reformulation::Reformulator reformulator(&answerer->schema());
  for (auto _ : state) {
    auto ucq = reformulator.Reformulate(q);
    benchmark::DoNotOptimize(ucq);
  }
}
BENCHMARK(BM_ReformulateSuiteQuery)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMicrosecond);

void BM_CountExample1(benchmark::State& state) {
  api::QueryAnswerer* answerer = SharedLubm();
  query::Cq q = Example1Query(answerer);
  reformulation::Reformulator reformulator(&answerer->schema());
  for (auto _ : state) {
    auto count = reformulator.CountReformulations(q);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_CountExample1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace rdfref

int main(int argc, char** argv) {
  if (!rdfref::bench::PrintReformulationSizes()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
