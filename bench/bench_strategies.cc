// Experiment T1 — demo step 2: answer a query suite "through all the
// available systems, to compare their performance and completeness".
// Rows: query × strategy → answers, prepare ms, eval ms, #CQs.
//
// Expected shape: Sat pays saturation once then evaluates fastest;
// Ref-UCQ suffers on reformulation-heavy queries; Ref-GCov tracks the best
// cover; Dat pays the closure once; incomplete Ref loses answers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_common.h"

namespace rdfref {
namespace bench {
namespace {

void PrintStrategyTable() {
  api::QueryAnswerer* answerer = SharedLubm();
  // Force the one-time preparations first so per-query rows are warm.
  query::Cq warmup = ParseUb(answerer, "SELECT ?x WHERE { ?x a ub:Course . }");
  (void)answerer->Answer(warmup, api::Strategy::kSaturation);
  (void)answerer->Answer(warmup, api::Strategy::kDatalog);

  std::printf("\n== T1: strategy comparison across the query suite ==\n");
  std::printf("%-16s %-16s %9s %12s %12s %8s\n", "query", "system",
              "answers", "prepare(ms)", "eval(ms)", "#CQs");
  for (const auto& [name, text] : LubmQuerySuite()) {
    query::Cq q = ParseUb(answerer, text);
    for (api::Strategy s :
         {api::Strategy::kSaturation, api::Strategy::kRefUcq,
          api::Strategy::kRefScq, api::Strategy::kRefGcov,
          api::Strategy::kRefIncomplete, api::Strategy::kDatalog}) {
      api::AnswerProfile profile;
      auto table = answerer->Answer(q, s, &profile);
      if (!table.ok()) {
        std::printf("%-16s %-16s failed: %s\n", name.c_str(),
                    api::StrategyName(s),
                    table.status().ToString().c_str());
        continue;
      }
      std::printf("%-16s %-16s %9zu %12.2f %12.2f %8llu\n", name.c_str(),
                  api::StrategyName(s), table->NumRows(),
                  profile.prepare_millis, profile.eval_millis,
                  static_cast<unsigned long long>(
                      profile.reformulation_cqs));
    }
  }
  std::printf("\n");
}

void RunStrategy(benchmark::State& state, api::Strategy strategy,
                 const char* text) {
  api::QueryAnswerer* answerer = SharedLubm();
  query::Cq q = ParseUb(answerer, text);
  (void)answerer->Answer(q, strategy);  // warm one-time preparation
  for (auto _ : state) {
    auto table = answerer->Answer(q, strategy);
    benchmark::DoNotOptimize(table);
  }
}

constexpr const char* kQ6 =
    "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . ?x ub:memberOf ?z . }";

void BM_Q6_Sat(benchmark::State& state) {
  RunStrategy(state, api::Strategy::kSaturation, kQ6);
}
void BM_Q6_RefUcq(benchmark::State& state) {
  RunStrategy(state, api::Strategy::kRefUcq, kQ6);
}
void BM_Q6_RefScq(benchmark::State& state) {
  RunStrategy(state, api::Strategy::kRefScq, kQ6);
}
void BM_Q6_RefGcov(benchmark::State& state) {
  RunStrategy(state, api::Strategy::kRefGcov, kQ6);
}
void BM_Q6_Datalog(benchmark::State& state) {
  RunStrategy(state, api::Strategy::kDatalog, kQ6);
}
BENCHMARK(BM_Q6_Sat)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q6_RefUcq)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q6_RefScq)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q6_RefGcov)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q6_Datalog)->Unit(benchmark::kMillisecond);

// The type atom with a variable class, Example 1's `?x rdf:type ?u`: Sat
// reads it as one pattern, REF-UCQ as its 77-member union (53 distinct
// member bodies).
constexpr const char* kTypeAtom = "SELECT ?x ?u WHERE { ?x rdf:type ?u . }";

void BM_TypeAtom_Sat(benchmark::State& state) {
  RunStrategy(state, api::Strategy::kSaturation, kTypeAtom);
}
void BM_TypeAtom_RefUcq(benchmark::State& state) {
  RunStrategy(state, api::Strategy::kRefUcq, kTypeAtom);
}
BENCHMARK(BM_TypeAtom_Sat)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TypeAtom_RefUcq)->Unit(benchmark::kMillisecond);

// A3-coauthor-cites, the cyclic triangle of the sp2b-rw workload, read
// cold over its dataset (sp2b scale 2.0): REF-JUCQ with the single-fragment
// cover evaluates the whole triangle as one union on every iteration, with
// no view cache to replay it (a fresh answerer has none). The first call
// prepares the plan, so only evaluation is timed.
void BM_A3_SingleFragmentCold(benchmark::State& state) {
  api::QueryAnswerer* answerer = SharedSp2b(2.0);
  std::string text;
  for (const auto& [name, body] : Sp2bTemplateSuite()) {
    if (name == "A3-coauthor-cites") text = body;
  }
  Result<query::Cq> q = query::ParseSparql(text, &answerer->dict());
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  api::AnswerOptions options;
  options.cover = query::Cover::SingleFragment(3);
  options.use_view_cache = false;
  (void)answerer->Answer(*q, api::Strategy::kRefJucq, nullptr, options);
  for (auto _ : state) {
    auto table =
        answerer->Answer(*q, api::Strategy::kRefJucq, nullptr, options);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_A3_SingleFragmentCold)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace rdfref

int main(int argc, char** argv) {
  rdfref::bench::PrintStrategyTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
