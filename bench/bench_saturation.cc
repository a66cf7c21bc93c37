// Experiment T2 — the Sat technique's costs (Section 1: "the saturation
// needs to be maintained after changes in the data and/or constraints,
// which may incur a performance penalty").
//
// Series: saturation time and size amplification vs dataset scale, and
// incremental-insert maintenance cost vs full re-saturation.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "reasoner/saturation.h"
#include "storage/version_set.h"

namespace rdfref {
namespace bench {
namespace {

rdf::Graph MakeLubm(int universities, double scale) {
  datagen::LubmConfig config;
  config.universities = universities;
  config.scale = scale;
  rdf::Graph graph;
  datagen::Lubm::Generate(config, &graph);
  return graph;
}

constexpr int kUpdates = 1000;

// kUpdates fresh `worksFor` facts about new people, interned in g's
// dictionary: every one is new to the graph, so each insert does its full
// maintenance work.
std::vector<rdf::Triple> FreshWorksFor(rdf::Graph* g) {
  rdf::TermId works = g->dict().InternUri(datagen::Lubm::Uri("worksFor"));
  rdf::TermId dept =
      g->dict().InternUri("http://www.Department0.University0.edu");
  std::vector<rdf::Triple> out;
  out.reserve(kUpdates);
  for (int i = 0; i < kUpdates; ++i) {
    rdf::TermId person = g->dict().InternUri("http://www.example.org/new" +
                                             std::to_string(i));
    out.emplace_back(person, works, dept);
  }
  return out;
}

void PrintSaturationSeries() {
  std::printf("\n== T2: saturation cost and maintenance ==\n");
  std::printf("%10s %12s %12s %12s %10s\n", "scale", "explicit",
              "saturated", "added", "time(ms)");
  for (double scale : {0.25, 0.5, 1.0, 2.0}) {
    rdf::Graph graph = MakeLubm(2, scale);
    schema::Schema schema = schema::Schema::FromGraph(graph);
    schema.Saturate();
    size_t explicit_triples = graph.size();
    Timer timer;
    reasoner::Saturator saturator(&schema);
    size_t added = saturator.Saturate(&graph);
    double millis = timer.ElapsedMillis();
    std::printf("%10.2f %12zu %12zu %12zu %10.2f\n", scale,
                explicit_triples, graph.size(), added, millis);
  }

  // Maintenance: inserting fresh triples into a saturated graph vs
  // re-saturating from scratch. One insert takes well under Timer's
  // microsecond resolution, so the batch is timed and the mean reported.
  std::printf("\nincremental maintenance (scale 1.0):\n");
  rdf::Graph graph = MakeLubm(2, 1.0);
  schema::Schema schema = schema::Schema::FromGraph(graph);
  schema.Saturate();
  reasoner::Saturator saturator(&schema);
  saturator.Saturate(&graph);

  const std::vector<rdf::Triple> inserts = FreshWorksFor(&graph);
  size_t added = 0;
  Timer insert_timer;
  for (const rdf::Triple& t : inserts) added += saturator.Insert(&graph, t);
  double insert_us =
      insert_timer.ElapsedMicros() / static_cast<double>(kUpdates);

  rdf::Graph fresh = MakeLubm(2, 1.0);
  fresh.Add(FreshWorksFor(&fresh).front());
  Timer resat_timer;
  saturator.Saturate(&fresh);
  double resat_ms = resat_timer.ElapsedMillis();
  std::printf("  one insert (mean of %d): %.1f derived triples in %.3f us; "
              "full re-saturation: %.2f ms (%.0fx)\n",
              kUpdates, static_cast<double>(added) / kUpdates, insert_us,
              resat_ms, insert_us > 0 ? resat_ms * 1000.0 / insert_us : 0.0);

  // Deletion maintenance (DRed): remove a high-fanout explicit fact.
  {
    rdf::Graph g = MakeLubm(2, 1.0);
    std::unordered_set<rdf::Triple, rdf::TripleHash> explicit_set(
        g.triples().begin(), g.triples().end());
    schema::Schema del_schema = schema::Schema::FromGraph(g);
    del_schema.Saturate();
    reasoner::Saturator del_sat(&del_schema);
    del_sat.Saturate(&g);
    // Delete the first worksFor fact we find.
    rdf::TermId works_for = g.dict().InternUri(
        datagen::Lubm::Uri("worksFor"));
    rdf::Triple victim;
    for (const rdf::Triple& t : g.SortedTriples()) {
      if (t.p == works_for && explicit_set.count(t)) {
        victim = t;
        break;
      }
    }
    explicit_set.erase(victim);
    Timer del_timer;
    size_t removed = del_sat.Delete(&g, victim, [&](const rdf::Triple& x) {
      return explicit_set.count(x) > 0;
    });
    double del_ms = del_timer.ElapsedMillis();
    std::printf("  one delete (DRed): %zu triples retracted in %.3f ms "
                "(vs %.2f ms re-saturation)\n",
                removed, del_ms, resat_ms);
  }

  // The Ref side of the same updates: the version-set write that
  // QueryAnswerer::InsertTriple makes, with no consequence chasing at all
  // (the paper's maintenance argument).
  {
    rdf::Graph g = MakeLubm(2, 1.0);
    storage::Store base(g);
    storage::VersionSet versions(&base);
    const std::vector<rdf::Triple> writes = FreshWorksFor(&g);
    Timer t;
    for (const rdf::Triple& w : writes) versions.Insert(w);
    std::printf("  Ref-side updates (VersionSet::Insert): %.3f us each — no "
                "maintenance needed\n\n",
                t.ElapsedMicros() / static_cast<double>(kUpdates));
  }
}

void BM_Saturate(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 4.0;
  for (auto _ : state) {
    state.PauseTiming();
    rdf::Graph graph = MakeLubm(1, scale);
    schema::Schema schema = schema::Schema::FromGraph(graph);
    schema.Saturate();
    reasoner::Saturator saturator(&schema);
    state.ResumeTiming();
    benchmark::DoNotOptimize(saturator.Saturate(&graph));
  }
}
BENCHMARK(BM_Saturate)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_IncrementalInsert(benchmark::State& state) {
  rdf::Graph graph = MakeLubm(1, 0.5);
  schema::Schema schema = schema::Schema::FromGraph(graph);
  schema.Saturate();
  reasoner::Saturator saturator(&schema);
  saturator.Saturate(&graph);
  rdf::TermId works =
      graph.dict().InternUri(datagen::Lubm::Uri("worksFor"));
  rdf::TermId dept =
      graph.dict().InternUri("http://www.Department0.University0.edu");
  uint64_t i = 0;
  for (auto _ : state) {
    rdf::TermId s = graph.dict().InternUri(
        "http://www.example.org/person" + std::to_string(i++));
    benchmark::DoNotOptimize(
        saturator.Insert(&graph, rdf::Triple(s, works, dept)));
  }
}
BENCHMARK(BM_IncrementalInsert)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace rdfref

int main(int argc, char** argv) {
  rdfref::bench::PrintSaturationSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
