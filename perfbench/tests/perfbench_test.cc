// Tests of the benchmark's own code: determinism of the op sequences, the
// percentile rule, the span rollup, repeatable traced counts, and the
// answer checks catching a wrong expectation.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "bench_common.h"
#include "host_speed.h"
#include "ops.h"
#include "query/sparql_parser.h"
#include "runner.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

const WorkloadData& Data(Workload w) {
  static std::map<Workload, WorkloadData>* cache =
      new std::map<Workload, WorkloadData>();
  auto it = cache->find(w);
  if (it == cache->end()) it = cache->emplace(w, MakeWorkloadData(w)).first;
  return it->second;
}

constexpr Workload kAll[] = {Workload::kLubmMix, Workload::kSp2bRw};

TEST(OpsTest, SequenceIsAPureFunctionOfTheSeed) {
  for (Workload w : kAll) {
    const WorkloadData& data = Data(w);
    const std::vector<Op> a = MakeOps(data, 7, 6);
    EXPECT_EQ(a, MakeOps(data, 7, 6)) << WorkloadName(w);
    EXPECT_NE(a, MakeOps(data, 8, 6)) << WorkloadName(w);
    EXPECT_EQ(a.size(), 6 * data.deck_size());
  }
}

TEST(OpsTest, EveryDeckHoldsTheSameClassShares) {
  for (Workload w : kAll) {
    const WorkloadData& data = Data(w);
    std::map<uint16_t, int> want;
    for (uint16_t c : data.deck_reads) ++want[c];
    const std::vector<Op> ops = MakeOps(data, 3, 5);
    for (size_t d = 0; d < 5; ++d) {
      std::map<uint16_t, int> got;
      int writes = 0;
      for (size_t i = 0; i < data.deck_size(); ++i) {
        const Op& op = ops[d * data.deck_size() + i];
        if (op.kind == Op::kRead) {
          ++got[op.read_class];
        } else {
          ++writes;
        }
      }
      EXPECT_EQ(got, want) << WorkloadName(w) << " deck " << d;
      EXPECT_EQ(writes, data.writes_per_deck);
    }
  }
}

TEST(OpsTest, WritesKeepABoundedLiveSetOfFreshEdges) {
  const WorkloadData& data = Data(Workload::kSp2bRw);
  std::set<std::pair<uint32_t, uint32_t>> present(data.base_cites.begin(),
                                                  data.base_cites.end());
  std::deque<std::pair<uint32_t, uint32_t>> live;
  size_t inserts = 0, removes = 0;
  for (const Op& op : MakeOps(data, 11, 60)) {
    if (op.kind == Op::kRead) continue;
    const std::pair<uint32_t, uint32_t> edge(op.src, op.dst);
    if (op.kind == Op::kInsert) {
      EXPECT_NE(op.src, op.dst);
      EXPECT_TRUE(present.insert(edge).second) << "edge already present";
      live.push_back(edge);
      ++inserts;
    } else {
      ASSERT_FALSE(live.empty());
      EXPECT_EQ(live.front(), edge) << "removes take the oldest live edge";
      present.erase(edge);
      live.pop_front();
      ++removes;
    }
    EXPECT_LE(live.size(), kLiveCitesBound);
  }
  EXPECT_GT(removes, 0u);
  EXPECT_EQ(inserts - removes, kLiveCitesBound);
}

TEST(OpsTest, Example1TextIsBenchCommonsExample1) {
  const WorkloadData& data = Data(Workload::kLubmMix);
  rdfref::api::QueryAnswerer answerer(data.graph.Clone());
  const QueryTemplate& example1 = data.templates.back();
  ASSERT_EQ(example1.name, "Example1");
  auto parsed = rdfref::query::ParseSparql(example1.text, &answerer.dict());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->CanonicalKey(),
            rdfref::bench::Example1Query(&answerer).CanonicalKey());
  EXPECT_EQ(answerer.num_explicit_triples(), 27129u);
}

TEST(OpsTest, PointTemplatesFillEverySlot) {
  const WorkloadData& data = Data(Workload::kSp2bRw);
  for (const QueryTemplate& t : data.templates) {
    const std::string text = t.Instantiate(42);
    EXPECT_EQ(text.find("{}"), std::string::npos) << t.name;
    if (t.is_point()) {
      EXPECT_NE(text.find(t.slot_prefix + "42>"), std::string::npos);
    }
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, ExactNearestRank) {
  auto p50 = NearestRank(Iota(20), 50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->rank, 10u);
  EXPECT_EQ(p50->value, 10.0);
  EXPECT_EQ(p50->beyond, 10u);
  // 0.99 * 1000 is not exactly 990 in floating point; the rank must be.
  auto p99 = NearestRank(Iota(1000), 99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->rank, 990u);
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->beyond, 10u);
  auto p99b = NearestRank(Iota(1500), 99);
  ASSERT_TRUE(p99b.has_value());
  EXPECT_EQ(p99b->rank, 1485u);
}

TEST(PercentileTest, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(NearestRank(Iota(19), 50).has_value());  // rank 10, 9 beyond
  EXPECT_FALSE(NearestRank(Iota(999), 99).has_value());  // rank 990, 9 beyond
  EXPECT_FALSE(NearestRank(Iota(100), 99).has_value());
  EXPECT_FALSE(NearestRank({}, 50).has_value());
}

TEST(HostSpeedTest, ScalesEachOpByTheMedianOfTheProbesAroundIt) {
  // Probes before ops 0, 3, 6, 9 and after the last op (10 ops, every 3).
  const std::vector<int64_t> probes = {1'500'000, 3'000'000, 1'500'000,
                                       3'000'000, 100'000'000};
  // Ops 0-2 sit between probes 0 and 1: the window is probes 0..2.
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleAt(probes, 3, 0), 1.0);
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleAt(probes, 3, 2), 1.0);
  // Ops 3-5: probes 0..3, median 2.25 ms.
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleAt(probes, 3, 4), 1.5 / 2.25);
  // Ops 6-8: probes 1..4; one slow outlier does not move the median.
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleAt(probes, 3, 8), 0.5);
  // Op 9, the last: probes 2..4.
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleAt(probes, 3, 9), 0.5);
  EXPECT_DOUBLE_EQ(HostSpeed::ScaleAt({}, 3, 9), 1.0);
  EXPECT_DOUBLE_EQ(ScaleFor({1'000'000, 2'000'000}), 1.0);
  EXPECT_DOUBLE_EQ(ScaleFor({3'000'000, 100'000, 3'000'000}), 0.5);
  EXPECT_DOUBLE_EQ(ScaleFor({}), 1.0);
}

TEST(HostSpeedTest, ProbesAlongTheOps) {
  HostSpeed host(4);
  for (size_t i = 0; i < 10; ++i) host.BeforeOp(i);
  host.Finish();
  ASSERT_EQ(host.probe_ns().size(), 4u);  // before 0, 4, 8; after 9
  for (int64_t ns : host.probe_ns()) EXPECT_GT(ns, 0);
  EXPECT_GT(host.Scale(9), 0.0);
}

TEST(TraceTest, SelfTimesSumToTheRootSpan) {
  Tracer tracer;
  const int32_t root = tracer.Begin(SpanName::kApiRead, 0);
  {
    ScopedSpan parse(&tracer, SpanName::kQueryParse, 0);
  }
  {
    ScopedSpan eval(&tracer, SpanName::kEngineEval, 0);
    ScopedSpan pin(&tracer, SpanName::kStoragePin, 0);
  }
  tracer.End(root);
  const std::vector<int64_t> self = tracer.SelfTimes();
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[3].parent, 2);  // pin nests in eval
  int64_t sum = 0;
  for (int64_t s : self) {
    EXPECT_GE(s, 0);
    sum += s;
  }
  EXPECT_EQ(sum, spans[0].end_ns - spans[0].start_ns);
}

TEST(TraceTest, MisnestedSpansAreCaught) {
  {
    Tracer tracer;
    const int32_t root = tracer.Begin(SpanName::kApiRead, 0);
    { ScopedSpan parse(&tracer, SpanName::kQueryParse, 0); }
    tracer.End(root);
    EXPECT_EQ(tracer.MisnestedSpans({root}), 0u);
    // The root recorded for op 0 must be op 0's root span.
    EXPECT_EQ(tracer.MisnestedSpans({1}), 2u);
  }
  {
    // A child closed after its parent.
    Tracer tracer;
    const int32_t root = tracer.Begin(SpanName::kApiRead, 0);
    const int32_t eval = tracer.Begin(SpanName::kEngineEval, 0);
    tracer.End(root);
    tracer.End(eval);
    EXPECT_EQ(tracer.MisnestedSpans({root}), 1u);
  }
  {
    // A span given another op's id, and one never closed.
    Tracer tracer;
    const int32_t root = tracer.Begin(SpanName::kApiRead, 0);
    { ScopedSpan parse(&tracer, SpanName::kQueryParse, 1); }
    tracer.Begin(SpanName::kEngineEval, 0);
    EXPECT_EQ(tracer.MisnestedSpans({root}), 3u);
  }
}

// Every metric a traced run reports that is not a time.
std::map<std::string, double> Counts(const RunResult& r) {
  std::map<std::string, double> counts;
  for (const Metric& m : r.metrics) {
    if (m.unit != "ms" && m.name != "trace.overhead_pct") {
      counts[m.name] = m.value;
    }
  }
  return counts;
}

RunResult Traced(Workload w, size_t decks) {
  RunOptions options;
  options.seed = 5;
  options.decks = decks;
  options.trace = true;
  return perfbench::Run(Data(w), options);
}

TEST(RunTest, TracedCountsRepeatExactly) {
  for (auto [w, decks] : {std::pair{Workload::kLubmMix, size_t{2}},
                          std::pair{Workload::kSp2bRw, size_t{14}}}) {
    const RunResult a = Traced(w, decks);
    const RunResult b = Traced(w, decks);
    EXPECT_TRUE(a.correct) << WorkloadName(w);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(Counts(a), Counts(b)) << WorkloadName(w);
    if (w == Workload::kLubmMix) {
      for (const auto& [name, value] : Counts(a)) {
        if (name.rfind("engine.cache_", 0) == 0) {
          EXPECT_EQ(value, 0) << name;
        }
      }
    }
    if (w == Workload::kSp2bRw) {
      EXPECT_GT(a.Find("storage.freezes")->value, 0);
      EXPECT_GT(a.Find("storage.compactions")->value, 0);
      EXPECT_GT(a.Find("engine.cache_invalidations")->value, 0);
    }
  }
}

TEST(RunTest, UntracedRunTimesSetUpsAcrossTheRun) {
  RunOptions options;
  options.seed = 3;
  options.decks = DecksFor(Data(Workload::kLubmMix), 1);
  const RunResult r = perfbench::Run(Data(Workload::kLubmMix), options);
  EXPECT_TRUE(r.correct);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_NE(r.Find("setup_s"), nullptr);
  EXPECT_GT(r.Find("setup_s")->value, 0.0);
  bool nine = false;
  for (const std::string& note : r.notes) {
    nine = nine || note.rfind("setup_s: median of 9 set-ups", 0) == 0;
  }
  EXPECT_TRUE(nine);
}

TEST(RunTest, OneWrongExpectationFailsTheRun) {
  for (Workload w : kAll) {
    // Traced, so that one short deck needs no p99.
    RunOptions options;
    options.seed = 2;
    options.decks = 1;
    options.trace = true;
    RunResult clean = perfbench::Run(Data(w), options);
    EXPECT_TRUE(clean.correct) << WorkloadName(w);
    EXPECT_EQ(clean.failed, 0u);
    options.corrupt_expectation = true;
    RunResult corrupted = perfbench::Run(Data(w), options);
    EXPECT_FALSE(corrupted.correct) << WorkloadName(w);
    EXPECT_GE(corrupted.failed, 1u) << WorkloadName(w);
  }
}

}  // namespace
}  // namespace perfbench
