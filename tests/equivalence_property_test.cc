// The load-bearing property of reformulation-based query answering
// (Section 3.1 of the paper): for every graph G, schema S and conjunctive
// query q,   q(G∞) = qref(G)   — evaluating the reformulation against the
// explicit triples equals evaluating the query against the saturation.
//
// Scenarios and queries are drawn from the shared generator library in
// src/testing/ (the same one the differential fuzz driver uses); this suite
// checks that ALL complete strategies (Sat, Ref-UCQ, Ref-SCQ, Ref-GCov,
// Dat) produce identical answers and that the incomplete (Virtuoso-style)
// Ref produces a subset.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/query_answering.h"
#include "common/hash.h"
#include "datagen/sp2b.h"
#include "query/cq.h"
#include "rdf/vocab.h"
#include "testing/churn.h"
#include "testing/oracle.h"
#include "testing/reference_eval.h"
#include "testing/scenario.h"

namespace rdfref {
namespace {

using query::Cq;
using testing::Scenario;

std::set<std::vector<rdf::TermId>> RowSet(const engine::Table& t) {
  return t.RowSet();
}

class EquivalencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalencePropertyTest, AllCompleteStrategiesAgree) {
  const uint64_t seed = GetParam();
  Scenario sc = testing::GenerateScenario(seed);
  api::QueryAnswerer answerer(std::move(sc.graph));
  Rng rng(seed * 31 + 7);

  for (int trial = 0; trial < 8; ++trial) {
    Cq q = testing::GenerateQuery(sc, &rng);
    auto sat = answerer.Answer(q, api::Strategy::kSaturation);
    ASSERT_TRUE(sat.ok()) << sat.status();
    const std::set<std::vector<rdf::TermId>> expected = RowSet(*sat);

    const api::Strategy strategies[] = {
        api::Strategy::kRefUcq, api::Strategy::kRefScq,
        api::Strategy::kRefGcov, api::Strategy::kDatalog};
    for (api::Strategy s : strategies) {
      auto got = answerer.Answer(q, s);
      ASSERT_TRUE(got.ok()) << api::StrategyName(s) << ": " << got.status();
      EXPECT_EQ(RowSet(*got), expected)
          << "seed=" << seed << " trial=" << trial << " strategy="
          << api::StrategyName(s) << "\nquery: "
          << q.ToString(answerer.dict());
    }

    // The Ref strategies evaluate minimized unions: the raw rule closure
    // they start from must answer alike.
    reformulation::Reformulator ref(&answerer.schema(), {}, &answerer.dict());
    auto raw = ref.ReformulateUnminimized(q);
    ASSERT_TRUE(raw.ok()) << raw.status();
    const storage::SnapshotPtr snap = answerer.PinSnapshot();
    EXPECT_EQ(RowSet(engine::Evaluator(snap.get()).EvaluateUcq(*raw)),
              expected)
        << "seed=" << seed << " trial=" << trial
        << " (raw reformulation)\nquery: " << q.ToString(answerer.dict());

    // The incomplete (hierarchy-only) Ref returns a subset.
    auto incomplete = answerer.Answer(q, api::Strategy::kRefIncomplete);
    ASSERT_TRUE(incomplete.ok());
    for (const std::vector<rdf::TermId>& row : incomplete->RowVectors()) {
      EXPECT_TRUE(expected.count(row))
          << "incomplete Ref produced a spurious answer, seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, EquivalencePropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

// JUCQ invariance: for small random queries, EVERY partition cover yields
// the same answer as the UCQ strategy (covers are answering strategies,
// not semantics).
class CoverInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverInvarianceTest, EveryPartitionCoverAgrees) {
  const uint64_t seed = GetParam();
  Scenario sc = testing::GenerateScenario(seed);
  api::QueryAnswerer answerer(std::move(sc.graph));
  Rng rng(seed * 131 + 3);

  for (int trial = 0; trial < 3; ++trial) {
    Cq q = testing::GenerateQuery(sc, &rng);
    auto reference = answerer.Answer(q, api::Strategy::kRefUcq);
    ASSERT_TRUE(reference.ok());
    const std::set<std::vector<rdf::TermId>> expected = RowSet(*reference);

    // All partitions of the atoms (Bell(3) at most = 5).
    reformulation::Reformulator ref(&answerer.schema());
    cost::CostModel cost_model(&answerer.ref_store().stats());
    optimizer::CoverOptimizer optimizer(&ref, &cost_model);
    auto covers = optimizer.EnumeratePartitionCovers(q);
    ASSERT_TRUE(covers.ok());
    for (const query::Cover& cover : *covers) {
      api::AnswerOptions options;
      options.cover = cover;
      auto got =
          answerer.Answer(q, api::Strategy::kRefJucq, nullptr, options);
      ASSERT_TRUE(got.ok()) << cover.ToString() << ": " << got.status();
      EXPECT_EQ(RowSet(*got), expected)
          << "seed=" << seed << " cover=" << cover.ToString()
          << "\nquery: " << q.ToString(answerer.dict());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, CoverInvarianceTest,
                         ::testing::Range<uint64_t>(100, 120));

// Cyclic CQ shapes of 3-5 atoms: the joins where the engine's per-binding
// expansion choice departs from the static join order (DESIGN.md §9). The
// random query generator draws 1-3 atoms from three variables, so it
// almost never builds them.
struct CyclicShape {
  std::string name;
  Cq q;
};

// Builds one CQ from edges (?s p ?o) and type atoms (?s a C) over named
// variables; the head binds every variable.
class CqDraft {
 public:
  CqDraft& Edge(const std::string& s, rdf::TermId p, const std::string& o) {
    q_.AddAtom(query::Atom(query::QTerm::Var(Var(s)), query::QTerm::Const(p),
                           query::QTerm::Var(Var(o))));
    return *this;
  }
  CqDraft& Type(const std::string& s, rdf::TermId c) {
    q_.AddAtom(query::Atom(query::QTerm::Var(Var(s)),
                           query::QTerm::Const(rdf::vocab::kTypeId),
                           query::QTerm::Const(c)));
    return *this;
  }
  Cq Build() {
    for (query::VarId v : order_) q_.AddHead(query::QTerm::Var(v));
    return q_;
  }

 private:
  query::VarId Var(const std::string& name) {
    auto it = vars_.find(name);
    if (it != vars_.end()) return it->second;
    const query::VarId v = q_.AddVar(name);
    vars_.emplace(name, v);
    order_.push_back(v);
    return v;
  }

  Cq q_;
  std::map<std::string, query::VarId> vars_;
  std::vector<query::VarId> order_;
};

// `shared` links two subjects through a common object (sp2b's hasAuthor),
// `link` links subjects directly (sp2b's cites), `cls` types a subject.
std::vector<CyclicShape> CyclicShapes(rdf::TermId shared, rdf::TermId link,
                                      rdf::TermId cls) {
  return {
      {"triangle",
       CqDraft().Edge("x", shared, "a").Edge("y", shared, "a")
           .Edge("x", link, "y").Build()},
      {"4-cycle",
       CqDraft().Edge("x", shared, "a").Edge("y", shared, "a")
           .Edge("y", link, "z").Edge("x", link, "z").Build()},
      {"two-triangles-sharing-an-edge",
       CqDraft().Edge("x", shared, "a").Edge("y", shared, "a")
           .Edge("x", link, "y").Edge("w", shared, "a")
           .Edge("x", link, "w").Build()},
      {"triangle-plus-type",
       CqDraft().Edge("x", shared, "a").Edge("y", shared, "a")
           .Edge("x", link, "y").Type("x", cls).Build()},
  };
}

// Bit-for-bit: cached replays against cold evaluation through the encoded
// facade (interval atoms included), on the pristine database, after
// writes that cannot touch the cached views, and after a Compact that
// folds those writes into a new base.
void ExpectCachedReplaysBitIdentical(const Scenario& sc, const Cq& scenario_q,
                                     Rng* rng, const std::string& label) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  const Cq q = testing::TranslateQuery(scenario_q, sc.graph.dict(),
                                       &answerer.dict());
  answerer.EnableViewCache();
  api::AnswerOptions uncached;
  uncached.use_view_cache = false;
  auto check = [&](const std::string& phase) {
    for (api::Strategy s : {api::Strategy::kRefUcq, api::Strategy::kRefGcov}) {
      auto cold = answerer.Answer(q, s, nullptr, uncached);
      auto cached = answerer.Answer(q, s);
      ASSERT_TRUE(cold.ok()) << cold.status();
      ASSERT_TRUE(cached.ok()) << cached.status();
      const testing::Divergence d = testing::CompareBitForBit(
          "cached:" + phase + ":" + api::StrategyName(s), *cached, *cold, q,
          answerer.dict());
      EXPECT_FALSE(d.found) << label << ": " << d.relation << "\n"
                            << d.detail;
    }
  };
  check("fill");
  check("hit");

  // A property no view mentions: the writes leave every window open, but
  // their subjects and objects are the data's, so the overlays they build
  // cover the very patterns the joins count.
  const rdf::TermId untouched =
      answerer.dict().InternUri("http://example.org/untouched");
  auto subject = [&]() {
    const rdf::TermId id = sc.subjects[rng->Uniform(sc.subjects.size())];
    return answerer.dict().Intern(sc.graph.dict().Lookup(id));
  };
  for (int i = 0; i < 12; ++i) {
    const rdf::TermId s = subject();
    ASSERT_TRUE(answerer.InsertTriple(rdf::Triple(s, untouched, subject()))
                    .ok());
  }
  const uint64_t hits_before = answerer.view_cache_stats().hits;
  check("disjoint-writes");
  EXPECT_GT(answerer.view_cache_stats().hits, hits_before)
      << label << ": the writes should have left the views valid";

  answerer.versions().Freeze();
  answerer.versions().Compact();
  check("compacted");
}

// Answers must be bit-identical for evaluation threads 1 and 8.
void ExpectThreadsBitIdentical(const Scenario& sc, const Cq& scenario_q,
                               const std::string& label) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  const Cq q = testing::TranslateQuery(scenario_q, sc.graph.dict(),
                                       &answerer.dict());
  for (api::Strategy s : {api::Strategy::kRefUcq, api::Strategy::kRefScq,
                          api::Strategy::kRefGcov}) {
    api::AnswerOptions one;
    api::AnswerOptions eight;
    eight.threads = 8;
    auto a = answerer.Answer(q, s, nullptr, one);
    auto b = answerer.Answer(q, s, nullptr, eight);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    const testing::Divergence d = testing::CompareBitForBit(
        std::string("threads:") + api::StrategyName(s), *b, *a, q,
        answerer.dict());
    EXPECT_FALSE(d.found) << label << ": " << d.relation << "\n" << d.detail;
  }
}

void CheckCyclicShapes(const Scenario& sc, rdf::TermId shared,
                       rdf::TermId link, rdf::TermId cls, uint64_t seed) {
  testing::Oracle oracle(sc);
  for (const CyclicShape& shape : CyclicShapes(shared, link, cls)) {
    const std::string label = "seed=" + std::to_string(seed) + " " +
                              shape.name + ": " +
                              shape.q.ToString(sc.graph.dict());
    // Sat and every complete strategy agree.
    testing::Divergence d = oracle.Check(shape.q);
    EXPECT_FALSE(d.found) << label << ": " << d.relation << "\n" << d.detail;
    // The engine equals the reference evaluator bit for bit: the CQ, its
    // reformulation, and the reformulation on 8 threads.
    d = testing::CheckColumnarVsReference(sc, shape.q);
    EXPECT_FALSE(d.found) << label << ": " << d.relation << "\n" << d.detail;
    ExpectThreadsBitIdentical(sc, shape.q, label);
    // Cached replays equal cold evaluation across random writes, freezes
    // and compactions (the unencoded view-cache relation)...
    Rng rng(seed * 977 + shape.q.body().size());
    d = testing::CheckCachedEquivalence(sc, shape.q, &rng, 16);
    EXPECT_FALSE(d.found) << label << ": " << d.relation << "\n" << d.detail;
    // ...and through the encoded facade.
    ExpectCachedReplaysBitIdentical(sc, shape.q, &rng, label);
  }
}

class CyclicShapeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CyclicShapeTest, DefaultScenario) {
  const uint64_t seed = GetParam();
  Scenario sc = testing::GenerateScenario(seed);
  const size_t n = sc.properties.size();
  CheckCyclicShapes(sc, sc.properties[seed % n],
                    sc.properties[(seed + 1) % n], sc.classes[0], seed);
}

TEST_P(CyclicShapeTest, Sp2bScenario) {
  const uint64_t seed = GetParam();
  testing::ScenarioOptions options;
  options.source = testing::ScenarioSource::kSp2b;
  Scenario sc = testing::GenerateScenario(seed, options);
  const std::string ns = datagen::Sp2b::kNs;
  rdf::Dictionary& dict = sc.graph.dict();
  CheckCyclicShapes(sc, dict.InternUri(ns + "hasAuthor"),
                    dict.InternUri(ns + "cites"),
                    dict.InternUri(ns + "Publication"), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CyclicShapeTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace rdfref
