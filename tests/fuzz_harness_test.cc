// The fuzzing harness tested against itself: a clean run over a seed range
// finds nothing, an injected evaluator bug (the mutation check) is caught
// AND shrunk to a tiny 1-minimal repro, and the replay seed files
// round-trip. These are the acceptance criteria of the differential
// testing subsystem — if the harness can't catch a planted bug, its green
// runs mean nothing.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "api/query_answering.h"
#include "query/sparql_parser.h"
#include "rdf/vocab.h"
#include "testing/fuzz.h"
#include "testing/oracle.h"

namespace rdfref {
namespace {

using testing::FuzzOptions;
using testing::FuzzReport;

// A small clean sweep: every strategy, every metamorphic relation, no
// divergence. (CI's fuzz-smoke job runs a much larger range; this keeps a
// canary inside ctest.)
TEST(FuzzHarnessTest, CleanSweepFindsNothing) {
  FuzzOptions options;
  options.trials_per_seed = 2;
  FuzzReport report = testing::RunFuzz(0, 8, options);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? ""
                                   : report.failures.front().detail);
  EXPECT_EQ(report.seeds_run, 9u);
  EXPECT_EQ(report.queries_checked, 18u);
  EXPECT_GT(report.checks_run, report.queries_checked);
}

// The mutation check: corrupt Ref-SCQ's answers (drop one row) and the
// oracle MUST notice, name the right relation, and shrink the case to at
// most 10 triples and 3 atoms.
TEST(FuzzHarnessTest, InjectedBugIsCaughtAndShrunkSmall) {
  FuzzOptions options;
  options.mutate = [](api::Strategy s, engine::Table* t) {
    if (s == api::Strategy::kRefScq && !t->empty()) {
      t->RemoveLastRow();
    }
  };
  // The oracle alone sees this; skip the slower relations.
  options.check_columnar = false;
  options.check_metamorphic = false;
  options.check_federation = false;
  options.check_updates = false;

  FuzzReport report = testing::RunFuzz(0, 30, options);
  ASSERT_FALSE(report.ok()) << "injected bug was not caught";
  const testing::FuzzFailure& failure = report.failures.front();
  EXPECT_EQ(failure.relation, "oracle:REF-SCQ");
  EXPECT_LE(failure.shrunk.triples(), 10u);
  EXPECT_LE(failure.shrunk.query.body().size(), 3u);
  EXPECT_GE(failure.shrunk.query.body().size(), 1u);
  EXPECT_NE(failure.repro_cc.find("TEST(FuzzRepro"), std::string::npos);
  EXPECT_NE(failure.repro_cc.find("api::QueryAnswerer"), std::string::npos);
  EXPECT_NE(failure.seed_file.find("relation oracle:REF-SCQ"),
            std::string::npos);
}

// A spurious-extra-row bug must be caught too (the dual of a lost tuple).
TEST(FuzzHarnessTest, SpuriousRowIsCaught) {
  FuzzOptions options;
  options.mutate = [](api::Strategy s, engine::Table* t) {
    if (s == api::Strategy::kRefGcov && !t->empty()) {
      const std::vector<rdf::TermId> first(t->row(0).begin(),
                                           t->row(0).end());
      t->AppendRow(first);
      for (auto& id : t->MutableRow(t->NumRows() - 1)) {
        id = rdf::vocab::kTypeId;
      }
    }
  };
  options.check_columnar = false;
  options.check_metamorphic = false;
  options.check_federation = false;
  options.check_updates = false;
  options.shrink = false;

  FuzzReport report = testing::RunFuzz(0, 30, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures.front().relation, "oracle:REF-GCOV");
}

TEST(FuzzHarnessTest, SeedFileRoundTrips) {
  const std::string contents =
      testing::EmitSeedFile(1234567, 3, "metamorphic:projection:REF-UCQ");
  testing::SeedFileEntry entry;
  ASSERT_TRUE(testing::ParseSeedFile(contents, &entry));
  EXPECT_EQ(entry.seed, 1234567u);
  EXPECT_EQ(entry.trial, 3);
  EXPECT_EQ(entry.relation, "metamorphic:projection:REF-UCQ");

  // Malformed inputs are rejected, comments tolerated.
  EXPECT_FALSE(testing::ParseSeedFile("trial 2\n", &entry));
  EXPECT_TRUE(testing::ParseSeedFile("# note\nseed 9\n", &entry));
  EXPECT_EQ(entry.seed, 9u);
}

// The update relations' fresh-fact draws are pinned: the first facts of
// (scenario seed 3, Rng seed 42) as GCC drew them while the object and
// property draws were unsequenced arguments of one call. Another draw
// order would make recorded seed files replay different churn.
TEST(FuzzHarnessTest, GenerateFactDrawsArePinned) {
  const testing::Scenario sc = testing::GenerateScenario(3);
  const rdf::Dictionary& dict = sc.graph.dict();
  Rng rng(42);
  const char* const kExpected[] = {
      "<http://t/s0> <http://t/p3> <http://t/s2>",
      "<http://t/s2> <http://t/p3> <http://t/s6>",
      "<http://t/s4> <http://t/p3> <http://t/s5>",
      "<http://t/s10> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://t/C3>",
      "<http://t/s4> <http://t/p1> <http://t/s1>",
      "<http://t/s7> <http://t/p0> <http://t/s6>",
      "<http://t/s0> <http://t/p1> <http://t/s7>",
      "<http://t/s0> <http://t/p3> <http://t/s6>",
  };
  for (const char* expected : kExpected) {
    const rdf::Triple t = testing::GenerateFact(sc, &rng);
    std::string got = dict.Lookup(t.s).ToString();
    for (rdf::TermId id : {t.p, t.o}) {
      got += ' ';
      got += dict.Lookup(id).ToString();
    }
    EXPECT_EQ(got, expected);
  }
}

// An evaluation budget stops the greedy pass early with a case that still
// fails; without one the pass runs to its 1-minimal fixpoint.
TEST(FuzzHarnessTest, ShrinkStopsAtItsEvaluationBudget) {
  const testing::Scenario sc = testing::GenerateScenario(3);
  Rng rng(7);
  const query::Cq q = testing::GenerateQuery(sc, &rng);
  ASSERT_GT(sc.data_triples.size(), 8u);
  // Fails while at least four data triples remain.
  auto fails = [](const testing::Scenario& candidate, const query::Cq&) {
    return candidate.data_triples.size() >= 4;
  };
  testing::ShrinkResult bounded = testing::Shrink(sc, q, fails, 5);
  EXPECT_TRUE(bounded.truncated);
  EXPECT_EQ(bounded.evaluations, 5);
  EXPECT_EQ(bounded.data_triples.size(), sc.data_triples.size() - 5);

  testing::ShrinkResult full = testing::Shrink(sc, q, fails);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.data_triples.size(), 4u);
}

// Replaying a recorded failure reproduces it deterministically.
TEST(FuzzHarnessTest, ReplayReproducesFailure) {
  FuzzOptions options;
  options.mutate = [](api::Strategy s, engine::Table* t) {
    if (s == api::Strategy::kRefScq && !t->empty()) t->RemoveLastRow();
  };
  options.check_columnar = false;
  options.check_metamorphic = false;
  options.check_federation = false;
  options.check_updates = false;
  options.shrink = false;

  FuzzReport first = testing::RunFuzz(0, 30, options);
  ASSERT_FALSE(first.ok());

  testing::SeedFileEntry entry;
  ASSERT_TRUE(testing::ParseSeedFile(first.failures.front().seed_file,
                                     &entry));
  FuzzReport replay;
  testing::RunFuzzSeed(entry.seed, options, &replay);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.failures.front().relation,
            first.failures.front().relation);
  EXPECT_EQ(replay.failures.front().trial, first.failures.front().trial);
}

// SPARQL serialization must be stable across re-encoding: ToSparql emits
// IRIs, never raw TermIds, so a query's text survives any id permutation
// and re-parses against the permuted dictionary to the same answers.
TEST(FuzzHarnessTest, ToSparqlRoundTripStableUnderReencoding) {
  rdf::Graph g;
  {
    rdf::Dictionary& dict = g.dict();
    rdf::TermId top = dict.InternUri("http://ex/Top");
    rdf::TermId mid = dict.InternUri("http://ex/Mid");
    rdf::TermId leaf = dict.InternUri("http://ex/Leaf");
    g.Add(mid, rdf::vocab::kSubClassOfId, top);
    g.Add(leaf, rdf::vocab::kSubClassOfId, mid);
    for (int i = 0; i < 4; ++i) {
      g.Add(dict.InternUri("http://ex/s" + std::to_string(i)),
            rdf::vocab::kTypeId, i % 2 == 0 ? leaf : mid);
    }
  }
  api::QueryAnswerer answerer(std::move(g));

  auto parsed = query::ParseSparql(
      "SELECT ?x WHERE { ?x a <http://ex/Top> . }", &answerer.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto text = query::ToSparql(*parsed, answerer.dict());
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text->find("http://ex/Top") != std::string::npos, true);

  auto before = answerer.Answer(*parsed, api::Strategy::kRefUcq);
  ASSERT_TRUE(before.ok()) << before.status();
  const std::set<testing::DecodedRow> before_rows =
      testing::DecodeRows(*before, answerer.dict());
  EXPECT_EQ(before_rows.size(), 4u);

  // Re-encode: every TermId may move, invalidating *parsed's constants —
  // but not the SPARQL text, which re-parses to the same decoded answers
  // and re-serializes to the identical string.
  answerer.Reencode();
  auto reparsed = query::ParseSparql(*text, &answerer.dict());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  auto after = answerer.Answer(*reparsed, api::Strategy::kRefUcq);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(testing::DecodeRows(*after, answerer.dict()), before_rows);

  auto text2 = query::ToSparql(*reparsed, answerer.dict());
  ASSERT_TRUE(text2.ok()) << text2.status();
  EXPECT_EQ(*text2, *text);
}

}  // namespace
}  // namespace rdfref
