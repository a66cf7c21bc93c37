// Updates through the facade: Ref sees changes instantly via the version
// set's head overlay; Sat is maintained incrementally (forward chaining on
// insert, DRed on delete); all complete strategies keep agreeing after
// every update — the paper's §1 maintenance story, end to end.

#include <gtest/gtest.h>

#include <set>

#include "api/query_answering.h"
#include "datagen/bibliography.h"
#include "query/sparql_parser.h"
#include "rdf/vocab.h"
#include "testing/metamorphic.h"
#include "testing/scenario.h"

namespace rdfref {
namespace api {
namespace {

namespace vocab = rdf::vocab;

class UpdatesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::Graph graph;
    datagen::Bibliography::AddFigure2Graph(&graph);
    answerer_ = std::make_unique<QueryAnswerer>(std::move(graph));
  }

  rdf::TermId Bib(const std::string& local) {
    return answerer_->dict().InternUri(
        datagen::Bibliography::Uri(local));
  }

  query::Cq Parse(const std::string& text) {
    auto q = query::ParseSparql(
        "PREFIX bib: <http://example.org/bib/>\n" + text,
        &answerer_->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  std::set<std::vector<rdf::TermId>> Rows(Strategy s, const query::Cq& q) {
    auto table = answerer_->Answer(q, s);
    EXPECT_TRUE(table.ok()) << table.status();
    return table->RowSet();
  }

  void ExpectAllStrategiesAgree(const query::Cq& q) {
    auto expected = Rows(Strategy::kSaturation, q);
    for (Strategy s : {Strategy::kRefUcq, Strategy::kRefGcov,
                       Strategy::kDatalog}) {
      EXPECT_EQ(Rows(s, q), expected) << StrategyName(s);
    }
  }

  std::unique_ptr<QueryAnswerer> answerer_;
};

TEST_F(UpdatesTest, InsertVisibleToAllStrategies) {
  // A second book appears; domain of writtenBy types it implicitly.
  rdf::TermId doi2 = Bib("doi2");
  rdf::TermId author = answerer_->dict().InternBlank("b2");
  ASSERT_TRUE(
      answerer_->InsertTriple(rdf::Triple(doi2, Bib("writtenBy"), author))
          .ok());

  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  EXPECT_EQ(Rows(Strategy::kRefUcq, q).size(), 2u);
  ExpectAllStrategiesAgree(q);
}

TEST_F(UpdatesTest, InsertAfterSaturationMaintainsSatStore) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Person . }");
  EXPECT_EQ(Rows(Strategy::kSaturation, q).size(), 1u);  // saturates now

  rdf::TermId doi2 = Bib("doi2");
  rdf::TermId author = answerer_->dict().InternBlank("b2");
  ASSERT_TRUE(
      answerer_->InsertTriple(rdf::Triple(doi2, Bib("writtenBy"), author))
          .ok());
  // The saturated store refreshes lazily and includes the new Person.
  EXPECT_EQ(Rows(Strategy::kSaturation, q).size(), 2u);
  ExpectAllStrategiesAgree(q);
}

TEST_F(UpdatesTest, RemoveRetractsDerivedAnswers) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Person . }");
  EXPECT_EQ(Rows(Strategy::kSaturation, q).size(), 1u);

  rdf::TermId doi1 = Bib("doi1");
  rdf::TermId b1 = answerer_->dict().InternBlank("b1");
  ASSERT_TRUE(
      answerer_->RemoveTriple(rdf::Triple(doi1, Bib("writtenBy"), b1)).ok());
  EXPECT_EQ(Rows(Strategy::kSaturation, q).size(), 0u);
  EXPECT_EQ(Rows(Strategy::kRefUcq, q).size(), 0u);
  ExpectAllStrategiesAgree(q);
}

TEST_F(UpdatesTest, RemoveKeepsAlternativeDerivations) {
  // doi1 is a Book both explicitly and via the domain of writtenBy:
  // retracting the explicit typing keeps the derived one.
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  rdf::TermId doi1 = Bib("doi1");
  ASSERT_TRUE(answerer_
                  ->RemoveTriple(
                      rdf::Triple(doi1, vocab::kTypeId, Bib("Book")))
                  .ok());
  EXPECT_EQ(Rows(Strategy::kSaturation, q).size(), 1u);
  EXPECT_EQ(Rows(Strategy::kRefUcq, q).size(), 1u);
  ExpectAllStrategiesAgree(q);
}

TEST_F(UpdatesTest, SchemaInsertExtendsHierarchyRemoveStillRejected) {
  // Schema growth is supported since the hierarchy encoding landed: the
  // new edge is re-saturated into the stored schema and answered via the
  // classic (escaped) reformulation members until the next Reencode().
  const size_t books =
      Rows(Strategy::kRefUcq, Parse("SELECT ?x WHERE { ?x a bib:Book . }"))
          .size();
  ASSERT_GT(books, 0u);
  EXPECT_EQ(
      Rows(Strategy::kRefUcq, Parse("SELECT ?x WHERE { ?x a bib:Work . }"))
          .size(),
      0u);
  ASSERT_TRUE(answerer_
                  ->InsertTriple(rdf::Triple(Bib("Book"),
                                             vocab::kSubClassOfId,
                                             Bib("Work")))
                  .ok());
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Work . }");
  EXPECT_EQ(Rows(Strategy::kRefUcq, q).size(), books);
  ExpectAllStrategiesAgree(q);

  // Retracting schema triples stays rejected: RDFS entailment is
  // monotone, so removal would require full re-derivation.
  EXPECT_EQ(answerer_
                ->RemoveTriple(rdf::Triple(Bib("Book"),
                                           vocab::kSubClassOfId,
                                           Bib("Publication")))
                .code(),
            StatusCode::kUnimplemented);
}

TEST_F(UpdatesTest, RemovingAbsentTripleIsNotFound) {
  EXPECT_EQ(answerer_
                ->RemoveTriple(
                    rdf::Triple(Bib("ghost"), Bib("writtenBy"), Bib("x")))
                .code(),
            StatusCode::kNotFound);
}

TEST_F(UpdatesTest, InsertThenRemoveRoundTrips) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  auto before = Rows(Strategy::kRefGcov, q);
  rdf::TermId doi2 = Bib("doi2");
  rdf::Triple t(doi2, vocab::kTypeId, Bib("Book"));
  ASSERT_TRUE(answerer_->InsertTriple(t).ok());
  EXPECT_EQ(Rows(Strategy::kRefGcov, q).size(), before.size() + 1);
  ASSERT_TRUE(answerer_->RemoveTriple(t).ok());
  EXPECT_EQ(Rows(Strategy::kRefGcov, q), before);
}

// ---------------------------------------------------------------------------
// Randomized incremental-update differential test: random insert/delete
// sequences through the facade; after every operation the incrementally
// maintained saturation (forward chase on insert, DRed on delete) and every
// Ref strategy must equal a from-scratch QueryAnswerer over the current
// explicit triples. Shared relation implementation with the fuzz driver.

class IncrementalUpdateDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalUpdateDifferentialTest, DredMatchesFromScratch) {
  const uint64_t seed = GetParam();
  rdfref::testing::Scenario sc = rdfref::testing::GenerateScenario(seed);
  Rng query_rng(seed * 71 + 13);
  for (int trial = 0; trial < 3; ++trial) {
    query::Cq q = rdfref::testing::GenerateQuery(sc, &query_rng);
    Rng op_rng(seed * 10007 + trial * 97 + 1);
    rdfref::testing::Divergence d =
        rdfref::testing::CheckUpdateConsistency(sc, q, &op_rng,
                                                /*num_ops=*/6);
    EXPECT_FALSE(d.found) << "seed=" << seed << " trial=" << trial << " "
                          << d.relation << "\n" << d.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, IncrementalUpdateDifferentialTest,
                         ::testing::Range<uint64_t>(200, 215));

}  // namespace
}  // namespace api
}  // namespace rdfref
