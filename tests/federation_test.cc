#include "federation/federation.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "query/sparql_parser.h"
#include "rdf/parser.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace federation {
namespace {

// Two independent endpoints reproducing the paper's Section 1 situation:
// the *fact* lives in one endpoint and the *constraint* in another, so the
// implicit fact exists only across the federation.
class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Endpoint A: bibliographic facts, no constraints.
    ASSERT_TRUE(rdf::TurtleParser::ParseString(
                    "@prefix bib: <http://example.org/bib/> .\n"
                    "bib:doi1 a bib:Book .\n"
                    "bib:doi1 bib:writtenBy _:b1 .\n"
                    "_:b1 bib:hasName \"J. L. Borges\" .\n",
                    &data_graph_)
                    .ok());
    // Endpoint B: the ontology, no facts.
    ASSERT_TRUE(rdf::TurtleParser::ParseString(
                    "@prefix bib: <http://example.org/bib/> .\n"
                    "bib:Book rdfs:subClassOf bib:Publication .\n"
                    "bib:writtenBy rdfs:subPropertyOf bib:hasAuthor .\n"
                    "bib:writtenBy rdfs:domain bib:Book .\n"
                    "bib:writtenBy rdfs:range bib:Person .\n",
                    &schema_graph_)
                    .ok());
  }

  query::Cq Parse(Federation* federation, const std::string& text) {
    auto q = query::ParseSparql(
        "PREFIX bib: <http://example.org/bib/>\n" + text,
        &federation->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  rdf::Graph data_graph_, schema_graph_;
};

TEST_F(FederationTest, CrossEndpointEntailment) {
  Federation federation;
  federation.AddEndpoint("facts", data_graph_);
  federation.AddEndpoint("ontology", schema_graph_);

  // Publications exist only through the constraint in the other endpoint.
  query::Cq q = Parse(&federation,
                      "SELECT ?x WHERE { ?x a bib:Publication . }");
  engine::Table naive = federation.EvaluateWithoutReasoning(q);
  EXPECT_EQ(naive.NumRows(), 0u);

  auto ref = federation.Answer(q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(ref->NumRows(), 1u);
}

TEST_F(FederationTest, LocalSaturationIsNotEnough) {
  // Even if the fact endpoint saturates locally, it lacks the constraints,
  // so the implicit Publication typing is still missing without Ref.
  Federation federation;
  EndpointOptions saturated;
  saturated.locally_saturated = true;
  federation.AddEndpoint("facts", data_graph_, saturated);
  federation.AddEndpoint("ontology", schema_graph_, saturated);

  query::Cq q = Parse(&federation,
                      "SELECT ?x WHERE { ?x a bib:Publication . }");
  EXPECT_EQ(federation.EvaluateWithoutReasoning(q).NumRows(), 0u);
  auto ref = federation.Answer(q);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->NumRows(), 1u);
}

TEST_F(FederationTest, LocalSaturationHelpsLocally) {
  // When one endpoint holds both fact and constraint, local saturation
  // materializes the consequence and the naive mediator sees it.
  rdf::Graph combined;
  ASSERT_TRUE(rdf::TurtleParser::ParseString(
                  "@prefix bib: <http://example.org/bib/> .\n"
                  "bib:doi1 a bib:Book .\n"
                  "bib:Book rdfs:subClassOf bib:Publication .\n",
                  &combined)
                  .ok());
  Federation federation;
  EndpointOptions saturated;
  saturated.locally_saturated = true;
  federation.AddEndpoint("combined", combined, saturated);
  query::Cq q = Parse(&federation,
                      "SELECT ?x WHERE { ?x a bib:Publication . }");
  EXPECT_EQ(federation.EvaluateWithoutReasoning(q).NumRows(), 1u);
}

TEST_F(FederationTest, AnswerLimitsTruncateNaiveEvaluation) {
  // A rate-limited endpoint returns only the first k triples per request:
  // the naive mediator silently loses answers (Section 1: sources "return
  // only restricted answers ... to avoid overloading their servers").
  rdf::Graph big;
  for (int i = 0; i < 50; ++i) {
    big.AddUri("http://ex/s" + std::to_string(i), "http://ex/knows",
               "http://ex/o");
  }
  Federation federation;
  EndpointOptions limited;
  limited.max_answers_per_request = 10;
  federation.AddEndpoint("limited", big, limited);

  query::Cq q = *query::ParseSparql(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . }", &federation.dict());
  EXPECT_EQ(federation.EvaluateWithoutReasoning(q).NumRows(), 10u);
}

TEST_F(FederationTest, SharedDictionaryJoinsAcrossEndpoints) {
  // The same URI in two endpoints is one value in the mediator: joins
  // spanning endpoints work.
  rdf::Graph a, b;
  a.AddUri("http://ex/ann", "http://ex/knows", "http://ex/bob");
  b.AddUri("http://ex/bob", "http://ex/knows", "http://ex/carl");
  Federation federation;
  federation.AddEndpoint("a", a);
  federation.AddEndpoint("b", b);
  query::Cq q = *query::ParseSparql(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }",
      &federation.dict());
  auto table = federation.Answer(q);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->NumRows(), 1u);
}

TEST_F(FederationTest, ExplicitCoverAccepted) {
  Federation federation;
  federation.AddEndpoint("facts", data_graph_);
  federation.AddEndpoint("ontology", schema_graph_);
  query::Cq q = Parse(&federation,
                      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . "
                      "?x2 bib:hasName ?x3 . }");
  query::Cover cover({{0}, {1}});
  auto table = federation.Answer(q, &cover);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->NumRows(), 1u);
  EXPECT_EQ(federation.dict().Lookup(table->row(0)[0]).lexical,
            "J. L. Borges");
}

TEST_F(FederationTest, SchemaQueriesSeeMediatedClosure) {
  Federation federation;
  federation.AddEndpoint("facts", data_graph_);
  federation.AddEndpoint("ontology", schema_graph_);
  query::Cq q = Parse(&federation,
                      "SELECT ?c WHERE { ?c rdfs:subClassOf "
                      "bib:Publication . }");
  auto table = federation.Answer(q);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 1u);  // Book, via the mediated schema
}

TEST_F(FederationTest, EmptyFederationRejected) {
  Federation federation;
  query::Cq q = *query::ParseSparql(
      "SELECT ?x WHERE { ?x <http://p> ?y . }", &federation.dict());
  EXPECT_FALSE(federation.Answer(q).ok());
}

TEST_F(FederationTest, MergedStatisticsSumCounts) {
  rdf::Graph a, b;
  a.AddUri("http://ex/s1", "http://ex/p", "http://ex/o");
  b.AddUri("http://ex/s2", "http://ex/p", "http://ex/o");
  Federation federation;
  federation.AddEndpoint("a", a);
  federation.AddEndpoint("b", b);
  storage::Statistics merged = federation.MergedStatistics();
  EXPECT_EQ(merged.total_triples(), 2u);
  rdf::TermId p = federation.dict().Find(rdf::Term::Uri("http://ex/p"));
  EXPECT_EQ(merged.ForProperty(p).count, 2u);
}

TEST_F(FederationTest, CountMatchesHonorsAnswerCaps) {
  // Cost-model cardinalities must match what Scan can actually deliver: a
  // rate-limited endpoint contributes at most its per-request cap.
  rdf::Graph big;
  for (int i = 0; i < 50; ++i) {
    big.AddUri("http://ex/s" + std::to_string(i), "http://ex/knows",
               "http://ex/o");
  }
  Federation federation;
  EndpointOptions limited;
  limited.max_answers_per_request = 10;
  federation.AddEndpoint("limited", big, limited);
  federation.AddEndpoint("unlimited", big);

  rdf::TermId knows =
      federation.dict().Find(rdf::Term::Uri("http://ex/knows"));
  EXPECT_EQ(federation.endpoints()[0]->CountMatches(storage::kAny, knows,
                                                    storage::kAny),
            10u);
  EXPECT_EQ(federation.endpoints()[1]->CountMatches(storage::kAny, knows,
                                                    storage::kAny),
            50u);
  EXPECT_EQ(federation.source().CountMatches(storage::kAny, knows,
                                             storage::kAny),
            60u);
}

TEST_F(FederationTest, RequestCountersAdvance) {
  Federation federation;
  federation.AddEndpoint("facts", data_graph_);
  query::Cq q = *query::ParseSparql(
      "SELECT ?x ?p ?y WHERE { ?x ?p ?y . }", &federation.dict());
  (void)federation.EvaluateWithoutReasoning(q);
  EXPECT_GT(federation.endpoints()[0]->requests_served(), 0u);
}

TEST_F(FederationTest, NaiveAnswerDoesNotDependOnCallHistory) {
  // The mediated schema's closure serves Answer only: the naive mediator
  // and endpoints() see the published endpoints, before and after an
  // Answer call alike.
  rdf::Graph ontology;
  ASSERT_TRUE(rdf::TurtleParser::ParseString(
                  "@prefix ex: <http://example.org/> .\n"
                  "ex:A rdfs:subClassOf ex:B .\n"
                  "ex:B rdfs:subClassOf ex:C .\n",
                  &ontology)
                  .ok());
  Federation federation;
  federation.AddEndpoint("ontology", ontology);
  query::Cq q = *query::ParseSparql(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?x WHERE { ?x rdfs:subClassOf ex:C . }",
      &federation.dict());

  engine::Table before = federation.EvaluateWithoutReasoning(q);
  EXPECT_EQ(before.NumRows(), 1u);  // ex:B, as published
  auto ref = federation.Answer(q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(ref->NumRows(), 2u);  // ex:A too, through the closure
  engine::Table after = federation.EvaluateWithoutReasoning(q);
  EXPECT_EQ(after.RowVectors(), before.RowVectors());
  EXPECT_EQ(federation.endpoints().size(), 1u);
}

TEST_F(FederationTest, ConcurrentAnswersOnOneFederation) {
  // Threads may answer on one federation concurrently from the first call
  // on, and each endpoint's request counter stays exact.
  rdf::Graph more_facts;
  ASSERT_TRUE(rdf::TurtleParser::ParseString(
                  "@prefix bib: <http://example.org/bib/> .\n"
                  "bib:doi2 a bib:Book .\n",
                  &more_facts)
                  .ok());
  Federation federation;
  federation.AddEndpoint("facts", data_graph_);
  federation.AddEndpoint("more-facts", more_facts);
  federation.AddEndpoint("ontology", schema_graph_);
  query::Cq q =
      Parse(&federation, "SELECT ?x WHERE { ?x a bib:Publication . }");

  constexpr int kCallers = 4;
  constexpr int kRounds = 10;
  std::vector<std::thread> callers;
  std::vector<std::string> errors(kCallers);
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        auto answer = federation.Answer(q);
        if (!answer.ok()) {
          errors[t] = answer.status().ToString();
          return;
        }
        if (answer->NumRows() != 2u) {  // doi1 + doi2 as Publications
          errors[t] = "round " + std::to_string(round) + ": got " +
                      std::to_string(answer->NumRows()) + " rows";
          return;
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(errors[t], "") << "caller " << t;

  // Every call makes the same requests: one more call measures them.
  const Endpoint& facts = *federation.endpoints()[0];
  const uint64_t served = facts.requests_served();
  ASSERT_TRUE(federation.Answer(q).ok());
  const uint64_t per_call = facts.requests_served() - served;
  EXPECT_GT(per_call, 0u);
  EXPECT_EQ(served, kCallers * kRounds * per_call);
}

}  // namespace
}  // namespace federation
}  // namespace rdfref
