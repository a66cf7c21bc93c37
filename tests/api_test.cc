#include "api/query_answering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/bibliography.h"
#include "datagen/lubm.h"
#include "datagen/sp2b.h"
#include "engine/evaluator.h"
#include "query/canonical.h"
#include "query/sparql_parser.h"
#include "rdf/parser.h"
#include "rdf/vocab.h"
#include "reformulation/reformulator.h"
#include "storage/version_set.h"

namespace rdfref {
namespace api {
namespace {

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::Graph graph;
    datagen::Bibliography::AddFigure2Graph(&graph);
    answerer_ = std::make_unique<QueryAnswerer>(std::move(graph));
  }

  query::Cq Parse(const std::string& text) {
    auto q = query::ParseSparql(
        "PREFIX bib: <http://example.org/bib/>\n" + text,
        &answerer_->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  std::unique_ptr<QueryAnswerer> answerer_;
};

TEST_F(ApiTest, StrategyNamesAreStable) {
  EXPECT_STREQ(StrategyName(Strategy::kSaturation), "SAT");
  EXPECT_STREQ(StrategyName(Strategy::kRefUcq), "REF-UCQ");
  EXPECT_STREQ(StrategyName(Strategy::kRefScq), "REF-SCQ");
  EXPECT_STREQ(StrategyName(Strategy::kRefGcov), "REF-GCOV");
  EXPECT_STREQ(StrategyName(Strategy::kDatalog), "DATALOG");
}

TEST_F(ApiTest, Section3QueryAllCompleteStrategiesAgree) {
  query::Cq q = Parse(
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . "
      "?x1 ?x4 \"1949\" . }");
  const Strategy complete[] = {Strategy::kSaturation, Strategy::kRefUcq,
                               Strategy::kRefScq, Strategy::kRefGcov,
                               Strategy::kDatalog};
  for (Strategy s : complete) {
    auto table = answerer_->Answer(q, s);
    ASSERT_TRUE(table.ok()) << StrategyName(s) << ": " << table.status();
    ASSERT_EQ(table->NumRows(), 1u) << StrategyName(s);
    EXPECT_EQ(answerer_->dict().Lookup(table->row(0)[0]).lexical,
              "J. L. Borges")
        << StrategyName(s);
  }
}

TEST_F(ApiTest, EvaluationWithoutReasoningIsIncomplete) {
  // The paper (Section 3): evaluating q directly against G yields ∅.
  query::Cq q = Parse(
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . "
      "?x1 ?x4 \"1949\" . }");
  engine::Evaluator eval(&answerer_->ref_store());
  EXPECT_EQ(eval.EvaluateCq(q).NumRows(), 0u);
}

TEST_F(ApiTest, IncompleteRefMissesDomainRangeAnswers) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Person . }");
  auto complete = answerer_->Answer(q, Strategy::kRefUcq);
  auto incomplete = answerer_->Answer(q, Strategy::kRefIncomplete);
  ASSERT_TRUE(complete.ok());
  ASSERT_TRUE(incomplete.ok());
  EXPECT_EQ(complete->NumRows(), 1u);   // _:b1 via range of writtenBy
  EXPECT_EQ(incomplete->NumRows(), 0u);  // hierarchy-only Ref misses it
}

TEST_F(ApiTest, ExplicitCoverStrategy) {
  query::Cq q = Parse(
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . }");
  AnswerOptions options;
  options.cover = query::Cover({{0}, {1}});
  AnswerProfile profile;
  auto table = answerer_->Answer(q, Strategy::kRefJucq, &profile, options);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->NumRows(), 1u);
  EXPECT_EQ(profile.jucq.fragments.size(), 2u);
  EXPECT_GT(profile.reformulation_cqs, 0u);
}

TEST_F(ApiTest, InvalidCoverRejected) {
  query::Cq q = Parse(
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . }");
  AnswerOptions options;
  options.cover = query::Cover(std::vector<std::vector<int>>{{0}});  // hole
  EXPECT_FALSE(
      answerer_->Answer(q, Strategy::kRefJucq, nullptr, options).ok());
}

TEST_F(ApiTest, UnsafeQueryRejected) {
  query::Cq q;
  query::VarId x = q.AddVar("x");
  query::VarId y = q.AddVar("y");
  q.AddAtom(query::Atom(query::QTerm::Var(x), query::QTerm::Const(1),
                        query::QTerm::Const(2)));
  q.AddHead(query::QTerm::Var(y));
  EXPECT_EQ(
      answerer_->Answer(q, Strategy::kSaturation).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(ApiTest, ProfilesArePopulated) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Publication . }");
  AnswerProfile profile;
  auto sat = answerer_->Answer(q, Strategy::kSaturation, &profile);
  ASSERT_TRUE(sat.ok());
  EXPECT_GT(answerer_->saturation_added(), 0u);

  auto gcov = answerer_->Answer(q, Strategy::kRefGcov, &profile);
  ASSERT_TRUE(gcov.ok());
  EXPECT_GE(profile.gcov.explored.size(), 1u);
  EXPECT_EQ(profile.cover, query::Cover::Singletons(1));
}

TEST_F(ApiTest, SaturationIsLazyAndCached) {
  EXPECT_EQ(answerer_->saturation_millis(), 0.0);
  const storage::Store& s1 = answerer_->sat_store();
  const storage::Store& s2 = answerer_->sat_store();
  EXPECT_EQ(&s1, &s2);
  EXPECT_GT(s1.size(), answerer_->num_explicit_triples() - 1);
}

TEST_F(ApiTest, SchemaQueriesAnswerable) {
  // Schema triples are data in the DB fragment; the saturated schema is
  // stored, so subclass queries see the closure.
  query::Cq q = Parse(
      "SELECT ?c WHERE { ?c rdfs:subClassOf bib:Publication . }");
  auto table = answerer_->Answer(q, Strategy::kRefUcq);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 1u);  // Book
}

TEST_F(ApiTest, UnionQueriesAcrossStrategies) {
  // Books union People: doi1 explicitly, _:b1 via the range constraint.
  auto u = query::ParseSparqlUnion(
      "PREFIX bib: <http://example.org/bib/>\n"
      "SELECT ?x WHERE { ?x a bib:Book . } UNION { ?x a bib:Person . }",
      &answerer_->dict());
  ASSERT_TRUE(u.ok()) << u.status();
  for (Strategy s : {Strategy::kSaturation, Strategy::kRefUcq,
                     Strategy::kRefGcov, Strategy::kDatalog}) {
    AnswerProfile profile;
    auto table = answerer_->AnswerUnion(*u, s, &profile);
    ASSERT_TRUE(table.ok()) << StrategyName(s) << ": " << table.status();
    EXPECT_EQ(table->NumRows(), 2u) << StrategyName(s);
  }
}

TEST_F(ApiTest, UnionDeduplicatesAcrossBranches) {
  // Both branches match doi1 (Book ⊑ Publication): one answer, not two.
  auto u = query::ParseSparqlUnion(
      "PREFIX bib: <http://example.org/bib/>\n"
      "SELECT ?x WHERE { ?x a bib:Book . } UNION "
      "{ ?x a bib:Publication . }",
      &answerer_->dict());
  ASSERT_TRUE(u.ok());
  auto table = answerer_->AnswerUnion(*u, Strategy::kRefUcq);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 1u);
}

TEST_F(ApiTest, EmptyUnionRejected) {
  query::Ucq empty;
  EXPECT_FALSE(answerer_->AnswerUnion(empty, Strategy::kRefUcq).ok());
}

// Shrunken differential-fuzzing repro (oracle:DATALOG),
// generated by tools/fuzz_driver — 2 triple(s), 1 atom(s).
// A subClassOf cycle entails the reflexive pairs C0 ⊑ C0 / C3 ⊑ C3
// (rdfs11); the schema closure used to filter them while Datalog derived
// them, so Sat/Ref answered 0 rows where Dat answered 2.
TEST(FuzzRepro, Seed231Trial3) {
  rdf::Graph g;
  rdf::Dictionary& dict = g.dict();
  g.Add(dict.InternUri("http://t/C0"), rdf::vocab::kSubClassOfId,
        dict.InternUri("http://t/C3"));
  g.Add(dict.InternUri("http://t/C3"), rdf::vocab::kSubClassOfId,
        dict.InternUri("http://t/C0"));

  query::Cq q;
  q.AddVar("v0");  // VarId 0
  q.AddVar("v1");  // VarId 1
  q.AddVar("v2");  // VarId 2
  q.AddAtom(query::Atom(query::QTerm::Var(1), query::QTerm::Var(0),
                        query::QTerm::Var(1)));
  q.AddHead(query::QTerm::Var(0));
  q.AddHead(query::QTerm::Var(1));

  api::QueryAnswerer answerer(std::move(g));
  auto sat = answerer.Answer(q, api::Strategy::kSaturation);
  ASSERT_TRUE(sat.ok()) << sat.status();
  std::set<std::vector<rdf::TermId>> expected = sat->RowSet();
  EXPECT_EQ(expected.size(), 2u);  // (⊑, C0) and (⊑, C3)
  for (api::Strategy s :
       {api::Strategy::kRefUcq, api::Strategy::kRefScq,
        api::Strategy::kRefGcov, api::Strategy::kDatalog}) {
    auto got = answerer.Answer(q, s);
    ASSERT_TRUE(got.ok()) << api::StrategyName(s);
    EXPECT_EQ(got->RowSet(), expected)
        << api::StrategyName(s);
  }
}

// ---------------------------------------------------------------------------
// The plan memo: a repeated Ref call replays the plan a cold call builds.
// ---------------------------------------------------------------------------

constexpr Strategy kRefStrategies[] = {
    Strategy::kRefUcq, Strategy::kRefScq, Strategy::kRefJucq,
    Strategy::kRefGcov, Strategy::kRefIncomplete};

// Students, the courses they take, and the courses' type: three atoms whose
// Ref strategies plan differently.
constexpr const char* kTakesCourse =
    "SELECT ?x ?y ?c WHERE { ?x a ub:Student . ?x ub:takesCourse ?y . "
    "?y a ?c . }";

rdf::Graph LubmGraph() {
  datagen::LubmConfig config;
  config.universities = 1;
  config.scale = 0.1;
  rdf::Graph graph;
  datagen::Lubm::Generate(config, &graph);
  return graph;
}

query::Cq ParseUb(QueryAnswerer* answerer, const std::string& text) {
  auto q = query::ParseSparql(
      std::string("PREFIX ub: <") + datagen::Lubm::kNs + ">\n" + text,
      &answerer->dict());
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

class PlanMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    answerer_ = std::make_unique<QueryAnswerer>(LubmGraph());
  }

  query::Cq Parse(const std::string& text) {
    return ParseUb(answerer_.get(), text);
  }

  rdf::TermId Ub(const std::string& local) {
    return answerer_->dict().InternUri(datagen::Lubm::Uri(local));
  }

  std::set<std::vector<rdf::TermId>> Rows(const query::Cq& q, Strategy s) {
    auto table = answerer_->Answer(q, s);
    EXPECT_TRUE(table.ok()) << StrategyName(s) << ": " << table.status();
    return table.ok() ? table->RowSet() : std::set<std::vector<rdf::TermId>>{};
  }

  std::unique_ptr<QueryAnswerer> answerer_;
};

TEST_F(PlanMemoTest, HitIsBitIdenticalToAFreshAnswerersColdCall) {
  query::Cq q = Parse(kTakesCourse);
  // Each strategy's first call on `fresh` is cold: the key holds the
  // strategy.
  QueryAnswerer fresh(LubmGraph());
  const query::Cq fresh_q = ParseUb(&fresh, kTakesCourse);
  AnswerOptions options;
  options.cover = query::Cover({{0, 1}, {1, 2}});  // used by REF-JUCQ only
  uint64_t calls = 0;
  for (Strategy s : kRefStrategies) {
    AnswerProfile cold_profile, hit_profile, fresh_profile;
    auto cold = answerer_->Answer(q, s, &cold_profile, options);
    auto hit = answerer_->Answer(q, s, &hit_profile, options);
    auto reference = fresh.Answer(fresh_q, s, &fresh_profile, options);
    calls += 2;
    EXPECT_FALSE(fresh_profile.plan_cached) << StrategyName(s);
    ASSERT_TRUE(cold.ok()) << StrategyName(s) << ": " << cold.status();
    ASSERT_TRUE(hit.ok()) << StrategyName(s) << ": " << hit.status();
    ASSERT_TRUE(reference.ok()) << StrategyName(s);
    EXPECT_GT(reference->NumRows(), 0u) << StrategyName(s);
    EXPECT_EQ(hit->RowVectors(), reference->RowVectors()) << StrategyName(s);
    EXPECT_EQ(hit->columns, reference->columns) << StrategyName(s);
    EXPECT_EQ(cold->RowVectors(), reference->RowVectors()) << StrategyName(s);

    EXPECT_FALSE(cold_profile.plan_cached) << StrategyName(s);
    EXPECT_TRUE(hit_profile.plan_cached) << StrategyName(s);
    EXPECT_EQ(hit_profile.prepare_millis, 0.0) << StrategyName(s);
    EXPECT_EQ(hit_profile.cover, fresh_profile.cover) << StrategyName(s);
    EXPECT_EQ(hit_profile.reformulation_cqs, fresh_profile.reformulation_cqs)
        << StrategyName(s);
    if (s == Strategy::kRefGcov) {
      EXPECT_FALSE(cold_profile.gcov.explored.empty());
      EXPECT_TRUE(hit_profile.gcov.explored.empty());
      EXPECT_EQ(hit_profile.gcov.chosen, cold_profile.gcov.chosen);
      EXPECT_EQ(hit_profile.gcov.chosen_cost, cold_profile.gcov.chosen_cost);
    }
  }
  const PlanMemoStats stats = answerer_->plan_memo_stats();
  EXPECT_EQ(stats.hits, calls / 2);
  EXPECT_EQ(stats.misses, calls / 2);
  EXPECT_EQ(stats.entries, calls / 2);
}

TEST_F(PlanMemoTest, SchemaInsertClearsTheMemo) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a ub:Course . }");
  const Strategy complete[] = {Strategy::kRefUcq, Strategy::kRefScq,
                               Strategy::kRefGcov};
  for (Strategy s : complete) Rows(q, s);  // memoize
  const size_t courses = Rows(q, Strategy::kSaturation).size();

  // Research groups become courses: a new edge the memoized plans lack.
  ASSERT_TRUE(answerer_
                  ->InsertTriple(rdf::Triple(Ub("ResearchGroup"),
                                             rdf::vocab::kSubClassOfId,
                                             Ub("Course")))
                  .ok());
  EXPECT_EQ(answerer_->plan_memo_stats().entries, 0u);
  const std::set<std::vector<rdf::TermId>> expected =
      Rows(q, Strategy::kSaturation);
  ASSERT_GT(expected.size(), courses);
  for (Strategy s : complete) {
    EXPECT_EQ(Rows(q, s), expected) << StrategyName(s);
  }
}

TEST_F(PlanMemoTest, ReencodeClearsTheMemo) {
  // The new edge moves the class intervals at the next Reencode.
  ASSERT_TRUE(answerer_
                  ->InsertTriple(rdf::Triple(Ub("ResearchGroup"),
                                             rdf::vocab::kSubClassOfId,
                                             Ub("Course")))
                  .ok());
  // No constant but rdf:type, whose id Reencode keeps: the re-parsed query
  // has the same key, and its plan binds ?c to class ids.
  const std::string text = "SELECT ?x ?c WHERE { ?x a ?c . }";
  query::Cq q = Parse(text);
  EXPECT_EQ(Rows(q, Strategy::kRefUcq), Rows(q, Strategy::kSaturation));
  ASSERT_EQ(answerer_->plan_memo_stats().entries, 1u);

  answerer_->Reencode();
  EXPECT_EQ(answerer_->plan_memo_stats().entries, 0u);
  query::Cq again = Parse(text);
  EXPECT_EQ(Rows(again, Strategy::kRefUcq),
            Rows(again, Strategy::kSaturation));
}

TEST_F(PlanMemoTest, ViewSelectionClearsTheMemo) {
  query::Cq q = Parse(kTakesCourse);
  AnswerProfile before;
  ASSERT_TRUE(answerer_->Answer(q, Strategy::kRefGcov, &before).ok());

  // Hints that make every fragment of another cover a one-row rescan.
  const query::Cover target =
      before.cover == query::Cover::Singletons(3)
          ? query::Cover::SingleFragment(3)
          : query::Cover::Singletons(3);
  optimizer::ViewSelectionResult selection;
  for (const query::Cq& fq : target.FragmentQueries(q)) {
    selection.hints.cached_rows[query::Canonicalize(fq).key] = 1.0;
  }
  answerer_->ApplyViewSelection(selection);
  EXPECT_EQ(answerer_->plan_memo_stats().entries, 0u);

  AnswerProfile after;
  auto table = answerer_->Answer(q, Strategy::kRefGcov, &after);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_FALSE(after.plan_cached);
  EXPECT_EQ(after.cover, target);
  EXPECT_EQ(table->RowSet(), Rows(q, Strategy::kSaturation));
}

TEST_F(PlanMemoTest, SmallerBudgetStillRefuses) {
  query::Cq q = Parse("SELECT ?x ?u ?z WHERE { ?x a ?u . ?x ub:memberOf ?z . }");
  AnswerProfile profile;
  ASSERT_TRUE(answerer_->Answer(q, Strategy::kRefUcq, &profile).ok());
  ASSERT_GT(profile.reformulation_cqs, 2u);

  AnswerOptions tight;
  tight.reform.max_cqs = 2;
  for (int call = 0; call < 2; ++call) {  // refusals are not memoized
    EXPECT_EQ(answerer_->Answer(q, Strategy::kRefUcq, nullptr, tight)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(answerer_->plan_memo_stats().entries, 1u);
}

TEST_F(PlanMemoTest, EncodingOffNeverReusesTheFusedPlan) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a ub:Person . }");
  AnswerProfile fused;
  ASSERT_TRUE(answerer_->Answer(q, Strategy::kRefUcq, &fused).ok());

  AnswerOptions classic;
  classic.reform.use_encoding = false;
  AnswerProfile profile, fresh_profile;
  auto table = answerer_->Answer(q, Strategy::kRefUcq, &profile, classic);
  QueryAnswerer fresh(LubmGraph());
  auto reference =
      fresh.Answer(ParseUb(&fresh, "SELECT ?x WHERE { ?x a ub:Person . }"),
                   Strategy::kRefUcq, &fresh_profile, classic);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(profile.plan_cached);
  EXPECT_EQ(profile.reformulation_cqs, fresh_profile.reformulation_cqs);
  EXPECT_GT(profile.reformulation_cqs, fused.reformulation_cqs);
  EXPECT_EQ(table->RowVectors(), reference->RowVectors());
}

TEST_F(PlanMemoTest, JucqCoversDoNotSharePlans) {
  query::Cq q = Parse(kTakesCourse);
  const query::Cover a({{0, 1}, {2}});
  const query::Cover b({{0}, {1, 2}});
  for (const query::Cover& cover : {a, b, a}) {
    AnswerOptions options;
    options.cover = cover;
    AnswerProfile profile;
    auto table = answerer_->Answer(q, Strategy::kRefJucq, &profile, options);
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(profile.cover, cover);
    EXPECT_EQ(profile.jucq.fragments.size(), 2u);
  }
  const PlanMemoStats stats = answerer_->plan_memo_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

// Three type atoms over `subclasses` subclasses of Top each: a REF-UCQ of
// (subclasses + 1)^3 CQs, as in Example 1.
rdf::Graph ExplodingGraph(int subclasses) {
  rdf::Graph g;
  rdf::Dictionary& dict = g.dict();
  // ex:<stem><i>, or ex:<stem> for a negative i.
  auto uri = [&dict](const char* stem, int i) {
    std::string local = std::string("http://example.org/") + stem;
    if (i >= 0) local += std::to_string(i);
    return dict.InternUri(local);
  };
  for (int i = 0; i < subclasses; ++i) {
    g.Add(uri("C", i), rdf::vocab::kSubClassOfId, uri("Top", -1));
    g.Add(uri("i", i), rdf::vocab::kTypeId, uri("C", i));
    g.Add(uri("i", i), uri("p", -1), uri("i", (i + 1) % subclasses));
  }
  return g;
}

TEST(PlanMemoDeadlineTest, MemoizedPlanHonoursTheDeadline) {
  QueryAnswerer answerer(ExplodingGraph(39));
  auto q = query::ParseSparql(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?x ?y ?z WHERE { ?x a ex:Top . ?y a ex:Top . ?z a ex:Top . "
      "?x ex:p ?y . ?y ex:p ?z . }",
      &answerer.dict());
  ASSERT_TRUE(q.ok()) << q.status();
  AnswerOptions options;
  options.reform.use_encoding = false;  // keep the 40^3-CQ union
  AnswerProfile cold;
  auto full = answerer.Answer(*q, Strategy::kRefUcq, &cold, options);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(cold.reformulation_cqs, 64000u);
  ASSERT_EQ(answerer.plan_memo_stats().entries, 1u);

  // Expired before the call.
  AnswerOptions bounded = options;
  bounded.deadline = Deadline::AfterMicros(0);
  EXPECT_EQ(answerer.Answer(*q, Strategy::kRefUcq, nullptr, bounded)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  // Expiring during the replayed plan's evaluation: a quarter of the
  // fastest of two unbounded replays (preemption only lengthens a run).
  double replay_millis = cold.eval_millis;
  for (int i = 0; i < 2; ++i) {
    AnswerProfile replay;
    ASSERT_TRUE(answerer.Answer(*q, Strategy::kRefUcq, &replay, options).ok());
    ASSERT_TRUE(replay.plan_cached);
    replay_millis = std::min(replay_millis, replay.eval_millis);
  }
  bounded.deadline = Deadline::AfterMillis(replay_millis / 4);
  AnswerProfile hit;
  auto table = answerer.Answer(*q, Strategy::kRefUcq, &hit, bounded);
  EXPECT_EQ(table.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(hit.plan_cached);
}

TEST_F(PlanMemoTest, EntryCapEvictsTheLeastRecentlyUsedPlan) {
  const size_t n = PlanMemo::kMaxEntries + 10;
  auto department = [this](size_t i) {
    return Parse("SELECT ?x WHERE { ?x ub:memberOf <http://example.org/d" +
                 std::to_string(i) + "> . }");
  };
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(answerer_->Answer(department(i), Strategy::kRefUcq).ok());
  }
  PlanMemoStats stats = answerer_->plan_memo_stats();
  EXPECT_EQ(stats.entries, PlanMemo::kMaxEntries);
  EXPECT_EQ(stats.evictions, 10u);
  EXPECT_EQ(stats.misses, n);

  AnswerProfile newest, oldest;
  ASSERT_TRUE(
      answerer_->Answer(department(n - 1), Strategy::kRefUcq, &newest).ok());
  ASSERT_TRUE(answerer_->Answer(department(0), Strategy::kRefUcq, &oldest).ok());
  EXPECT_TRUE(newest.plan_cached);
  EXPECT_FALSE(oldest.plan_cached);
  EXPECT_EQ(answerer_->plan_memo_stats().entries, PlanMemo::kMaxEntries);
}

std::shared_ptr<const QueryPlan> PlanOf(uint64_t cqs) {
  auto plan = std::make_shared<QueryPlan>();
  plan->total_cqs = cqs;
  return plan;
}

TEST(PlanMemoBoundsTest, HeldCqsStayWithinTheBound) {
  PlanMemo memo;
  memo.Insert("huge", PlanOf(PlanMemo::kMaxCqs + 1));
  EXPECT_EQ(memo.Stats().entries, 0u);
  EXPECT_EQ(memo.Find("huge"), nullptr);

  memo.Insert("a", PlanOf(PlanMemo::kMaxCqs / 2));
  memo.Insert("b", PlanOf(PlanMemo::kMaxCqs / 2));
  ASSERT_NE(memo.Find("a"), nullptr);  // a is now the most recently used
  memo.Insert("c", PlanOf(1));
  EXPECT_NE(memo.Find("a"), nullptr);
  EXPECT_EQ(memo.Find("b"), nullptr);
  EXPECT_NE(memo.Find("c"), nullptr);
  const PlanMemoStats stats = memo.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  memo.Clear();
  EXPECT_EQ(memo.Stats().entries, 0u);
  memo.Insert("d", PlanOf(PlanMemo::kMaxCqs));  // the whole bound is free
  EXPECT_EQ(memo.Stats().entries, 1u);
}

// Clients racing on one answerer: misses prepare concurrently, hits share
// plans, and every answer is the one a single-threaded answerer gives.
TEST(PlanMemoConcurrencyTest, ConcurrentAnswersMatchSequentialOnes) {
  const std::vector<std::string> texts = {
      kTakesCourse,
      "SELECT ?x WHERE { ?x a ub:Person . }",
      "SELECT ?x ?z WHERE { ?x ub:memberOf ?z . ?z a ub:Department . }",
      "SELECT ?x ?u ?z WHERE { ?x a ?u . ?x ub:memberOf ?z . }",
  };
  const Strategy strategies[] = {Strategy::kRefUcq, Strategy::kRefScq,
                                 Strategy::kRefGcov};
  QueryAnswerer reference(LubmGraph());
  QueryAnswerer shared(LubmGraph());
  std::vector<query::Cq> queries;
  std::vector<std::vector<std::vector<rdf::TermId>>> expected;
  for (const std::string& text : texts) {
    queries.push_back(ParseUb(&shared, text));
    for (Strategy s : strategies) {
      auto table = reference.Answer(ParseUb(&reference, text), s);
      ASSERT_TRUE(table.ok()) << table.status();
      expected.push_back(table->RowVectors());
    }
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < expected.size(); ++k) {
          // Each thread walks the calls from its own offset.
          const size_t i = (k + static_cast<size_t>(t) * 3) % expected.size();
          auto table = shared.Answer(queries[i / 3], strategies[i % 3]);
          if (!table.ok() || table->RowVectors() != expected[i]) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  const PlanMemoStats stats = shared.plan_memo_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kRounds) * expected.size());
  EXPECT_GE(stats.misses, expected.size());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.entries, expected.size());
}

// The sp2b query shapes LUBM lacks: a Zipf-hot point lookup, a
// deep-hierarchy scan, a venue join, a star, a citation chain, a cyclic
// join and a triangle. Each carries a hand-picked connected cover for
// REF-JUCQ (V3 and Y6 partition their atoms, S4, C5 and A7 overlap) and
// SAT's row count at scale 0.05.
struct Sp2bQuery {
  const char* name;
  std::string text;
  std::vector<std::vector<int>> cover;
  size_t rows;
};

std::vector<Sp2bQuery> Sp2bQueries() {
  const std::string classic = datagen::Sp2b::DocumentUri(0);
  return {
      {"P1-classic-citers",
       "SELECT ?x WHERE { ?x sp:cites <" + classic + "> . }", {{0}}, 24},
      {"T2-publications", "SELECT ?d WHERE { ?d a sp:Publication . }", {{0}},
       50},
      {"V3-event-papers",
       "SELECT ?d ?v WHERE { ?d sp:publishedIn ?v . ?v a sp:Event . }",
       {{0}, {1}}, 40},
      {"S4-doc-star",
       "SELECT ?d ?p ?v ?o WHERE { ?d a sp:Article . "
       "?d sp:hasContributor ?p . ?d sp:publishedIn ?v . "
       "?d sp:references ?o . }",
       {{0, 1}, {0, 2}, {0, 3}}, 565},
      {"C5-citation-chain",
       "SELECT ?a ?x ?y ?v WHERE { ?w sp:hasFirstAuthor ?a . "
       "?w sp:cites ?x . ?x sp:cites ?y . ?y sp:publishedIn ?v . }",
       {{0, 1}, {1, 2}, {2, 3}}, 819},
      {"Y6-mutual-citations",
       "SELECT ?x ?y WHERE { ?x sp:cites ?y . ?y sp:cites ?x . }", {{0}, {1}},
       24},
      {"A7-coauthor-cites",
       "SELECT ?x ?y ?p WHERE { ?x sp:hasAuthor ?p . ?y sp:hasAuthor ?p . "
       "?x sp:cites ?y . }",
       {{0, 2}, {1, 2}}, 113},
  };
}

std::unique_ptr<QueryAnswerer> Sp2bAnswerer() {
  datagen::Sp2bConfig config;
  config.scale = 0.05;
  rdf::Graph graph;
  datagen::Sp2b::Generate(config, &graph);
  return std::make_unique<QueryAnswerer>(std::move(graph));
}

query::Cq ParseSp(QueryAnswerer* answerer, const std::string& text) {
  auto q = query::ParseSparql(
      std::string("PREFIX sp: <") + datagen::Sp2b::kNs + ">\n" + text,
      &answerer->dict());
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

TEST(Sp2bAgreementTest, EveryRefStrategyReturnsSatsAnswerPerQuery) {
  auto answerer = Sp2bAnswerer();
  for (const Sp2bQuery& spec : Sp2bQueries()) {
    SCOPED_TRACE(spec.name);
    const query::Cq q = ParseSp(answerer.get(), spec.text);
    AnswerOptions jucq;
    jucq.cover = query::Cover(spec.cover);
    ASSERT_TRUE(jucq.cover.Validate(q).ok());
    auto sat = answerer->Answer(q, Strategy::kSaturation);
    ASSERT_TRUE(sat.ok()) << sat.status();
    EXPECT_EQ(sat->NumRows(), spec.rows);
    const std::set<std::vector<rdf::TermId>> expected = sat->RowSet();
    for (Strategy s : {Strategy::kRefUcq, Strategy::kRefScq,
                       Strategy::kRefJucq, Strategy::kRefGcov}) {
      auto table = answerer->Answer(
          q, s, nullptr, s == Strategy::kRefJucq ? jucq : AnswerOptions{});
      ASSERT_TRUE(table.ok()) << StrategyName(s) << ": " << table.status();
      EXPECT_EQ(table->RowSet(), expected) << StrategyName(s);
    }
  }
}

// Serving under churn (DESIGN.md §11): readers answer the sp2b queries,
// through the view cache and around it, while a writer churns a property
// that no constraint and no query mentions and the version set freezes
// and compacts underneath. Every answer must be the quiet one, bit for bit.
TEST(Sp2bServingTest, AnswersUnderChurnAndCompactionEqualQuietOnes) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 2;  // odd rounds bypass the view cache
  constexpr size_t kBatch = 64;
  auto answerer = Sp2bAnswerer();
  answerer->EnableViewCache();

  // Interned before any thread starts: the dictionary is unsynchronized.
  rdf::Dictionary& dict = answerer->dict();
  const std::string ns = "http://rdfref.org/churn#";
  const rdf::TermId churn_p = dict.InternUri(ns + "p");
  std::vector<rdf::Triple> churn;
  for (size_t i = 0; i < kBatch; ++i) {
    churn.emplace_back(dict.InternUri(ns + "s" + std::to_string(i % 8)),
                       churn_p, dict.InternUri(ns + "o" + std::to_string(i)));
  }

  const Strategy strategies[] = {Strategy::kRefUcq, Strategy::kRefGcov};
  std::vector<query::Cq> queries;
  std::vector<std::vector<std::vector<rdf::TermId>>> quiet;
  for (const Sp2bQuery& spec : Sp2bQueries()) {
    queries.push_back(ParseSp(answerer.get(), spec.text));
    for (Strategy s : strategies) {
      auto table = answerer->Answer(queries.back(), s);
      ASSERT_TRUE(table.ok()) << spec.name << ": " << table.status();
      quiet.push_back(table->RowVectors());
    }
  }

  storage::VersionSet& versions = answerer->versions();
  const size_t size_before = versions.snapshot()->Materialize().size();
  storage::VersionSetOptions maintenance;
  maintenance.freeze_threshold = 24;  // a batch seals two runs on its own
  maintenance.compact_min_runs = 2;
  versions.StartBackgroundCompaction(maintenance);
  // The first churn write lands before any reader starts, so every read
  // overlaps the churn.
  ASSERT_TRUE(versions.Insert(churn[0]));

  // Readers run at least two full waves; the writer outlasts them.
  std::atomic<int> waves{0};
  std::atomic<int> readers_left{kReaders};
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kRounds || waves.load() < 2; ++round) {
        AnswerOptions options;
        options.use_view_cache = round % 2 == 0;
        for (size_t k = 0; k < quiet.size(); ++k) {
          // Each reader walks the calls from its own offset.
          const size_t i = (k + static_cast<size_t>(r) * 3) % quiet.size();
          auto table =
              answerer->Answer(queries[i / 2], strategies[i % 2], nullptr,
                               options);
          if (!table.ok() || table->RowVectors() != quiet[i]) {
            ++mismatches[static_cast<size_t>(r)];
          }
        }
      }
      readers_left.fetch_sub(1);
    });
  }

  // This thread writes in waves: insert the batch, freeze, remove the
  // batch, compact. Only a freeze adds a sealed run and only a compaction
  // removes one, so both show in the run count sampled after every step.
  bool froze = false;
  bool compacted = false;
  size_t last_runs = 0;
  auto sample = [&] {
    const size_t runs = versions.num_runs();
    if (readers_left.load() > 0) {
      froze = froze || runs > last_runs;
      compacted = compacted || runs < last_runs;
    }
    last_runs = runs;
  };
  size_t first = 1;  // churn[0] is in
  while (waves.load() < 2 || readers_left.load() > 0) {
    for (size_t i = first; i < churn.size(); ++i) {
      versions.Insert(churn[i]);
      sample();
    }
    first = 0;
    versions.Freeze();
    sample();
    for (const rdf::Triple& t : churn) {
      versions.Remove(t);
      sample();
    }
    versions.Compact();
    sample();
    waves.fetch_add(1);
  }
  for (std::thread& t : readers) t.join();
  versions.StopBackgroundCompaction();

  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(mismatches[r], 0) << r;
  EXPECT_TRUE(froze);
  EXPECT_TRUE(compacted);
  EXPECT_GT(answerer->view_cache_stats().hits, 0u);
  EXPECT_EQ(versions.snapshot()->Materialize().size(), size_before);
}

// Deadlines on an exploding REF-UCQ. These tests keep their own graph,
// hence the namespace: ExplodingGraph above cycles its ex:p edges through
// every individual, this one has a single two-edge ex:p path, so the full
// answer is one row.
namespace exploding_path {

// A schema whose class hierarchy makes the UCQ reformulation explode
// multiplicatively (Example-1-style): three type atoms, each reformulating
// into (subclasses + 1) members.
rdf::Graph ExplodingGraph(int subclasses) {
  std::string ttl = "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < subclasses; ++i) {
    ttl += "ex:C" + std::to_string(i) + " rdfs:subClassOf ex:Top .\n";
  }
  ttl += "ex:a a ex:C0 .\nex:b a ex:C1 .\nex:c a ex:C2 .\n";
  ttl += "ex:a ex:p ex:b .\nex:b ex:p ex:c .\n";
  rdf::Graph g;
  EXPECT_TRUE(rdf::TurtleParser::ParseString(ttl, &g).ok());
  return g;
}

// Acceptance: a 1 ms deadline on an exploding reformulation returns
// kDeadlineExceeded — no hang, no crash. Hierarchy encoding would collapse
// the explosion into interval atoms (that's its whole point), so this test
// pins use_encoding = false to keep the 51^3-member UCQ it is about.
TEST(AnswerDeadlineTest, ExplodingUcqHitsDeadline) {
  api::QueryAnswerer answerer(ExplodingGraph(50));
  auto q = query::ParseSparql(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?x ?y ?z WHERE { ?x a ex:Top . ?y a ex:Top . ?z a ex:Top . "
      "?x ex:p ?y . ?y ex:p ?z . }",
      &answerer.dict());
  ASSERT_TRUE(q.ok()) << q.status();

  api::AnswerOptions options;
  options.reform.use_encoding = false;

  // Sanity: without a deadline the 51^3 = 132,651-CQ UCQ evaluates fully.
  api::AnswerProfile profile;
  auto unbounded =
      answerer.Answer(*q, api::Strategy::kRefUcq, &profile, options);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(profile.reformulation_cqs, 132651u);
  EXPECT_EQ(unbounded->NumRows(), 1u);

  options.deadline = Deadline::AfterMillis(1.0);
  auto bounded = answerer.Answer(*q, api::Strategy::kRefUcq, nullptr, options);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kDeadlineExceeded);

  // The SCQ/JUCQ path checks the same deadline at its CQ boundaries.
  options.deadline = Deadline::AfterMicros(0);
  auto scq = answerer.Answer(*q, api::Strategy::kRefScq, nullptr, options);
  ASSERT_FALSE(scq.ok());
  EXPECT_EQ(scq.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(AnswerDeadlineTest, EvaluatorReportsProgressInMessage) {
  api::QueryAnswerer answerer(ExplodingGraph(3));
  auto q = query::ParseSparql(
      "PREFIX ex: <http://example.org/>\nSELECT ?x WHERE { ?x a ex:Top . }",
      &answerer.dict());
  ASSERT_TRUE(q.ok());
  reformulation::Reformulator ref(&answerer.schema());
  auto ucq = ref.Reformulate(*q);
  ASSERT_TRUE(ucq.ok());
  engine::Evaluator evaluator(&answerer.ref_store());
  auto r = evaluator.EvaluateUcq(*ucq, Deadline::AfterMicros(0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("0 of 4"), std::string::npos)
      << r.status();
}

}  // namespace exploding_path

}  // namespace
}  // namespace api
}  // namespace rdfref
