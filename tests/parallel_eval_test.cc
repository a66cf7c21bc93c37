#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/query_answering.h"
#include "datagen/lubm.h"
#include "engine/evaluator.h"
#include "query/sparql_parser.h"
#include "query/ucq.h"

namespace rdfref {
namespace {

constexpr const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

// -----------------------------------------------------------------------
// Parallel evaluation must be bit-identical to sequential evaluation.
// -----------------------------------------------------------------------

class ParallelEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::LubmConfig config;
    config.universities = 1;
    config.referenced_universities = 10;
    rdf::Graph graph;
    datagen::Lubm::Generate(config, &graph);
    answerer_ = std::make_unique<api::QueryAnswerer>(std::move(graph));
  }

  query::Cq Parse(const std::string& body) {
    auto q = query::ParseSparql(kUbPrefix + body, &answerer_->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  std::unique_ptr<api::QueryAnswerer> answerer_;
};

TEST_F(ParallelEvalTest, AnswersAreBitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> queries = {
      "SELECT ?x WHERE { ?x a ub:Person . }",
      "SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d . }",
      "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . ?x ub:memberOf ?z . }",
      "SELECT ?f ?c ?s WHERE { ?f ub:teacherOf ?c . "
      "?s ub:takesCourse ?c . ?s a ub:Student . }",
  };
  const std::vector<api::Strategy> strategies = {
      api::Strategy::kRefUcq, api::Strategy::kRefScq,
      api::Strategy::kRefGcov};
  for (const std::string& text : queries) {
    query::Cq q = Parse(text);
    for (api::Strategy strategy : strategies) {
      api::AnswerOptions sequential;
      sequential.threads = 1;
      auto base = answerer_->Answer(q, strategy, nullptr, sequential);
      ASSERT_TRUE(base.ok()) << base.status();
      for (int threads : {2, 4, 8}) {
        api::AnswerOptions parallel;
        parallel.threads = threads;
        auto got = answerer_->Answer(q, strategy, nullptr, parallel);
        ASSERT_TRUE(got.ok()) << got.status();
        // Bit-identical: same rows in the same order, no sorting applied.
        EXPECT_EQ(got->RowVectors(), base->RowVectors())
            << api::StrategyName(strategy) << " with " << threads
            << " threads on " << text;
        EXPECT_EQ(got->columns, base->columns);
      }
    }
  }
}

TEST_F(ParallelEvalTest, JucqProfileIsIdenticalAcrossThreadCounts) {
  query::Cq q = Parse(
      "SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d . }");
  api::AnswerOptions sequential;
  sequential.threads = 1;
  api::AnswerProfile base_profile;
  auto base =
      answerer_->Answer(q, api::Strategy::kRefScq, &base_profile, sequential);
  ASSERT_TRUE(base.ok()) << base.status();

  api::AnswerOptions parallel;
  parallel.threads = 4;
  api::AnswerProfile profile;
  auto got =
      answerer_->Answer(q, api::Strategy::kRefScq, &profile, parallel);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(profile.jucq.fragments.size(),
            base_profile.jucq.fragments.size());
  for (size_t i = 0; i < profile.jucq.fragments.size(); ++i) {
    EXPECT_EQ(profile.jucq.fragments[i].cover_fragment,
              base_profile.jucq.fragments[i].cover_fragment);
    EXPECT_EQ(profile.jucq.fragments[i].ucq_members,
              base_profile.jucq.fragments[i].ucq_members);
    EXPECT_EQ(profile.jucq.fragments[i].result_rows,
              base_profile.jucq.fragments[i].result_rows);
  }
}

TEST_F(ParallelEvalTest, DeadlineCancelsInsideASingleHugeCq) {
  // One disconnected CQ — a three-way cross product of unselective scans —
  // evaluated as a single-member UCQ: only the in-scan cancellation can
  // stop it, since there is no other CQ boundary to check at.
  query::Cq q = Parse(
      "SELECT ?x ?z ?s ?c ?f ?k WHERE { ?x ub:memberOf ?z . "
      "?s ub:takesCourse ?c . ?f ub:teacherOf ?k . }");
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  engine::Evaluator evaluator(snap.get());
  query::Ucq ucq({q});
  auto result = evaluator.EvaluateUcq(ucq, Deadline::AfterMicros(500));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("of 1 reformulation CQs"),
            std::string::npos)
      << result.status();
}

TEST_F(ParallelEvalTest, ParallelUcqReportsDeadlineWithMemberCounts) {
  query::Cq member = Parse(
      "SELECT ?x ?z ?s ?c WHERE { ?x ub:memberOf ?z . "
      "?s ub:takesCourse ?c . }");
  query::Ucq ucq({member, member, member, member});
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  engine::Evaluator evaluator(snap.get(), 4);
  auto result = evaluator.EvaluateUcq(ucq, Deadline::AfterMicros(200));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("of 4 reformulation CQs"),
            std::string::npos)
      << result.status();
}

TEST_F(ParallelEvalTest, EmptyAndSingleMemberUcqUnderParallelEvaluator) {
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  engine::Evaluator evaluator(snap.get(), 4);
  query::Ucq empty;
  auto none = evaluator.EvaluateUcq(empty, Deadline::Infinite());
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->NumRows(), 0u);

  query::Cq q = Parse("SELECT ?x WHERE { ?x a ub:Person . }");
  auto single = evaluator.EvaluateUcq(query::Ucq({q}), Deadline::Infinite());
  ASSERT_TRUE(single.ok());
  engine::Evaluator sequential(snap.get(), 1);
  auto base = sequential.EvaluateUcq(query::Ucq({q}), Deadline::Infinite());
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(single->RowVectors(), base->RowVectors());
}

TEST_F(ParallelEvalTest, ZeroResolvesToDefaultThreads) {
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  engine::Evaluator evaluator(snap.get(), 0);
  EXPECT_GE(evaluator.threads(), 2);
  evaluator.set_threads(1);
  EXPECT_EQ(evaluator.threads(), 1);
}

}  // namespace
}  // namespace rdfref
