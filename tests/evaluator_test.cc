#include "engine/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "api/query_answering.h"
#include "datagen/lubm.h"
#include "federation/federation.h"
#include "query/cover.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "storage/store.h"
#include "storage/version_set.h"
#include "testing/reference_eval.h"

namespace rdfref {
namespace engine {
namespace {

using query::Atom;
using query::Cq;
using query::Cover;
using query::QTerm;
using query::Ucq;
using query::VarId;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small social graph: knows edges and type assertions.
    ann_ = U("ann");
    bob_ = U("bob");
    carl_ = U("carl");
    knows_ = U("knows");
    person_ = U("Person");
    graph_.Add(ann_, knows_, bob_);
    graph_.Add(bob_, knows_, carl_);
    graph_.Add(carl_, knows_, ann_);
    graph_.Add(ann_, rdf::vocab::kTypeId, person_);
    graph_.Add(bob_, rdf::vocab::kTypeId, person_);
    store_ = std::make_unique<storage::Store>(graph_);
  }

  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  Cq Parse(const std::string& text) {
    auto q = query::ParseSparql(text, &graph_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  Table EvalDirect(const Cq& q) {
    Evaluator eval(store_.get());
    return eval.EvaluateCq(q);
  }

  rdf::Graph graph_;
  std::unique_ptr<storage::Store> store_;
  rdf::TermId ann_, bob_, carl_, knows_, person_;
};

TEST_F(EvaluatorTest, SingleAtomScan) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"));
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST_F(EvaluatorTest, TwoAtomJoin) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }"));
  t.Sort();
  ASSERT_EQ(t.NumRows(), 3u);  // ann→carl, bob→ann, carl→bob
}

TEST_F(EvaluatorTest, ConstantsRestrictMatches) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?y WHERE { <http://ex/ann> <http://ex/knows> ?y . }"));
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.row(0)[0], bob_);
}

TEST_F(EvaluatorTest, RepeatedVariableWithinAtom) {
  // Add a self-loop; ?x knows ?x must match only it.
  graph_.Add(carl_, knows_, carl_);
  store_ = std::make_unique<storage::Store>(graph_);
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?x . }"));
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.row(0)[0], carl_);
}

TEST_F(EvaluatorTest, CyclicTriangleJoin) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z ."
      " ?z <http://ex/knows> ?x . }"));
  EXPECT_EQ(t.NumRows(), 3u);  // each of the three rotations
}

TEST_F(EvaluatorTest, EmptyResultOnNoMatch) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x WHERE { ?x <http://ex/hates> ?y . }"));
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(EvaluatorTest, DuplicateAnswersAreEliminated) {
  Evaluator eval(store_.get());
  // ?x knows somebody: ann, bob, carl each once even with many matches.
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . "
            "?x a <http://ex/Person> . }"));
  EXPECT_EQ(t.NumRows(), 2u);  // ann, bob (carl is untyped)
}

TEST_F(EvaluatorTest, ConstantHeadSlotEmitted) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Const(bob_)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Const(person_));  // constant slot, as reformulation makes
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(q);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.row(0)[0], ann_);
  EXPECT_EQ(t.row(0)[1], person_);
}

TEST_F(EvaluatorTest, UcqUnionsAndDedups) {
  Cq q1 = Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . }");
  Cq q2 = Parse("SELECT ?x WHERE { ?x a <http://ex/Person> . }");
  Ucq ucq;
  ucq.Add(q1);
  ucq.Add(q2);
  Evaluator eval(store_.get());
  Table t = eval.EvaluateUcq(ucq);
  EXPECT_EQ(t.NumRows(), 3u);  // ann, bob, carl — union, deduplicated
}

TEST_F(EvaluatorTest, JucqEqualsDirectEvaluation) {
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . ?x a <http://ex/Person> . }");
  Table direct = EvalDirect(q);

  Cover cover({{0, 2}, {1}});
  ASSERT_TRUE(cover.Validate(q).ok());
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
  Evaluator eval(store_.get());
  JucqProfile profile;
  Table jucq = eval.EvaluateJucq(q, fragments, ucqs, &profile);

  direct.Sort();
  jucq.Sort();
  EXPECT_EQ(direct.RowVectors(), jucq.RowVectors());
  ASSERT_EQ(profile.fragments.size(), 2u);
  // Fragment labels name the atom indexes the fragment covers in q.
  EXPECT_EQ(profile.fragments[0].cover_fragment, "{t0,t2}");
  EXPECT_EQ(profile.fragments[1].cover_fragment, "{t1}");
  EXPECT_EQ(profile.fragments[0].ucq_members, 1u);
  EXPECT_GE(profile.total_millis, 0.0);
}

TEST_F(EvaluatorTest, JucqConstantHeadFragmentJoinsOnlyOnVariables) {
  // A fragment whose head carries a *constant* slot (reformulation rules
  // substitute constants into heads). The constant slot must not be
  // mistaken for a join column: term id 2 exists in every dictionary
  // (built-in vocabulary) and collides with the VarId of ?z, so a column
  // rebuild that calls h.var() on the constant would join fragment A's
  // constant column against ?z and wrongly drop every row.
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  VarId z = q.AddVar("z");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(y), QTerm::Const(knows_), QTerm::Var(z)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(z));
  ASSERT_EQ(static_cast<rdf::TermId>(z), 2u);

  Cq frag_a;
  frag_a.AddVar("x");
  frag_a.AddVar("y");
  frag_a.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  frag_a.AddHead(QTerm::Var(x));
  frag_a.AddHead(QTerm::Var(y));
  frag_a.AddHead(QTerm::Const(rdf::TermId(2)));

  Cq frag_b;
  frag_b.AddVar("x");
  frag_b.AddVar("y");
  frag_b.AddVar("z");
  frag_b.AddAtom(Atom(QTerm::Var(y), QTerm::Const(knows_), QTerm::Var(z)));
  frag_b.AddHead(QTerm::Var(y));
  frag_b.AddHead(QTerm::Var(z));

  Evaluator eval(store_.get());
  Table jucq = eval.EvaluateJucq(q, {frag_a, frag_b},
                                 {Ucq({frag_a}), Ucq({frag_b})});
  Table direct = EvalDirect(q);
  direct.Sort();
  jucq.Sort();
  EXPECT_EQ(direct.RowVectors(), jucq.RowVectors());
  EXPECT_EQ(jucq.NumRows(), 3u);  // ann→carl, bob→ann, carl→bob
}

TEST_F(EvaluatorTest, JucqEmptyFragmentUcqYieldsEmptyAnswer) {
  // A fragment whose reformulation is the empty UCQ contributes an empty
  // table; the join must produce the empty answer, not crash or ignore it.
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  Cover cover = Cover::Singletons(2);
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  ucqs.push_back(Ucq({fragments[0]}));
  ucqs.push_back(Ucq());  // empty reformulation
  Evaluator eval(store_.get());
  JucqProfile profile;
  Table t = eval.EvaluateJucq(q, fragments, ucqs, &profile);
  EXPECT_EQ(t.NumRows(), 0u);
  ASSERT_EQ(profile.fragments.size(), 2u);
  EXPECT_EQ(profile.fragments[1].ucq_members, 0u);
  EXPECT_EQ(profile.fragments[1].result_rows, 0u);
}

TEST_F(EvaluatorTest, JucqZeroFragmentsYieldsEmptyAnswer) {
  Cq q = Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . }");
  Evaluator eval(store_.get());
  Table t = eval.EvaluateJucq(q, {}, {});
  EXPECT_EQ(t.NumRows(), 0u);
  ASSERT_EQ(t.columns.size(), 1u);
}

TEST_F(EvaluatorTest, AtomOrderStartsSelective) {
  // knows has 3 matches; the type atom for Person has 2 — the plan leads
  // with the more selective atom.
  Cq q = Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . "
      "?x a <http://ex/Person> . }");
  Evaluator eval(store_.get());
  std::vector<int> order = eval.AtomOrder(q);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // the 2-match type scan leads
}

TEST_F(EvaluatorTest, ExplainCqRendersPlan) {
  Cq q = Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . "
      "?x a <http://ex/Person> . }");
  Evaluator eval(store_.get());
  std::string plan = eval.ExplainCq(q);
  EXPECT_NE(plan.find("scan"), std::string::npos);
  EXPECT_NE(plan.find("probe"), std::string::npos);
  EXPECT_NE(plan.find("index matches"), std::string::npos);

  // A triangle: once t0 binds ?x and ?y, t1 and t2 both expand to ?z, so
  // that depth is chosen per binding, and the last depth opens whichever
  // of the two is left.
  Cq triangle = Parse(
      "SELECT ?x ?y ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . ?x <http://ex/knows> ?z . }");
  const std::string triangle_plan =
      "CQ plan (index nested-loop join):\n"
      "  scan  t0  (~3 index matches unbound)\n"
      "  probe t1|t2  (per binding: fewest matches)\n"
      "  probe t1|t2  (per binding: follows the choice above)\n";
  EXPECT_EQ(eval.ExplainCq(triangle), triangle_plan);
  // The JUCQ rendering inherits it for a single-fragment cover.
  std::string jucq = eval.ExplainJucq(triangle, {triangle}, {Ucq({triangle})});
  EXPECT_NE(jucq.find("      probe t1|t2  (per binding: fewest matches)\n"),
            std::string::npos)
      << jucq;

  // A filter opens as soon as its variables are bound: here ?x and ?y,
  // bound by t0, make t2 a filter ahead of the static order's t1.
  Cq filtered = Parse(
      "SELECT ?x ?y ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . ?y <http://ex/knows> ?x . }");
  std::string filtered_plan = eval.ExplainCq(filtered);
  EXPECT_NE(filtered_plan.find("  probe t2  (~3"), std::string::npos)
      << filtered_plan;
  EXPECT_LT(filtered_plan.find("probe t2"), filtered_plan.find("probe t1"));
}

TEST_F(EvaluatorTest, ExplainJucqRendersFragments) {
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  query::Cover cover = query::Cover::Singletons(2);
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
  Evaluator eval(store_.get());
  std::string plan = eval.ExplainJucq(q, fragments, ucqs);
  EXPECT_NE(plan.find("materialize 2 fragment(s)"), std::string::npos);
  EXPECT_NE(plan.find("fragment 0"), std::string::npos);
}

TEST_F(EvaluatorTest, ExplainJucqNamesMembersBeforeMinimization) {
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  std::vector<Cq> fragments = Cover::Singletons(2).FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
  Evaluator eval(store_.get());
  std::string plan = eval.ExplainJucq(q, fragments, ucqs, {3, 1});
  EXPECT_NE(plan.find("  fragment 0: UCQ of 1 of 3 members, 1 body, "
                      "head arity 2\n"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("  fragment 1: UCQ of 1 of 1 members, 1 body, "
                      "head arity 2\n"),
            std::string::npos)
      << plan;
}

TEST_F(EvaluatorTest, ExplainJucqIndentsEveryNestedPlanLine) {
  // Golden rendering: every line of the nested CQ plan is indented —
  // including the final one, which an indenter that splits on '\n' and
  // ignores the unterminated tail would emit flush-left.
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  query::Cover cover = query::Cover::Singletons(2);
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
  Evaluator eval(store_.get());
  std::string plan = eval.ExplainJucq(q, fragments, ucqs);
  const std::string expected =
      "JUCQ plan: materialize 2 fragment(s), "
      "then hash-join smallest-connected-first:\n"
      "  fragment 0: UCQ of 1 CQ(s), 1 body, head arity 2\n"
      "    first member plan:\n"
      "    CQ plan (index nested-loop join):\n"
      "      scan  t0  (~3 index matches unbound)\n"
      "  fragment 1: UCQ of 1 CQ(s), 1 body, head arity 2\n"
      "    first member plan:\n"
      "    CQ plan (index nested-loop join):\n"
      "      scan  t0  (~3 index matches unbound)\n";
  EXPECT_EQ(plan, expected);
  // No nested line may appear without its indent.
  EXPECT_EQ(plan.find("\nCQ plan"), std::string::npos);
  EXPECT_EQ(plan.find("\n  scan"), std::string::npos);
}

// Forwards to a store and counts the rows its lookups return and the
// count calls it answers, so a test can bound the work a plan does instead
// of timing it. It claims distinct triples only when told to forward the
// inner source's claim.
class RowCountingSource : public storage::TripleSource {
 public:
  explicit RowCountingSource(const storage::TripleSource* inner,
                             bool forward_distinct = false)
      : inner_(inner), forward_distinct_(forward_distinct) {}

  bool TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                   std::span<const rdf::Triple>* out) const override {
    if (!inner_->TryGetRange(s, p, o, out)) return false;
    rows_ += out->size();
    ++lookups_[p];
    return true;
  }
  bool TryGetRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                         std::span<const rdf::Triple>* out,
                         storage::RangeHint* hint) const override {
    if (!inner_->TryGetRangeHinted(s, p, o, out, hint)) return false;
    rows_ += out->size();
    ++lookups_[p];
    return true;
  }
  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override {
    inner_->ScanInto(s, p, o, out);
    rows_ += out->size();
    ++lookups_[p];
  }
  bool TryGetIntervalRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                           int range_pos, rdf::TermId hi,
                           std::span<const rdf::Triple>* out) const override {
    return TryGetIntervalRangeHinted(s, p, o, range_pos, hi, out, nullptr);
  }
  bool TryGetIntervalRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 int range_pos, rdf::TermId hi,
                                 std::span<const rdf::Triple>* out,
                                 storage::RangeHint* hint) const override {
    if (!inner_->TryGetIntervalRangeHinted(s, p, o, range_pos, hi, out,
                                           hint)) {
      return false;
    }
    rows_ += out->size();
    return true;
  }
  void ScanIntervalInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                        int range_pos, rdf::TermId hi,
                        std::vector<rdf::Triple>* out) const override {
    inner_->ScanIntervalInto(s, p, o, range_pos, hi, out);
    rows_ += out->size();
  }
  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override {
    ++count_calls_;
    ++classic_counts_[rdf::Triple(s, p, o)];
    return inner_->CountMatches(s, p, o);
  }
  size_t CountIntervalMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                              int range_pos, rdf::TermId hi) const override {
    ++count_calls_;
    return inner_->CountIntervalMatches(s, p, o, range_pos, hi);
  }
  const rdf::Dictionary& dict() const override { return inner_->dict(); }
  bool DeliversDistinctTriples() const override {
    return forward_distinct_ && inner_->DeliversDistinctTriples();
  }

  uint64_t TakeRows() {
    const uint64_t rows = rows_;
    rows_ = 0;
    return rows;
  }

  // CountMatches and CountIntervalMatches calls since the last take.
  uint64_t TakeCountCalls() {
    const uint64_t calls = count_calls_;
    count_calls_ = 0;
    return calls;
  }

  // Classic range lookups with property `p` bound since the last take.
  uint64_t TakeLookups(rdf::TermId p) { return std::exchange(lookups_[p], 0); }

  // CountMatches calls for exactly (s, p, o) since the last take.
  uint64_t TakeCountCalls(rdf::TermId s, rdf::TermId p, rdf::TermId o) {
    return std::exchange(classic_counts_[rdf::Triple(s, p, o)], 0);
  }

 private:
  const storage::TripleSource* inner_;
  bool forward_distinct_;
  mutable uint64_t rows_ = 0;
  mutable uint64_t count_calls_ = 0;
  mutable std::map<rdf::TermId, uint64_t> lookups_;
  mutable std::map<rdf::Triple, uint64_t> classic_counts_;
};

// Wraps a store and delivers every match twice, through the buffered scan,
// claiming distinct triples when told to: the duplicates that survive show
// where the engine skipped deduplication.
class TwiceSource : public storage::TripleSource {
 public:
  TwiceSource(const storage::TripleSource* inner, bool claims_distinct)
      : inner_(inner), claims_distinct_(claims_distinct) {}

  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override {
    inner_->ScanInto(s, p, o, out);
    Double(out);
  }
  void ScanIntervalInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                        int range_pos, rdf::TermId hi,
                        std::vector<rdf::Triple>* out) const override {
    inner_->ScanIntervalInto(s, p, o, range_pos, hi, out);
    Double(out);
  }
  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override {
    return 2 * inner_->CountMatches(s, p, o);
  }
  size_t CountIntervalMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                              int range_pos, rdf::TermId hi) const override {
    return 2 * inner_->CountIntervalMatches(s, p, o, range_pos, hi);
  }
  const rdf::Dictionary& dict() const override { return inner_->dict(); }
  bool DeliversDistinctTriples() const override { return claims_distinct_; }

 private:
  // Each triple twice in a row, so the buffer keeps the index order.
  static void Double(std::vector<rdf::Triple>* out) {
    std::vector<rdf::Triple> twice;
    twice.reserve(2 * out->size());
    for (const rdf::Triple& t : *out) {
      twice.push_back(t);
      twice.push_back(t);
    }
    *out = std::move(twice);
  }

  const storage::TripleSource* inner_;
  bool claims_distinct_;
};

// SP2Bench's authorship skew on the coauthor-cites triangle. One hub
// author wrote kHub papers, each citing the next; kCold authors wrote two
// papers each, the first citing the second; unrelated citations make
// cites the larger property. The static order therefore opens both
// hasAuthor atoms first and pairs every hub paper with every other (about
// kHub² rows) before checking a citation. Choosing per binding opens the
// citation instead — one match against the hub's kHub — so every atom
// order of the query scans a linear number of rows.
TEST(EvaluatorSkewTest, TriangleOnHubAuthorScansLinearRows) {
  constexpr int kHub = 300;
  constexpr int kCold = 20;
  rdf::Graph graph;
  auto uri = [&](const std::string& name) {
    return graph.dict().InternUri("http://ex/" + name);
  };
  const rdf::TermId has_author = uri("hasAuthor");
  const rdf::TermId cites = uri("cites");
  for (int i = 0; i < kHub; ++i) {
    const rdf::TermId paper = uri("hub/" + std::to_string(i));
    graph.Add(paper, has_author, uri("hub"));
    if (i + 1 < kHub) {
      graph.Add(paper, cites, uri("hub/" + std::to_string(i + 1)));
    }
  }
  for (int k = 0; k < kCold; ++k) {
    const std::string author = "cold" + std::to_string(k);
    graph.Add(uri(author + "/0"), has_author, uri(author));
    graph.Add(uri(author + "/1"), has_author, uri(author));
    graph.Add(uri(author + "/0"), cites, uri(author + "/1"));
  }
  for (int j = 0; j < 2 * kHub; ++j) {
    graph.Add(uri("other/" + std::to_string(j)), cites,
              uri("other/" + std::to_string(j + 1)));
  }
  storage::Store store(graph);
  RowCountingSource source(&store);
  Evaluator eval(&source);

  const std::string atoms[3] = {"?x <http://ex/hasAuthor> ?a . ",
                                "?y <http://ex/hasAuthor> ?a . ",
                                "?x <http://ex/cites> ?y . "};
  int perm[3] = {0, 1, 2};
  do {
    const std::string text = "SELECT ?x ?y ?a WHERE { " + atoms[perm[0]] +
                             atoms[perm[1]] + atoms[perm[2]] + "}";
    auto q = query::ParseSparql(text, &graph.dict());
    ASSERT_TRUE(q.ok()) << q.status();
    source.TakeRows();
    const Table got = eval.EvaluateCq(*q);
    const uint64_t scanned = source.TakeRows();
    EXPECT_EQ(got.NumRows(), static_cast<size_t>(kHub - 1 + kCold)) << text;
    const Table want = rdfref::testing::ReferenceEvaluateCq(store, *q);
    const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
        "skew", got, want, *q, graph.dict());
    EXPECT_FALSE(d.found) << d.detail;
    EXPECT_LT(scanned, static_cast<uint64_t>(10 * kHub)) << text;
  } while (std::next_permutation(perm, perm + 3));

  // The static order's first two depths on their own: every pair of hub
  // papers, far beyond the bound above.
  auto pairs = query::ParseSparql(
      "SELECT ?x ?y ?a WHERE { " + atoms[0] + atoms[1] + "}", &graph.dict());
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  source.TakeRows();
  EXPECT_EQ(eval.EvaluateCq(*pairs).NumRows(),
            static_cast<size_t>(kHub * kHub + 2 * 2 * kCold));
  EXPECT_GT(source.TakeRows(), static_cast<uint64_t>(kHub * kHub));
}

// The coauthor-cites triangle again, with its citation atom an encoded
// reformulation's interval over four sub-properties, (?x [c0..c3] ?y).
// Once t0 binds ?x and ?a, t1 (?y hasAuthor ?a) and the interval atom
// compete per binding, and the interval's bound shape (x [c0..c3] ?) is
// contiguous on SPO: one CountIntervalMatches answers it exactly. Hub
// papers cite one paper each and so open the interval; cold first papers
// cite six and open t1; cold second papers cite none.
TEST(EvaluatorSkewTest, ContiguousIntervalExpansionCostsOneCountPerBinding) {
  constexpr int kHub = 60;
  constexpr int kCold = 20;
  rdf::Graph graph;
  auto uri = [&](const std::string& name) {
    return graph.dict().InternUri("http://ex/" + name);
  };
  std::vector<rdf::TermId> cites;
  for (int i = 0; i < 4; ++i) cites.push_back(uri("cites" + std::to_string(i)));
  ASSERT_EQ(cites[3], cites[0] + 3);  // interned consecutively: an interval
  const rdf::TermId has_author = uri("hasAuthor");
  for (int i = 0; i < kHub; ++i) {
    const rdf::TermId paper = uri("hub/" + std::to_string(i));
    graph.Add(paper, has_author, uri("hub"));
    if (i + 1 < kHub) {
      graph.Add(paper, cites[i % 4], uri("hub/" + std::to_string(i + 1)));
    }
  }
  for (int k = 0; k < kCold; ++k) {
    const std::string author = "cold" + std::to_string(k);
    graph.Add(uri(author + "/0"), has_author, uri(author));
    graph.Add(uri(author + "/1"), has_author, uri(author));
    graph.Add(uri(author + "/0"), cites[k % 4], uri(author + "/1"));
    for (int j = 0; j < 5; ++j) {
      graph.Add(uri(author + "/0"), cites[(k + j) % 4],
                uri(author + "/ref" + std::to_string(j)));
    }
  }
  // Unrelated citations keep the interval the larger atom unbound, so the
  // static order opens t0 and t1 first.
  for (int j = 0; j < 4 * kHub; ++j) {
    graph.Add(uri("other/" + std::to_string(j)), cites[j % 4],
              uri("other/" + std::to_string(j + 1)));
  }
  storage::Store store(graph);
  RowCountingSource source(&store);
  Evaluator eval(&source);

  auto q = query::ParseSparql(
      "SELECT ?x ?y ?a WHERE { ?x <http://ex/hasAuthor> ?a . "
      "?y <http://ex/hasAuthor> ?a . ?x <http://ex/cites0> ?y . }",
      &graph.dict());
  ASSERT_TRUE(q.ok()) << q.status();
  Atom& interval = (*q->mutable_body())[2];
  interval.range_pos = Atom::kRangeP;
  interval.range_hi = cites[3];

  EXPECT_EQ(eval.ExplainCq(*q),
            "CQ plan (index nested-loop join):\n"
            "  scan  t0  (~" + std::to_string(kHub + 2 * kCold) +
                " index matches unbound)\n"
            "  probe t1|t2  (per binding: fewest matches)\n"
            "  probe t1|t2  (per binding: follows the choice above)\n");

  // Planning's own counts, measured apart from the join's.
  source.TakeCountCalls();
  EXPECT_EQ(eval.AtomOrder(*q), (std::vector<int>{0, 1, 2}));
  const uint64_t plan_calls = source.TakeCountCalls();
  const Table got = eval.EvaluateCq(*q);
  const uint64_t eval_calls = source.TakeCountCalls();
  EXPECT_EQ(got.NumRows(), static_cast<size_t>(kHub - 1 + kCold));
  const Table want = rdfref::testing::ReferenceEvaluateCq(store, *q);
  const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
      "interval-skew", got, want, *q, graph.dict());
  EXPECT_FALSE(d.found) << d.detail;
  // Each distinct key of a competing atom is counted once: t1 once per
  // author (?a), the interval once per paper (?x), which t0 binds once
  // each. Summing the interval per id would cost four calls per paper.
  const uint64_t authors = 1 + kCold;
  const uint64_t papers = kHub + 2 * kCold;
  EXPECT_EQ(eval_calls, plan_calls + authors + papers);
}

// The coauthor-cites triangle whose hub author wrote kHub papers: every hub
// binding of t0 (?x hasAuthor hub) asks how many papers the hub wrote
// before choosing t1 or the citation. The count depends only on the key,
// so the evaluation asks the source once.
TEST(EvaluatorSkewTest, RepeatedBoundKeysAreCountedOnce) {
  constexpr int kHub = 50;
  constexpr int kCold = 10;
  rdf::Graph graph;
  auto uri = [&](const std::string& name) {
    return graph.dict().InternUri("http://ex/" + name);
  };
  const rdf::TermId has_author = uri("hasAuthor");
  const rdf::TermId cites = uri("cites");
  const rdf::TermId hub = uri("hub");
  for (int i = 0; i < kHub; ++i) {
    const rdf::TermId paper = uri("hub/" + std::to_string(i));
    graph.Add(paper, has_author, hub);
    if (i + 1 < kHub) {
      graph.Add(paper, cites, uri("hub/" + std::to_string(i + 1)));
    }
  }
  for (int k = 0; k < kCold; ++k) {
    const std::string author = "cold" + std::to_string(k);
    graph.Add(uri(author + "/0"), has_author, uri(author));
    graph.Add(uri(author + "/1"), has_author, uri(author));
    graph.Add(uri(author + "/0"), cites, uri(author + "/1"));
  }
  for (int j = 0; j < 2 * kHub; ++j) {
    graph.Add(uri("other/" + std::to_string(j)), cites,
              uri("other/" + std::to_string(j + 1)));
  }
  storage::Store store(graph);
  RowCountingSource source(&store);
  Evaluator eval(&source);
  auto q = query::ParseSparql(
      "SELECT ?x ?y ?a WHERE { ?x <http://ex/hasAuthor> ?a . "
      "?y <http://ex/hasAuthor> ?a . ?x <http://ex/cites> ?y . }",
      &graph.dict());
  ASSERT_TRUE(q.ok()) << q.status();

  // Planning's own counts, measured apart from the join's.
  source.TakeCountCalls();
  ASSERT_EQ(eval.AtomOrder(*q), (std::vector<int>{0, 1, 2}));
  const uint64_t plan_calls = source.TakeCountCalls();
  const Table got = eval.EvaluateCq(*q);
  EXPECT_EQ(source.TakeCountCalls(storage::kAny, has_author, hub), 1u);
  // Each of the kCold cold authors is asked once too, and each paper's
  // citations once: the source answers one count per distinct key.
  const uint64_t authors = 1 + kCold;
  const uint64_t papers = kHub + 2 * kCold;
  EXPECT_EQ(source.TakeCountCalls(), plan_calls + authors + papers);
  EXPECT_EQ(got.NumRows(), static_cast<size_t>(kHub - 1 + kCold));
  const Table want = rdfref::testing::ReferenceEvaluateCq(store, *q);
  const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
      "repeated-keys", got, want, *q, graph.dict());
  EXPECT_FALSE(d.found) << d.detail;
}

// The triangle once more, with each hub paper citing the next three: the
// citation opens first for every binding, so t1 (?y hasAuthor ?a) is a
// filter probed once per citation, more often than hasAuthor has triples.
// Past that many probes the join opens a hash of t1's matches instead of
// the index. A group holds exactly the probe's triples and a filter binds
// nothing, so every table stays bit-identical to the reference evaluator:
// on a store, on a snapshot whose matches span a sealed run and the head,
// and on a source that delivers duplicates, which keeps to the index.
TEST(EvaluatorSkewTest, HotFilterProbesAHashOfItsMatches) {
  constexpr int kHub = 120;
  constexpr int kCold = 10;
  constexpr int kFanout = 3;
  rdf::Graph graph;
  auto uri = [&](const std::string& name) {
    return graph.dict().InternUri("http://ex/" + name);
  };
  const rdf::TermId has_author = uri("hasAuthor");
  const rdf::TermId cites = uri("cites");
  auto hub_paper = [&](int i) { return uri("hub/" + std::to_string(i)); };
  size_t filter_probes = 0;  // citations from a paper with an author
  for (int i = 0; i < kHub; ++i) {
    graph.Add(hub_paper(i), has_author, uri("hub"));
    for (int j = i + 1; j <= i + kFanout && j < kHub; ++j) {
      graph.Add(hub_paper(i), cites, hub_paper(j));
      ++filter_probes;
    }
  }
  std::vector<rdf::Triple> late;  // inserted after the store is built
  for (int k = 0; k < kCold; ++k) {
    const std::string author = "cold" + std::to_string(k);
    const rdf::TermId first = uri(author + "/0");
    const rdf::TermId second = uri(author + "/1");
    graph.Add(first, has_author, uri(author));
    graph.Add(first, cites, second);
    ++filter_probes;
    late.emplace_back(second, has_author, uri(author));
  }
  for (int j = 0; j < 4 * kHub; ++j) {
    graph.Add(uri("other/" + std::to_string(j)), cites,
              uri("other/" + std::to_string(j + 1)));
  }
  storage::Store store(graph);
  for (const rdf::Triple& t : late) graph.Add(t);
  storage::Store full(graph);
  // The same visible triples as `full`, half in a sealed run, the rest in
  // the head.
  storage::VersionSet versions(&store);
  for (size_t k = 0; k < late.size(); ++k) {
    ASSERT_TRUE(versions.Insert(late[k]));
    if (k + 1 == late.size() / 2) versions.Freeze();
  }
  const storage::SnapshotPtr snapshot = versions.snapshot();
  ASSERT_GT(snapshot->num_runs(), 0u);
  ASSERT_GT(snapshot->head_size(), 0u);

  auto q = query::ParseSparql(
      "SELECT ?x ?y ?a WHERE { ?x <http://ex/hasAuthor> ?a . "
      "?y <http://ex/hasAuthor> ?a . ?x <http://ex/cites> ?y . }",
      &graph.dict());
  ASSERT_TRUE(q.ok()) << q.status();
  const Table want = rdfref::testing::ReferenceEvaluateCq(full, *q);
  ASSERT_EQ(want.NumRows(), filter_probes);
  // hasAuthor's triples: the threshold the filter's probes must pass.
  const size_t matches = kHub + 2 * kCold;
  ASSERT_GT(filter_probes, matches);

  auto check = [&](const storage::TripleSource& inner, const char* name,
                   bool hashes) {
    RowCountingSource source(&inner, /*forward_distinct=*/true);
    const Table got = Evaluator(&source).EvaluateCq(*q);
    const rdfref::testing::Divergence d =
        rdfref::testing::CompareBitForBit(name, got, want, *q, graph.dict());
    EXPECT_FALSE(d.found) << d.detail;
    // t0's scan, then t1's probes: all of them through the index, or up to
    // the threshold and then one read of t1's matches for the hash.
    const uint64_t lookups = source.TakeLookups(has_author);
    if (hashes) {
      EXPECT_LE(lookups, 2 + matches) << name;
    } else {
      EXPECT_GE(lookups, 1 + filter_probes) << name;
    }
  };
  check(full, "hashed-filter-store", /*hashes=*/true);
  check(*snapshot, "hashed-filter-snapshot", /*hashes=*/true);
  const TwiceSource twice(&full, /*claims_distinct=*/false);
  check(twice, "hashed-filter-duplicates", /*hashes=*/false);
}

// A filter whose interval no order keeps contiguous, (?w [c0..c1] target):
// its threshold is the widened count of (? ? target), which a property
// outside the interval fills, while the interval itself matches nothing.
// Twenty probes pass the threshold of six, and the hash built over no
// matches opens an empty group for every probe.
TEST(EvaluatorSkewTest, HashedFilterOverAnEmptyIntervalMatchesNothing) {
  rdf::Graph graph;
  auto uri = [&](const std::string& name) {
    return graph.dict().InternUri("http://ex/" + name);
  };
  const rdf::TermId c0 = uri("c0");
  const rdf::TermId c1 = uri("c1");
  ASSERT_EQ(c1, c0 + 1);
  const rdf::TermId target = uri("target");
  for (int i = 0; i < 4; ++i) {
    graph.Add(uri("x" + std::to_string(i)), uri("r"), uri("z"));
  }
  for (int j = 0; j < 5; ++j) {
    graph.Add(uri("z"), uri("s"), uri("w" + std::to_string(j)));
  }
  for (int k = 0; k < 6; ++k) {
    graph.Add(uri("w" + std::to_string(k)), uri("other"), target);
  }
  storage::Store store(graph);
  RowCountingSource source(&store, /*forward_distinct=*/true);
  auto q = query::ParseSparql(
      "SELECT ?x ?w WHERE { ?x <http://ex/r> ?z . ?z <http://ex/s> ?w . "
      "?w <http://ex/c0> <http://ex/target> . }",
      &graph.dict());
  ASSERT_TRUE(q.ok()) << q.status();
  Atom& interval = (*q->mutable_body())[2];
  interval.range_pos = Atom::kRangeP;
  interval.range_hi = c1;
  Evaluator eval(&source);
  ASSERT_EQ(eval.AtomOrder(*q), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eval.EvaluateCq(*q).NumRows(), 0u);
  EXPECT_EQ(rdfref::testing::ReferenceEvaluateCq(store, *q).NumRows(), 0u);
}

// Existential pruning (DESIGN.md §9) skips only emissions that repeat an
// earlier one, so every shape it prunes must still equal the reference
// evaluator, which never prunes, bit for bit.
class EvaluatorPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Interned first, the literal sorts before every URI object: it is the
    // first match of each `likes` run it belongs to.
    literal_ = graph_.dict().InternLiteral("plain");
    ann_ = U("ann");
    bob_ = U("bob");
    carl_ = U("carl");
    dan_ = U("dan");
    knows_ = U("knows");
    likes_ = U("likes");
    person_ = U("Person");
    // Several knows edges per subject, and one self-loop.
    graph_.Add(ann_, knows_, bob_);
    graph_.Add(ann_, knows_, carl_);
    graph_.Add(ann_, knows_, dan_);
    graph_.Add(bob_, knows_, carl_);
    graph_.Add(bob_, knows_, dan_);
    graph_.Add(carl_, knows_, ann_);
    graph_.Add(dan_, knows_, dan_);
    graph_.Add(ann_, rdf::vocab::kTypeId, person_);
    graph_.Add(bob_, rdf::vocab::kTypeId, person_);
    graph_.Add(dan_, rdf::vocab::kTypeId, person_);
    // ann likes the literal and bob; carl likes only the literal.
    graph_.Add(ann_, likes_, literal_);
    graph_.Add(ann_, likes_, bob_);
    graph_.Add(carl_, likes_, literal_);
    store_ = std::make_unique<storage::Store>(graph_);
  }

  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  Cq Parse(const std::string& text) {
    auto q = query::ParseSparql(text, &graph_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  // EvaluateCq on q, and EvaluateUcq on the union of q with itself, against
  // the reference evaluator, bit for bit. Returns EvaluateCq's table.
  Table ExpectReference(const Cq& q) {
    Evaluator eval(store_.get());
    const Table got = eval.EvaluateCq(q);
    rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
        "cq", got, rdfref::testing::ReferenceEvaluateCq(*store_, q), q,
        graph_.dict());
    EXPECT_FALSE(d.found) << d.detail;
    const Ucq ucq({q, q});
    d = rdfref::testing::CompareBitForBit(
        "ucq", eval.EvaluateUcq(ucq),
        rdfref::testing::ReferenceEvaluateUcq(*store_, ucq), q, graph_.dict());
    EXPECT_FALSE(d.found) << d.detail;
    return got;
  }

  rdf::Graph graph_;
  std::unique_ptr<storage::Store> store_;
  rdf::TermId literal_, ann_, bob_, carl_, dan_, knows_, likes_, person_;
};

TEST_F(EvaluatorPruningTest, TrailingExistential) {
  const Cq q = Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . }");
  EXPECT_EQ(ExpectReference(q).NumRows(), 4u);
  Evaluator eval(store_.get());
  EXPECT_NE(eval.ExplainCq(q).find("scan  t0  (~7 index matches unbound) "
                                   "(distinct s)\n"),
            std::string::npos)
      << eval.ExplainCq(q);
}

TEST_F(EvaluatorPruningTest, AllExistentialFilterFrame) {
  // t1 binds only ?y, which nothing reads: one match per ?x decides.
  const Cq semi = Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . "
      "?x a <http://ex/Person> . }");
  EXPECT_EQ(ExpectReference(semi).NumRows(), 3u);
  Evaluator eval(store_.get());
  EXPECT_EQ(eval.ExplainCq(semi),
            "CQ plan (index nested-loop join):\n"
            "  scan  t1  (~3 index matches unbound)\n"
            "  probe t0  (~7 index matches unbound) (exists)\n");
  // An unconnected frame of existential variables only: the whole depth
  // is one existence test.
  ExpectReference(Parse(
      "SELECT ?x WHERE { ?x a <http://ex/Person> . "
      "?y <http://ex/likes> ?z . }"));
  ExpectReference(Parse(
      "SELECT ?x WHERE { ?x a <http://ex/Person> . "
      "?y <http://ex/hates> ?z . }"));
}

TEST_F(EvaluatorPruningTest, BackjumpOverFrameOnlyADeeperFrameReads) {
  // Order t0, t1, t2: ?y is read only by t2, and after an emit the join
  // returns to t0, the deepest depth that binds a head variable, past
  // t1's remaining ?y.
  const Cq q = Parse(
      "SELECT ?x WHERE { ?x a <http://ex/Person> . ?x <http://ex/knows> ?y ."
      " ?y <http://ex/knows> ?z . }");
  Evaluator eval(store_.get());
  ASSERT_EQ(eval.AtomOrder(q), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ExpectReference(q).NumRows(), 3u);
  // A head variable bound in the middle: the emit returns to t1.
  ExpectReference(Parse(
      "SELECT ?y WHERE { ?x a <http://ex/Person> . ?x <http://ex/knows> ?y ."
      " ?y <http://ex/knows> ?z . }"));
}

TEST_F(EvaluatorPruningTest, ResourceOnlyExistentialWhoseFirstMatchIsALiteral) {
  // ?w may bind only resources, and each `likes` run starts with the
  // literal. A run skip keys on its last *successful* bind, and the
  // semi-join (the second query's t1) stops only after one.
  for (const char* text :
       {"SELECT ?x WHERE { ?x <http://ex/likes> ?w . }",
        "SELECT ?x WHERE { ?x a <http://ex/Person> . "
        "?x <http://ex/likes> ?w . }"}) {
    Cq q = Parse(text);
    const Atom& likes = q.body().back();
    q.AddResourceVar(likes.o.var());
    Evaluator eval(store_.get());
    EXPECT_NE(eval.ExplainCq(q).find(q.body().size() == 1 ? "(distinct s)"
                                                          : "t1  (~3 index "
                                                            "matches unbound)"
                                                            " (exists)"),
              std::string::npos)
        << eval.ExplainCq(q);
    const Table got = ExpectReference(q);
    ASSERT_EQ(got.NumRows(), 1u) << text;  // carl likes only the literal
    EXPECT_EQ(got.row(0)[0], ann_);
  }
}

TEST_F(EvaluatorPruningTest, RepeatedVariable) {
  EXPECT_EQ(ExpectReference(Parse("SELECT ?y WHERE { ?y <http://ex/knows> ?x"
                                  " . ?x <http://ex/knows> ?x . }"))
                .NumRows(),
            3u);  // ann, bob and dan know dan
  ExpectReference(Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?x . ?x <http://ex/knows> ?y"
      " . }"));
}

TEST_F(EvaluatorPruningTest, ConstantOnlyHead) {
  Cq q;
  const VarId x = q.AddVar("x");
  const VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(y), QTerm::Const(knows_), QTerm::Const(dan_)));
  q.AddHead(QTerm::Const(person_));
  const Table got = ExpectReference(q);
  ASSERT_EQ(got.NumRows(), 1u);
  EXPECT_EQ(got.row(0)[0], person_);
}

TEST_F(EvaluatorPruningTest, ZeroArityHead) {
  Cq q;
  const VarId x = q.AddVar("x");
  const VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(y), QTerm::Const(rdf::vocab::kTypeId),
                 QTerm::Const(person_)));
  EXPECT_EQ(ExpectReference(q).NumRows(), 1u);
  Cq none;
  const VarId z = none.AddVar("z");
  none.AddAtom(Atom(QTerm::Var(z), QTerm::Const(likes_), QTerm::Const(dan_)));
  EXPECT_EQ(ExpectReference(none).NumRows(), 0u);
}

TEST_F(EvaluatorPruningTest, InnerFrameOpensOncePerDistinctBinding) {
  // likes has fewer matches, so it leads; each ?x opens the knows atom
  // once, however many ?w it likes.
  const Cq q = Parse(
      "SELECT ?x WHERE { ?x <http://ex/likes> ?w . "
      "?x <http://ex/knows> ?y . }");
  RowCountingSource source(store_.get());
  Evaluator eval(&source);
  ASSERT_EQ(eval.AtomOrder(q), (std::vector<int>{0, 1}));
  source.TakeLookups(knows_);
  const Table got = eval.EvaluateCq(q);
  EXPECT_EQ(got.NumRows(), 2u);  // ann and carl
  EXPECT_EQ(source.TakeLookups(knows_), 2u);  // one per distinct ?x, not 3
  const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
      "opens", got, rdfref::testing::ReferenceEvaluateCq(*store_, q), q,
      graph_.dict());
  EXPECT_FALSE(d.found) << d.detail;
}

// Example 1's shape: under the singleton cover, `?x a ?u` and `?y a ?v`
// are one fragment up to variable names, and so are the two `knows` atoms.
// The repeats reuse the first evaluation's table, and the JUCQ still
// equals the whole query's UCQ.
TEST_F(EvaluatorPruningTest, JucqReusesRepeatedFragment) {
  // A domain constraint makes each type fragment a union of two CQs.
  graph_.Add(likes_, rdf::vocab::kDomainId, person_);
  store_ = std::make_unique<storage::Store>(graph_);
  schema::Schema schema = schema::Schema::FromGraph(graph_);
  schema.Saturate();
  reformulation::Reformulator ref(&schema);

  const Cq q = Parse(
      "SELECT ?x ?u ?y ?v ?z WHERE { ?x a ?u . ?y a ?v . "
      "?x <http://ex/knows> ?z . ?y <http://ex/knows> ?z . }");
  const std::vector<Cq> fragments = Cover::Singletons(4).FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) {
    auto ucq = ref.Reformulate(f);
    ASSERT_TRUE(ucq.ok()) << ucq.status();
    ucqs.push_back(*ucq);
  }
  ASSERT_GT(ucqs[0].size(), 1u);

  Evaluator eval(store_.get());
  JucqProfile profile;
  Table jucq = eval.EvaluateJucq(q, fragments, ucqs, &profile);
  auto whole = ref.Reformulate(q);
  ASSERT_TRUE(whole.ok()) << whole.status();
  Table direct = eval.EvaluateUcq(*whole);
  jucq.Sort();
  direct.Sort();
  EXPECT_EQ(jucq.RowVectors(), direct.RowVectors());
  EXPECT_GT(jucq.NumRows(), 0u);

  ASSERT_EQ(profile.fragments.size(), 4u);
  EXPECT_EQ(profile.fragments[0].same_as, -1);
  EXPECT_EQ(profile.fragments[1].same_as, 0);
  EXPECT_EQ(profile.fragments[2].same_as, -1);
  EXPECT_EQ(profile.fragments[3].same_as, 2);
  EXPECT_EQ(profile.fragments[1].result_rows, profile.fragments[0].result_rows);
  EXPECT_EQ(profile.fragments[3].result_rows, profile.fragments[2].result_rows);
  EXPECT_EQ(profile.fragments[1].cover_fragment, "{t1}");
  EXPECT_EQ(profile.fragments[1].ucq_members, ucqs[1].size());

  const std::string plan = eval.ExplainJucq(q, fragments, ucqs);
  EXPECT_NE(plan.find("  fragment 1: UCQ of " + std::to_string(ucqs[1].size()) +
                      " CQ(s), head arity 2, same as fragment 0\n"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("head arity 2, same as fragment 2\n"), std::string::npos)
      << plan;
}


TEST_F(EvaluatorPruningTest, DedupSkippedOnlyWhereRowsCannotRepeat) {
  EXPECT_TRUE(store_->DeliversDistinctTriples());
  const TwiceSource lying(store_.get(), /*claims_distinct=*/true);
  const TwiceSource honest(store_.get(), /*claims_distinct=*/false);
  const Cq pairs = Parse("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }");
  // Every body variable in the head, no interval, a source claiming
  // distinct triples: no deduplication, so the source's repeats survive.
  EXPECT_EQ(Evaluator(&lying).EvaluateCq(pairs).NumRows(), 14u);
  EXPECT_EQ(Evaluator(&lying).EvaluateUcq(Ucq({pairs})).NumRows(), 14u);
  // Refused: a source that does not claim distinct triples.
  EXPECT_EQ(Evaluator(&honest).EvaluateCq(pairs).NumRows(), 7u);
  EXPECT_EQ(Evaluator(&honest).EvaluateUcq(Ucq({pairs})).NumRows(), 7u);
  // Refused: two members may derive one row.
  EXPECT_EQ(Evaluator(&lying).EvaluateUcq(Ucq({pairs, pairs})).NumRows(), 7u);
  // Refused: an existential variable.
  const Cq subjects =
      Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . }");
  EXPECT_EQ(Evaluator(&lying).EvaluateCq(subjects).NumRows(), 4u);
  EXPECT_EQ(Evaluator(&lying).EvaluateUcq(Ucq({subjects})).NumRows(), 4u);

  // Refused: an interval atom, whose ranged position is a hidden
  // existential. (?x [knows..likes] ?y) matches (ann knows bob) and (ann
  // likes bob), so even the store's distinct triples give (ann, bob) twice:
  // 7 knows pairs and 3 likes pairs hold 9 distinct ones.
  ASSERT_EQ(likes_, knows_ + 1);
  Cq ranged = pairs;
  Atom& atom = (*ranged.mutable_body())[0];
  atom.range_pos = Atom::kRangeP;
  atom.range_hi = likes_;
  EXPECT_EQ(Evaluator(store_.get()).EvaluateCq(ranged).NumRows(), 9u);
  EXPECT_EQ(Evaluator(store_.get()).EvaluateUcq(Ucq({ranged})).NumRows(), 9u);
  EXPECT_EQ(Evaluator(&lying).EvaluateCq(ranged).NumRows(), 9u);
}

TEST_F(EvaluatorPruningTest, JucqSkipsTheFinalDedupOnlyWhenNoColumnIsDropped) {
  const TwiceSource lying(store_.get(), /*claims_distinct=*/true);
  const Cq path = Parse(
      "SELECT ?x ?y ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  const Cq ends = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  auto jucq_rows = [&](const Cq& q) {
    const std::vector<Cq> fragments = Cover::Singletons(2).FragmentQueries(q);
    std::vector<Ucq> ucqs;
    for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
    return Evaluator(&lying).EvaluateJucq(q, fragments, ucqs).NumRows();
  };
  const Evaluator exact(store_.get());
  // Each fragment table holds every row twice, so every joined row comes
  // four times; keeping every joined column, the projection keeps them.
  EXPECT_EQ(jucq_rows(path), 4 * exact.EvaluateCq(path).NumRows());
  // Dropping ?y, it deduplicates.
  EXPECT_EQ(jucq_rows(ends), exact.EvaluateCq(ends).NumRows());
}

// A one-fragment cover's joined table already has the query's head as its
// columns, so EvaluateJucq copies its rows as one block: the answer equals
// EvaluateUcq of the fragment's union bit for bit (rows, order, columns).
TEST_F(EvaluatorPruningTest, OneFragmentJucqIsItsUnionsTable) {
  // A domain constraint makes the union two members that share rows.
  graph_.Add(likes_, rdf::vocab::kDomainId, person_);
  store_ = std::make_unique<storage::Store>(graph_);
  schema::Schema schema = schema::Schema::FromGraph(graph_);
  schema.Saturate();
  reformulation::Reformulator ref(&schema);

  const Cq q = Parse(
      "SELECT ?x ?y WHERE { ?x a <http://ex/Person> . "
      "?x <http://ex/knows> ?y . }");
  const std::vector<Cq> fragments = Cover({{0, 1}}).FragmentQueries(q);
  auto ucq = ref.Reformulate(fragments[0]);
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  ASSERT_GT(ucq->size(), 1u);

  const Evaluator eval(store_.get());
  JucqProfile profile;
  const Table jucq = eval.EvaluateJucq(q, fragments, {*ucq}, &profile);
  const Table unioned = eval.EvaluateUcq(*ucq);
  const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
      "one-fragment jucq", jucq, unioned, q, graph_.dict());
  EXPECT_FALSE(d.found) << d.detail;
  EXPECT_EQ(jucq.columns, (std::vector<VarId>{q.head()[0].var(),
                                              q.head()[1].var()}));
  EXPECT_GT(jucq.NumRows(), 0u);
  ASSERT_EQ(profile.fragments.size(), 1u);
  EXPECT_EQ(profile.fragments[0].result_rows, jucq.NumRows());
}

// Heads that are not the joined table's columns in order still project,
// and deduplicate where the projection drops a joined column.
TEST_F(EvaluatorPruningTest, OneFragmentJucqProjectsOtherHeads) {
  const Cq base = Parse(
      "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . "
      "?x a <http://ex/Person> . }");
  const VarId x = base.head()[0].var();
  const VarId y = base.head()[1].var();
  const std::vector<std::vector<QTerm>> heads = {
      {QTerm::Var(x), QTerm::Const(person_)},  // a constant slot
      {QTerm::Var(x), QTerm::Var(x)},          // a repeated slot
      {QTerm::Var(y), QTerm::Var(x)},          // the columns swapped
      {QTerm::Var(x)},                         // ?y dropped
  };
  const Evaluator eval(store_.get());
  const Table fragment = eval.EvaluateCq(base);
  EXPECT_EQ(fragment.NumRows(), 6u);
  for (const std::vector<QTerm>& head : heads) {
    Cq q = base;
    *q.mutable_head() = head;
    // The one fragment is `base`, whose table has the columns (?x, ?y).
    const Table jucq = eval.EvaluateJucq(q, {base}, {Ucq({base})});
    const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
        "jucq", jucq, eval.EvaluateCq(q), q, graph_.dict());
    EXPECT_FALSE(d.found) << q.ToString(graph_.dict()) << "\n" << d.detail;
    // Only the swap keeps both columns; the rest leave ann, bob and dan.
    EXPECT_EQ(jucq.NumRows(), head[0] == QTerm::Var(y) ? 6u : 3u);
  }
}

TEST_F(EvaluatorPruningTest, FederatedSourceKeepsDeduplicating) {
  // Two endpoints holding the same graph deliver every triple twice.
  federation::Federation fed;
  fed.AddEndpoint("a", graph_);
  fed.AddEndpoint("b", graph_);
  EXPECT_FALSE(fed.source().DeliversDistinctTriples());
  auto q = query::ParseSparql(
      "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }", &fed.dict());
  ASSERT_TRUE(q.ok()) << q.status();
  Evaluator eval(&fed.source());
  EXPECT_EQ(eval.EvaluateCq(*q).NumRows(), 7u);
  EXPECT_EQ(eval.EvaluateUcq(Ucq({*q})).NumRows(), 7u);
}

// One join per distinct member body, one subtree per first-depth key, one
// pass per one-atom CQ (DESIGN.md §9): each must leave every returned
// table bit-identical to the reference evaluator's.
class EvaluatorSharingTest : public EvaluatorPruningTest {
 protected:
  // q(?x, ?z, c) :- ?x knows ?y . ?y knows ?z  (the join's rows, with the
  // constant c in the last head slot).
  Cq PathWithConstant(rdf::TermId c) {
    Cq q = Parse(
        "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
        "?y <http://ex/knows> ?z . }");
    q.AddHead(QTerm::Const(c));
    return q;
  }

  void ExpectUnionMatchesReference(const Ucq& ucq) {
    Evaluator eval(store_.get());
    const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
        "ucq", eval.EvaluateUcq(ucq),
        rdfref::testing::ReferenceEvaluateUcq(*store_, ucq),
        ucq.members()[0], graph_.dict());
    EXPECT_FALSE(d.found) << d.detail;
  }
};

TEST_F(EvaluatorSharingTest, MembersWithOneBodyAreJoinedOnce) {
  const Cq likes = [&] {
    Cq q = Parse(
        "SELECT ?x ?z WHERE { ?x <http://ex/likes> ?z . }");
    q.AddHead(QTerm::Const(person_));
    return q;
  }();
  const Ucq ucq({PathWithConstant(ann_), PathWithConstant(bob_), likes,
                 PathWithConstant(carl_)});
  RowCountingSource source(store_.get());
  Evaluator eval(&source);
  source.TakeLookups(knows_);
  const Table one = eval.EvaluateCq(ucq.members()[0]);
  const uint64_t body_lookups = source.TakeLookups(knows_);
  ASSERT_GT(body_lookups, 0u);
  const Table got = eval.EvaluateUcq(ucq);
  EXPECT_EQ(source.TakeLookups(knows_), body_lookups);  // not three times

  // The members' own tables, appended: their constants keep them apart.
  Table appended;
  for (const Cq& m : ucq.members()) appended.Append(eval.EvaluateCq(m));
  appended.columns = got.columns;
  rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
      "appended", got, appended, ucq.members()[0], graph_.dict());
  EXPECT_FALSE(d.found) << d.detail;
  d = rdfref::testing::CompareBitForBit(
      "reference", got, rdfref::testing::ReferenceEvaluateUcq(*store_, ucq),
      ucq.members()[0], graph_.dict());
  EXPECT_FALSE(d.found) << d.detail;
  EXPECT_EQ(got.NumRows(), 3 * one.NumRows() + 3);

  const std::string plan =
      eval.ExplainJucq(ucq.members()[0], {ucq.members()[0]}, {ucq}, {6});
  EXPECT_NE(plan.find("  fragment 0: UCQ of 4 of 6 members, 2 bodies, head "
                      "arity 3\n"),
            std::string::npos)
      << plan;
}

TEST_F(EvaluatorSharingTest, MembersThatJoinDifferentlyAreEachJoined) {
  const Cq base = PathWithConstant(ann_);
  // A head variable slot: ?x in place of ?z.
  Cq other_var = base;
  (*other_var.mutable_head())[1] = base.head()[0];
  // A resource-constrained variable.
  Cq resource = base;
  resource.AddResourceVar(base.head()[1].var());
  // A different interval end.
  Cq narrow = Parse("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }");
  narrow.AddHead(QTerm::Const(ann_));
  Atom& atom = (*narrow.mutable_body())[0];
  atom.range_pos = Atom::kRangeP;
  atom.range_hi = knows_;
  Cq wide = narrow;
  ASSERT_EQ(likes_, knows_ + 1);
  (*wide.mutable_body())[0].range_hi = likes_;
  *wide.mutable_head()->rbegin() = QTerm::Const(bob_);

  for (const auto& [a, b] : std::vector<std::pair<Cq, Cq>>{
           {base, other_var}, {base, resource}, {narrow, wide}}) {
    RowCountingSource source(store_.get());
    Evaluator eval(&source);
    (void)eval.EvaluateCq(a);
    (void)eval.EvaluateCq(b);
    const uint64_t apart = source.TakeRows();
    ASSERT_GT(apart, 0u);
    (void)eval.EvaluateUcq(Ucq({a, b}));
    EXPECT_EQ(source.TakeRows(), apart) << b.ToString(graph_.dict());
    ExpectUnionMatchesReference(Ucq({a, b}));
  }
}

TEST_F(EvaluatorSharingTest, ZeroArityRepeatAndDeadlineCounts) {
  Cq exists;
  const VarId x = exists.AddVar("x");
  const VarId y = exists.AddVar("y");
  exists.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  exists.AddAtom(Atom(QTerm::Var(x), QTerm::Const(likes_), QTerm::Var(y)));
  const Ucq repeats({exists, exists, exists});
  RowCountingSource source(store_.get());
  Evaluator eval(&source);
  (void)eval.EvaluateCq(exists);
  const uint64_t once = source.TakeRows();
  const Table got = eval.EvaluateUcq(repeats);
  EXPECT_EQ(source.TakeRows(), once);
  EXPECT_EQ(got.arity(), 0u);
  EXPECT_EQ(got.NumRows(), 1u);  // ann knows and likes bob
  ExpectUnionMatchesReference(repeats);
  Cq none = exists;
  (*none.mutable_body())[1].p = QTerm::Const(person_);
  ExpectUnionMatchesReference(Ucq({none, none}));

  // The deadline message counts every member, evaluated or copied.
  auto expired = Evaluator(store_.get())
                     .EvaluateUcq(Ucq({exists, exists, exists, exists}),
                                  Deadline::AfterMicros(0));
  ASSERT_FALSE(expired.ok());
  EXPECT_NE(expired.status().message().find("after 0 of 4 reformulation CQs"),
            std::string::npos)
      << expired.status();
}

TEST_F(EvaluatorSharingTest, FirstDepthOpensEachKeptKeyOnce) {
  // Every person lives in several places, so the livesIn atom has more
  // matches than knows and opens second.
  const rdf::TermId lives_in = U("livesIn");
  for (rdf::TermId who : {ann_, bob_, carl_, dan_}) {
    for (int k = 0; k < 3; ++k) {
      graph_.Add(who, lives_in, U("town" + std::to_string(who) + "_" +
                                  std::to_string(k)));
    }
  }
  store_ = std::make_unique<storage::Store>(graph_);
  const Cq q = Parse(
      "SELECT ?x ?a WHERE { ?y <http://ex/knows> ?x . "
      "?x <http://ex/livesIn> ?a . }");
  RowCountingSource source(store_.get());
  Evaluator eval(&source);
  ASSERT_EQ(eval.AtomOrder(q), (std::vector<int>{0, 1}));
  EXPECT_NE(eval.ExplainCq(q).find("scan  t0  (~7 index matches unbound) "
                                   "(distinct o, first match per key)\n"),
            std::string::npos)
      << eval.ExplainCq(q);
  source.TakeLookups(lives_in);
  const Table got = eval.EvaluateCq(q);
  // Seven knows triples, four distinct objects: bob, carl, dan and ann.
  EXPECT_EQ(source.TakeLookups(lives_in), 4u);
  EXPECT_EQ(got.NumRows(), 12u);
  const rdfref::testing::Divergence d = rdfref::testing::CompareBitForBit(
      "collapsed", got, rdfref::testing::ReferenceEvaluateCq(*store_, q), q,
      graph_.dict());
  EXPECT_FALSE(d.found) << d.detail;
  ExpectReference(q);
}

TEST_F(EvaluatorSharingTest, FirstDepthKeepsEveryMatchWhereAKeyCanFail) {
  Evaluator eval(store_.get());
  // ?p leads nothing in SPO order, so the first depth collapses onto the
  // first match of each property...
  Cq properties = Parse("SELECT ?p WHERE { ?s ?p ?w . }");
  EXPECT_EQ(eval.ExplainCq(properties),
            "CQ plan (index nested-loop join):\n"
            "  scan  t0  (~13 index matches unbound) "
            "(distinct p, first match per key)\n");
  ExpectReference(properties);
  // ...but not when ?w may bind only resources: ann's first likes match is
  // the literal, which fails where her second one binds.
  properties.AddResourceVar(properties.body()[0].o.var());
  EXPECT_EQ(eval.ExplainCq(properties),
            "CQ plan (index nested-loop join):\n"
            "  scan  t0  (~13 index matches unbound) (distinct p)\n");
  const Table got = ExpectReference(properties);
  EXPECT_EQ(got.NumRows(), 3u);  // type, knows and likes
  // Nor when a variable repeats in the atom.
  const Cq loops = Parse("SELECT ?p WHERE { ?s ?p ?s . }");
  EXPECT_EQ(eval.ExplainCq(loops),
            "CQ plan (index nested-loop join):\n"
            "  scan  t0  (~13 index matches unbound) (distinct p)\n");
  EXPECT_EQ(ExpectReference(loops).NumRows(), 1u);  // dan knows dan
}

// A one-atom pass samples its first 256 matches and drops the key set when
// most keys are new; the matches it then emits again repeat earlier rows.
TEST_F(EvaluatorSharingTest, OneAtomPassOverMostlyDistinctKeys) {
  const rdf::TermId wrote = U("wrote");
  const rdf::TermId read = U("read");
  auto numbered = [&](std::string prefix, int i) {
    prefix += std::to_string(i);
    return U(prefix);
  };
  std::vector<rdf::TermId> authors, books;
  for (int i = 0; i < 300; ++i) authors.push_back(numbered("a", i));
  for (int i = 0; i < 300; ++i) books.push_back(numbered("b", i));
  for (int i = 0; i < 300; ++i) graph_.Add(authors[i], wrote, books[i]);
  // Later subjects revisit books already met, and a shelf of ten books is
  // read 300 times.
  for (int i = 0; i < 100; ++i) {
    graph_.Add(numbered("z", i), wrote, books[(7 * i) % 300]);
  }
  for (int i = 0; i < 300; ++i) graph_.Add(authors[i], read, books[i % 10]);
  store_ = std::make_unique<storage::Store>(graph_);
  for (const char* text : {"SELECT ?b WHERE { ?a <http://ex/wrote> ?b . }",
                           "SELECT ?b WHERE { ?a <http://ex/read> ?b . }"}) {
    const Cq q = Parse(text);
    Evaluator eval(store_.get());
    EXPECT_NE(eval.ExplainCq(q).find("(distinct o, first match per key)"),
              std::string::npos)
        << eval.ExplainCq(q);
    const Table got = ExpectReference(q);
    EXPECT_EQ(got.NumRows(), q.body()[0].p == QTerm::Const(wrote) ? 300u : 10u);
  }
}

TEST_F(EvaluatorSharingTest, OneAtomCqsOfEveryShape) {
  ASSERT_EQ(likes_, knows_ + 1);
  ASSERT_EQ(dan_, ann_ + 3);
  auto ranged = [&](const std::string& text, uint8_t pos, rdf::TermId hi) {
    Cq q = Parse(text);
    Atom& atom = (*q.mutable_body())[0];
    atom.range_pos = pos;
    atom.range_hi = hi;
    return q;
  };
  for (const char* head : {"?x", "?y", "?x ?y", "?y ?x"}) {
    const std::string select = std::string("SELECT ") + head + " WHERE { ";
    // An interval at p, [knows..likes].
    ExpectReference(ranged(select + "?x <http://ex/knows> ?y . }",
                           Atom::kRangeP, likes_));
    // An interval at o, [ann..dan], over knows.
    if (std::string(head).find("?y") == std::string::npos) {
      ExpectReference(
          ranged(select + "?x <http://ex/knows> <http://ex/ann> . }",
                 Atom::kRangeO, dan_));
    }
    // A plain atom, and a literal under a resource-constrained variable.
    Cq likes = Parse(select + "?x <http://ex/likes> ?y . }");
    ExpectReference(likes);
    likes.AddResourceVar(likes.body()[0].o.var());
    ExpectReference(likes);
  }
  // Subjects that like something, over [ann..dan] objects only: carl likes
  // the literal alone.
  EXPECT_EQ(ExpectReference(ranged("SELECT ?x WHERE { ?x <http://ex/likes> "
                                   "<http://ex/ann> . }",
                                   Atom::kRangeO, dan_))
                .NumRows(),
            1u);
  // A constant-only head and a zero-arity head.
  Cq constant;
  const VarId x = constant.AddVar("x");
  const VarId y = constant.AddVar("y");
  constant.AddAtom(Atom(QTerm::Var(x), QTerm::Const(likes_), QTerm::Var(y)));
  Cq zero = constant;
  constant.AddHead(QTerm::Const(person_));
  EXPECT_EQ(ExpectReference(constant).NumRows(), 1u);
  EXPECT_EQ(ExpectReference(zero).NumRows(), 1u);
  zero.AddResourceVar(y);
  EXPECT_EQ(ExpectReference(zero).NumRows(), 1u);  // ann likes bob
  Cq nothing = zero;
  (*nothing.mutable_body())[0].p = QTerm::Const(person_);
  EXPECT_EQ(ExpectReference(nothing).NumRows(), 0u);
}

// ---------------------------------------------------------------------------
// Deadlines: polled at every CQ boundary and every kCancelStride triples
// inside a CQ's join, over a LUBM university whose cross products run far
// past any budget below.
// ---------------------------------------------------------------------------

class EvaluatorDeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::LubmConfig config;
    config.universities = 1;
    config.referenced_universities = 10;
    rdf::Graph graph;
    datagen::Lubm::Generate(config, &graph);
    answerer_ = std::make_unique<api::QueryAnswerer>(std::move(graph));
  }

  Cq Parse(const std::string& body) {
    auto q = query::ParseSparql(
        "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n" +
            body,
        &answerer_->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  std::unique_ptr<api::QueryAnswerer> answerer_;
};

TEST_F(EvaluatorDeadlineTest, DeadlineCancelsInsideASingleHugeCq) {
  // One disconnected CQ — a three-way cross product of unselective scans —
  // evaluated as a single-member UCQ: only the in-scan cancellation can
  // stop it, since there is no other CQ boundary to check at.
  Cq q = Parse(
      "SELECT ?x ?z ?s ?c ?f ?k WHERE { ?x ub:memberOf ?z . "
      "?s ub:takesCourse ?c . ?f ub:teacherOf ?k . }");
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  Evaluator evaluator(snap.get());
  Ucq ucq({q});
  auto result = evaluator.EvaluateUcq(ucq, Deadline::AfterMicros(500));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("of 1 reformulation CQs"),
            std::string::npos)
      << result.status();
}

TEST_F(EvaluatorDeadlineTest, UcqReportsDeadlineWithMemberCounts) {
  Cq member = Parse(
      "SELECT ?x ?z ?s ?c WHERE { ?x ub:memberOf ?z . "
      "?s ub:takesCourse ?c . }");
  Ucq ucq({member, member, member, member});
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  Evaluator evaluator(snap.get());
  auto result = evaluator.EvaluateUcq(ucq, Deadline::AfterMicros(200));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("of 4 reformulation CQs"),
            std::string::npos)
      << result.status();
}

TEST_F(EvaluatorDeadlineTest, JucqDeadlineKeepsTheCompletedFragments) {
  // Fragment 0 reads one department's sub-organization triple; fragment 1
  // is a three-way cross product of about 5 * 10^8 rows.
  Cq q = Parse(
      "SELECT ?u ?x ?z ?s ?c ?f ?k WHERE { "
      "<http://www.Department0.University0.edu> ub:subOrganizationOf ?u . "
      "?x ub:memberOf ?z . ?s ub:takesCourse ?c . ?f ub:teacherOf ?k . }");
  const std::vector<Cq> fragments =
      Cover({{0}, {1, 2, 3}}).FragmentQueries(q);
  const std::vector<Ucq> ucqs = {Ucq({fragments[0]}), Ucq({fragments[1]})};
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  Evaluator evaluator(snap.get());
  JucqProfile profile;
  auto result = evaluator.EvaluateJucq(q, fragments, ucqs,
                                       Deadline::AfterMillis(30), &profile);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.status().message().rfind("fragment 1: ", 0), 0u)
      << result.status();
  ASSERT_EQ(profile.fragments.size(), 1u);
  EXPECT_EQ(profile.fragments[0].cover_fragment, "{t0}");
  EXPECT_EQ(profile.fragments[0].result_rows, 1u);
  EXPECT_GT(profile.total_millis, 0.0);
}

}  // namespace
}  // namespace engine
}  // namespace rdfref
