#include "reformulation/reformulator.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_answering.h"
#include "bench_common.h"
#include "datagen/bibliography.h"
#include "datagen/lubm.h"
#include "datagen/sp2b.h"
#include "query/sparql_parser.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace reformulation {
namespace {

using query::Atom;
using query::Cq;
using query::QTerm;
using query::Ucq;
using query::VarId;
namespace vocab = rdf::vocab;

class ReformulatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::Bibliography::AddFigure2Graph(&graph_);
    schema_ = schema::Schema::FromGraph(graph_);
    schema_.Saturate();
  }

  rdf::TermId Bib(const char* local) {
    return graph_.dict().InternUri(datagen::Bibliography::Uri(local));
  }

  std::set<std::string> Keys(const Ucq& ucq) {
    std::set<std::string> keys;
    for (const Cq& cq : ucq.members()) keys.insert(cq.CanonicalKey());
    return keys;
  }

  rdf::Graph graph_;
  schema::Schema schema_;
};

TEST_F(ReformulatorTest, TypeAtomWithConstantClass) {
  // q(x) :- x rdf:type Publication. Saturated schema: Book ⊑sc Publication,
  // writtenBy ←d {Book, Publication}, writtenBy ←r Person.
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(x));

  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  // original, rule 1 → (x τ Book), rule 2 → (x writtenBy fresh).
  EXPECT_EQ(ucq->size(), 3u);
}

TEST_F(ReformulatorTest, TypeAtomRangeRule) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(Bib("Person"))));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // original + rule 3 → (fresh writtenBy x).
  ASSERT_EQ(ucq->size(), 2u);
  bool found_range_member = false;
  for (const Cq& member : ucq->members()) {
    const Atom& a = member.body()[0];
    if (!a.p.is_var && a.p.term() == Bib("writtenBy") && a.s.is_var &&
        a.o.is_var && a.o.var() == 0) {
      found_range_member = true;
    }
  }
  EXPECT_TRUE(found_range_member);
}

TEST_F(ReformulatorTest, PropertyAtomSubPropertyRule) {
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(Bib("hasAuthor")),
                 QTerm::Var(y)));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 2u);  // original + writtenBy
}

TEST_F(ReformulatorTest, TypeAtomWithVariableClassBindsIt) {
  // q(x, u) :- x rdf:type u.
  Cq q;
  VarId x = q.AddVar("x");
  VarId u = q.AddVar("u");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Var(u)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(u));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // original + rule5 (Book⊑Publication) + rule6 (writtenBy ←d Book,
  // writtenBy ←d Publication) + rule7 (writtenBy ←r Person) = 5.
  EXPECT_EQ(ucq->size(), 5u);
  // Every non-original member binds u in the head to a constant.
  size_t bound_heads = 0;
  for (const Cq& member : ucq->members()) {
    if (!member.head()[1].is_var) ++bound_heads;
  }
  EXPECT_EQ(bound_heads, 4u);
}

TEST_F(ReformulatorTest, VariablePropertyRules8To13) {
  // q(x, p, y) :- x p y.
  Cq q;
  VarId x = q.AddVar("x");
  VarId p = q.AddVar("p");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Var(p), QTerm::Var(y)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(p));
  q.AddHead(QTerm::Var(y));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.ReformulateUnminimized(q);
  ASSERT_TRUE(ucq.ok());
  // The rule closure, before minimization:
  // original
  // rule 8: (x writtenBy y) p→hasAuthor
  // rule 9: (x τ y) p→τ, then rules 5-7 on the variable class y:
  //         (x τ Book) y→Book, (x writtenBy f) y→{Book, Publication},
  //         (f writtenBy x) y→Person
  // rules 10-13: the four schema properties.
  EXPECT_EQ(ucq->size(), 1u + 1u + 1u + 4u + 4u);
}

TEST_F(ReformulatorTest, SchemaPropertyAtomNotRewritten) {
  Cq q;
  VarId c = q.AddVar("c");
  q.AddAtom(Atom(QTerm::Var(c), QTerm::Const(vocab::kSubClassOfId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(c));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 1u);  // answered against the saturated schema
}

TEST_F(ReformulatorTest, Section3QueryReformulation) {
  // q(x3) :- x1 hasAuthor x2, x2 hasName x3, x1 x4 "1949".
  Result<Cq> q = query::ParseSparql(
      "PREFIX bib: <http://example.org/bib/>\n"
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . "
      "?x1 ?x4 \"1949\" . }",
      &graph_.dict());
  ASSERT_TRUE(q.ok()) << q.status();
  Reformulator ref(&schema_);
  ASSERT_TRUE(ref.AtomsIndependent(*q));
  Result<Ucq> ucq = ref.ReformulateUnminimized(*q);
  ASSERT_TRUE(ucq.ok());
  // The rule closure, before minimization: atom1: 2 (hasAuthor,
  // writtenBy); atom2: 1; atom3 (var property): 1 + rule8 (writtenBy) +
  // rule9 (τ) + rules 10-13 = 7.
  EXPECT_EQ(ucq->size(), 2u * 1u * 7u);
  Result<uint64_t> count = ref.CountReformulations(*q);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, ucq->size());
}

TEST_F(ReformulatorTest, CascadedSubPropertyAfterDomainRule) {
  // With p' ⊑sp p and p ←d C: (x τ C) reformulates into the original,
  // (x p f) and, cascading rule 4, (x p' f).
  schema::Schema s;
  rdf::TermId p = graph_.dict().InternUri("http://ex/p");
  rdf::TermId pp = graph_.dict().InternUri("http://ex/pp");
  rdf::TermId c = graph_.dict().InternUri("http://ex/C");
  s.AddSubProperty(pp, p);
  s.AddDomain(p, c);
  s.Saturate();
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(c)));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&s);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // original, (x p f) [rule2], (x pp f) [rule2 via S5, also rule4 after
  // rule2 — deduplicated].
  EXPECT_EQ(ucq->size(), 3u);
}

TEST_F(ReformulatorTest, WorklistPathMatchesProductPathWhenBothApply) {
  // Interaction: u is in the class position of t0 AND the subject of t1 —
  // the product fast path must be rejected and the worklist used.
  Cq q;
  VarId x = q.AddVar("x");
  VarId u = q.AddVar("u");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Var(u)));
  q.AddAtom(Atom(QTerm::Var(u), QTerm::Const(vocab::kSubClassOfId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  EXPECT_FALSE(ref.AtomsIndependent(q));
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // Sound: every member whose t0 was specialized must have u substituted
  // in t1 as well.
  for (const Cq& member : ucq->members()) {
    const Atom& t0 = member.body()[0];
    const Atom& t1 = member.body()[1];
    if (!t0.o.is_var || t0.o.var() != u || !t0.p.is_var) {
      // u was bound (or t0 rewritten away from the original shape):
      // then t1's subject cannot still be the variable u.
      if (!t0.o.is_var && !t0.p.is_var &&
          t0.p.term() == vocab::kTypeId) {
        EXPECT_FALSE(t1.s.is_var && t1.s.var() == u)
            << member.ToString(graph_.dict());
      }
    }
  }
}

TEST_F(ReformulatorTest, BudgetEnforced) {
  Cq q;
  VarId x = q.AddVar("x");
  VarId u = q.AddVar("u");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Var(u)));
  q.AddHead(QTerm::Var(x));
  ReformulationOptions options;
  options.max_cqs = 2;  // the reformulation has 5 members
  Reformulator ref(&schema_, options);
  EXPECT_EQ(ref.Reformulate(q).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ReformulatorTest, EmptyQueryRejected) {
  Cq q;
  Reformulator ref(&schema_);
  EXPECT_FALSE(ref.Reformulate(q).ok());
  EXPECT_FALSE(ref.CountReformulations(q).ok());
}

TEST_F(ReformulatorTest, OriginalQueryAlwaysMember) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(Bib("hasAuthor")),
                 QTerm::Const(Bib("doi1"))));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(Keys(*ucq).count(q.CanonicalKey()));
}

TEST_F(ReformulatorTest, IncompleteRefIgnoresDomainAndRange) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(x));
  IncompleteReformulator incomplete(&schema_);
  Result<Ucq> ucq = incomplete.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // Only original + subclass member; the domain-rule member is missing.
  EXPECT_EQ(ucq->size(), 2u);
}

TEST_F(ReformulatorTest, ProductAndWorklistPathsAgree) {
  // Differential check: the fast product path and the general worklist
  // produce the same UCQ (modulo variable renaming) whenever both apply.
  Result<Cq> q = query::ParseSparql(
      "PREFIX bib: <http://example.org/bib/>\n"
      "SELECT ?x ?u WHERE { ?x rdf:type ?u . ?x bib:hasAuthor ?a . "
      "?a bib:hasName ?n . }",
      &graph_.dict());
  ASSERT_TRUE(q.ok());
  Reformulator fast(&schema_);
  ReformulationOptions worklist_options;
  worklist_options.force_worklist = true;
  Reformulator slow(&schema_, worklist_options);
  ASSERT_TRUE(fast.AtomsIndependent(*q));
  Result<Ucq> a = fast.Reformulate(*q);
  Result<Ucq> b = slow.Reformulate(*q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Keys(*a), Keys(*b));
}

// Fused reformulation on hierarchy-encoded answerers: the sp2b templates of
// the benchmark of record and the LUBM suite (bench/bench_common.h).

/// True when UCQ member `interval` subsumes member `classic`: the two agree
/// everywhere but one atom, where `interval` ranges over an interval holding
/// `classic`'s constant at that position, and `interval` restricts no
/// variable to resources that `classic` leaves free. Bindings reach the
/// head, so equal heads mean equal bindings. Members of a product UCQ number
/// their variables alike, so atoms compare directly.
bool SubsumedByIntervalMember(const Cq& classic, const Cq& interval) {
  if (classic.head() != interval.head() ||
      classic.body().size() != interval.body().size() ||
      !std::includes(classic.resource_vars().begin(),
                     classic.resource_vars().end(),
                     interval.resource_vars().begin(),
                     interval.resource_vars().end())) {
    return false;
  }
  bool differs = false;
  for (size_t i = 0; i < classic.body().size(); ++i) {
    const Atom& c = classic.body()[i];
    const Atom& f = interval.body()[i];
    if (c == f) continue;
    if (differs || c.has_range() || !f.has_range()) return false;
    differs = true;
    const bool on_p = f.range_pos == Atom::kRangeP;
    const QTerm& at = on_p ? c.p : c.o;
    if (at.is_var || at.term() < f.range_lo() || at.term() > f.range_hi) {
      return false;
    }
    Atom widened = c;
    (on_p ? widened.p : widened.o) = QTerm::Const(f.range_lo());
    widened.range_pos = f.range_pos;
    widened.range_hi = f.range_hi;
    if (!(widened == f)) return false;
  }
  return differs;
}

class FusedReformulationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::Sp2bConfig sp2b;
    sp2b.scale = 0.1;
    rdf::Graph sp2b_graph;
    datagen::Sp2b::Generate(sp2b, &sp2b_graph);
    sp2b_ = new api::QueryAnswerer(std::move(sp2b_graph));
    datagen::LubmConfig config;
    config.universities = 1;
    config.scale = 0.2;
    config.referenced_universities = 10;
    rdf::Graph graph;
    datagen::Lubm::Generate(config, &graph);
    lubm_ = new api::QueryAnswerer(std::move(graph));
  }
  static void TearDownTestSuite() {
    delete sp2b_;
    delete lubm_;
    sp2b_ = lubm_ = nullptr;
  }

  struct Named {
    std::string name;
    Cq cq;
  };

  /// The sp2b-rw templates, point slots filled with their pools' first ids.
  static std::vector<Named> Sp2bQueries() {
    std::vector<Named> out;
    for (const auto& [name, text] : bench::Sp2bTemplateSuite()) {
      Result<Cq> q = query::ParseSparql(text, &sp2b_->dict());
      EXPECT_TRUE(q.ok()) << name << ": " << q.status();
      if (q.ok()) out.push_back({name, *q});
    }
    return out;
  }

  static std::vector<Named> LubmQueries() {
    std::vector<Named> out;
    for (const auto& [name, body] : bench::LubmQuerySuite()) {
      Result<Cq> q =
          query::ParseSparql(bench::kUbPrefix + body, &lubm_->dict());
      EXPECT_TRUE(q.ok()) << name << ": " << q.status();
      if (q.ok()) out.push_back({name, *q});
    }
    return out;
  }

  /// Checks every property the pruning promises on one encoded answerer
  /// and records each query's fused member count before minimization in
  /// `sizes`.
  static void CheckPruned(api::QueryAnswerer* answerer,
                          const std::vector<Named>& queries,
                          std::map<std::string, size_t>* sizes,
                          std::map<std::string, size_t>* minimized_sizes) {
    Reformulator fused(&answerer->schema(), {}, &answerer->dict());
    ReformulationOptions worklist_options;
    worklist_options.force_worklist = true;
    Reformulator worklist(&answerer->schema(), worklist_options,
                          &answerer->dict());
    size_t interval_members = 0;
    for (const Named& n : queries) {
      SCOPED_TRACE(n.name);
      Result<Ucq> ucq = fused.ReformulateUnminimized(n.cq);
      ASSERT_TRUE(ucq.ok()) << ucq.status();
      (*sizes)[n.name] = ucq->size();
      for (const Cq& f : ucq->members()) {
        bool ranged = false;
        for (const Atom& a : f.body()) ranged = ranged || a.has_range();
        if (!ranged) continue;
        ++interval_members;
        for (const Cq& c : ucq->members()) {
          EXPECT_FALSE(SubsumedByIntervalMember(c, f))
              << c.ToString(answerer->dict()) << "\n  is subsumed by\n"
              << f.ToString(answerer->dict());
        }
      }

      Result<uint64_t> count = fused.CountReformulations(n.cq);
      ASSERT_TRUE(count.ok()) << count.status();
      EXPECT_EQ(*count, ucq->size());
      Result<Ucq> slow = worklist.ReformulateUnminimized(n.cq);
      ASSERT_TRUE(slow.ok()) << slow.status();
      EXPECT_EQ(slow->size(), ucq->size());
      // Both paths minimize to unions of one size, no larger than the
      // closure.
      Result<Ucq> minimized = fused.Reformulate(n.cq);
      Result<Ucq> slow_minimized = worklist.Reformulate(n.cq);
      ASSERT_TRUE(minimized.ok()) << minimized.status();
      ASSERT_TRUE(slow_minimized.ok()) << slow_minimized.status();
      EXPECT_LE(minimized->size(), ucq->size());
      EXPECT_EQ(slow_minimized->size(), minimized->size());
      (*minimized_sizes)[n.name] = minimized->size();

      auto ref = answerer->Answer(n.cq, api::Strategy::kRefUcq);
      auto sat = answerer->Answer(n.cq, api::Strategy::kSaturation);
      ASSERT_TRUE(ref.ok()) << ref.status();
      ASSERT_TRUE(sat.ok()) << sat.status();
      EXPECT_EQ(ref->RowSet(), sat->RowSet());
    }
    EXPECT_GT(interval_members, 0u) << "the answerer is not encoded";
  }

  static api::QueryAnswerer* sp2b_;
  static api::QueryAnswerer* lubm_;
};

api::QueryAnswerer* FusedReformulationTest::sp2b_ = nullptr;
api::QueryAnswerer* FusedReformulationTest::lubm_ = nullptr;

TEST_F(FusedReformulationTest, Sp2bTemplatesDropMembersTheirIntervalCovers) {
  std::map<std::string, size_t> sizes, minimized;
  CheckPruned(sp2b_, Sp2bQueries(), &sizes, &minimized);
  // Every atom of the citation and authorship templates fuses whole: one
  // member each (4, 8 and 8 when the fused atoms kept their classic
  // parents beside them).
  EXPECT_EQ(sizes["A2-mutual-citations"], 1u);
  EXPECT_EQ(sizes["A3-coauthor-cites"], 1u);
  EXPECT_EQ(sizes["P5-author-chain"], 1u);
}

TEST_F(FusedReformulationTest, LubmSuiteDropsMembersTheirIntervalCovers) {
  std::map<std::string, size_t> sizes, minimized;
  CheckPruned(lubm_, LubmQueries(), &sizes, &minimized);
  EXPECT_EQ(sizes["Q6-members"], 79u);  // 194 with the subsumed members
  // Minimization: Q9's `?s a Student` member is contained in the core of
  // its `?s takesCourse ?_f0` member, `?f teacherOf ?c . ?s takesCourse ?c`.
  EXPECT_EQ(sizes["Q9-teachers"], 2u);
  EXPECT_EQ(minimized["Q9-teachers"], 1u);
  EXPECT_EQ(minimized["Q3-students"], 1u);
  EXPECT_EQ(sizes["Q8-org-units"], 12u);
  EXPECT_EQ(minimized["Q8-org-units"], 1u);
  EXPECT_EQ(minimized["Q6-members"], 59u);
}

TEST_F(ReformulatorTest, EmptySchemaLeavesQueryAlone) {
  schema::Schema empty;
  empty.Saturate();
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(Bib("hasAuthor")),
                 QTerm::Var(y)));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&empty);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 1u);
}

}  // namespace
}  // namespace reformulation
}  // namespace rdfref
