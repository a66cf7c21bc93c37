#include "query/minimize.h"

#include <gtest/gtest.h>

#include <set>

#include "api/query_answering.h"
#include "datagen/bibliography.h"
#include "query/sparql_parser.h"
#include "reformulation/reformulator.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace query {
namespace {

namespace vocab = rdf::vocab;

Cq Single(VarId* out_x, QTerm p, QTerm o) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), p, o));
  q.AddHead(QTerm::Var(x));
  if (out_x != nullptr) *out_x = x;
  return q;
}

TEST(CqContainsTest, IdenticalQueriesContainEachOther) {
  Cq a = Single(nullptr, QTerm::Const(7), QTerm::Const(8));
  Cq b = Single(nullptr, QTerm::Const(7), QTerm::Const(8));
  EXPECT_TRUE(CqContains(a, b));
  EXPECT_TRUE(CqContains(b, a));
}

TEST(CqContainsTest, MoreAtomsAreContained) {
  // A = q(x) :- x p y;   B = q(x) :- x p y, x τ C.   B ⊆ A.
  Cq a;
  VarId ax = a.AddVar("x");
  VarId ay = a.AddVar("y");
  a.AddAtom(Atom(QTerm::Var(ax), QTerm::Const(7), QTerm::Var(ay)));
  a.AddHead(QTerm::Var(ax));

  Cq b;
  VarId bx = b.AddVar("x");
  VarId by = b.AddVar("y");
  b.AddAtom(Atom(QTerm::Var(bx), QTerm::Const(7), QTerm::Var(by)));
  b.AddAtom(Atom(QTerm::Var(bx), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(42)));
  b.AddHead(QTerm::Var(bx));

  EXPECT_TRUE(CqContains(a, b));
  EXPECT_FALSE(CqContains(b, a));
}

TEST(CqContainsTest, DifferentConstantsAreIncomparable) {
  Cq book = Single(nullptr, QTerm::Const(vocab::kTypeId), QTerm::Const(10));
  Cq publication =
      Single(nullptr, QTerm::Const(vocab::kTypeId), QTerm::Const(11));
  EXPECT_FALSE(CqContains(book, publication));
  EXPECT_FALSE(CqContains(publication, book));
}

TEST(CqContainsTest, VariablePropertyContainsItsSpecializations) {
  // A = q(x, p) :- x p o;  B = q(x, τ) :- x τ o.  B ⊆ A (rule 9's member
  // is redundant against the original).
  Cq a;
  VarId x = a.AddVar("x");
  VarId p = a.AddVar("p");
  a.AddAtom(Atom(QTerm::Var(x), QTerm::Var(p), QTerm::Const(9)));
  a.AddHead(QTerm::Var(x));
  a.AddHead(QTerm::Var(p));

  Cq b;
  VarId bx = b.AddVar("x");
  b.AddAtom(Atom(QTerm::Var(bx), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(9)));
  b.AddHead(QTerm::Var(bx));
  b.AddHead(QTerm::Const(vocab::kTypeId));

  EXPECT_TRUE(CqContains(a, b));
  EXPECT_FALSE(CqContains(b, a));
}

TEST(CqContainsTest, ResourceVarsBlockUnsafeContainment) {
  // A carries a resource constraint on its head var; B does not: dropping
  // B in favour of A would wrongly filter literals.
  Cq a = Single(nullptr, QTerm::Const(7), QTerm::Const(8));
  a.AddResourceVar(0);
  Cq b = Single(nullptr, QTerm::Const(7), QTerm::Const(8));
  EXPECT_FALSE(CqContains(a, b));
  EXPECT_TRUE(CqContains(b, a));  // the unconstrained one is wider

  // Matching constraints are fine.
  Cq c = Single(nullptr, QTerm::Const(7), QTerm::Const(8));
  c.AddResourceVar(0);
  EXPECT_TRUE(CqContains(a, c));
}

TEST(MinimizeUcqTest, DropsSubsumedMembers) {
  Cq wide;
  VarId x = wide.AddVar("x");
  VarId y = wide.AddVar("y");
  wide.AddAtom(Atom(QTerm::Var(x), QTerm::Const(7), QTerm::Var(y)));
  wide.AddHead(QTerm::Var(x));

  Cq narrow = wide;
  narrow.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                      QTerm::Const(99)));

  Ucq ucq({narrow, wide, narrow});
  Ucq minimized = MinimizeUcq(ucq);
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized.members()[0].CanonicalKey(), wide.CanonicalKey());
}

TEST(MinimizeUcqTest, KeepsFirstOfEquivalentMembers) {
  Cq a = Single(nullptr, QTerm::Const(7), QTerm::Const(8));
  Cq b = Single(nullptr, QTerm::Const(7), QTerm::Const(8));
  Ucq minimized = MinimizeUcq(Ucq({a, b}));
  EXPECT_EQ(minimized.size(), 1u);
}

TEST(MinimizeUcqTest, IncomparableMembersSurvive) {
  Cq a = Single(nullptr, QTerm::Const(vocab::kTypeId), QTerm::Const(10));
  Cq b = Single(nullptr, QTerm::Const(vocab::kTypeId), QTerm::Const(11));
  EXPECT_EQ(MinimizeUcq(Ucq({a, b})).size(), 2u);
}

// q(x) :- x p o, with p (and o) either constants or ranged.
Cq OneAtom(Atom atom) {
  Cq q;
  q.AddVar("x");
  q.AddVar("y");
  q.AddAtom(atom);
  q.AddHead(QTerm::Var(0));
  return q;
}

Atom Ranged(QTerm s, QTerm p, QTerm o, uint8_t pos, rdf::TermId hi) {
  Atom a(s, p, o);
  a.range_pos = pos;
  a.range_hi = hi;
  return a;
}

TEST(MinimizeCqTest, Q9ShapeDropsTheDomainAtom) {
  // Q9's member after the domain rule: q(f, c, s) :- f teacherOf c,
  // s takesCourse c, s takesCourse _f0. The last atom maps onto the second.
  Cq q;
  VarId f = q.AddVar("f");
  VarId c = q.AddVar("c");
  VarId st = q.AddVar("s");
  VarId fresh = q.FreshVar();
  q.AddAtom(Atom(QTerm::Var(f), QTerm::Const(20), QTerm::Var(c)));
  q.AddAtom(Atom(QTerm::Var(st), QTerm::Const(21), QTerm::Var(c)));
  q.AddAtom(Atom(QTerm::Var(st), QTerm::Const(21), QTerm::Var(fresh)));
  q.AddHead(QTerm::Var(f));
  q.AddHead(QTerm::Var(c));
  q.AddHead(QTerm::Var(st));
  Cq core = MinimizeCq(q);
  ASSERT_EQ(core.body().size(), 2u);
  EXPECT_EQ(core.body()[0], q.body()[0]);
  EXPECT_EQ(core.body()[1], q.body()[1]);
  EXPECT_EQ(core.head(), q.head());

  // With the fresh variable in the head, no atom is redundant.
  Cq kept = q;
  kept.AddHead(QTerm::Var(fresh));
  EXPECT_EQ(MinimizeCq(kept).body().size(), 3u);
}

TEST(MinimizeCqTest, DuplicateAtomsCollapse) {
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  VarId z = q.AddVar("z");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(7), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(7), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(7), QTerm::Var(z)));
  q.AddHead(QTerm::Var(x));
  Cq core = MinimizeCq(q);
  ASSERT_EQ(core.body().size(), 1u);
  EXPECT_EQ(core.body()[0], q.body()[2]);
}

TEST(MinimizeCqTest, ResourceConstraintDecidesWhichAtomStays) {
  // q(x) :- x p y, x p z with y resource-constrained: only z may map to y,
  // so the unconstrained atom goes and the stricter one stays.
  rdf::Dictionary dict;
  const rdf::TermId p = dict.InternUri("http://ex/p");
  const rdf::TermId lit = dict.Intern(rdf::Term::Literal("1949"));
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  VarId z = q.AddVar("z");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(p), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(p), QTerm::Var(z)));
  q.AddHead(QTerm::Var(x));
  q.AddResourceVar(y);
  Cq core = MinimizeCq(q, &dict);
  ASSERT_EQ(core.body().size(), 1u);
  EXPECT_EQ(core.body()[0], q.body()[0]);

  // A constrained variable never maps onto a literal: x p y (y a resource)
  // and x p "1949" are both needed. Unconstrained, x p y goes.
  Cq literal;
  VarId lx = literal.AddVar("x");
  VarId ly = literal.AddVar("y");
  literal.AddAtom(Atom(QTerm::Var(lx), QTerm::Const(p), QTerm::Var(ly)));
  literal.AddAtom(Atom(QTerm::Var(lx), QTerm::Const(p), QTerm::Const(lit)));
  literal.AddHead(QTerm::Var(lx));
  EXPECT_EQ(MinimizeCq(literal, &dict).body().size(), 1u);
  literal.AddResourceVar(ly);
  EXPECT_EQ(MinimizeCq(literal, &dict).body().size(), 2u);
}

TEST(CqContainsTest, IntervalContainsConstantsAndSubIntervals) {
  const QTerm x = QTerm::Var(0), y = QTerm::Var(1);
  const QTerm type = QTerm::Const(vocab::kTypeId);
  // Property interval [100..110] and class interval [200..210].
  const Cq props = OneAtom(Ranged(x, QTerm::Const(100), y, Atom::kRangeP, 110));
  const Cq classes =
      OneAtom(Ranged(x, type, QTerm::Const(200), Atom::kRangeO, 210));

  // Positive: a constant inside, the same interval, a sub-interval.
  EXPECT_TRUE(CqContains(props, OneAtom(Atom(x, QTerm::Const(105), y))));
  EXPECT_TRUE(CqContains(props, OneAtom(Atom(x, QTerm::Const(110), y))));
  EXPECT_TRUE(CqContains(props, props));
  EXPECT_TRUE(CqContains(
      props, OneAtom(Ranged(x, QTerm::Const(101), y, Atom::kRangeP, 104))));
  EXPECT_TRUE(CqContains(classes, OneAtom(Atom(x, type, QTerm::Const(200)))));
  EXPECT_TRUE(CqContains(
      classes,
      OneAtom(Ranged(x, type, QTerm::Const(205), Atom::kRangeO, 210))));

  // Negative: a constant outside, an interval reaching outside, a
  // variable at the ranged position, the other ranged position.
  EXPECT_FALSE(CqContains(props, OneAtom(Atom(x, QTerm::Const(111), y))));
  EXPECT_FALSE(CqContains(props, OneAtom(Atom(x, QTerm::Const(99), y))));
  EXPECT_FALSE(CqContains(
      props, OneAtom(Ranged(x, QTerm::Const(105), y, Atom::kRangeP, 111))));
  EXPECT_FALSE(CqContains(props, OneAtom(Atom(x, QTerm::Var(1), y))));
  EXPECT_FALSE(CqContains(
      classes, OneAtom(Ranged(x, type, QTerm::Const(199), Atom::kRangeO,
                              205))));
  EXPECT_FALSE(CqContains(
      OneAtom(Ranged(x, QTerm::Const(200), y, Atom::kRangeP, 210)),
      OneAtom(Ranged(x, QTerm::Const(200), QTerm::Const(200), Atom::kRangeO,
                     210))));

  // A classic atom never maps onto an interval atom, even one whose low
  // endpoint it names or whose position it leaves variable.
  EXPECT_FALSE(CqContains(OneAtom(Atom(x, QTerm::Const(100), y)), props));
  EXPECT_FALSE(CqContains(OneAtom(Atom(x, QTerm::Var(1), QTerm::Var(1))),
                          props));
  EXPECT_FALSE(CqContains(OneAtom(Atom(x, type, QTerm::Var(1))), classes));
}

TEST(MinimizeUcqTest, IntervalMemberSubsumesWhatItRangesOver) {
  const QTerm x = QTerm::Var(0), y = QTerm::Var(1);
  const Cq fused = OneAtom(Ranged(x, QTerm::Const(100), y, Atom::kRangeP, 110));
  const Cq inside = OneAtom(Atom(x, QTerm::Const(107), y));
  const Cq outside = OneAtom(Atom(x, QTerm::Const(120), y));
  Ucq minimized = MinimizeUcq(Ucq({inside, fused, outside}));
  ASSERT_EQ(minimized.size(), 2u);
  EXPECT_EQ(minimized.members()[0].CanonicalKey(), fused.CanonicalKey());
  EXPECT_EQ(minimized.members()[1].CanonicalKey(), outside.CanonicalKey());
}

// `count` pairwise-incomparable members q(x) :- x 7 c_i; every pair shares
// its property, so the prefilter passes some and the search refutes them.
std::vector<Cq> Incomparable(size_t count) {
  std::vector<Cq> members;
  for (size_t i = 0; i < count; ++i) {
    members.push_back(Single(nullptr, QTerm::Const(7),
                             QTerm::Const(static_cast<rdf::TermId>(1000 + i))));
  }
  return members;
}

TEST(MinimizeUcqTest, WorkLimitKeepsWhatItCouldNotCheck) {
  // At kMinimizeThreshold members the pass runs: a duplicate of member 0
  // at index 1 goes. The pairwise pass costs about n² units, beyond
  // kMinimizeWorkLimit, so a duplicate at the end is never reached and
  // stays: unproven members are kept.
  static_assert(kMinimizeThreshold * kMinimizeThreshold > kMinimizeWorkLimit);
  std::vector<Cq> members = Incomparable(kMinimizeThreshold - 2);
  const Cq first = members[0];
  members.insert(members.begin() + 1, first);
  members.push_back(first);
  ASSERT_EQ(members.size(), kMinimizeThreshold);
  Ucq minimized = MinimizeUcq(Ucq(members));
  ASSERT_EQ(minimized.size(), kMinimizeThreshold - 1);
  EXPECT_EQ(minimized.members().back().CanonicalKey(), first.CanonicalKey());
  // The same duplicate in a small union is found.
  std::vector<Cq> small = Incomparable(8);
  small.push_back(first);
  EXPECT_EQ(MinimizeUcq(Ucq(small)).size(), 8u);

  // One member more and the union is returned as it is.
  members.push_back(first);
  EXPECT_EQ(MinimizeUcq(Ucq(members)).size(), kMinimizeThreshold + 1);
}

TEST(MinimizeUcqTest, ReformulationAnswersUnchanged) {
  // End to end on Figure 2: minimized reformulations answer identically.
  rdf::Graph graph;
  datagen::Bibliography::AddFigure2Graph(&graph);
  api::QueryAnswerer answerer(std::move(graph));

  auto q = ParseSparql(
      "PREFIX bib: <http://example.org/bib/>\n"
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . "
      "?x1 ?x4 \"1949\" . }",
      &answerer.dict());
  ASSERT_TRUE(q.ok());

  // The raw rule closure, evaluated directly, against REF-UCQ, which
  // evaluates its minimized union.
  reformulation::Reformulator ref(&answerer.schema(), {}, &answerer.dict());
  auto raw = ref.ReformulateUnminimized(*q);
  ASSERT_TRUE(raw.ok());
  const storage::SnapshotPtr snap = answerer.PinSnapshot();
  engine::Table a = engine::Evaluator(snap.get()).EvaluateUcq(*raw);
  api::AnswerProfile minimized_profile;
  auto b = answerer.Answer(*q, api::Strategy::kRefUcq, &minimized_profile);
  ASSERT_TRUE(b.ok());
  std::set<std::vector<rdf::TermId>> ra = a.RowSet();
  std::set<std::vector<rdf::TermId>> rb = b->RowSet();
  EXPECT_EQ(ra, rb);
  // Minimization prunes the rule 9-13 members the variable-property atom
  // already covers.
  EXPECT_EQ(minimized_profile.raw_cqs, raw->size());
  EXPECT_LT(minimized_profile.reformulation_cqs, minimized_profile.raw_cqs);
}

}  // namespace
}  // namespace query
}  // namespace rdfref
