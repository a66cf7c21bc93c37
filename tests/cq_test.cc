#include "query/cq.h"

#include <gtest/gtest.h>

#include "query/ucq.h"

#include "rdf/vocab.h"

namespace rdfref {
namespace query {
namespace {

Cq MakeTriangle() {
  // q(x, y) :- x p y, y p z, z p x.
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  VarId z = q.AddVar("z");
  QTerm p = QTerm::Const(77);
  q.AddAtom(Atom(QTerm::Var(x), p, QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(y), p, QTerm::Var(z)));
  q.AddAtom(Atom(QTerm::Var(z), p, QTerm::Var(x)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(y));
  return q;
}

TEST(CqTest, VarsAndHeads) {
  Cq q = MakeTriangle();
  EXPECT_EQ(q.num_vars(), 3u);
  EXPECT_EQ(q.BodyVars().size(), 3u);
  EXPECT_EQ(q.HeadVars().size(), 2u);
  EXPECT_TRUE(q.IsSafe());
}

TEST(CqTest, UnsafeQueryDetected) {
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(1), QTerm::Const(2)));
  q.AddHead(QTerm::Var(y));  // y not in body
  EXPECT_FALSE(q.IsSafe());
}

TEST(CqTest, SubstituteReplacesEverywhere) {
  Cq q = MakeTriangle();
  q.Substitute(0, 42);  // x := constant 42
  EXPECT_FALSE(q.head()[0].is_var);
  EXPECT_EQ(q.head()[0].term(), 42u);
  EXPECT_FALSE(q.body()[0].s.is_var);
  EXPECT_FALSE(q.body()[2].o.is_var);
  EXPECT_TRUE(q.body()[0].o.is_var);  // y untouched
}

TEST(CqTest, CanonicalKeyInvariantUnderRenaming) {
  Cq a = MakeTriangle();
  // Same query with variables declared in a different order.
  Cq b;
  VarId z = b.AddVar("zz");
  VarId x = b.AddVar("xx");
  VarId y = b.AddVar("yy");
  QTerm p = QTerm::Const(77);
  b.AddAtom(Atom(QTerm::Var(x), p, QTerm::Var(y)));
  b.AddAtom(Atom(QTerm::Var(y), p, QTerm::Var(z)));
  b.AddAtom(Atom(QTerm::Var(z), p, QTerm::Var(x)));
  b.AddHead(QTerm::Var(x));
  b.AddHead(QTerm::Var(y));
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
}

TEST(CqTest, CanonicalKeyDistinguishesConstants) {
  Cq a, b;
  VarId xa = a.AddVar("x");
  a.AddAtom(Atom(QTerm::Var(xa), QTerm::Const(1), QTerm::Const(2)));
  a.AddHead(QTerm::Var(xa));
  VarId xb = b.AddVar("x");
  b.AddAtom(Atom(QTerm::Var(xb), QTerm::Const(1), QTerm::Const(3)));
  b.AddHead(QTerm::Var(xb));
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
}

TEST(CqTest, CanonicalKeyDistinguishesVarFromConst) {
  Cq a, b;
  VarId xa = a.AddVar("x");
  VarId ya = a.AddVar("y");
  a.AddAtom(Atom(QTerm::Var(xa), QTerm::Const(1), QTerm::Var(ya)));
  a.AddHead(QTerm::Var(xa));
  VarId xb = b.AddVar("x");
  b.AddAtom(Atom(QTerm::Var(xb), QTerm::Const(1), QTerm::Const(9)));
  b.AddHead(QTerm::Var(xb));
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
}

// CanonicalKey is an exact serialization: the reformulator's dedup sets
// and the view cache's plan keys compare it byte for byte, so its
// spelling is pinned — variables renamed by first occurrence (head first),
// constants and interval bounds raw, resource constraints last.
TEST(CqTest, CanonicalKeyGolden) {
  Cq q;
  VarId w = q.AddVar("w");
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddHead(QTerm::Var(y));
  q.AddHead(QTerm::Const(5));
  q.AddHead(QTerm::Var(x));
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(77), QTerm::Var(y)));
  Atom on_p(QTerm::Var(y), QTerm::Const(100), QTerm::Var(w));
  on_p.range_pos = Atom::kRangeP;
  on_p.range_hi = 120;
  q.AddAtom(on_p);
  Atom on_o(QTerm::Var(w), QTerm::Const(rdf::vocab::kTypeId),
            QTerm::Const(4000000000u));
  on_o.range_pos = Atom::kRangeO;
  on_o.range_hi = 4294967294u;
  q.AddAtom(on_o);
  q.AddResourceVar(w);
  q.AddResourceVar(x);
  EXPECT_EQ(q.CanonicalKey(),
            "v0,c5,v1,:-v1 c77 v0.v0 c100 v2R1..120.v2 c0 "
            "c4000000000R2..4294967294.r2;r1;");
}

TEST(CqTest, FreshVarsGetDistinctNames) {
  Cq q;
  VarId f1 = q.FreshVar();
  VarId f2 = q.FreshVar();
  EXPECT_NE(f1, f2);
  EXPECT_NE(q.var_name(f1), q.var_name(f2));
}

TEST(CqTest, FragmentQueryHeadsAndBodies) {
  // q(x) :- x p y (t0), y p z (t1), z q w (t2).
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  VarId z = q.AddVar("z");
  VarId w = q.AddVar("w");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(7), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(y), QTerm::Const(7), QTerm::Var(z)));
  q.AddAtom(Atom(QTerm::Var(z), QTerm::Const(8), QTerm::Var(w)));
  q.AddHead(QTerm::Var(x));

  // Fragment {t0, t1} with z shared with the other fragment.
  Cq fragment = q.FragmentQuery({0, 1}, {z});
  EXPECT_EQ(fragment.body().size(), 2u);
  // Head: x (query head var in fragment) then z (shared).
  ASSERT_EQ(fragment.head().size(), 2u);
  EXPECT_EQ(fragment.head()[0].var(), x);
  EXPECT_EQ(fragment.head()[1].var(), z);
}

TEST(CqTest, FragmentQuerySkipsAbsentVars) {
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(7), QTerm::Const(3)));
  q.AddAtom(Atom(QTerm::Var(y), QTerm::Const(7), QTerm::Const(4)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(y));
  Cq fragment = q.FragmentQuery({0}, {});
  ASSERT_EQ(fragment.head().size(), 1u);
  EXPECT_EQ(fragment.head()[0].var(), x);
}

TEST(CqTest, ToStringRendersQuery) {
  rdf::Dictionary dict;
  rdf::TermId p = dict.InternUri("http://ex/p");
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(p), QTerm::Const(p)));
  q.AddHead(QTerm::Var(x));
  std::string s = q.ToString(dict);
  EXPECT_NE(s.find("?x"), std::string::npos);
  EXPECT_NE(s.find("<http://ex/p>"), std::string::npos);
}

TEST(UcqTest, ArityAndToString) {
  rdf::Dictionary dict;
  rdf::TermId p = dict.InternUri("http://ex/p");
  Cq member;
  VarId x = member.AddVar("x");
  member.AddAtom(Atom(QTerm::Var(x), QTerm::Const(p), QTerm::Const(p)));
  member.AddHead(QTerm::Var(x));

  Ucq empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.arity(), 0u);

  Ucq ucq({member, member, member});
  EXPECT_EQ(ucq.size(), 3u);
  EXPECT_EQ(ucq.arity(), 1u);
  std::string rendered = ucq.ToString(dict, 2);
  EXPECT_NE(rendered.find("UCQ[3]"), std::string::npos);
  EXPECT_NE(rendered.find("1 more"), std::string::npos);
}

TEST(CqTest, ResourceVarsTrackedAndCleared) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(3), QTerm::Const(4)));
  q.AddHead(QTerm::Var(x));
  q.AddResourceVar(x);
  EXPECT_TRUE(q.resource_vars().count(x));
  // Canonical keys distinguish resource-constrained twins.
  Cq twin = q;
  Cq unconstrained;
  VarId y = unconstrained.AddVar("x");
  unconstrained.AddAtom(Atom(QTerm::Var(y), QTerm::Const(3), QTerm::Const(4)));
  unconstrained.AddHead(QTerm::Var(y));
  EXPECT_EQ(q.CanonicalKey(), twin.CanonicalKey());
  EXPECT_NE(q.CanonicalKey(), unconstrained.CanonicalKey());
  // Substituting the variable discharges the constraint.
  q.Substitute(x, 99);
  EXPECT_FALSE(q.resource_vars().count(x));
}

}  // namespace
}  // namespace query
}  // namespace rdfref
