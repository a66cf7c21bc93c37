#include "query/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "query/cq.h"
#include "query/ucq.h"
#include "testing/scenario.h"

namespace rdfref {
namespace query {
namespace {

// q(x, y) :- x p y, y p z, z p x.
Cq MakeTriangle() {
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

// A copy of `q` whose variables are declared in reverse order under fresh
// names — an α-renaming that shifts every VarId.
Cq RenameVars(const Cq& q) {
  Cq out;
  std::vector<VarId> map(q.num_vars());
  for (size_t v = q.num_vars(); v-- > 0;) {
    std::string name = "r";
    name += std::to_string(v);
    map[v] = out.AddVar(std::move(name));
  }
  auto remap = [&map](const QTerm& t) {
    return t.is_var ? QTerm::Var(map[t.var()]) : t;
  };
  for (const QTerm& h : q.head()) out.AddHead(remap(h));
  for (const Atom& a : q.body()) {
    Atom b(remap(a.s), remap(a.p), remap(a.o));
    b.range_pos = a.range_pos;
    b.range_hi = a.range_hi;
    out.AddAtom(b);
  }
  return out;
}

TEST(CanonicalTest, IdempotentOnTriangle) {
  CanonicalCq once = Canonicalize(MakeTriangle());
  CanonicalCq twice = Canonicalize(once.cq);
  EXPECT_EQ(once.key, twice.key);
  EXPECT_EQ(once.cq.CanonicalKey(), twice.cq.CanonicalKey());
}

TEST(CanonicalTest, AlphaEquivalentQueriesShareKeys) {
  Cq a = MakeTriangle();
  Cq b = RenameVars(a);
  EXPECT_EQ(Canonicalize(a).key, Canonicalize(b).key);
  // Double renaming too: the key depends only on query shape.
  EXPECT_EQ(Canonicalize(a).key, Canonicalize(RenameVars(b)).key);
}

TEST(CanonicalTest, DistinctShapesGetDistinctKeys) {
  Cq triangle = MakeTriangle();
  // Same atoms but a different head: q(x) instead of q(x, y).
  Cq narrower;
  VarId x = narrower.AddVar("x");
  VarId y = narrower.AddVar("y");
  VarId z = narrower.AddVar("z");
  QTerm p = QTerm::Const(77);
  narrower.AddAtom(Atom(QTerm::Var(x), p, QTerm::Var(y)));
  narrower.AddAtom(Atom(QTerm::Var(y), p, QTerm::Var(z)));
  narrower.AddAtom(Atom(QTerm::Var(z), p, QTerm::Var(x)));
  narrower.AddHead(QTerm::Var(x));
  EXPECT_NE(Canonicalize(triangle).key, Canonicalize(narrower).key);
}

TEST(CanonicalTest, DegenerateIntervalCollapsesToClassicAtom) {
  // x type [C, C] ≡ x type C: a hierarchy interval that shrank to one id.
  Cq ranged;
  VarId x = ranged.AddVar("x");
  Atom a(QTerm::Var(x), QTerm::Const(1), QTerm::Const(40));
  a.range_pos = Atom::kRangeO;
  a.range_hi = 40;
  ranged.AddAtom(a);
  ranged.AddHead(QTerm::Var(x));

  Cq classic;
  VarId y = classic.AddVar("y");
  classic.AddAtom(Atom(QTerm::Var(y), QTerm::Const(1), QTerm::Const(40)));
  classic.AddHead(QTerm::Var(y));

  EXPECT_EQ(Canonicalize(ranged).key, Canonicalize(classic).key);
}

TEST(CanonicalTest, ProperIntervalStaysDistinctFromClassic) {
  Cq ranged;
  VarId x = ranged.AddVar("x");
  Atom a(QTerm::Var(x), QTerm::Const(1), QTerm::Const(40));
  a.range_pos = Atom::kRangeO;
  a.range_hi = 45;
  ranged.AddAtom(a);
  ranged.AddHead(QTerm::Var(x));

  Cq classic;
  VarId y = classic.AddVar("y");
  classic.AddAtom(Atom(QTerm::Var(y), QTerm::Const(1), QTerm::Const(40)));
  classic.AddHead(QTerm::Var(y));

  EXPECT_NE(Canonicalize(ranged).key, Canonicalize(classic).key);
}

TEST(CanonicalTest, DuplicateAtomsCollapse) {
  Cq q = MakeTriangle();
  Cq doubled = q;
  doubled.AddAtom(q.body()[0]);
  EXPECT_EQ(Canonicalize(q).key, Canonicalize(doubled).key);
}

TEST(CanonicalTest, FuzzGeneratedQueriesIdempotentAndAlphaInvariant) {
  // The property pair the cache's grouping key rests on, over the same
  // generator the fuzz harness draws from: canonicalize∘canonicalize is
  // canonicalize, and renaming never changes the key.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    testing::Scenario sc = testing::GenerateScenario(seed, {});
    Rng rng(seed * 31 + 7);
    for (int trial = 0; trial < 4; ++trial) {
      Cq q = testing::GenerateQuery(sc, &rng, {});
      CanonicalCq once = Canonicalize(q);
      EXPECT_EQ(once.key, Canonicalize(once.cq).key)
          << "seed " << seed << " trial " << trial;
      EXPECT_EQ(once.key, Canonicalize(RenameVars(q)).key)
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(CanonicalTest, PlanKeyIsOrderSensitive) {
  // The full cache key must pin the exact member order — evaluation order
  // decides row order, and hits promise bit-identical replay.
  Cq a = MakeTriangle();
  Cq b;
  VarId x = b.AddVar("x");
  VarId y = b.AddVar("y");
  b.AddAtom(Atom(QTerm::Var(x), QTerm::Const(5), QTerm::Var(y)));
  b.AddHead(QTerm::Var(x));
  b.AddHead(QTerm::Var(y));

  Ucq ab({a, b});
  Ucq ba({b, a});
  EXPECT_NE(UcqPlanKey(ab), UcqPlanKey(ba));
  EXPECT_EQ(UcqPlanKey(ab), UcqPlanKey(Ucq({a, b})));
}

TEST(CanonicalTest, PlanKeyDistinguishesMemberCount) {
  Cq a = MakeTriangle();
  Ucq one({a});
  Ucq two({a, a});
  EXPECT_NE(UcqPlanKey(one), UcqPlanKey(two));
}

}  // namespace
}  // namespace query
}  // namespace rdfref
