#include "storage/store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "api/query_answering.h"
#include "rdf/vocab.h"
#include "storage/serialize.h"
#include "testing/oracle.h"

namespace rdfref {
namespace storage {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s1_ = U("s1");
    s2_ = U("s2");
    p_ = U("p");
    q_ = U("q");
    o1_ = U("o1");
    o2_ = U("o2");
    graph_.Add(s1_, p_, o1_);
    graph_.Add(s1_, p_, o2_);
    graph_.Add(s2_, p_, o1_);
    graph_.Add(s1_, q_, o1_);
    graph_.Add(s2_, q_, o2_);
  }

  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  size_t Count(rdf::TermId s, rdf::TermId p, rdf::TermId o) {
    Store store(graph_);
    return store.CountMatches(s, p, o);
  }

  rdf::Graph graph_;
  rdf::TermId s1_, s2_, p_, q_, o1_, o2_;
};

TEST_F(StoreTest, PropertyIntervalWithBoundSubjectAndObjectIsZeroCopy) {
  // p_ and q_ are interned consecutively, so [p_, q_] is an id interval.
  // (s [lo..hi] o) is contiguous on OSP under the prefix (o, s).
  ASSERT_EQ(q_, p_ + 1);
  constexpr int kRangeP = 1;  // query::Atom::kRangeP
  Store store(graph_);
  std::span<const rdf::Triple> span;
  ASSERT_TRUE(store.TryGetIntervalRange(s1_, p_, o1_, kRangeP, q_, &span));
  EXPECT_EQ(std::vector<rdf::Triple>(span.begin(), span.end()),
            (std::vector<rdf::Triple>{rdf::Triple(s1_, p_, o1_),
                                      rdf::Triple(s1_, q_, o1_)}));
  EXPECT_EQ(store.CountIntervalMatches(s1_, p_, o1_, kRangeP, q_), 2u);

  // The cursor hands out the index range itself, not a copy.
  PatternCursor cursor;
  std::span<const rdf::Triple> rows =
      cursor.Reset(store, {s1_, p_, o1_, kRangeP, q_});
  EXPECT_EQ(rows.data(), span.data());
  EXPECT_EQ(rows.size(), 2u);

  ASSERT_TRUE(store.TryGetIntervalRange(s2_, p_, o2_, kRangeP, q_, &span));
  EXPECT_EQ(std::vector<rdf::Triple>(span.begin(), span.end()),
            std::vector<rdf::Triple>{rdf::Triple(s2_, q_, o2_)});
  ASSERT_TRUE(store.TryGetIntervalRange(s2_, p_, o1_, kRangeP, p_, &span));
  EXPECT_EQ(std::vector<rdf::Triple>(span.begin(), span.end()),
            std::vector<rdf::Triple>{rdf::Triple(s2_, p_, o1_)});

  // (? [lo..hi] o) stays non-contiguous: every order interleaves it.
  EXPECT_FALSE(store.TryGetIntervalRange(kAny, p_, o1_, kRangeP, q_, &span));
}

TEST_F(StoreTest, AllPatternShapesCount) {
  EXPECT_EQ(Count(kAny, kAny, kAny), 5u);
  EXPECT_EQ(Count(s1_, kAny, kAny), 3u);
  EXPECT_EQ(Count(kAny, p_, kAny), 3u);
  EXPECT_EQ(Count(kAny, kAny, o1_), 3u);
  EXPECT_EQ(Count(s1_, p_, kAny), 2u);
  EXPECT_EQ(Count(s1_, kAny, o1_), 2u);
  EXPECT_EQ(Count(kAny, p_, o1_), 2u);
  EXPECT_EQ(Count(s1_, p_, o1_), 1u);
  EXPECT_EQ(Count(s1_, p_, o2_), 1u);
  EXPECT_EQ(Count(s2_, q_, o1_), 0u);
}

TEST_F(StoreTest, ScanVisitsExactlyMatches) {
  Store store(graph_);
  size_t visited = 0;
  store.Scan(kAny, p_, kAny, [&](const rdf::Triple& t) {
    EXPECT_EQ(t.p, p_);
    ++visited;
  });
  EXPECT_EQ(visited, 3u);
}

TEST_F(StoreTest, ScanFullyBoundActsAsContains) {
  Store store(graph_);
  EXPECT_TRUE(store.Contains(rdf::Triple(s1_, p_, o1_)));
  EXPECT_FALSE(store.Contains(rdf::Triple(s2_, p_, o2_)));
  size_t visited = 0;
  store.Scan(s1_, p_, o1_, [&](const rdf::Triple&) { ++visited; });
  EXPECT_EQ(visited, 1u);
}

TEST_F(StoreTest, UnknownIdsMatchNothing) {
  Store store(graph_);
  rdf::TermId ghost = 99999;
  EXPECT_EQ(store.CountMatches(ghost, kAny, kAny), 0u);
  EXPECT_EQ(store.CountMatches(kAny, ghost, kAny), 0u);
  EXPECT_EQ(store.CountMatches(kAny, kAny, ghost), 0u);
}

TEST_F(StoreTest, EmptyStore) {
  rdf::Graph empty;
  Store store(empty);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.CountMatches(kAny, kAny, kAny), 0u);
  size_t visited = 0;
  store.Scan(kAny, kAny, kAny, [&](const rdf::Triple&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST_F(StoreTest, StatisticsAreExact) {
  Store store(graph_);
  const Statistics& stats = store.stats();
  EXPECT_EQ(stats.total_triples(), 5u);
  EXPECT_EQ(stats.distinct_subjects(), 2u);
  EXPECT_EQ(stats.distinct_properties(), 2u);
  EXPECT_EQ(stats.distinct_objects(), 2u);
  PropertyStats ps = stats.ForProperty(p_);
  EXPECT_EQ(ps.count, 3u);
  EXPECT_EQ(ps.distinct_subjects, 2u);
  EXPECT_EQ(ps.distinct_objects, 2u);
}

// The hinted search must return exactly the unhinted result for every
// lookup sequence: monotone (the fast case), repeated, backward (stale
// hint falls back), and across a change of pattern shape (which switches
// the permutation index the hint refers to).
TEST_F(StoreTest, HintedRangesMatchPlainRangesUnderAnyLookupOrder) {
  // A larger store so the gallop actually skips over runs.
  rdf::Graph g;
  auto uri = [&](const std::string& n) {
    return g.dict().InternUri("http://ex/" + n);
  };
  rdf::TermId prop = uri("p");
  rdf::TermId other = uri("q");
  std::vector<rdf::TermId> subjects;
  for (int i = 0; i < 64; ++i) {
    std::string subject = "s";
    subject += std::to_string(i);
    rdf::TermId s = uri(subject);
    subjects.push_back(s);
    for (int j = 0; j < 1 + i % 3; ++j) {
      std::string object = "o";
      object += std::to_string(j);
      g.Add(s, prop, uri(object));
    }
    if (i % 2 == 0) g.Add(s, other, uri("x"));
  }
  Store store(g);

  auto same = [&](rdf::TermId s, rdf::TermId p, rdf::TermId o,
                  RangeHint* hint) {
    std::span<const rdf::Triple> plain;
    std::span<const rdf::Triple> hinted;
    ASSERT_TRUE(store.Lookup({s, p, o}, &plain));
    ASSERT_TRUE(store.Lookup({s, p, o}, &hinted, hint));
    EXPECT_EQ(plain.data(), hinted.data());
    EXPECT_EQ(plain.size(), hinted.size());
  };

  RangeHint hint;
  // Monotone sweep (the nested-loop inner-atom pattern), with repeats.
  for (rdf::TermId s : subjects) {
    same(s, prop, kAny, &hint);
    same(s, prop, kAny, &hint);  // repeated prefix keeps the fence
  }
  // Backward lookup: stale hint must not corrupt the result.
  same(subjects.front(), prop, kAny, &hint);
  // Pattern-shape change switches index (SPO -> OSP); hint is re-keyed.
  same(kAny, kAny, uri("x"), &hint);
  same(subjects.back(), prop, kAny, &hint);
  // Empty results, hinted and not.
  same(subjects.front(), other, uri("nope"), &hint);
  same(uri("ghost"), prop, kAny, &hint);

  // Interval probes: every shape Store::OrderFor serves, one hint
  // threaded through all of them (and through the classic lookups above),
  // so each shape meets a hint from another index before its own sweep.
  // [prop..other] is an id interval (interned consecutively); object
  // intervals are id ranges too, whatever terms they happen to span.
  constexpr int kRangeP = 1;  // query::Atom::kRangeP
  constexpr int kRangeO = 2;  // query::Atom::kRangeO
  ASSERT_EQ(other, prop + 1);
  const rdf::TermId o0 = uri("o0");
  const rdf::TermId o2 = uri("o2");
  const rdf::TermId x = uri("x");
  const rdf::TermId ghost = uri("ghost");
  auto same_interval = [&](rdf::TermId s, rdf::TermId p, rdf::TermId o,
                           int range_pos, rdf::TermId hi) {
    SCOPED_TRACE(::testing::Message() << "s=" << s << " p=" << p << " o=" << o
                                      << " range_pos=" << range_pos
                                      << " hi=" << hi);
    std::span<const rdf::Triple> plain;
    std::span<const rdf::Triple> hinted;
    ASSERT_TRUE(store.TryGetIntervalRange(s, p, o, range_pos, hi, &plain));
    ASSERT_TRUE(store.TryGetIntervalRangeHinted(s, p, o, range_pos, hi,
                                                &hinted, &hint));
    EXPECT_EQ(plain.data(), hinted.data());
    EXPECT_EQ(plain.size(), hinted.size());
  };
  // (s p [lo..hi]) on SPO and (s [lo..hi] ?) on SPO: monotone sweeps with
  // repeats, then a backward lookup.
  for (rdf::TermId s : subjects) {
    same_interval(s, prop, o0, kRangeO, o2);
    same_interval(s, prop, o0, kRangeO, o2);
  }
  same_interval(subjects.front(), prop, o0, kRangeO, x);
  for (rdf::TermId s : subjects) {
    same_interval(s, prop, kAny, kRangeP, other);
    same_interval(s, prop, kAny, kRangeP, other);
  }
  same_interval(subjects[3], prop, kAny, kRangeP, prop);
  // (s [lo..hi] o) on OSP under the prefix (o, s).
  for (rdf::TermId o : {o0, x}) {
    for (rdf::TermId s : subjects) same_interval(s, prop, o, kRangeP, other);
  }
  same_interval(subjects.front(), prop, o0, kRangeP, other);
  // (? p [lo..hi]) on POS, (? [lo..hi] ?) on PSO and (? ? [lo..hi]) on OSP,
  // each with widening, repeated and shrinking intervals.
  for (rdf::TermId p : {prop, other}) {
    same_interval(kAny, p, o0, kRangeO, o0);
    same_interval(kAny, p, o0, kRangeO, o2);
    same_interval(kAny, p, o0, kRangeO, o2);
    same_interval(kAny, p, o2, kRangeO, x);
  }
  same_interval(kAny, prop, kAny, kRangeP, other);
  same_interval(kAny, other, kAny, kRangeP, other);
  same_interval(kAny, prop, kAny, kRangeP, prop);
  for (rdf::TermId lo : {o0, o2, x, o0}) {
    same_interval(kAny, kAny, lo, kRangeO, x);
  }
  // Empty intervals: an unknown subject, an id range past every object and
  // one holding no property.
  same_interval(ghost, prop, kAny, kRangeP, other);
  same_interval(kAny, kAny, ghost, kRangeO, ghost);
  same_interval(kAny, o0, kAny, kRangeP, o0);
  same_interval(subjects.back(), prop, o0, kRangeO, o2);
}

// The index each of the 16 pattern shapes reads, pinned to the choice the
// classic if-tree and the interval table made before one order table
// replaced both: a moved choice moves row order, and so the answers'
// enumeration order, even where every row is still found.
TEST(StoreOrderTest, OrderForPinsTheIndexOfEveryShape) {
  using enum IndexOrder;
  const rdf::TermId x = 7, lo = 8, hi = 9;
  constexpr int kP = Pattern::kRangeP;
  constexpr int kO = Pattern::kRangeO;
  const std::optional<IndexOrder> kNone;
  const std::pair<Pattern, std::optional<IndexOrder>> cases[] = {
      {{kAny, kAny, kAny}, kSpo},        {{x, kAny, kAny}, kSpo},
      {{kAny, x, kAny}, kPso},           {{kAny, kAny, x}, kOsp},
      {{x, x, kAny}, kSpo},              {{x, kAny, x}, kOsp},
      {{kAny, x, x}, kPos},              {{x, x, x}, kSpo},
      {{kAny, lo, kAny, kP, hi}, kPso},  {{x, lo, kAny, kP, hi}, kSpo},
      {{kAny, lo, x, kP, hi}, kNone},    {{x, lo, x, kP, hi}, kOsp},
      {{kAny, kAny, lo, kO, hi}, kOsp},  {{x, kAny, lo, kO, hi}, kNone},
      {{kAny, x, lo, kO, hi}, kPos},     {{x, x, lo, kO, hi}, kSpo},
  };
  for (const auto& [pat, order] : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "s=" << pat.s << " p=" << pat.p << " o=" << pat.o
                 << " range_pos=" << pat.range_pos);
    EXPECT_EQ(Store::OrderFor(pat), order);
  }
}

TEST_F(StoreTest, ClassCardinalities) {
  rdf::TermId c1 = U("C1"), c2 = U("C2"), x = U("x"), y = U("y");
  graph_.Add(x, rdf::vocab::kTypeId, c1);
  graph_.Add(y, rdf::vocab::kTypeId, c1);
  graph_.Add(x, rdf::vocab::kTypeId, c2);
  Store store(graph_);
  EXPECT_EQ(store.stats().ClassCardinality(c1), 2u);
  EXPECT_EQ(store.stats().ClassCardinality(c2), 1u);
  EXPECT_EQ(store.stats().ClassCardinality(U("C3")), 0u);
}

TEST_F(StoreTest, SaveLoadQueryEquality) {
  // Regression for the hierarchy-encoding PR: an answerer built from a
  // loaded image must answer exactly like one built from the original
  // graph. Both encode their dictionary at construction; the comparison is
  // over decoded terms, where the id permutation cancels out.
  rdf::TermId c1 = U("C1"), c2 = U("C2"), x = U("x"), y = U("y");
  graph_.Add(c1, rdf::vocab::kSubClassOfId, c2);
  graph_.Add(x, rdf::vocab::kTypeId, c1);
  graph_.Add(y, rdf::vocab::kTypeId, c2);

  const std::string path =
      std::string(::testing::TempDir()) + "/store_roundtrip.rdfb";
  ASSERT_TRUE(SaveGraph(graph_, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::remove(path.c_str());

  api::QueryAnswerer original(graph_.Clone());
  api::QueryAnswerer reloaded(std::move(*loaded));
  auto type_query = [](api::QueryAnswerer* answerer) {
    query::Cq q;
    query::VarId v = q.AddVar("x");
    q.AddAtom(query::Atom(
        query::QTerm::Var(v), query::QTerm::Const(rdf::vocab::kTypeId),
        query::QTerm::Const(answerer->dict().InternUri("http://ex/C2"))));
    q.AddHead(query::QTerm::Var(v));
    return q;
  };
  auto a = original.Answer(type_query(&original), api::Strategy::kRefUcq);
  auto b = reloaded.Answer(type_query(&reloaded), api::Strategy::kRefUcq);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(testing::DecodeRows(*a, original.dict()),
            testing::DecodeRows(*b, reloaded.dict()));
  EXPECT_EQ(a->NumRows(), 2u);  // x via C1 ⊑ C2, y directly
}

}  // namespace
}  // namespace storage
}  // namespace rdfref
