#include "engine/table.h"

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace rdfref {
namespace engine {
namespace {

TEST(TableTest, DedupRemovesDuplicatesKeepingFirstOccurrenceOrder) {
  Table t = Table::FromRows({0, 1}, {{1, 2}, {1, 2}, {3, 4}, {1, 2}, {5, 6}});
  t.Dedup();
  EXPECT_EQ(t.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                {1, 2}, {3, 4}, {5, 6}}));
}

TEST(TableTest, SortIsLexicographic) {
  Table t = Table::FromRows({0, 1}, {{2, 1}, {1, 9}, {1, 2}});
  t.Sort();
  EXPECT_EQ(t.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                {1, 2}, {1, 9}, {2, 1}}));
}

TEST(TableTest, ColumnOf) {
  Table t;
  t.columns = {4, 7, 9};
  EXPECT_EQ(t.ColumnOf(7), 1);
  EXPECT_EQ(t.ColumnOf(5), -1);
}

TEST(TableTest, ArenaLayoutIsContiguousRowMajor) {
  Table t;
  t.SetArity(3);
  t.AppendRow({1, 2, 3});
  rdf::TermId* slots = t.AppendUninitialized();
  slots[0] = 4;
  slots[1] = 5;
  slots[2] = 6;
  EXPECT_EQ(t.data(), (std::vector<rdf::TermId>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.row(1)[1], 5u);
  t.RemoveLastRow();
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.data(), (std::vector<rdf::TermId>{1, 2, 3}));
}

TEST(TableTest, AppendRowInfersArity) {
  Table t;
  EXPECT_FALSE(t.has_arity());
  t.AppendRow({7, 8});
  EXPECT_TRUE(t.has_arity());
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.NumRows(), 1u);
}

// Zero-arity rows (boolean queries): no values, but the row count — and
// dedup down to a single witness — must still work.
TEST(TableTest, ZeroArityRowsCountAndDedup) {
  Table t;
  t.SetArity(0);
  EXPECT_TRUE(t.has_arity());
  EXPECT_EQ(t.NumRows(), 0u);
  EXPECT_EQ(t.AppendUninitialized(), nullptr);
  t.AppendRow(std::span<const rdf::TermId>{});
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.row(0).size(), 0u);
  t.Dedup();
  EXPECT_EQ(t.NumRows(), 1u);  // all zero-arity rows are the same row
  t.RemoveLastRow();
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, AppendConcatenatesArenas) {
  Table a = Table::FromRows({0}, {{1}, {2}});
  Table b = Table::FromRows({0}, {{3}});
  a.Append(b);
  EXPECT_EQ(a.RowVectors(),
            (std::vector<std::vector<rdf::TermId>>{{1}, {2}, {3}}));
  // Appending an empty, arity-less table is a no-op.
  Table fresh;
  a.Append(fresh);
  EXPECT_EQ(a.NumRows(), 3u);
}

// Dedup of a moved-from arena: moving a table out must leave the source
// valid-but-empty, and Dedup on it must be a safe no-op.
TEST(TableTest, DedupOfMovedFromArenaIsSafe) {
  Table t = Table::FromRows({0, 1}, {{1, 2}, {1, 2}});
  Table stolen = std::move(t);
  EXPECT_EQ(stolen.NumRows(), 2u);
  t.Dedup();  // NOLINT(bugprone-use-after-move): deliberate
  EXPECT_EQ(t.NumRows(), 0u);
  stolen.Dedup();
  EXPECT_EQ(stolen.NumRows(), 1u);
}

// The kConstColumn sentinel marks constant head slots. It is the maximum
// VarId, so it can never collide with a real variable, and two constant
// columns must NOT be treated as a shared join column in the usual way —
// they simply behave as a (degenerate) equality column.
TEST(TableTest, ConstColumnSentinelNeverAliasesRealVariables) {
  EXPECT_EQ(kConstColumn, std::numeric_limits<query::VarId>::max());
  Table t = Table::FromRows({0, kConstColumn}, {{1, 42}, {2, 42}});
  EXPECT_EQ(t.ColumnOf(kConstColumn), 1);
  EXPECT_EQ(t.ColumnOf(3), -1);
  // A fragment with variable 5 shares nothing with a constant column.
  Table other = Table::FromRows({5}, {{9}});
  Table joined = HashJoin(t, other);  // cross product: no shared VarId
  EXPECT_EQ(joined.NumRows(), 2u);
  EXPECT_EQ(joined.columns,
            (std::vector<query::VarId>{0, kConstColumn, 5}));
}

TEST(HashJoinTest, JoinsOnSharedColumn) {
  Table left = Table::FromRows({0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  Table right = Table::FromRows({1, 2}, {{10, 100}, {10, 101}, {30, 300}});
  Table joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns, (std::vector<query::VarId>{0, 1, 2}));
  joined.Sort();
  EXPECT_EQ(joined.RowVectors(),
            (std::vector<std::vector<rdf::TermId>>{
                {1, 10, 100}, {1, 10, 101}, {3, 30, 300}}));
}

TEST(HashJoinTest, MultiColumnKeys) {
  Table left = Table::FromRows({0, 1}, {{1, 2}, {1, 3}});
  Table right = Table::FromRows({0, 1, 2}, {{1, 2, 9}, {1, 3, 8}, {1, 4, 7}});
  Table joined = HashJoin(left, right);
  joined.Sort();
  EXPECT_EQ(joined.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                     {1, 2, 9}, {1, 3, 8}}));
}

// Duplicate join columns: the left table carries the same VarId twice
// (e.g. after joining fragments that both exported it). Every occurrence
// participates in the key via ColumnOf's first match, and the join must
// still line up values correctly rather than crash or mis-stride.
TEST(HashJoinTest, DuplicateJoinColumnsOnOneSide) {
  Table left = Table::FromRows({0, 0}, {{1, 1}, {2, 2}, {3, 9}});
  Table right = Table::FromRows({0, 1}, {{1, 100}, {2, 200}, {9, 900}});
  Table joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns, (std::vector<query::VarId>{0, 0, 1}));
  joined.Sort();
  // Key is the first occurrence of column 0 on each side: rows {1,1} and
  // {2,2} match; {3,9} keys as 3, which has no build-side partner.
  EXPECT_EQ(joined.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                     {1, 1, 100}, {2, 2, 200}}));
}

TEST(HashJoinTest, NoSharedColumnIsCrossProduct) {
  Table left = Table::FromRows({0}, {{1}, {2}});
  Table right = Table::FromRows({1}, {{7}, {8}});
  Table joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns, (std::vector<query::VarId>{0, 1}));
  joined.Sort();
  EXPECT_EQ(joined.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                     {1, 7}, {1, 8}, {2, 7}, {2, 8}}));
}

TEST(HashJoinTest, EmptySideYieldsEmpty) {
  Table left, right;
  left.columns = {0};
  right = Table::FromRows({0}, {{1}});
  EXPECT_EQ(HashJoin(left, right).NumRows(), 0u);
  EXPECT_EQ(HashJoin(right, left).NumRows(), 0u);
}

TEST(HashJoinTest, EmptySideOfCrossProductYieldsEmpty) {
  // Zero shared columns *and* an empty build side: the cross product of
  // anything with the empty table is empty, whichever side is empty.
  Table empty, nonempty;
  empty.columns = {0};
  nonempty = Table::FromRows({1}, {{7}, {8}});
  EXPECT_EQ(HashJoin(empty, nonempty).NumRows(), 0u);
  EXPECT_EQ(HashJoin(nonempty, empty).NumRows(), 0u);
  EXPECT_EQ(HashJoin(empty, nonempty).columns.size(), 2u);
}

using Rows = std::vector<std::vector<rdf::TermId>>;

// A table over `cols` with `rows` rows drawn from a pool of
// ceil(rows / dup) distinct random rows, so each row repeats about `dup`
// times. Ids come from a range wide enough to spread the hash and narrow
// enough that join keys meet.
Table RandomTable(Rng* rng, std::vector<query::VarId> cols, size_t rows,
                  size_t dup, uint64_t id_range) {
  const size_t arity = cols.size();
  Rows pool((rows + dup - 1) / dup, std::vector<rdf::TermId>(arity));
  for (std::vector<rdf::TermId>& row : pool) {
    for (rdf::TermId& id : row) {
      id = static_cast<rdf::TermId>(rng->Uniform(id_range));
    }
  }
  Table t;
  t.columns = std::move(cols);
  t.SetArity(arity);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow(pool[rng->Uniform(pool.size())]);
  }
  return t;
}

// First-occurrence dedup, the naive way.
Rows NaiveDedup(const Rows& rows) {
  std::set<std::vector<rdf::TermId>> seen;
  Rows kept;
  for (const std::vector<rdf::TermId>& row : rows) {
    if (seen.insert(row).second) kept.push_back(row);
  }
  return kept;
}

// Nested-loop natural join on the columns both sides name (each right
// column keyed against the left's first column of that name), left-major
// with the right rows in their own order.
Rows NestedLoopJoin(const Table& left, const Table& right) {
  std::vector<std::pair<size_t, size_t>> key;
  std::vector<size_t> carry;
  for (size_t j = 0; j < right.columns.size(); ++j) {
    const int li = left.ColumnOf(right.columns[j]);
    if (li >= 0) {
      key.emplace_back(static_cast<size_t>(li), j);
    } else {
      carry.push_back(j);
    }
  }
  const Rows right_rows = right.RowVectors();
  Rows out;
  for (const std::vector<rdf::TermId>& l : left.RowVectors()) {
    for (const std::vector<rdf::TermId>& r : right_rows) {
      bool match = true;
      for (const auto& [li, rj] : key) match = match && l[li] == r[rj];
      if (!match) continue;
      std::vector<rdf::TermId> row = l;
      for (size_t j : carry) row.push_back(r[j]);
      out.push_back(std::move(row));
    }
  }
  return out;
}

// Seeded property test of the flat hash index behind Dedup: random tables
// of arity 0-4, up to 20,000 rows, each row repeated 1-50 times, and one
// table of a single repeated row, against the naive first-occurrence
// dedup, row for row.
TEST(TablePropertyTest, DedupEqualsFirstOccurrenceReference) {
  Rng rng(20);
  for (int round = 0; round < 40; ++round) {
    const size_t arity = rng.Uniform(5);
    const size_t rows = rng.Uniform(20001);
    const size_t dup = 1 + rng.Uniform(50);
    const uint64_t id_range = rng.Chance(0.5) ? 16 : uint64_t{1} << 32;
    std::vector<query::VarId> cols(arity);
    for (size_t c = 0; c < arity; ++c) cols[c] = static_cast<query::VarId>(c);
    Table t = RandomTable(&rng, cols, rows, dup, id_range);
    SCOPED_TRACE(::testing::Message() << "round " << round << ": arity "
                                      << arity << ", " << rows << " rows, dup "
                                      << dup << ", id range " << id_range);
    const Rows want = NaiveDedup(t.RowVectors());
    t.Dedup();
    EXPECT_EQ(t.RowVectors(), want);
  }
  Table same;
  same.SetArity(3);
  for (int i = 0; i < 20000; ++i) same.AppendRow({7, 8, 9});
  same.Dedup();
  EXPECT_EQ(same.RowVectors(), (Rows{{7, 8, 9}}));
}

// Seeded property test of HashJoin's flat build side against a
// nested-loop join, row for row: one- and multi-column keys, no shared
// column (the cross product), a kConstColumn column on both sides and
// empty sides.
TEST(TablePropertyTest, HashJoinEqualsNestedLoopReference) {
  Rng rng(21);
  for (int round = 0; round < 60; ++round) {
    // Column names from a small pool, so the sides share 0-4 of them.
    auto columns = [&rng]() {
      std::vector<query::VarId> cols;
      const size_t arity = 1 + rng.Uniform(4);
      while (cols.size() < arity) {
        const query::VarId v = rng.Chance(0.1)
                                   ? kConstColumn
                                   : static_cast<query::VarId>(rng.Uniform(6));
        if (std::find(cols.begin(), cols.end(), v) == cols.end()) {
          cols.push_back(v);
        }
      }
      return cols;
    };
    auto side_rows = [&rng]() -> size_t {
      return rng.Chance(0.1) ? 0 : rng.Uniform(400);
    };
    const uint64_t id_range = 2 + rng.Uniform(12);
    Table left =
        RandomTable(&rng, columns(), side_rows(), 1 + rng.Uniform(50), id_range);
    Table right =
        RandomTable(&rng, columns(), side_rows(), 1 + rng.Uniform(50), id_range);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << ": " << left.NumRows() << " x "
                 << right.NumRows() << " rows");
    const Table joined = HashJoin(left, right);
    std::vector<query::VarId> want_columns = left.columns;
    for (query::VarId v : right.columns) {
      if (left.ColumnOf(v) < 0) want_columns.push_back(v);
    }
    EXPECT_EQ(joined.columns, want_columns);
    EXPECT_EQ(joined.RowVectors(), NestedLoopJoin(left, right));
  }
}

TEST(TableTest, ToStringTruncates) {
  rdf::Dictionary dict;
  rdf::TermId a = dict.InternUri("http://a");
  Table t;
  t.columns = {0};
  t.SetArity(1);
  for (int i = 0; i < 30; ++i) t.AppendRow({a});
  std::string s = t.ToString(dict, 5);
  EXPECT_NE(s.find("30 row(s)"), std::string::npos);
  EXPECT_NE(s.find("25 more"), std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace rdfref
