#ifndef RDFREF_ENGINE_TABLE_H_
#define RDFREF_ENGINE_TABLE_H_

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/hash.h"
#include "query/cq.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace rdfref {
namespace engine {

/// \brief Column sentinel for constant head slots: a constant head slot
/// carries no variable, so its `columns` entry is this value — the maximum
/// VarId, which can never alias a real variable during fragment joins.
inline constexpr query::VarId kConstColumn =
    std::numeric_limits<query::VarId>::max();

/// \brief Hash functor for a materialized row (vector of TermIds). The
/// Table itself hashes stride slices in place; this functor remains for
/// callers that still key containers on row vectors (e.g. the semi-naive
/// Datalog fact set).
struct RowHash {
  size_t operator()(const std::vector<rdf::TermId>& row) const {
    size_t seed = 0x51ed270b;
    for (rdf::TermId id : row) seed = HashCombine(seed, id);
    return seed;
  }
};

/// \brief A materialized intermediate or final result: a bag of fixed-arity
/// rows stored columnar-batch style in one contiguous arena.
///
/// Rows live back to back in a single `std::vector<rdf::TermId>` with an
/// arity stride — one allocation per table instead of one per row — and are
/// viewed as stride slices (`std::span`). Dedup, hash join and projection
/// hash and copy slices in place, so the execution core never materializes
/// a per-row heap object.
///
/// `columns` carries the VarId of each column for fragment tables, so the
/// JUCQ join can match columns across fragments; for final query answers
/// the columns are positional and `columns` mirrors the head slots that are
/// variables (constant head slots still produce a value in every row).
///
/// Arity is fixed by the first append (or an explicit SetArity) and every
/// later row must match it. Zero-arity rows (boolean queries) carry no
/// values, so the table tracks their count explicitly.
class Table {
 public:
  std::vector<query::VarId> columns;

  Table() = default;

  /// \brief Builds a table from row vectors (test/bridge convenience; the
  /// hot paths append into the arena directly). Every row must share one
  /// arity.
  static Table FromRows(std::vector<query::VarId> cols,
                        const std::vector<std::vector<rdf::TermId>>& rows);

  /// \brief Index of the column bound to variable v, or -1.
  int ColumnOf(query::VarId v) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == v) return static_cast<int>(i);
    }
    return -1;
  }

  /// \brief Number of rows (valid for every arity, including zero).
  size_t NumRows() const {
    return arity_ == 0 ? zero_arity_rows_ : data_.size() / arity_;
  }
  bool empty() const { return NumRows() == 0; }

  /// \brief Values per row. Zero both for an empty fresh table and for
  /// genuine zero-arity rows; has_arity() tells them apart.
  size_t arity() const { return arity_; }
  bool has_arity() const { return arity_set_; }

  /// \brief Fixes the row stride before the first append. Re-setting to a
  /// different arity is only legal while the table has no rows.
  void SetArity(size_t arity);

  /// \brief Stride-slice view of row `i` (empty span for zero arity).
  std::span<const rdf::TermId> row(size_t i) const RDFREF_LIFETIME_BOUND {
    return {data_.data() + i * arity_, arity_};
  }

  /// \brief Mutable view of row `i` (testing hooks / answer mutators).
  std::span<rdf::TermId> MutableRow(size_t i) RDFREF_LIFETIME_BOUND {
    return {data_.data() + i * arity_, arity_};
  }

  /// \brief Hot-path append: grows the arena by one row and returns the
  /// pointer to its `arity()` uninitialized slots (nullptr for zero-arity
  /// rows, whose count is still bumped). SetArity must have been called.
  rdf::TermId* AppendUninitialized() RDFREF_LIFETIME_BOUND {
    if (arity_ == 0) {
      ++zero_arity_rows_;
      return nullptr;
    }
    size_t old = data_.size();
    data_.resize(old + arity_);
    return data_.data() + old;
  }

  /// \brief Appends one row; infers the arity on the first append.
  void AppendRow(std::span<const rdf::TermId> values);
  void AppendRow(std::initializer_list<rdf::TermId> values) {
    AppendRow(std::span<const rdf::TermId>(values.begin(), values.size()));
  }

  /// \brief Drops the last row (testing hooks / answer mutators).
  void RemoveLastRow();

  /// \brief Reserves arena capacity for `n` more rows (no-op until the
  /// arity is known).
  void ReserveRows(size_t n) {
    if (arity_ > 0) data_.reserve(data_.size() + n * arity_);
  }

  /// \brief Concatenates another table's rows (bag union; no dedup). The
  /// arities must agree unless one side is empty with no fixed arity.
  void Append(const Table& other);

  /// \brief The raw arena: NumRows() * arity() ids, row-major.
  const std::vector<rdf::TermId>& data() const RDFREF_LIFETIME_BOUND {
    return data_;
  }

  /// \brief Materializes rows as vectors (tests, diagnostics — not hot).
  std::vector<std::vector<rdf::TermId>> RowVectors() const;

  /// \brief Materializes rows as a set (set-semantics comparisons in
  /// tests and repro snippets).
  std::set<std::vector<rdf::TermId>> RowSet() const;

  /// \brief Removes duplicate rows (set semantics), keeping first
  /// occurrences in order; in place, with one flat hash index of 2n 32-bit
  /// slots. Aborts when the table has 2^32 - 1 rows or more.
  void Dedup();

  /// \brief Sorts rows lexicographically (deterministic output for tests).
  void Sort();

  /// \brief Renders up to `max_rows` rows with dictionary-decoded values.
  std::string ToString(const rdf::Dictionary& dict,
                       size_t max_rows = 20) const;

 private:
  std::vector<rdf::TermId> data_;
  size_t arity_ = 0;
  size_t zero_arity_rows_ = 0;
  bool arity_set_ = false;
};

/// \brief Hash-joins two tables on their shared columns (natural join).
/// With no shared column this is the cross product. Output columns are
/// left.columns followed by the non-shared right columns. Rows come out
/// left-major, each left row's partners in right (build) order. Keys are
/// hashed as stride slices of a flat build-side key arena, indexed by 2n
/// 32-bit slots — no per-row materialization. Aborts when the right side
/// has 2^32 - 1 rows or more.
Table HashJoin(const Table& left, const Table& right);

}  // namespace engine
}  // namespace rdfref

#endif  // RDFREF_ENGINE_TABLE_H_
