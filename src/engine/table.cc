#include "engine/table.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>

namespace rdfref {
namespace engine {

namespace {

[[noreturn]] void TableFatal(const char* message) {
  std::fprintf(stderr, "rdfref: engine::Table: %s\n", message);
  std::abort();
}

constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();

size_t HashSlice(const rdf::TermId* row, size_t stride) {
  size_t seed = 0x51ed270b;
  for (size_t k = 0; k < stride; ++k) seed = HashCombine(seed, row[k]);
  return seed;
}

bool SameSlice(const rdf::TermId* a, const rdf::TermId* b, size_t stride) {
  for (size_t k = 0; k < stride; ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

// Open-addressing hash index over the `stride`-id slices of a flat arena,
// for Dedup and HashJoin's build side. A slot is empty or a 32-bit slice
// index. Exactly 2n slots for up to n slices keep the load at or below one
// half in 8n bytes, no more than a node-based hash set's bucket array
// alone. The home slot is the high half of the hash times the slot count
// (multiply-shift, any slot count); collisions probe linearly. The arena
// must not move while the index is used.
class SliceIndex {
 public:
  SliceIndex(size_t capacity, const rdf::TermId* arena, size_t stride)
      : arena_(arena), stride_(stride) {
    // A slice index that does not fit a slot would wrap into a wrong row:
    // abort rather than truncate an answer.
    if (capacity >= kEmptySlot) {
      TableFatal("more rows than a 32-bit hash slot can index");
    }
    slots_.assign(2 * capacity, kEmptySlot);
  }

  // The slot holding a slice equal to `key`, or the empty slot where it
  // belongs. Storing an index there inserts it.
  uint32_t& Find(const rdf::TermId* key) {
    const size_t n = slots_.size();
    size_t i = static_cast<size_t>(
        (static_cast<unsigned __int128>(HashSlice(key, stride_)) * n) >> 64);
    while (slots_[i] != kEmptySlot &&
           !SameSlice(arena_ + size_t{slots_[i]} * stride_, key, stride_)) {
      if (++i == n) i = 0;
    }
    return slots_[i];
  }

 private:
  const rdf::TermId* arena_;
  size_t stride_;
  std::vector<uint32_t> slots_;
};

}  // namespace

Table Table::FromRows(std::vector<query::VarId> cols,
                      const std::vector<std::vector<rdf::TermId>>& rows) {
  Table t;
  t.columns = std::move(cols);
  if (!rows.empty()) {
    t.SetArity(rows.front().size());
    t.data_.reserve(rows.size() * rows.front().size());
  }
  for (const std::vector<rdf::TermId>& row : rows) t.AppendRow(row);
  return t;
}

void Table::SetArity(size_t arity) {
  if (arity_set_ && arity != arity_ && NumRows() > 0) {
    TableFatal("SetArity would change the stride of a non-empty table");
  }
  arity_ = arity;
  arity_set_ = true;
}

void Table::AppendRow(std::span<const rdf::TermId> values) {
  if (!arity_set_) SetArity(values.size());
  if (values.size() != arity_) {
    TableFatal("AppendRow arity mismatch");
  }
  if (arity_ == 0) {
    ++zero_arity_rows_;
    return;
  }
  data_.insert(data_.end(), values.begin(), values.end());
}

void Table::RemoveLastRow() {
  if (arity_ == 0) {
    if (zero_arity_rows_ > 0) --zero_arity_rows_;
    return;
  }
  if (!data_.empty()) data_.resize(data_.size() - arity_);
}

void Table::Append(const Table& other) {
  if (other.NumRows() == 0) return;
  if (!arity_set_) SetArity(other.arity_);
  if (other.arity_ != arity_) {
    TableFatal("Append arity mismatch");
  }
  if (arity_ == 0) {
    zero_arity_rows_ += other.zero_arity_rows_;
    return;
  }
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
}

std::vector<std::vector<rdf::TermId>> Table::RowVectors() const {
  std::vector<std::vector<rdf::TermId>> out;
  const size_t n = NumRows();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::span<const rdf::TermId> r = row(i);
    out.emplace_back(r.begin(), r.end());
  }
  return out;
}

std::set<std::vector<rdf::TermId>> Table::RowSet() const {
  std::set<std::vector<rdf::TermId>> out;
  const size_t n = NumRows();
  for (size_t i = 0; i < n; ++i) {
    std::span<const rdf::TermId> r = row(i);
    out.emplace(r.begin(), r.end());
  }
  return out;
}

void Table::Dedup() {
  if (arity_ == 0) {
    zero_arity_rows_ = zero_arity_rows_ > 0 ? 1 : 0;
    return;
  }
  const size_t n = NumRows();
  if (n < 2) return;
  // Compact kept rows toward the front: candidate row r is looked up
  // among the already-kept rows [0, w) and, when new, copied to write
  // position w (w < r, so nothing unprocessed is clobbered) and indexed.
  SliceIndex seen(n, data_.data(), arity_);
  size_t w = 0;
  for (size_t r = 0; r < n; ++r) {
    const rdf::TermId* row = data_.data() + r * arity_;
    uint32_t& slot = seen.Find(row);
    if (slot != kEmptySlot) continue;
    if (w != r) {
      std::memcpy(data_.data() + w * arity_, row,
                  arity_ * sizeof(rdf::TermId));
    }
    slot = static_cast<uint32_t>(w++);
  }
  data_.resize(w * arity_);
}

void Table::Sort() {
  if (arity_ == 0) return;
  const size_t n = NumRows();
  if (n < 2) return;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const rdf::TermId* base = data_.data();
  const size_t stride = arity_;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(
        base + a * stride, base + (a + 1) * stride, base + b * stride,
        base + (b + 1) * stride);
  });
  std::vector<rdf::TermId> sorted;
  sorted.reserve(data_.size());
  for (size_t i : order) {
    sorted.insert(sorted.end(), base + i * stride, base + (i + 1) * stride);
  }
  data_ = std::move(sorted);
}

std::string Table::ToString(const rdf::Dictionary& dict,
                            size_t max_rows) const {
  std::ostringstream out;
  const size_t n = NumRows();
  out << n << " row(s)\n";
  for (size_t i = 0; i < n && i < max_rows; ++i) {
    std::span<const rdf::TermId> r = row(i);
    out << "  <";
    for (size_t j = 0; j < r.size(); ++j) {
      if (j > 0) out << ", ";
      out << dict.Lookup(r[j]).ToString();
    }
    out << ">\n";
  }
  if (n > max_rows) {
    out << "  ... (" << (n - max_rows) << " more)\n";
  }
  return out.str();
}

Table HashJoin(const Table& left, const Table& right) {
  // Shared columns and the right columns to carry over.
  std::vector<int> left_key, right_key;
  std::vector<int> right_carry;
  for (size_t j = 0; j < right.columns.size(); ++j) {
    int li = left.ColumnOf(right.columns[j]);
    if (li >= 0) {
      left_key.push_back(li);
      right_key.push_back(static_cast<int>(j));
    } else {
      right_carry.push_back(static_cast<int>(j));
    }
  }

  Table out;
  out.columns = left.columns;
  for (int j : right_carry) out.columns.push_back(right.columns[j]);
  // Stride follows the left rows' actual width (equal to columns.size()
  // for every table the engine builds; hand-built tables may differ).
  const size_t left_width =
      left.NumRows() > 0 ? left.arity() : left.columns.size();
  out.SetArity(left_width + right_carry.size());

  const size_t nl = left.NumRows();
  const size_t nr = right.NumRows();
  if (nl == 0 || nr == 0) return out;

  const size_t nk = right_key.size();
  if (nk == 0) {
    // Cross product: every pair, left-major (the seed row order).
    for (size_t l = 0; l < nl; ++l) {
      std::span<const rdf::TermId> lrow = left.row(l);
      for (size_t r = 0; r < nr; ++r) {
        rdf::TermId* slot = out.AppendUninitialized();
        if (!lrow.empty()) {
          std::memcpy(slot, lrow.data(), lrow.size() * sizeof(rdf::TermId));
        }
        std::span<const rdf::TermId> rrow = right.row(r);
        for (size_t c = 0; c < right_carry.size(); ++c) {
          slot[lrow.size() + c] = rrow[right_carry[c]];
        }
      }
    }
    return out;
  }

  // Build on the right side: one flat key arena, and an index from each
  // key to the first build row carrying it, with `next` chaining the rest.
  // Rows are linked from the last to the first, each in front of the
  // later ones, so a chain replays its key's rows in build order.
  std::vector<rdf::TermId> keys(nr * nk);
  for (size_t r = 0; r < nr; ++r) {
    std::span<const rdf::TermId> rrow = right.row(r);
    for (size_t k = 0; k < nk; ++k) keys[r * nk + k] = rrow[right_key[k]];
  }
  SliceIndex build(nr, keys.data(), nk);
  std::vector<uint32_t> next(nr);
  for (size_t r = nr; r-- > 0;) {
    uint32_t& first = build.Find(keys.data() + r * nk);
    next[r] = first;  // kEmptySlot ends the chain
    first = static_cast<uint32_t>(r);
  }

  // Probe with the left side.
  std::vector<rdf::TermId> probe(nk);
  for (size_t l = 0; l < nl; ++l) {
    std::span<const rdf::TermId> lrow = left.row(l);
    for (size_t k = 0; k < nk; ++k) probe[k] = lrow[left_key[k]];
    for (uint32_t r = build.Find(probe.data()); r != kEmptySlot; r = next[r]) {
      rdf::TermId* slot = out.AppendUninitialized();
      if (!lrow.empty()) {
        std::memcpy(slot, lrow.data(), lrow.size() * sizeof(rdf::TermId));
      }
      std::span<const rdf::TermId> rrow = right.row(r);
      for (size_t c = 0; c < right_carry.size(); ++c) {
        slot[lrow.size() + c] = rrow[right_carry[c]];
      }
    }
  }
  return out;
}

}  // namespace engine
}  // namespace rdfref
