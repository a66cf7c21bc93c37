#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "engine/table.h"

namespace perfbench {

/// \brief Fewest samples a reported percentile must leave beyond its rank.
inline constexpr size_t kMinSamplesBeyond = 10;

/// \brief A percentile taken by exact nearest rank.
struct Percentile {
  double value = 0.0;
  size_t rank = 0;    ///< 1-based rank in ascending order
  size_t n = 0;       ///< samples
  size_t beyond = 0;  ///< samples ranked above `rank`
};

/// \brief The `percent`-th percentile (0 < percent < 100) of ascending
/// `sorted` by exact nearest rank: the value at rank ceil(percent·n/100),
/// computed in integers. Refuses (nullopt) when fewer than
/// kMinSamplesBeyond samples lie beyond that rank.
std::optional<Percentile> NearestRank(const std::vector<double>& sorted,
                                      int percent);

/// \brief Fingerprints of one answer table.
struct AnswerDigest {
  uint64_t rows = 0;
  /// Order-independent: a sum of per-row hashes (compares strategies that
  /// emit the same set in different orders).
  uint64_t set_sum = 0;
  /// Bit-exact: arity, column labels and the row arena in order.
  uint64_t exact = 0;

  bool SameSet(const AnswerDigest& o) const {
    return rows == o.rows && set_sum == o.set_sum;
  }
};

AnswerDigest Digest(const rdfref::engine::Table& table);

/// \brief Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// \brief Minor page faults of this process so far.
uint64_t MinorFaults();

/// \brief CPU time the host stole from this machine's CPUs so far, summed
/// over CPUs, in seconds (the "steal" column of /proc/stat; 0 when absent).
double StealSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
