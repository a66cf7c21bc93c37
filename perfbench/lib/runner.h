#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ops.h"

namespace perfbench {

/// \brief One benchmark invocation.
struct RunOptions {
  uint64_t seed = 1;
  /// Decks of ops to replay; DecksFor(data, seconds) in the command.
  size_t decks = 1;
  /// Traced run: replay the sequence untraced, then again composed from
  /// the public layer calls with spans, and report per-layer metrics.
  bool trace = false;
  /// Self-test hook: corrupt one expected answer, so the run must fail.
  bool corrupt_expectation = false;
  /// Traced runs: where to write the spans ("" = keep them in memory).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  /// False when a metric could not be reported (a percentile left fewer
  /// than kMinSamplesBeyond samples beyond its rank): the run was too short.
  bool complete = true;
  uint64_t attempted = 0;  ///< measured ops
  uint64_t failed = 0;     ///< non-OK status or wrong answer
  /// End-to-end metrics (untraced) or per-layer metrics (traced), in the
  /// order BENCHMARK.json lists them.
  std::vector<Metric> metrics;
  /// Human-readable report: percentile classes, write latencies, layer
  /// times that are zero on some workloads, tracing overhead, failures.
  std::vector<std::string> notes;

  const Metric* Find(const std::string& name) const;
};

/// \brief Runs one workload end to end (see README.md for the contract).
RunResult Run(const WorkloadData& data, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
