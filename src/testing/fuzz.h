#ifndef RDFREF_TESTING_FUZZ_H_
#define RDFREF_TESTING_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/churn.h"
#include "testing/encoding_oracle.h"
#include "testing/metamorphic.h"
#include "testing/oracle.h"
#include "testing/reference_eval.h"
#include "testing/scenario.h"
#include "testing/shrink.h"

namespace rdfref {
namespace testing {

/// \brief Configuration of one differential-fuzzing run: generator shapes,
/// which relation families to check, and the optional bug-injection hook
/// the harness uses to test itself.
struct FuzzOptions {
  ScenarioOptions scenario;
  QueryOptions query;
  /// Random queries drawn per seed.
  int trials_per_seed = 4;

  /// Relation families.
  bool check_oracle = true;       ///< strategy-agreement oracle protocol
  bool check_columnar = true;     ///< columnar engine vs reference evaluator
  bool check_metamorphic = true;  ///< threads / deadline / projection
  bool check_federation = true;   ///< graph partitioning across endpoints
  bool check_updates = true;      ///< monotone insert + DRed delete checks
  bool check_snapshots = true;    ///< single-threaded snapshot isolation
  /// Hierarchy-encoding equivalence: interval reformulation vs the classic
  /// UCQ it fuses, at load, after a schema insert, and across Reencode().
  bool check_encoded = true;
  /// View-cache equivalence: cache-mediated evaluation (fill then replay,
  /// whole unions and JUCQ fragments) vs cold evaluation, bit-for-bit,
  /// across load/update/compact phases. The threaded variant rides the
  /// check_concurrent battery unconditionally.
  bool check_cached = true;
  /// Threaded snapshot churn (fuzz_driver --updates-concurrent): a writer
  /// thread + background compaction race reader threads pinning epochs.
  /// Off by default — concurrent failures are timing-dependent and are
  /// reported unshrunk.
  bool check_concurrent = false;
  std::vector<int> thread_settings = {1, 0, 8};
  int federation_endpoints = 3;
  int num_inserts = 2;       ///< insertions per monotonicity check
  int num_update_ops = 4;    ///< ops per insert/delete consistency check
  int num_snapshot_ops = 6;  ///< ops per snapshot-isolation check
  int num_cached_ops = 6;    ///< ops per view-cache equivalence check
  ChurnOptions concurrent;  ///< both threaded churn relations

  /// Corrupts a strategy's answer before the oracle compares — the
  /// mutation check: with a bug injected, the harness MUST catch and
  /// shrink it (see fuzz_driver --inject-bug).
  AnswerMutator mutate;

  /// Minimize the first failure and emit repro artifacts.
  bool shrink = true;
  /// Stop fuzzing after this many failures (shrinking dominates cost).
  int max_failures = 1;
};

/// \brief One caught divergence, minimized and ready to file.
struct FuzzFailure {
  uint64_t seed = 0;
  int trial = 0;
  std::string relation;
  std::string detail;
  ShrinkResult shrunk;
  /// Self-contained gtest snippet reproducing the shrunken case.
  std::string repro_cc;
  /// Replayable seed file (fuzz_driver --replay).
  std::string seed_file;
};

/// \brief Aggregate outcome of a fuzzing run.
struct FuzzReport {
  uint64_t seeds_run = 0;
  uint64_t queries_checked = 0;
  uint64_t checks_run = 0;
  /// Arms that refused for their CQ budget instead of being compared:
  /// the encoded-equivalence relation's classic reference arm (its encoded
  /// arm was still checked against saturation), and any reformulation or
  /// strategy of the projection relation.
  uint64_t classic_refusals = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// \brief Fuzzes one seed: generates a scenario, draws queries, runs the
/// oracle and every enabled metamorphic relation, and shrinks the first
/// divergence. Appends into `report`; returns false once
/// options.max_failures is reached.
bool RunFuzzSeed(uint64_t seed, const FuzzOptions& options,
                 FuzzReport* report);

/// \brief Fuzzes seeds [seed_begin, seed_end].
FuzzReport RunFuzz(uint64_t seed_begin, uint64_t seed_end,
                   const FuzzOptions& options = {});

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_FUZZ_H_
