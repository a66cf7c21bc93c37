#include "testing/fuzz.h"

#include <string>
#include <utility>

namespace rdfref {
namespace testing {

namespace {

/// Candidate evaluations the shrinker may spend on a RESOURCE_EXHAUSTED
/// divergence: each one replays a reformulation up to max_cqs, which takes
/// seconds and hundreds of MB, so an unbounded greedy pass runs for hours.
constexpr int kRefusalShrinkEvaluations = 16;

/// Derived deterministic sub-seeds: each relation gets its own stream so
/// adding a relation never perturbs the draws of another.
uint64_t SubSeed(uint64_t seed, int trial, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + trial * 31 + salt);
  return rng.Next();
}

/// Runs every enabled check for one (scenario, query) pair; the first
/// divergence wins. `replay` must be stable so the shrinker can re-run the
/// exact failing relation on reduced candidates. `report`, when non-null,
/// receives the check and reference-refusal counts.
Divergence RunChecks(const Scenario& sc, const query::Cq& q,
                     const FuzzOptions& options, uint64_t seed, int trial,
                     FuzzReport* report) {
  auto count = [&](Divergence d) {
    if (report) ++report->checks_run;
    return d;
  };

  if (options.check_oracle) {
    Oracle oracle(sc, options.mutate);
    Divergence d = count(oracle.Check(q));
    if (d.found) return d;
  }
  if (options.check_columnar) {
    // Bit-for-bit: the columnar batch engine against the retained
    // row-materializing reference evaluator, sequential and parallel.
    Divergence d = count(CheckColumnarVsReference(sc, q));
    if (d.found) return d;
  }
  if (options.check_encoded) {
    Divergence d = count(CheckEncodedEquivalence(
        sc, q, report ? &report->classic_refusals : nullptr));
    if (d.found) return d;
  }
  if (options.check_metamorphic) {
    Divergence d = count(CheckThreadInvariance(sc, q, options.thread_settings));
    if (d.found) return d;
    d = count(CheckDeadlineInvariance(sc, q));
    if (d.found) return d;
    if (q.head().size() >= 2) {
      d = count(CheckProjection(
          sc, q, SubSeed(seed, trial, 0x960EC7),
          report ? &report->classic_refusals : nullptr));
      if (d.found) return d;
    }
  }
  if (options.check_federation) {
    Divergence d = count(CheckFederationPartition(
        sc, q, options.federation_endpoints, SubSeed(seed, trial, 0xFED)));
    if (d.found) return d;
  }
  if (options.check_updates) {
    Rng mono_rng(SubSeed(seed, trial, 0x1A5E27));
    Divergence d =
        count(CheckInsertionMonotonicity(sc, q, &mono_rng, options.num_inserts));
    if (d.found) return d;
    if (trial == 0) {
      // The insert/delete soak rebuilds a ground-truth answerer per op;
      // once per seed keeps the run fast without losing coverage.
      Rng upd_rng(SubSeed(seed, trial, 0xD4ED));
      d = count(CheckUpdateConsistency(sc, q, &upd_rng, options.num_update_ops));
      if (d.found) return d;
    }
  }
  if (options.check_snapshots) {
    // Deterministic snapshot-isolation churn: pinned-epoch answers must be
    // bit-identical to from-scratch evaluation at every epoch.
    Rng snap_rng(SubSeed(seed, trial, 0x5A9));
    Divergence d = count(
        CheckSnapshotIsolation(sc, q, &snap_rng, options.num_snapshot_ops));
    if (d.found) return d;
  }
  if (options.check_cached) {
    // Cached vs cold, bit-for-bit, across load/update/compact phases.
    Rng cache_rng(SubSeed(seed, trial, 0xCAC4E));
    Divergence d = count(
        CheckCachedEquivalence(sc, q, &cache_rng, options.num_cached_ops));
    if (d.found) return d;
  }
  if (options.check_concurrent) {
    Divergence d = count(CheckConcurrentSnapshots(
        sc, q, SubSeed(seed, trial, 0xC0C), options.concurrent));
    if (d.found) return d;
    d = count(CheckConcurrentCached(sc, q, SubSeed(seed, trial, 0xCAC),
                                    options.concurrent));
    if (d.found) return d;
  }
  return Divergence::None();
}

}  // namespace

bool RunFuzzSeed(uint64_t seed, const FuzzOptions& options,
                 FuzzReport* report) {
  Scenario sc = GenerateScenario(seed, options.scenario);
  Rng query_rng(seed * 31 + 7);
  ++report->seeds_run;

  for (int trial = 0; trial < options.trials_per_seed; ++trial) {
    query::Cq q = GenerateQuery(sc, &query_rng, options.query);
    ++report->queries_checked;
    Divergence d = RunChecks(sc, q, options, seed, trial, report);
    if (!d.found) continue;

    FuzzFailure failure;
    failure.seed = seed;
    failure.trial = trial;
    failure.relation = d.relation;
    failure.detail = d.detail;
    failure.seed_file = EmitSeedFile(seed, trial, d.relation);
    // Concurrent-relation failures are timing-dependent: the shrinker's
    // "same relation must re-fail" predicate would flake, so they are
    // reported at full size.
    const bool concurrent = d.relation.rfind("concurrent", 0) == 0;
    if (options.shrink && !concurrent) {
      // Deterministic predicate: re-run the full check battery (same
      // derived sub-seeds) and require the SAME relation to fail — a
      // different divergence on a reduced candidate is a different bug.
      FailurePredicate fails = [&](const Scenario& candidate,
                                   const query::Cq& candidate_q) {
        Divergence rd = RunChecks(candidate, candidate_q, options, seed,
                                  trial, nullptr);
        return rd.found && rd.relation == d.relation;
      };
      const bool refusal =
          d.detail.find("RESOURCE_EXHAUSTED") != std::string::npos;
      failure.shrunk =
          Shrink(sc, q, fails, refusal ? kRefusalShrinkEvaluations : 0);
    } else {
      failure.shrunk.schema_triples = sc.schema_triples;
      failure.shrunk.data_triples = sc.data_triples;
      failure.shrunk.query = q;
    }
    failure.repro_cc =
        EmitReproTest(sc, failure.shrunk,
                      "Seed" + std::to_string(seed) + "Trial" +
                          std::to_string(trial),
                      d.relation);
    report->failures.push_back(std::move(failure));
    if (static_cast<int>(report->failures.size()) >= options.max_failures) {
      return false;
    }
  }
  return true;
}

FuzzReport RunFuzz(uint64_t seed_begin, uint64_t seed_end,
                   const FuzzOptions& options) {
  FuzzReport report;
  for (uint64_t seed = seed_begin; seed <= seed_end; ++seed) {
    if (!RunFuzzSeed(seed, options, &report)) break;
  }
  return report;
}

}  // namespace testing
}  // namespace rdfref
