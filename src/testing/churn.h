#ifndef RDFREF_TESTING_CHURN_H_
#define RDFREF_TESTING_CHURN_H_

#include <cstdint>

#include "common/hash.h"
#include "query/cq.h"
#include "testing/oracle.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// Churn relations: a VersionSet seeded with the scenario's explicit
/// database is churned by random inserts, removes, Freeze() and Compact(),
/// and every snapshot pinned along the way must answer q's reformulation
/// bit-identically to a reference evaluated on that same snapshot. The four
/// relations share one harness, one random operation, one sequential churn
/// loop and one threaded writer-vs-readers loop; they differ only in the
/// check they run on each pinned snapshot.

/// \brief Knobs of the threaded churn relations.
struct ChurnOptions {
  /// Reader threads pinning and checking snapshots.
  int reader_threads = 2;
  /// Insert/remove operations the churning writer performs.
  int writer_ops = 96;
  /// The writer calls Freeze() every this many operations...
  int freeze_every = 12;
  /// ...and Compact() every `compact_every` freezes.
  int compact_every = 3;
  /// Snapshot pin+check rounds per reader.
  int checks_per_reader = 6;
};

/// \brief Deterministic (single-threaded) snapshot-isolation relation:
/// applies `num_ops` random operations — inserts, removes, Freeze(),
/// Compact() — and after every operation demands that
///
///   1. evaluating q's UCQ reformulation against a freshly pinned snapshot
///      is bit-identical to from-scratch evaluation over a Store built from
///      that snapshot's materialized triple set
///      (relation "snapshot:epoch=E"), and
///   2. a snapshot pinned at epoch 0 keeps answering exactly its original
///      table no matter how the store churns, freezes, or compacts
///      underneath it (relation "snapshot:pinned").
///
/// Runs in the default fuzz battery; divergences shrink like any other
/// relation because every draw comes from the caller's seeded `rng`.
Divergence CheckSnapshotIsolation(const Scenario& sc, const query::Cq& q,
                                  Rng* rng, int num_ops);

/// \brief Deterministic (single-threaded) view-cache equivalence relation:
/// with a ViewCache registered as the VersionSet's write observer, demands
/// at load time, after every one of `num_ops` random operations, and again
/// after a final Freeze()+Compact() that
///
///   1. cache-mediated evaluation (Evaluator::EvaluateUcqView — the first
///      call fills, the second replays the install) is bit-identical to
///      cold evaluation of the same reformulation on the same snapshot
///      (relations "cached:fill" / "cached:hit"), and
///   2. when the query has ≥ 2 atoms, JUCQ evaluation under the singleton
///      cover with fragment-level cache probes agrees bit-for-bit with the
///      uncached JUCQ path (relations "cached:jucq-fill" /
///      "cached:jucq-hit").
///
/// Updates between rounds exercise the epoch-window machinery: entries
/// installed at earlier epochs must either prove themselves untouched
/// (footprint-disjoint writes) or miss — never serve a stale answer.
Divergence CheckCachedEquivalence(const Scenario& sc, const query::Cq& q,
                                  Rng* rng, int num_ops);

/// \brief Threaded snapshot-isolation relation (fuzz_driver
/// --updates-concurrent): one writer thread churns the VersionSet (with
/// background compaction running) while reader threads repeatedly pin
/// snapshots and demand bit-identical agreement between pinned-epoch
/// evaluation and from-scratch evaluation over the snapshot's materialized
/// set, plus re-evaluation determinism on the same snapshot. Relations are
/// prefixed "concurrent:"; failures are timing-dependent, so the harness
/// skips shrinking for them. Run under TSan, the check also proves the
/// version-swap protocol race-free.
Divergence CheckConcurrentSnapshots(const Scenario& sc, const query::Cq& q,
                                    uint64_t seed,
                                    const ChurnOptions& options);

/// \brief Threaded view-cache relation (fuzz_driver --updates-concurrent):
/// the same writer/readers churn, with readers demanding that
/// cache-mediated evaluation through one shared cache stays bit-identical
/// to cold evaluation at the pinned epoch — whatever interleaving of
/// installs, window advances, invalidations, and evictions they race
/// through. Readers check the whole union and, for a query of two or more
/// atoms, the singleton-cover JUCQ with fragment-level probes (phases
/// "jucq-probe" and "jucq-redo"). Relations are prefixed
/// "concurrent:cached:"; like the snapshot variant they are reported
/// unshrunk.
Divergence CheckConcurrentCached(const Scenario& sc, const query::Cq& q,
                                 uint64_t seed, const ChurnOptions& options);

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_CHURN_H_
