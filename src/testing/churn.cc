#include "testing/churn.h"

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/synchronization.h"
#include "engine/evaluator.h"
#include "engine/view_cache.h"
#include "query/cover.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "storage/store.h"
#include "storage/version_set.h"
#include "testing/reference_eval.h"

namespace rdfref {
namespace testing {

namespace {

/// The fixed part of every churn relation: the scenario's database indexed
/// as the VersionSet's base, q's UCQ reformulation, and the singleton-cover
/// fragments with their reformulations (the cached JUCQ leg). The schema
/// never changes during the churn, so all of it is valid at every epoch.
struct ChurnHarness {
  rdf::Graph graph;
  schema::Schema schema;
  std::unique_ptr<storage::Store> base;
  query::Ucq ucq;
  std::vector<query::Cq> fragment_queries;
  std::vector<query::Ucq> fragment_ucqs;
  bool reformulated = false;  // false: budget blown, relations are vacuous
  bool jucq = false;          // fragments reformulated too
};

ChurnHarness BuildHarness(const Scenario& sc, const query::Cq& q) {
  ChurnHarness h;
  h.graph = sc.graph.Clone();
  h.schema = schema::Schema::FromGraph(h.graph);
  h.schema.Saturate();
  h.schema.EmitTriples(&h.graph);
  h.base = std::make_unique<storage::Store>(h.graph);
  reformulation::Reformulator ref(&h.schema, {}, &h.graph.dict());
  auto ucq = ref.Reformulate(q);
  if (!ucq.ok()) return h;
  h.ucq = std::move(*ucq);
  h.reformulated = true;
  if (q.body().size() >= 2) {
    query::Cover cover = query::Cover::Singletons(q.body().size());
    h.fragment_queries = cover.FragmentQueries(q);
    h.jucq = true;
    for (const query::Cq& fq : h.fragment_queries) {
      auto fucq = ref.Reformulate(fq);
      if (!fucq.ok()) {
        h.jucq = false;
        break;
      }
      h.fragment_ucqs.push_back(std::move(*fucq));
    }
  }
  return h;
}

/// One random operation against the versioned store. Inserts draw fresh
/// facts over the scenario's vocabulary (the dictionary is never touched —
/// essential for the threaded relations); removes drain the live pool,
/// which tracks exactly the instance triples currently visible.
void ApplyRandomOp(const Scenario& sc, Rng* rng, storage::VersionSet* versions,
                   std::vector<rdf::Triple>* pool, bool allow_maintenance) {
  const double roll = rng->UniformDouble();
  if (allow_maintenance && roll < 0.15) {
    versions->Freeze();
    return;
  }
  if (allow_maintenance && roll < 0.25) {
    versions->Compact();
    return;
  }
  if (roll < 0.55 && !pool->empty()) {
    const size_t at = rng->Uniform(pool->size());
    versions->Remove((*pool)[at]);
    pool->erase(pool->begin() + at);
    return;
  }
  const rdf::Triple t = GenerateFact(sc, rng);
  if (versions->Insert(t)) pool->push_back(t);
}

/// A relation's check of one pinned snapshot.
using SnapshotCheck = std::function<Divergence(const storage::SnapshotPtr&)>;

/// The sequential churn: `num_ops` random operations (maintenance
/// included) drawn from `rng`, each followed by `check` on a freshly pinned
/// snapshot. The first divergence ends the run.
Divergence Churn(const Scenario& sc, Rng* rng, int num_ops,
                 storage::VersionSet* versions, const SnapshotCheck& check) {
  std::vector<rdf::Triple> pool = sc.data_triples;
  for (int op = 0; op < num_ops; ++op) {
    ApplyRandomOp(sc, rng, versions, &pool, /*allow_maintenance=*/true);
    Divergence d = check(versions->snapshot());
    if (d.found) return d;
  }
  return Divergence::None();
}

/// The threaded churn: a writer drawing from `seed` and `salt` applies
/// random inserts/removes with explicit Freeze/Compact interleaved, racing
/// background maintenance and reader threads that each run `check` on
/// freshly pinned snapshots. Returns the first divergence a reader found.
Divergence ChurnConcurrently(const Scenario& sc, uint64_t seed, uint64_t salt,
                             const ChurnOptions& options,
                             storage::VersionSet* versions,
                             const SnapshotCheck& check) {
  storage::VersionSetOptions maintenance;
  maintenance.freeze_threshold = 24;  // small: force churn inside the test
  maintenance.compact_min_runs = 2;
  versions->StartBackgroundCompaction(maintenance);

  common::Mutex mu;
  Divergence first;
  std::thread writer([&] {
    Rng wrng(seed * 0x9E3779B97F4A7C15ULL + salt);
    std::vector<rdf::Triple> pool = sc.data_triples;
    int freezes = 0;
    for (int op = 0; op < options.writer_ops; ++op) {
      ApplyRandomOp(sc, &wrng, versions, &pool, /*allow_maintenance=*/false);
      if (options.freeze_every > 0 && (op + 1) % options.freeze_every == 0) {
        ++freezes;
        if (options.compact_every > 0 && freezes % options.compact_every == 0) {
          versions->Compact();
        } else {
          versions->Freeze();
        }
      }
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(options.reader_threads);
  for (int r = 0; r < options.reader_threads; ++r) {
    readers.emplace_back([&] {
      for (int c = 0; c < options.checks_per_reader; ++c) {
        Divergence d = check(versions->snapshot());
        if (!d.found) continue;
        common::MutexLock lock(&mu);
        if (!first.found) first = std::move(d);
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  versions->StopBackgroundCompaction();
  common::MutexLock lock(&mu);
  return first;
}

/// From-scratch ground truth: index the snapshot's materialized triple set
/// as a pristine Store and evaluate against that. Bit-identity with
/// pinned-snapshot evaluation is the whole claim under test.
engine::Table EvaluateMaterialized(const ChurnHarness& h,
                                   const storage::SnapshotSource& snap) {
  storage::Store rebuilt(&h.graph.dict(), snap.Materialize());
  engine::Evaluator evaluator(&rebuilt);
  return evaluator.EvaluateUcq(h.ucq);
}

/// Cached-vs-cold rounds at one pinned snapshot: two cache-mediated
/// evaluations (the first may fill, the second replays) named `prefix` +
/// phase + `tag`, and with `jucq` the same two rounds of the singleton-cover
/// JUCQ with fragment-level probes (phases "jucq-" + phase). Every table
/// must be bit-identical to the uncached one: the cached path promises the
/// exact same plan on the exact same visible set.
Divergence CheckCachedAt(const ChurnHarness& h, engine::ViewCache* cache,
                         const storage::SnapshotPtr& snap, const query::Cq& q,
                         const std::string& prefix,
                         const std::array<const char*, 2>& phases,
                         const std::string& tag, bool jucq) {
  const rdf::Dictionary& dict = h.graph.dict();
  engine::Evaluator cold(snap.get());
  const engine::Table expected = cold.EvaluateUcq(h.ucq);

  engine::Evaluator cached(snap.get());
  cached.set_view_cache(cache, snap->epoch());
  for (const char* phase : phases) {
    const std::string relation = prefix + phase + tag;
    Result<engine::Table> got = cached.EvaluateUcqView(q, h.ucq, Deadline());
    if (!got.ok()) {
      return Divergence::Of(relation, "cached evaluation failed: " +
                                          got.status().ToString());
    }
    Divergence d = CompareBitForBit(relation, *got, expected, q, dict);
    if (d.found) return d;
  }
  if (!jucq) return Divergence::None();

  const engine::Table jucq_expected =
      cold.EvaluateJucq(q, h.fragment_queries, h.fragment_ucqs);
  for (const char* phase : phases) {
    const std::string relation = prefix + "jucq-" + phase + tag;
    Result<engine::Table> got = cached.EvaluateJucq(
        q, h.fragment_queries, h.fragment_ucqs, Deadline());
    if (!got.ok()) {
      return Divergence::Of(relation, "cached JUCQ evaluation failed: " +
                                          got.status().ToString());
    }
    Divergence d = CompareBitForBit(relation, *got, jucq_expected, q, dict);
    if (d.found) return d;
  }
  return Divergence::None();
}

/// `prefix` + "epoch=E", E being the snapshot's epoch.
std::string AtEpoch(std::string prefix, const storage::SnapshotPtr& snap) {
  prefix += "epoch=";
  prefix += std::to_string(snap->epoch());
  return prefix;
}

}  // namespace

Divergence CheckSnapshotIsolation(const Scenario& sc, const query::Cq& q,
                                  Rng* rng, int num_ops) {
  ChurnHarness h = BuildHarness(sc, q);
  if (!h.reformulated) return Divergence::None();
  const rdf::Dictionary& dict = h.graph.dict();

  storage::VersionSet versions(h.base.get());
  storage::SnapshotPtr epoch0 = versions.snapshot();
  engine::Evaluator epoch0_eval(epoch0.get());
  const engine::Table epoch0_answer = epoch0_eval.EvaluateUcq(h.ucq);

  return Churn(sc, rng, num_ops, &versions,
               [&](const storage::SnapshotPtr& snap) {
                 engine::Evaluator pinned(snap.get());
                 Divergence d = CompareBitForBit(
                     AtEpoch("snapshot:", snap), pinned.EvaluateUcq(h.ucq),
                     EvaluateMaterialized(h, *snap), q, dict);
                 if (d.found) return d;
                 // The epoch-0 pin is immune to everything since.
                 return CompareBitForBit("snapshot:pinned",
                                         epoch0_eval.EvaluateUcq(h.ucq),
                                         epoch0_answer, q, dict);
               });
}

Divergence CheckCachedEquivalence(const Scenario& sc, const query::Cq& q,
                                  Rng* rng, int num_ops) {
  ChurnHarness h = BuildHarness(sc, q);
  if (!h.reformulated) return Divergence::None();

  // The cache outlives the version set that holds the observer pointer.
  engine::ViewCache cache;
  storage::VersionSet versions(h.base.get());
  versions.SetWriteObserver(&cache);
  auto check = [&](const storage::SnapshotPtr& snap, const std::string& tag) {
    return CheckCachedAt(h, &cache, snap, q, "cached:", {"fill", "hit"}, tag,
                         h.jucq);
  };

  // Load phase: fill and replay on the pristine database.
  Divergence d = check(versions.snapshot(), ":load");
  if (d.found) return d;
  // Update phase: every op moves the epoch (or reshapes the run
  // structure); the cache must re-prove or re-fill, never go stale.
  d = Churn(sc, rng, num_ops, &versions,
            [&](const storage::SnapshotPtr& snap) {
              return check(snap, AtEpoch(":", snap));
            });
  if (d.found) return d;
  // Compact phase: fold everything flat, then check once more — the
  // republished base must serve the same answers through the same cache.
  versions.Freeze();
  versions.Compact();
  return check(versions.snapshot(), ":compacted");
}

Divergence CheckConcurrentSnapshots(const Scenario& sc, const query::Cq& q,
                                    uint64_t seed,
                                    const ChurnOptions& options) {
  ChurnHarness h = BuildHarness(sc, q);
  if (!h.reformulated) return Divergence::None();
  const rdf::Dictionary& dict = h.graph.dict();

  // Whatever epoch a pin lands on, pinned evaluation must be bit-identical
  // to from-scratch evaluation over that epoch's materialization, and
  // deterministic on re-evaluation.
  storage::VersionSet versions(h.base.get());
  return ChurnConcurrently(
      sc, seed, 0xC0C, options, &versions,
      [&](const storage::SnapshotPtr& snap) {
        engine::Evaluator pinned(snap.get());
        const engine::Table fast = pinned.EvaluateUcq(h.ucq);
        Divergence d =
            CompareBitForBit(AtEpoch("concurrent:", snap), fast,
                             EvaluateMaterialized(h, *snap), q, dict);
        if (d.found) return d;
        return CompareBitForBit("concurrent:redo", pinned.EvaluateUcq(h.ucq),
                                fast, q, dict);
      });
}

Divergence CheckConcurrentCached(const Scenario& sc, const query::Cq& q,
                                 uint64_t seed, const ChurnOptions& options) {
  ChurnHarness h = BuildHarness(sc, q);
  if (!h.reformulated) return Divergence::None();

  // Whatever epoch a pin lands on and whatever install/invalidate
  // interleaving the shared cache goes through, cache-mediated evaluation
  // must match cold evaluation of the same plan on the same snapshot —
  // twice, so at least one call per round exercises the replay path —
  // for the whole union and for the singleton-cover JUCQ's fragments.
  engine::ViewCache cache;
  storage::VersionSet versions(h.base.get());
  versions.SetWriteObserver(&cache);
  return ChurnConcurrently(
      sc, seed, 0xCAC4E, options, &versions,
      [&](const storage::SnapshotPtr& snap) {
        return CheckCachedAt(h, &cache, snap, q, "concurrent:cached:",
                             {"probe", "redo"}, AtEpoch(":", snap), h.jucq);
      });
}

}  // namespace testing
}  // namespace rdfref
