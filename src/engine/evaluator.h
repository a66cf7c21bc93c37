#ifndef RDFREF_ENGINE_EVALUATOR_H_
#define RDFREF_ENGINE_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "common/result.h"
#include "engine/table.h"
#include "query/cq.h"
#include "query/ucq.h"
#include "storage/store.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace engine {

class ScanCache;
class ViewCache;

/// \brief Per-fragment measurements of a JUCQ evaluation — the numbers the
/// demonstration displays in step 3 ("cardinalities and costs of
/// (sub)queries"), and the ones quoted by Example 1 (e.g. the 33,328,108
/// results of (t1)ref and the 2,296 rows of (t1,t3)ref).
struct FragmentProfile {
  std::string cover_fragment;  ///< e.g. "{t0,t2}"
  uint64_t ucq_members = 0;    ///< number of CQs in the fragment's UCQ
  uint64_t result_rows = 0;    ///< materialized fragment cardinality
  double millis = 0.0;         ///< fragment evaluation wall-clock
  /// The earlier fragment whose table this one reuses (the same query and
  /// union up to variable names), or -1 when it was evaluated. A reused
  /// fragment's `millis` is 0.
  int same_as = -1;
};

/// \brief Whole-JUCQ evaluation profile.
struct JucqProfile {
  std::vector<FragmentProfile> fragments;
  double join_millis = 0.0;   ///< joining + final projection
  double total_millis = 0.0;  ///< end-to-end evaluation
};

/// \brief Evaluation engine over the store — the "RDBMS" of the demo.
///
/// - CQs run as selectivity-ordered index nested-loop joins over the
///   store's permutation indexes (the plan an RDBMS would pick on a fully
///   indexed triple table). The join is an iterative binding-stack loop
///   over contiguous triple ranges (TryGetRange / ScanInto), appending
///   head tuples straight into a columnar Table arena — no std::function
///   recursion, no per-row heap allocation. Its order is fixed up front
///   (AtomOrder) except on cyclic joins: at a depth where two atoms would
///   both bind a variable another atom needs, it opens, per binding, the
///   one whose bound pattern has the fewest exact matches, and a fully
///   bound atom opens as soon as it can (DESIGN.md §9). A CQ whose body
///   has a variable its head lacks is pruned: a depth skips the triples
///   that agree with its last bound one on every variable read later (or
///   stops after its first bind when none is), and an emit returns to the
///   deepest depth that binds a head variable. Only repeated emissions
///   are skipped, so the deduplicated table is unchanged.
/// - Each UCQ/JUCQ evaluation shares one ScanCache across its members and
///   fragments: pattern cardinalities (the join-order inputs) and
///   materialized leaf scans are computed once per *distinct* bound
///   pattern, not once per member — reformulation unions repeat the same
///   few patterns hundreds of times.
/// - UCQs run member-by-member, appending into one table, with union
///   duplicate elimination.
/// - JUCQs materialize each fragment UCQ in turn, then hash-join the
///   fragments, which is exactly the strategy costed by the paper's cost
///   model. A fragment whose query and union repeat an earlier fragment's
///   up to variable names reuses its table.
///
/// Deadlines are enforced cooperatively at every CQ boundary *and* inside
/// the scan callbacks of each CQ's nested-loop join, so even a single
/// enormous CQ (a cross-product-like member) cannot blow past the budget.
///
/// Evaluation accesses *only explicit triples* (this is `q(db)`, not
/// `q(db∞)`): completeness is the reformulation's job.
///
/// Thread-safety: every call evaluates on the calling thread (DESIGN.md
/// §6c). All evaluation methods are const, so several threads may share
/// one evaluator provided the underlying TripleSource tolerates concurrent
/// Scan / CountMatches calls (true for Store, the immutable SnapshotSource
/// — which is also safe *under* concurrent writers, since the writers only
/// ever touch newer epochs — and FederatedSource).
class Evaluator {
 public:
  /// \brief `source` may be a local Store or any other TripleSource (e.g.
  /// a federation mediator); it must outlive the evaluator. Evaluation is
  /// sequential. `threads` remains only because the benchmark of record
  /// (perfbench/lib/runner.cc) passes 1, and perfbench/ changes only
  /// together with the benchmark it defines; any other value aborts.
  /// ROADMAP.md item 5 deletes the parameter.
  explicit Evaluator(const storage::TripleSource* source, int threads = 1);

  /// \brief Attaches the process-wide cross-query view cache (DESIGN.md
  /// §15); nullptr detaches. `epoch` must be the write epoch of this
  /// evaluator's source snapshot — it scopes every probe and install, so a
  /// cached table is only ever replayed for the exact visible-triple set
  /// it was computed against. With a cache attached, EvaluateJucq probes
  /// it before materializing each fragment UCQ it evaluates and installs
  /// successful materializations, and EvaluateUcqView does the same for
  /// whole reformulated unions. `cache` must outlive the evaluator.
  void set_view_cache(ViewCache* cache, uint64_t epoch) {
    view_cache_ = cache;
    view_epoch_ = epoch;
  }
  ViewCache* view_cache() const { return view_cache_; }

  /// \brief Evaluates one CQ; returns head tuples, deduplicated.
  [[nodiscard]] Table EvaluateCq(const query::Cq& q) const;

  /// \brief Evaluates a UCQ (members must share head arity).
  [[nodiscard]] Table EvaluateUcq(const query::Ucq& ucq) const;

  /// \brief Deadline-bounded UCQ evaluation: the deadline is checked at
  /// every CQ boundary and inside each CQ's scans, so an exploding
  /// reformulation (Example 1's 318,096-CQ UCQ) returns kDeadlineExceeded
  /// promptly instead of running away — even when a single member is
  /// itself enormous. The error message reports how many members were
  /// evaluated completely.
  Result<Table> EvaluateUcq(const query::Ucq& ucq,
                            const Deadline& deadline) const;

  /// \brief EvaluateUcq through the attached view cache: `q` is the user
  /// query `ucq` reformulates (its canonical form is the cache's grouping
  /// key). On a hit the cached table is replayed (relabeled with `ucq`'s
  /// head columns) without touching the store; on a miss the union is
  /// evaluated normally and, when it succeeds, installed. Without an
  /// attached cache this is exactly EvaluateUcq. Answers are bit-identical
  /// to the uncached path in every case.
  Result<Table> EvaluateUcqView(const query::Cq& q, const query::Ucq& ucq,
                                const Deadline& deadline) const;

  /// \brief Evaluates a JUCQ: `fragment_queries[i]` is the (unreformulated)
  /// subquery of fragment i — its head gives the column variables — and
  /// `fragment_ucqs[i]` its UCQ reformulation. Joins all fragment tables
  /// and projects `q`'s head. A fragment whose query CanonicalKey() and
  /// union UcqPlanKey() equal an earlier fragment's is not evaluated: it
  /// reuses that table, relabeled to its own head (keys are built only for
  /// fragments equal up to variable names, slot by slot, with unions of
  /// one size). `profile` may be null; when given, each
  /// FragmentProfile::cover_fragment is labeled with the fragment's atom
  /// indexes in `q` (e.g. "{t0,t2}"), and a reused fragment names its
  /// source in FragmentProfile::same_as.
  [[nodiscard]] Table EvaluateJucq(const query::Cq& q,
                     const std::vector<query::Cq>& fragment_queries,
                     const std::vector<query::Ucq>& fragment_ucqs,
                     JucqProfile* profile = nullptr) const;

  /// \brief Deadline-bounded JUCQ evaluation (covers SCQ as the
  /// all-singleton cover). Checked at CQ boundaries and inside scans
  /// within each fragment, and before the fragment join. Fragments are
  /// materialized in order; on kDeadlineExceeded the error names the
  /// fragment that ran out, and `profile` holds the fragments that
  /// completed before it.
  Result<Table> EvaluateJucq(const query::Cq& q,
                             const std::vector<query::Cq>& fragment_queries,
                             const std::vector<query::Ucq>& fragment_ucqs,
                             const Deadline& deadline,
                             JucqProfile* profile = nullptr) const;

  /// \brief The static greedy join order for q's atoms (indexes into
  /// q.body()) — exposed for plan inspection. The engine follows it except
  /// where ExplainCq shows a per-binding choice.
  std::vector<int> AtomOrder(const query::Cq& q) const;

  /// \brief Renders the physical plan of a CQ: the ordered index scans
  /// with their estimated match counts (demo step 3, "inspect the chosen
  /// query plan"). A depth the engine decides per binding lists every atom
  /// it may open, e.g. `probe t1|t2  (per binding: fewest matches)`. A
  /// depth that stops after its first bind is marked `(exists)`, and one
  /// that skips runs of triples names the positions it keeps, e.g.
  /// `(distinct s)`.
  std::string ExplainCq(const query::Cq& q) const;

  /// \brief Renders the JUCQ plan: per-fragment UCQ sizes and the
  /// fragment hash-join order. A fragment that reuses an earlier one's
  /// table is listed as `same as fragment N`. With `raw_members` (one per
  /// fragment: the size of its union before minimization, see
  /// Reformulator::Reformulate) a fragment's size reads `N of M members`.
  std::string ExplainJucq(
      const query::Cq& q, const std::vector<query::Cq>& fragment_queries,
      const std::vector<query::Ucq>& fragment_ucqs,
      const std::vector<uint64_t>& raw_members = {}) const;

  const storage::TripleSource& source() const RDFREF_LIFETIME_BOUND {
    return *store_;
  }

 private:
  // Appends q's answer rows (head tuples) to `out` (no dedup), resolving
  // counts and leaf scans through `cache`. Returns false iff `deadline`
  // expired before or during the evaluation (rows appended so far are
  // then an unusable partial result).
  [[nodiscard]] bool EvaluateCqInto(const query::Cq& q,
                                    const Deadline& deadline,
                                    ScanCache* cache, Table* out) const;

  // Deadline-bounded UCQ evaluation over a caller-owned scan cache (the
  // JUCQ path shares one cache across all fragment UCQs).
  Result<Table> EvaluateUcqWithCache(const query::Ucq& ucq,
                                     const Deadline& deadline,
                                     ScanCache* cache) const;

  // EvaluateUcqWithCache behind the attached view cache, if any: probes
  // the cache for `q`'s plan `ucq` at the source snapshot's epoch, and on a
  // miss evaluates through `cache` and installs the successful result.
  // EvaluateUcqView uses it for whole unions, EvaluateJucq per fragment.
  Result<Table> EvaluateUcqThroughViewCache(const query::Cq& q,
                                            const query::Ucq& ucq,
                                            const Deadline& deadline,
                                            ScanCache* cache) const;

  const storage::TripleSource* store_;
  ViewCache* view_cache_ = nullptr;  // not owned; optional
  uint64_t view_epoch_ = 0;          // source snapshot epoch for the cache
};

}  // namespace engine
}  // namespace rdfref

#endif  // RDFREF_ENGINE_EVALUATOR_H_
