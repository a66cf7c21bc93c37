#ifndef RDFREF_API_QUERY_ANSWERING_H_
#define RDFREF_API_QUERY_ANSWERING_H_

#include <memory>
#include <string>

#include "api/plan_memo.h"
#include "common/annotations.h"
#include "common/deadline.h"
#include "common/result.h"
#include "datalog/rdf_datalog.h"
#include "engine/evaluator.h"
#include "engine/table.h"
#include "engine/view_cache.h"
#include "optimizer/gcov.h"
#include "optimizer/view_selection.h"
#include "query/cover.h"
#include "query/cq.h"
#include "reasoner/saturation.h"
#include "reformulation/reformulator.h"
#include "rdf/graph.h"
#include "schema/encoder.h"
#include "schema/schema.h"
#include "storage/store.h"
#include "storage/version_set.h"

namespace rdfref {
namespace api {

/// \brief The query answering techniques the demonstration compares
/// (Sections 1 and 5).
enum class Strategy {
  kSaturation,     ///< Sat: saturate once, evaluate directly
  kRefUcq,         ///< Ref with the classic UCQ reformulation [7,8,9,12,16]
  kRefScq,         ///< Ref with the SCQ reformulation of [15]
  kRefJucq,        ///< Ref with an explicit user-chosen cover (JUCQ)
  kRefGcov,        ///< Ref with the GCov cost-selected cover [5]
  kRefIncomplete,  ///< fixed incomplete Ref (Virtuoso/AllegroGraph-style)
  kDatalog,        ///< Dat: Datalog encoding + semi-naive (LogicBlox-style)
};

/// \brief Short display name, e.g. "REF-GCOV".
const char* StrategyName(Strategy s);

/// \brief Per-call options.
struct AnswerOptions {
  /// Cover for kRefJucq (ignored otherwise).
  query::Cover cover;
  /// Reformulation budget (the UCQ size beyond which Ref "fails", as the
  /// 318,096-CQ reformulation of Example 1 does on real systems).
  reformulation::ReformulationOptions reform;
  /// Wall-clock budget for the call. Checked at CQ boundaries of the
  /// UCQ/SCQ/JUCQ evaluation loops (and before each strategy's evaluation
  /// starts): once expired, Answer returns kDeadlineExceeded with whatever
  /// profile was gathered so far. Default: infinite.
  Deadline deadline;
  /// Evaluation parallelism for the Ref strategies (UCQ member chunks,
  /// JUCQ fragment materialization). 1 (the default) keeps evaluation on
  /// the calling thread — the Sat and Dat baselines are single-threaded,
  /// so comparisons stay apples-to-apples unless parallelism is asked
  /// for. 0 resolves to common::ThreadPool::DefaultThreads(); n > 1
  /// bounds the concurrent tasks at n. Answers are bit-identical across
  /// all settings.
  int threads = 1;
  /// Pinned snapshot for the Ref strategies: when set, evaluation runs
  /// against exactly this epoch of the explicit database, regardless of
  /// concurrent updates (pin one with PinSnapshot()). When null, each call
  /// pins the current epoch itself. kSaturation is unaffected (it reads the
  /// saturated store, whose maintenance is externally synchronized);
  /// kDatalog evaluates the snapshot it pinned when its program was built —
  /// updates reset the program, so it is never stale.
  storage::SnapshotPtr snapshot;
  /// Per-call opt-out of the cross-query view cache: when false, this call
  /// neither probes nor populates it. No effect unless EnableViewCache()
  /// was called. Cached and uncached answers are bit-identical — this knob
  /// exists for measurement (cold-vs-warm comparisons) and for oracle
  /// tests that need an independent evaluation.
  bool use_view_cache = true;
};

/// \brief Measurements of one Answer() call — what the demonstration's
/// screens display.
struct AnswerProfile {
  /// Time preparing the strategy: saturation (first Sat call), Datalog
  /// closure (first Dat call), reformulation, or GCov search. 0 when the
  /// Ref plan came from the plan memo.
  double prepare_millis = 0.0;
  /// True when a Ref strategy replayed a memoized plan instead of
  /// preparing one (QueryAnswerer::Answer).
  bool plan_cached = false;
  /// Time evaluating against the store.
  double eval_millis = 0.0;
  /// Total CQs across the evaluated UCQ(s).
  uint64_t reformulation_cqs = 0;
  /// Total CQs the rule closure produced before minimization
  /// (Reformulator::ReformulateUnminimized); reformulation_cqs is what
  /// minimization kept of them. A replayed plan reports both.
  uint64_t raw_cqs = 0;
  /// Cover used (Ref strategies on covers).
  query::Cover cover;
  /// Per-fragment detail (JUCQ-style strategies).
  engine::JucqProfile jucq;
  /// Search trace (kRefGcov). A replayed plan reports the chosen cover, its
  /// cost and the iteration count, and no explored covers.
  optimizer::GcovTrace gcov;
};

/// \brief One-stop query answering over an RDF graph with RDFS constraints
/// — the public entry point of the library.
///
/// On construction the answerer extracts the schema, saturates it (schema
/// saturation is cheap and is the standing assumption of the reformulation
/// rules [9]), stores the saturated constraints back, and indexes the
/// explicit triples (the Ref database). The saturated database (Sat) and
/// the Datalog program (Dat) are built lazily on first use.
class QueryAnswerer {
 public:
  /// \brief Takes ownership of the graph (data + constraint triples).
  ///
  /// Before anything else the graph's id space is hierarchy-encoded
  /// (schema::EncodeGraphHierarchy): every class/property subtree becomes a
  /// contiguous TermId interval, which lets the reformulator collapse
  /// subclass/subproperty unions into single range-scan atoms. TermIds the
  /// caller interned before construction are therefore *remapped* — resolve
  /// ids through dict() afterwards, not from values held across the call.
  explicit QueryAnswerer(rdf::Graph graph,
                         const schema::EncoderOptions& encoder_options = {});

  QueryAnswerer(const QueryAnswerer&) = delete;
  QueryAnswerer& operator=(const QueryAnswerer&) = delete;

  /// \brief Answers q using the given strategy. All strategies return the
  /// same (complete) answer except kRefIncomplete, which may miss tuples.
  ///
  /// The Ref strategies prepare a plan (GCov's cover search, then each
  /// fragment's reformulation) and evaluate it. Plans are memoized per
  /// exact query, strategy, reformulation options and REF-JUCQ cover
  /// (DESIGN.md §16), so a repeated call only evaluates. Schema inserts,
  /// Reencode() and view selection clear the memo; instance writes do not,
  /// since no plan reads data. Failed preparations are not memoized.
  Result<engine::Table> Answer(const query::Cq& q, Strategy strategy,
                               AnswerProfile* profile = nullptr,
                               const AnswerOptions& options = {});

  /// \brief Answers a union of BGPs (the paper's full query dialect):
  /// every branch is answered with `strategy` and the results are unioned
  /// with duplicate elimination. Branch heads must share arity.
  Result<engine::Table> AnswerUnion(const query::Ucq& user_union,
                                    Strategy strategy,
                                    AnswerProfile* profile = nullptr,
                                    const AnswerOptions& options = {});

  /// \brief Inserts an explicit triple. Instance triples are visible to the
  /// Ref strategies immediately (two hash operations); Sat maintenance
  /// chases their consequences incrementally; Dat rebuilds its program
  /// lazily. Constraint (schema) triples are accepted too: the schema is
  /// extended, re-saturated, and the entailed constraints are stored — the
  /// hierarchy encoding stays *sound* (schema growth is monotone, so
  /// existing intervals never over-approximate) and the new edges fall back
  /// to classic reformulation members until Reencode() is called.
  Status InsertTriple(const rdf::Triple& t);

  /// \brief Removes an explicit instance triple (DRed maintenance on the
  /// Sat side). Constraint (schema) triples cannot be retracted (RDFS
  /// entailment is monotone; removal would require full re-derivation) —
  /// rebuild the answerer for those.
  Status RemoveTriple(const rdf::Triple& t);

  /// \brief Rebuilds the hierarchy encoding at a compaction point: folds
  /// every sealed update into one base store, recomputes the interval id
  /// space from the *current* schema (picking up edges inserted after
  /// load, which until now escaped to classic members), and remaps every
  /// layer through the new dictionary. All previously issued TermIds are
  /// invalidated (resolve through dict() again) and any pinned snapshots
  /// or background compaction must be released/stopped by the caller
  /// first. Returns the fresh encoder report.
  schema::EncodingReport Reencode(const schema::EncoderOptions& options = {});

  /// \brief Turns on the cross-query view cache (DESIGN.md §15): the Ref
  /// strategies then probe it before materializing whole reformulated
  /// unions (kRefUcq, kRefIncomplete) and JUCQ fragments (kRefScq,
  /// kRefJucq, kRefGcov), and every visibility-changing update feeds its
  /// epoch-invalidation window. Idempotent (a second call with the cache
  /// already on keeps the existing cache). Call before concurrent
  /// answering starts — like the lazy Sat/Dat builds, cache setup is not
  /// synchronized against in-flight Answer calls.
  void EnableViewCache(const engine::ViewCacheOptions& options = {});

  /// \brief Detaches and destroys the view cache (same synchronization
  /// caveat as EnableViewCache).
  void DisableViewCache();

  bool view_cache_enabled() const { return view_cache_ != nullptr; }

  /// \brief Counters of the enabled cache (zeros when disabled).
  engine::ViewCacheStats view_cache_stats() const {
    return view_cache_ != nullptr ? view_cache_->Stats()
                                  : engine::ViewCacheStats{};
  }

  /// \brief Runs the workload-driven view-selection pass over a weighted
  /// query mix (optimizer::ViewSelector with this answerer's schema and
  /// statistics) and applies the outcome: chosen canonical fragments get
  /// eviction protection in the view cache and rescan-cost hints in GCov
  /// cover selection. Returns the scored selection for reporting. Same
  /// synchronization caveat as EnableViewCache.
  Result<optimizer::ViewSelectionResult> SelectViews(
      const std::vector<optimizer::WorkloadQueryProfile>& workload,
      const optimizer::ViewSelectionOptions& selection = {},
      const reformulation::ReformulationOptions& reform = {});

  /// \brief Applies an externally computed selection (see SelectViews).
  /// Clears the plan memo, since the hints steer GCov's cover choice.
  void ApplyViewSelection(const optimizer::ViewSelectionResult& selection);

  /// \brief Counters of the plan memo (see Answer).
  PlanMemoStats plan_memo_stats() const { return plans_.Stats(); }

  /// \brief The load-time (or latest Reencode) hierarchy-encoder report.
  const schema::EncodingReport& encoding_report() const RDFREF_LIFETIME_BOUND {
    return encoding_report_;
  }

  /// \brief Pins the current epoch of the explicit database as an
  /// immutable snapshot: the view the Ref strategies would evaluate
  /// against right now. Hold the pointer to keep evaluating that exact
  /// epoch while concurrent updates proceed; pass it via
  /// AnswerOptions::snapshot to answer queries against it.
  storage::SnapshotPtr PinSnapshot() const { return versions_->snapshot(); }

  /// \brief The versioned explicit database (updates, snapshots, and
  /// freeze/compact maintenance).
  storage::VersionSet& versions() RDFREF_LIFETIME_BOUND { return *versions_; }
  const storage::VersionSet& versions() const RDFREF_LIFETIME_BOUND {
    return *versions_;
  }

  /// \brief Dictionary for parsing queries against this database.
  rdf::Dictionary& dict() RDFREF_LIFETIME_BOUND { return graph_.dict(); }

  const schema::Schema& schema() const RDFREF_LIFETIME_BOUND {
    return schema_;
  }

  /// \brief The explicit database (with saturated schema triples).
  const storage::Store& ref_store() const RDFREF_LIFETIME_BOUND {
    return *ref_store_;
  }

  /// \brief The saturated database; saturates lazily on first call.
  const storage::Store& sat_store() RDFREF_LIFETIME_BOUND;

  /// \brief Milliseconds the lazy saturation took (0 before it ran).
  double saturation_millis() const { return saturation_millis_; }

  /// \brief Triples added by saturation (0 before it ran).
  size_t saturation_added() const { return saturation_added_; }

  /// \brief Number of explicit triples (incl. saturated schema).
  size_t num_explicit_triples() const { return ref_store_->size(); }

 private:
  // The Ref strategies: the memoized plan, or a fresh one, evaluated.
  Result<engine::Table> AnswerRef(const query::Cq& q, Strategy strategy,
                                  const AnswerOptions& options,
                                  AnswerProfile* profile);
  // Builds q's plan under a Ref strategy; `search` (may be null) receives
  // REF-GCOV's full search trace.
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      const query::Cq& q, Strategy strategy, const AnswerOptions& options,
      optimizer::GcovTrace* search) const;
  // Evaluates `plan` over the pinned snapshot.
  Result<engine::Table> Evaluate(const query::Cq& q, const QueryPlan& plan,
                                 const AnswerOptions& options,
                                 AnswerProfile* profile) const;

  Status InsertSchemaTriple(const rdf::Triple& t);

  rdf::Graph graph_;
  schema::Schema schema_;
  schema::EncodingReport encoding_report_;
  // The view cache is registered as versions_'s write observer: keep it
  // declared before the version set so it is destroyed after it and the
  // observer pointer can never dangle during teardown.
  std::unique_ptr<engine::ViewCache> view_cache_;
  optimizer::ViewHints view_hints_;  // from the latest view selection
  PlanMemo plans_;
  // versions_ references ref_store_ as its initial base: keep the store
  // declared first so the version set is destroyed before it.
  std::unique_ptr<storage::Store> ref_store_;
  std::unique_ptr<storage::VersionSet> versions_;
  std::unique_ptr<storage::Store> sat_store_;
  // Epoch the Datalog program was built against (kept alive with dat_).
  storage::SnapshotPtr dat_snapshot_;
  std::unique_ptr<datalog::DatalogAnswerer> dat_;
  double saturation_millis_ = 0.0;
  size_t saturation_added_ = 0;
  bool graph_saturated_ = false;  // graph_ holds G∞ (kept so by updates)
  bool sat_snapshot_dirty_ = false;
};

}  // namespace api
}  // namespace rdfref

#endif  // RDFREF_API_QUERY_ANSWERING_H_
