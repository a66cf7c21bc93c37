#include "api/query_answering.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace rdfref {
namespace api {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kSaturation:
      return "SAT";
    case Strategy::kRefUcq:
      return "REF-UCQ";
    case Strategy::kRefScq:
      return "REF-SCQ";
    case Strategy::kRefJucq:
      return "REF-JUCQ";
    case Strategy::kRefGcov:
      return "REF-GCOV";
    case Strategy::kRefIncomplete:
      return "REF-INCOMPLETE";
    case Strategy::kDatalog:
      return "DATALOG";
  }
  return "UNKNOWN";
}

QueryAnswerer::QueryAnswerer(rdf::Graph graph,
                             const schema::EncoderOptions& encoder_options)
    : graph_(std::move(graph)) {
  // Hierarchy-encode the id space first (while the graph holds only the
  // *direct* constraint edges): subtrees become contiguous id intervals,
  // which the reformulator fuses into single range-scan atoms.
  encoding_report_ =
      schema::EncodeGraphHierarchy(&graph_, encoder_options).report;
  schema_ = schema::Schema::FromGraph(graph_);
  schema_.Saturate();
  // Per [9], the (small) schema component of the database is stored
  // saturated: reformulated queries may then mention any entailed
  // constraint, and schema-level queries are answerable directly.
  schema_.EmitTriples(&graph_);
  ref_store_ = std::make_unique<storage::Store>(graph_);
  versions_ = std::make_unique<storage::VersionSet>(ref_store_.get());
}

Status QueryAnswerer::InsertSchemaTriple(const rdf::Triple& t) {
  switch (t.p) {
    case rdf::vocab::kSubClassOfId:
      schema_.AddSubClass(t.s, t.o);
      break;
    case rdf::vocab::kSubPropertyOfId:
      schema_.AddSubProperty(t.s, t.o);
      break;
    case rdf::vocab::kDomainId:
      schema_.AddDomain(t.s, t.o);
      break;
    case rdf::vocab::kRangeId:
      schema_.AddRange(t.s, t.o);
      break;
    default:
      return Status::InvalidArgument("not a constraint property");
  }
  // Closing the *extended* schema over the already-closed one is exact:
  // transitive closure is monotone and idempotent.
  schema_.Saturate();
  plans_.Clear();  // plans reformulated against the old schema
  // Store the inserted constraint and everything it newly entails. The
  // hierarchy encoding is deliberately left alone: schema growth only adds
  // sub-edges, so every existing interval stays sound, and the new edges
  // escape to classic reformulation members until Reencode().
  rdf::Graph closed;  // id-carrier only; ids are against graph_.dict()
  schema_.EmitTriples(&closed);
  graph_.Add(t);
  versions_->Insert(t);
  for (const rdf::Triple& st : closed.triples()) {
    graph_.Add(st);
    versions_->Insert(st);  // no-op for constraints already stored
  }
  if (graph_saturated_) {
    // graph_ holds G∞ under the old schema; re-closing under the extended
    // schema derives exactly the new consequences (saturation is monotone).
    reasoner::Saturator saturator(&schema_);
    saturation_added_ += saturator.Saturate(&graph_);
    sat_snapshot_dirty_ = true;
  }
  dat_.reset();
  dat_snapshot_.reset();
  return Status::OK();
}

Status QueryAnswerer::InsertTriple(const rdf::Triple& t) {
  if (!graph_.dict().Contains(t.s) || !graph_.dict().Contains(t.p) ||
      !graph_.dict().Contains(t.o)) {
    return Status::InvalidArgument("triple references unknown term ids");
  }
  if (rdf::vocab::IsSchemaProperty(t.p)) {
    return InsertSchemaTriple(t);
  }
  versions_->Insert(t);
  if (graph_saturated_) {
    reasoner::Saturator saturator(&schema_);
    if (saturator.Insert(&graph_, t) > 0) sat_snapshot_dirty_ = true;
  } else {
    graph_.Add(t);
  }
  dat_.reset();  // the Datalog program re-reads the explicit source lazily
  dat_snapshot_.reset();
  return Status::OK();
}

Status QueryAnswerer::RemoveTriple(const rdf::Triple& t) {
  if (rdf::vocab::IsSchemaProperty(t.p)) {
    return Status::Unimplemented(
        "constraint updates change the schema; rebuild the QueryAnswerer");
  }
  if (!versions_->Contains(t)) {
    return Status::NotFound("triple is not in the explicit database");
  }
  versions_->Remove(t);
  if (graph_saturated_) {
    reasoner::Saturator saturator(&schema_);
    // DRed re-derivation probes run against the write epoch just
    // published by Remove — pinned once, so a concurrent writer cannot
    // shift the explicit set mid-maintenance.
    storage::SnapshotPtr write_epoch = versions_->snapshot();
    size_t removed = saturator.Delete(
        &graph_, t,
        [&write_epoch](const rdf::Triple& x) {
          return write_epoch->Contains(x);
        });
    if (removed > 0) sat_snapshot_dirty_ = true;
  } else {
    graph_.Remove(t);
  }
  dat_.reset();
  dat_snapshot_.reset();
  return Status::OK();
}

void QueryAnswerer::EnableViewCache(const engine::ViewCacheOptions& options) {
  if (view_cache_ != nullptr) return;
  view_cache_ = std::make_unique<engine::ViewCache>(options);
  if (!view_hints_.empty()) {
    std::vector<std::string> preferred;
    preferred.reserve(view_hints_.cached_rows.size());
    for (const auto& [key, rows] : view_hints_.cached_rows) {
      preferred.push_back(key);
    }
    view_cache_->SetPreferred(std::move(preferred));
  }
  versions_->SetWriteObserver(view_cache_.get());
}

void QueryAnswerer::DisableViewCache() {
  if (view_cache_ == nullptr) return;
  versions_->SetWriteObserver(nullptr);
  view_cache_.reset();
}

void QueryAnswerer::ApplyViewSelection(
    const optimizer::ViewSelectionResult& selection) {
  view_hints_ = selection.hints;
  plans_.Clear();  // GCov chose their covers under the old hints
  if (view_cache_ != nullptr) {
    view_cache_->SetPreferred(selection.chosen_keys);
  }
}

Result<optimizer::ViewSelectionResult> QueryAnswerer::SelectViews(
    const std::vector<optimizer::WorkloadQueryProfile>& workload,
    const optimizer::ViewSelectionOptions& selection,
    const reformulation::ReformulationOptions& reform) {
  reformulation::Reformulator ref(&schema_, reform, &graph_.dict());
  cost::CostModel cost_model(&ref_store_->stats());
  optimizer::ViewSelector selector(&ref, &cost_model);
  RDFREF_ASSIGN_OR_RETURN(optimizer::ViewSelectionResult result,
                          selector.Select(workload, selection));
  ApplyViewSelection(result);
  return result;
}

schema::EncodingReport QueryAnswerer::Reencode(
    const schema::EncoderOptions& options) {
  // The id space is about to shift: every cached view keyed on old ids is
  // garbage. Detach the observer before tearing down the version set.
  if (view_cache_ != nullptr) {
    versions_->SetWriteObserver(nullptr);
    view_cache_->Clear();
  }
  view_hints_ = optimizer::ViewHints{};  // hint keys embed old ids too
  // Fold every sealed and pending update into one flat explicit set.
  versions_->StopBackgroundCompaction();
  versions_->Compact();
  std::vector<rdf::Triple> explicit_triples =
      versions_->snapshot()->Materialize();
  // The version set references ref_store_ as its base: tear both down
  // before the id space shifts underneath them.
  versions_.reset();
  ref_store_.reset();
  sat_store_.reset();
  dat_.reset();
  dat_snapshot_.reset();
  schema::EncodingResult result =
      schema::EncodeGraphHierarchy(&graph_, options);
  for (rdf::Triple& t : explicit_triples) {
    t = rdf::Triple(result.old_to_new[t.s], result.old_to_new[t.p],
                    result.old_to_new[t.o]);
  }
  // Schema ids are stale after the remap; re-extract from the (remapped,
  // closure-carrying) graph and re-close — a no-op closure over a closure.
  schema_ = schema::Schema::FromGraph(graph_);
  schema_.Saturate();
  ref_store_ = std::make_unique<storage::Store>(&graph_.dict(),
                                                std::move(explicit_triples));
  versions_ = std::make_unique<storage::VersionSet>(ref_store_.get());
  if (view_cache_ != nullptr) {
    versions_->SetWriteObserver(view_cache_.get());
  }
  encoding_report_ = result.report;
  plans_.Clear();  // plans embed old ids, the old encoding and statistics
  return encoding_report_;
}

const storage::Store& QueryAnswerer::sat_store() {
  if (sat_store_ == nullptr) {
    Timer timer;
    reasoner::Saturator saturator(&schema_);
    saturation_added_ = saturator.Saturate(&graph_);
    sat_store_ = std::make_unique<storage::Store>(graph_);
    saturation_millis_ = timer.ElapsedMillis();
    graph_saturated_ = true;
  } else if (sat_snapshot_dirty_) {
    // graph_ was maintained incrementally (Insert / DRed Delete); refresh
    // the index snapshot.
    sat_store_ = std::make_unique<storage::Store>(graph_);
    sat_snapshot_dirty_ = false;
  }
  return *sat_store_;
}

namespace {

void AppendU32(std::string* key, uint32_t v) {
  key->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendTerm(std::string* key, const query::QTerm& t) {
  key->push_back(t.is_var ? 'v' : 'c');
  AppendU32(key, t.id);
}

// The plan memo's key: the exact query, not an α-canonical form, since a
// plan's unions label answer columns with q's VarIds. Variable names are
// left out (nothing evaluated reads them); everything Prepare reads from
// the call is in: strategy, every reformulation option, the REF-JUCQ cover.
std::string PlanKey(const query::Cq& q, Strategy strategy,
                    const AnswerOptions& options) {
  // A new ReformulationOptions field changes what Prepare builds, so it
  // must join the key below.
  static_assert(sizeof(reformulation::ReformulationOptions) == 16);
  const reformulation::ReformulationOptions& reform = options.reform;
  std::string key;
  key.reserve(32 + 8 * q.head().size() + 24 * q.body().size());
  key.push_back(static_cast<char>(strategy));
  key.push_back(static_cast<char>(reform.force_worklist));
  key.push_back(static_cast<char>(reform.use_encoding));
  key.append(reinterpret_cast<const char*>(&reform.max_cqs),
             sizeof(reform.max_cqs));
  AppendU32(&key, static_cast<uint32_t>(q.num_vars()));
  AppendU32(&key, static_cast<uint32_t>(q.head().size()));
  for (const query::QTerm& t : q.head()) AppendTerm(&key, t);
  AppendU32(&key, static_cast<uint32_t>(q.body().size()));
  for (const query::Atom& a : q.body()) {
    AppendTerm(&key, a.s);
    AppendTerm(&key, a.p);
    AppendTerm(&key, a.o);
    key.push_back(static_cast<char>(a.range_pos));
    AppendU32(&key, a.range_hi);
  }
  AppendU32(&key, static_cast<uint32_t>(q.resource_vars().size()));
  for (query::VarId v : q.resource_vars()) AppendU32(&key, v);
  if (strategy == Strategy::kRefJucq) {
    for (const std::vector<int>& fragment : options.cover.fragments()) {
      AppendU32(&key, static_cast<uint32_t>(fragment.size()));
      for (int atom : fragment) AppendU32(&key, static_cast<uint32_t>(atom));
    }
  }
  return key;
}

}  // namespace

Result<std::shared_ptr<const QueryPlan>> QueryAnswerer::Prepare(
    const query::Cq& q, Strategy strategy, const AnswerOptions& options,
    optimizer::GcovTrace* search) const {
  const reformulation::Reformulator complete(&schema_, options.reform,
                                             &graph_.dict());
  const reformulation::IncompleteReformulator incomplete(
      &schema_, options.reform, &graph_.dict());
  const reformulation::Reformulator& ref =
      strategy == Strategy::kRefIncomplete ? incomplete : complete;
  auto plan = std::make_shared<QueryPlan>();
  switch (strategy) {
    case Strategy::kRefUcq:
    case Strategy::kRefIncomplete: {
      RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq,
                              ref.Reformulate(q, &plan->raw_cqs));
      plan->whole_query = true;
      plan->cover = query::Cover::SingleFragment(q.body().size());
      plan->total_cqs = ucq.size();
      plan->fragment_ucqs.push_back(std::move(ucq));
      return std::shared_ptr<const QueryPlan>(std::move(plan));
    }
    case Strategy::kRefScq:
      plan->cover = query::Cover::Singletons(q.body().size());
      break;
    case Strategy::kRefJucq:
      plan->cover = options.cover;
      break;
    case Strategy::kRefGcov: {
      cost::CostModel cost_model(&ref_store_->stats());
      optimizer::CoverOptimizer optimizer(
          &ref, &cost_model, view_hints_.empty() ? nullptr : &view_hints_);
      optimizer::GcovTrace trace;
      RDFREF_ASSIGN_OR_RETURN(plan->cover, optimizer.Greedy(q, &trace));
      plan->search.chosen = trace.chosen;
      plan->search.chosen_cost = trace.chosen_cost;
      plan->search.iterations = trace.iterations;
      if (search != nullptr) *search = std::move(trace);
      break;
    }
    case Strategy::kSaturation:
    case Strategy::kDatalog:
      return Status::InvalidArgument("not a Ref strategy");
  }
  RDFREF_RETURN_NOT_OK(plan->cover.Validate(q));
  plan->fragment_queries = plan->cover.FragmentQueries(q);
  plan->fragment_ucqs.reserve(plan->fragment_queries.size());
  for (const query::Cq& fq : plan->fragment_queries) {
    uint64_t raw = 0;
    RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq, ref.Reformulate(fq, &raw));
    plan->raw_cqs += raw;
    plan->total_cqs += ucq.size();
    plan->fragment_ucqs.push_back(std::move(ucq));
  }
  return std::shared_ptr<const QueryPlan>(std::move(plan));
}

Result<engine::Table> QueryAnswerer::Evaluate(const query::Cq& q,
                                              const QueryPlan& plan,
                                              const AnswerOptions& options,
                                              AnswerProfile* profile) const {
  Timer eval;
  storage::SnapshotPtr snap =
      options.snapshot != nullptr ? options.snapshot : versions_->snapshot();
  engine::Evaluator evaluator(snap.get(), options.threads);
  if (view_cache_ != nullptr && options.use_view_cache) {
    evaluator.set_view_cache(view_cache_.get(), snap->epoch());
  }
  RDFREF_ASSIGN_OR_RETURN(
      engine::Table table,
      plan.whole_query
          ? evaluator.EvaluateUcqView(q, plan.fragment_ucqs[0],
                                      options.deadline)
          : evaluator.EvaluateJucq(q, plan.fragment_queries,
                                   plan.fragment_ucqs, options.deadline,
                                   profile != nullptr ? &profile->jucq
                                                      : nullptr));
  if (profile != nullptr) profile->eval_millis = eval.ElapsedMillis();
  return table;
}

Result<engine::Table> QueryAnswerer::AnswerRef(const query::Cq& q,
                                               Strategy strategy,
                                               const AnswerOptions& options,
                                               AnswerProfile* profile) {
  std::string key = PlanKey(q, strategy, options);
  std::shared_ptr<const QueryPlan> plan = plans_.Find(key);
  if (plan == nullptr) {
    Timer prepare;
    RDFREF_ASSIGN_OR_RETURN(
        plan, Prepare(q, strategy, options,
                      profile != nullptr ? &profile->gcov : nullptr));
    if (profile != nullptr) profile->prepare_millis = prepare.ElapsedMillis();
    plans_.Insert(std::move(key), plan);
  } else if (profile != nullptr) {
    profile->plan_cached = true;
    profile->gcov = plan->search;
  }
  if (profile != nullptr) {
    profile->reformulation_cqs = plan->total_cqs;
    profile->raw_cqs = plan->raw_cqs;
    profile->cover = plan->cover;
  }
  return Evaluate(q, *plan, options, profile);
}

Result<engine::Table> QueryAnswerer::AnswerUnion(
    const query::Ucq& user_union, Strategy strategy, AnswerProfile* profile,
    const AnswerOptions& options) {
  if (user_union.empty()) {
    return Status::InvalidArgument("empty union query");
  }
  engine::Table result;
  AnswerProfile branch_profile;
  if (profile != nullptr) *profile = AnswerProfile{};
  // Pin one epoch for the whole union: every branch must see the same
  // database even while writers race between branch evaluations.
  AnswerOptions pinned = options;
  if (pinned.snapshot == nullptr) pinned.snapshot = versions_->snapshot();
  for (size_t i = 0; i < user_union.members().size(); ++i) {
    const query::Cq& branch = user_union.members()[i];
    if (branch.head().size() != user_union.members()[0].head().size()) {
      return Status::InvalidArgument("union branches differ in arity");
    }
    RDFREF_ASSIGN_OR_RETURN(
        engine::Table branch_table,
        Answer(branch, strategy, &branch_profile, pinned));
    if (i == 0) {
      result = std::move(branch_table);
    } else {
      result.Append(branch_table);
    }
    if (profile != nullptr) {
      profile->prepare_millis += branch_profile.prepare_millis;
      profile->eval_millis += branch_profile.eval_millis;
      profile->reformulation_cqs += branch_profile.reformulation_cqs;
      profile->raw_cqs += branch_profile.raw_cqs;
    }
  }
  result.Dedup();
  return result;
}

Result<engine::Table> QueryAnswerer::Answer(const query::Cq& q,
                                            Strategy strategy,
                                            AnswerProfile* profile,
                                            const AnswerOptions& options) {
  if (!q.IsSafe()) {
    return Status::InvalidArgument(
        "unsafe query: every head variable must occur in the body");
  }
  if (options.deadline.expired()) {
    return Status::DeadlineExceeded("deadline expired before answering");
  }
  if (profile != nullptr) *profile = AnswerProfile{};
  switch (strategy) {
    case Strategy::kSaturation: {
      const bool first = sat_store_ == nullptr;
      const storage::Store& store = sat_store();
      Timer eval;
      engine::Evaluator evaluator(&store);
      engine::Table table = evaluator.EvaluateCq(q);
      if (profile != nullptr) {
        profile->prepare_millis = first ? saturation_millis_ : 0.0;
        profile->eval_millis = eval.ElapsedMillis();
      }
      return table;
    }
    case Strategy::kRefUcq:
    case Strategy::kRefScq:
    case Strategy::kRefJucq:
    case Strategy::kRefGcov:
    case Strategy::kRefIncomplete:
      return AnswerRef(q, strategy, options, profile);
    case Strategy::kDatalog: {
      if (dat_ == nullptr) {
        // The program pins the epoch it is built against; updates reset
        // dat_ (and this pin), so the closure is never stale.
        dat_snapshot_ = options.snapshot != nullptr ? options.snapshot
                                                    : versions_->snapshot();
        dat_ = std::make_unique<datalog::DatalogAnswerer>(dat_snapshot_.get());
      }
      const double closure_before = dat_->closure_millis();
      Timer eval;
      RDFREF_ASSIGN_OR_RETURN(engine::Table table, dat_->Answer(q));
      if (profile != nullptr) {
        // The closure runs inside the first Answer call.
        profile->prepare_millis = dat_->closure_millis() - closure_before;
        profile->eval_millis =
            eval.ElapsedMillis() - profile->prepare_millis;
      }
      return table;
    }
  }
  return Status::InvalidArgument("unknown strategy");
}

}  // namespace api
}  // namespace rdfref
