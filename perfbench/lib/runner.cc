#include "runner.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "api/query_answering.h"
#include "cost/cost_model.h"
#include "datagen/sp2b.h"
#include "engine/evaluator.h"
#include "engine/view_cache.h"
#include "host_speed.h"
#include "optimizer/gcov.h"
#include "optimizer/view_selection.h"
#include "query/cover.h"
#include "query/sparql_parser.h"
#include "reformulation/reformulator.h"
#include "schema/encoder.h"
#include "schema/schema.h"
#include "stats.h"
#include "storage/store.h"
#include "storage/version_set.h"
#include "trace.h"

namespace perfbench {

namespace api = rdfref::api;
namespace engine = rdfref::engine;
namespace optimizer = rdfref::optimizer;
namespace query = rdfref::query;
namespace rdf = rdfref::rdf;
namespace storage = rdfref::storage;
using rdfref::Result;
using rdfref::Status;

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point from) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              from)
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

// Every 8th read of sp2b-rw is checked between ops.
constexpr size_t kRwCheckEvery = 8;
// Set-ups timed per untraced run; setup_s is their median. The first one
// serves the run; the others are spread evenly over the measured pass, so
// that setup_s samples the host over the same span of time as the op
// metrics do.
constexpr int kSetups = 9;
constexpr uint32_t kNoText = UINT32_MAX;

// The distinct query texts of a run, and each op's text (reads only).
struct OpTexts {
  std::vector<std::string> texts;
  std::vector<uint32_t> of_op;
};

OpTexts MakeTexts(const WorkloadData& data, const std::vector<Op>& ops) {
  OpTexts t;
  std::map<std::pair<size_t, uint32_t>, uint32_t> index;
  t.of_op.reserve(ops.size());
  for (const Op& op : ops) {
    if (op.kind != Op::kRead) {
      t.of_op.push_back(kNoText);
      continue;
    }
    const size_t tpl = data.classes[op.read_class].template_index;
    auto [it, added] = index.emplace(std::make_pair(tpl, op.constant),
                                     static_cast<uint32_t>(t.texts.size()));
    if (added) t.texts.push_back(data.templates[tpl].Instantiate(op.constant));
    t.of_op.push_back(it->second);
  }
  return t;
}

// The served system. In the traced run a benchmark-owned view cache and the
// view-selection hints stand in for the answerer's own, so reads can be
// composed from the public layer calls exactly as QueryAnswerer::Answer
// makes them.
struct Served {
  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (cache != nullptr && answerer != nullptr) {
      answerer->versions().SetWriteObserver(nullptr);
    }
  }

  std::unique_ptr<engine::ViewCache> cache;  // traced run only
  std::unique_ptr<api::QueryAnswerer> answerer;
  optimizer::ViewHints hints;  // traced run only
};

// What a composed read did, for the counts taken after its span closed.
struct ReadDetail {
  std::vector<query::Ucq> fragment_ucqs;  // evaluated unions (UCQ: one)
  std::vector<uint64_t> fragment_rows;
  size_t covers_explored = 0;
  size_t head_entries = 0;
};

// One read exactly as QueryAnswerer::Answer runs it, composed from the same
// public calls in the same order, each in its layer's span.
Result<engine::Table> ComposedRead(Served* sv, const std::string& text,
                                   Strategy strategy, Tracer* tr, int64_t op,
                                   StorageCounts* storage_counts,
                                   ReadDetail* detail) {
  api::QueryAnswerer& a = *sv->answerer;
  Result<query::Cq> parsed = [&] {
    ScopedSpan span(tr, SpanName::kQueryParse, op);
    return query::ParseSparql(text, &a.dict());
  }();
  if (!parsed.ok()) return parsed.status();
  const query::Cq& q = *parsed;
  if (!q.IsSafe()) return Status::InvalidArgument("unsafe query");

  if (strategy == Strategy::kSaturation) {
    const storage::Store& store = a.sat_store();
    CountingSource source(&store, storage_counts);
    engine::Evaluator evaluator(&source);
    ScopedSpan span(tr, SpanName::kEngineEval, op);
    return evaluator.EvaluateCq(q);
  }

  rdfref::reformulation::Reformulator ref(&a.schema(), {}, &a.dict());
  auto reformulate = [&](const query::Cq& f) {
    ScopedSpan span(tr, SpanName::kReformulate, op);
    return ref.Reformulate(f);
  };
  auto pin = [&] {
    ScopedSpan span(tr, SpanName::kStoragePin, op);
    return a.versions().snapshot();
  };

  if (strategy == Strategy::kRefUcq) {
    RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq, reformulate(q));
    storage::SnapshotPtr snap = pin();
    detail->head_entries = snap->head_size();
    CountingSource source(snap.get(), storage_counts);
    engine::Evaluator evaluator(&source, 1);
    if (sv->cache != nullptr) {
      evaluator.set_view_cache(sv->cache.get(), snap->epoch());
    }
    Result<engine::Table> table = [&] {
      ScopedSpan span(tr, SpanName::kEngineEval, op);
      return evaluator.EvaluateUcqView(q, ucq, rdfref::Deadline());
    }();
    if (table.ok()) detail->fragment_rows.push_back(table->NumRows());
    detail->fragment_ucqs.push_back(std::move(ucq));
    return table;
  }

  query::Cover cover = query::Cover::Singletons(q.body().size());
  if (strategy == Strategy::kRefGcov) {
    rdfref::cost::CostModel cost_model(&a.ref_store().stats());
    optimizer::CoverOptimizer optimizer(
        &ref, &cost_model, sv->hints.empty() ? nullptr : &sv->hints);
    optimizer::GcovTrace trace;
    Result<query::Cover> chosen = [&] {
      ScopedSpan span(tr, SpanName::kOptimizerGcov, op);
      return optimizer.Greedy(q, &trace);
    }();
    if (!chosen.ok()) return chosen.status();
    cover = *chosen;
    detail->covers_explored = trace.explored.size();
  }
  RDFREF_RETURN_NOT_OK(cover.Validate(q));
  std::vector<query::Cq> fragment_queries = cover.FragmentQueries(q);
  std::vector<query::Ucq> fragment_ucqs;
  fragment_ucqs.reserve(fragment_queries.size());
  for (const query::Cq& fq : fragment_queries) {
    RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq, reformulate(fq));
    fragment_ucqs.push_back(std::move(ucq));
  }
  storage::SnapshotPtr snap = pin();
  detail->head_entries = snap->head_size();
  CountingSource source(snap.get(), storage_counts);
  engine::Evaluator evaluator(&source, 1);
  if (sv->cache != nullptr) {
    evaluator.set_view_cache(sv->cache.get(), snap->epoch());
  }
  engine::JucqProfile profile;
  Result<engine::Table> table = [&] {
    ScopedSpan span(tr, SpanName::kEngineEval, op);
    return evaluator.EvaluateJucq(q, fragment_queries, fragment_ucqs,
                                  rdfref::Deadline(), &profile);
  }();
  for (const engine::FragmentProfile& f : profile.fragments) {
    detail->fragment_rows.push_back(f.result_rows);
  }
  detail->fragment_ucqs = std::move(fragment_ucqs);
  return table;
}

// A read as a user makes it: SPARQL text in, answer table out.
Result<engine::Table> PlainRead(api::QueryAnswerer* a, const std::string& text,
                                Strategy strategy,
                                const api::AnswerOptions& options = {}) {
  RDFREF_ASSIGN_OR_RETURN(query::Cq q, query::ParseSparql(text, &a->dict()));
  return a->Answer(q, strategy, nullptr, options);
}

struct WriteCounts {
  uint64_t freezes = 0;
  uint64_t compactions = 0;
};

// One write plus the maintenance its cadence triggers, synchronously.
// `tr` may be null (untraced run).
Status Write(api::QueryAnswerer* a, const rdf::Triple& t, bool insert,
             Tracer* tr, int64_t op, WriteCounts* counts) {
  Status st = insert ? a->InsertTriple(t) : a->RemoveTriple(t);
  if (!st.ok()) return st;
  storage::VersionSet& versions = a->versions();
  if (versions.head_size() >= kFreezeHeadEntries) {
    std::optional<ScopedSpan> span;
    if (tr != nullptr) span.emplace(tr, SpanName::kStorageFreeze, op);
    versions.Freeze();
    ++counts->freezes;
  }
  if (versions.num_runs() >= kCompactRuns) {
    std::optional<ScopedSpan> span;
    if (tr != nullptr) span.emplace(tr, SpanName::kStorageCompact, op);
    versions.Compact();
    ++counts->compactions;
  }
  return Status::OK();
}

// The sp2b-rw writes as triples of the answerer's (hierarchy-encoded) ids;
// empty for read-only workloads.
std::vector<rdf::Triple> ResolveWrites(const WorkloadData& data,
                                       api::QueryAnswerer* a,
                                       const std::vector<Op>& ops) {
  if (data.writes_per_deck == 0) return {};
  rdf::Dictionary& dict = a->dict();
  const rdf::TermId cites =
      dict.InternUri(rdfref::datagen::Sp2b::Uri("cites"));
  std::vector<rdf::Triple> triples(ops.size(), rdf::Triple(0, 0, 0));
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == Op::kRead) continue;
    triples[i] = rdf::Triple(
        dict.InternUri(rdfref::datagen::Sp2b::DocumentUri(
            static_cast<int>(ops[i].src))),
        cites,
        dict.InternUri(rdfref::datagen::Sp2b::DocumentUri(
            static_cast<int>(ops[i].dst))));
  }
  return triples;
}

// View selection input: one instance (the hottest constant) per template,
// weighted by its share of a deck.
std::vector<optimizer::WorkloadQueryProfile> SelectionProfiles(
    const WorkloadData& data, api::QueryAnswerer* a, Status* status) {
  std::vector<double> weight(data.templates.size(), 0.0);
  for (uint16_t c : data.deck_reads) {
    weight[data.classes[c].template_index] += 1.0;
  }
  std::vector<optimizer::WorkloadQueryProfile> profiles;
  for (size_t t = 0; t < data.templates.size(); ++t) {
    Result<query::Cq> q =
        query::ParseSparql(data.templates[t].Instantiate(0), &a->dict());
    if (!q.ok()) {
      *status = q.status();
      return {};
    }
    optimizer::WorkloadQueryProfile p;
    p.cq = std::move(*q);
    p.weight = weight[t];
    profiles.push_back(std::move(p));
  }
  return profiles;
}

// One class per (template, strategy), in class order, each at the hottest
// constant: the warm-up pass of every set-up.
std::vector<std::pair<size_t, std::string>> WarmupReads(
    const WorkloadData& data) {
  std::vector<std::pair<size_t, std::string>> reads;
  for (size_t c = 0; c < data.classes.size(); ++c) {
    reads.emplace_back(
        c, data.templates[data.classes[c].template_index].Instantiate(0));
  }
  return reads;
}

// lubm-mix expects Sat's answer for every query, per template.
using Expected = std::vector<std::optional<AnswerDigest>>;

Status ExpectedAnswers(const WorkloadData& data, api::QueryAnswerer* a,
                       Expected* expected) {
  expected->assign(data.templates.size(), std::nullopt);
  for (size_t t = 0; t < data.templates.size(); ++t) {
    RDFREF_ASSIGN_OR_RETURN(
        engine::Table sat,
        PlainRead(a, data.templates[t].text, Strategy::kSaturation));
    (*expected)[t] = Digest(sat);
  }
  return Status::OK();
}

// The untraced set-up, timed by the caller from handing over the graph to
// the first measured op.
Status SetupPlain(const WorkloadData& data, rdf::Graph graph, Served* sv) {
  sv->answerer = std::make_unique<api::QueryAnswerer>(std::move(graph));
  api::QueryAnswerer* a = sv->answerer.get();
  if (data.uses_sat) (void)a->sat_store();
  if (data.view_cache) {
    a->EnableViewCache();
    Status st;
    std::vector<optimizer::WorkloadQueryProfile> profiles =
        SelectionProfiles(data, a, &st);
    RDFREF_RETURN_NOT_OK(st);
    RDFREF_RETURN_NOT_OK(a->SelectViews(profiles).status());
  }
  for (const auto& [c, text] : WarmupReads(data)) {
    RDFREF_RETURN_NOT_OK(
        PlainRead(a, text, data.classes[c].strategy).status());
  }
  return Status::OK();
}

// One timed set-up into `sv`, from handing a clone of the input to
// QueryAnswerer until the first measured op could run. Cloning the input
// is input generation and stays untimed.
Status TimedSetup(const WorkloadData& data, Served* sv, int64_t* ns) {
  rdf::Graph graph = data.graph.Clone();
  const Clock::time_point start = Clock::now();
  Status st = SetupPlain(data, std::move(graph), sv);
  *ns = ElapsedNs(start);
  return st;
}

// A set-up as measured, and the factor that scales it to the reference
// host: from kSetupProbes host probes just before it and as many just after.
struct SetupTime {
  int64_t ns = 0;
  double scale = 1.0;
};

constexpr int kSetupProbes = 3;

// Appends kSetupProbes host probes to `probes`.
void ProbeRound(std::vector<int64_t>* probes) {
  for (int k = 0; k < kSetupProbes; ++k) probes->push_back(ProbeHost());
}

// Times `setup` (which returns its own duration in ns, or -1) between two
// rounds of host probes.
template <typename SetupFn>
SetupTime ProbedSetup(SetupFn setup) {
  std::vector<int64_t> probes;
  ProbeRound(&probes);
  SetupTime t;
  t.ns = setup();
  ProbeRound(&probes);
  t.scale = ScaleFor(std::move(probes));
  return t;
}

// One more timed set-up, in a forked child: it meets the host as it is at
// this point of the run, but cannot change the served answerer or this
// process's peak RSS. The benchmark runs no other thread, so the child may
// run anything the parent can. Waits for the child; -1 when it failed.
int64_t TimedSetupInChild(const WorkloadData& data) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(nullptr);  // the child must not write the parent's buffers
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    Served sv;
    int64_t ns = -1;
    if (!TimedSetup(data, &sv, &ns).ok()) ns = -1;
    const bool sent = write(fds[1], &ns, sizeof(ns)) == sizeof(ns);
    _exit(sent ? 0 : 1);  // skips destructors: the kernel frees it all
  }
  close(fds[1]);
  int64_t ns = -1;
  if (pid < 0 || read(fds[0], &ns, sizeof(ns)) != sizeof(ns)) ns = -1;
  close(fds[0]);
  if (pid > 0) {
    int wstatus = 0;
    while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) ns = -1;
  }
  return ns;
}

// The traced set-up: the same steps, with construction split by layer by
// calling the public functions it is made of on a clone of the input.
struct SetupCounts {
  uint64_t views_selected = 0;
};

Status SetupTraced(const WorkloadData& data, Served* sv, Tracer* tr,
                   SetupCounts* counts) {
  rdf::Graph graph = data.graph.Clone();
  rdf::Graph clone = data.graph.Clone();
  std::optional<storage::Store> store;
  rdfref::schema::Schema schema;
  ScopedSpan setup(tr, SpanName::kSetup, -1);
  {
    ScopedSpan span(tr, SpanName::kSchemaEncode, -1);
    (void)rdfref::schema::EncodeGraphHierarchy(&clone, {});
  }
  {
    ScopedSpan span(tr, SpanName::kSchemaClosure, -1);
    schema = rdfref::schema::Schema::FromGraph(clone);
    schema.Saturate();
    schema.EmitTriples(&clone);
  }
  {
    ScopedSpan span(tr, SpanName::kStorageIndex, -1);
    store.emplace(clone);
  }
  {
    ScopedSpan span(tr, SpanName::kApiConstruct, -1);
    sv->answerer = std::make_unique<api::QueryAnswerer>(std::move(graph));
  }
  api::QueryAnswerer* a = sv->answerer.get();
  if (data.uses_sat) {
    ScopedSpan span(tr, SpanName::kReasonerSaturate, -1);
    (void)a->sat_store();
  }
  if (data.view_cache) {
    sv->cache = std::make_unique<engine::ViewCache>();
    a->versions().SetWriteObserver(sv->cache.get());
    Status st;
    std::vector<optimizer::WorkloadQueryProfile> profiles =
        SelectionProfiles(data, a, &st);
    RDFREF_RETURN_NOT_OK(st);
    Result<optimizer::ViewSelectionResult> selection = [&] {
      ScopedSpan span(tr, SpanName::kOptimizerSelectViews, -1);
      rdfref::reformulation::Reformulator ref(&a->schema(), {}, &a->dict());
      rdfref::cost::CostModel cost_model(&a->ref_store().stats());
      optimizer::ViewSelector selector(&ref, &cost_model);
      return selector.Select(profiles);
    }();
    RDFREF_RETURN_NOT_OK(selection.status());
    sv->cache->SetPreferred(selection->chosen_keys);
    sv->hints = selection->hints;
    counts->views_selected = selection->chosen_keys.size();
  }
  StorageCounts ignored;
  for (const auto& [c, text] : WarmupReads(data)) {
    ReadDetail detail;
    ScopedSpan span(tr, SpanName::kApiRead, -1);
    RDFREF_RETURN_NOT_OK(ComposedRead(sv, text, data.classes[c].strategy, tr,
                                      -1, &ignored, &detail)
                             .status());
  }
  return Status::OK();
}

engine::ViewCacheStats Delta(const engine::ViewCacheStats& end,
                             const engine::ViewCacheStats& start) {
  engine::ViewCacheStats d = end;
  d.hits -= start.hits;
  d.misses -= start.misses;
  d.installs -= start.installs;
  d.evictions -= start.evictions;
  d.invalidations -= start.invalidations;
  d.rejected -= start.rejected;
  d.lost_races -= start.lost_races;
  return d;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

// The untraced replay of a run.
struct PlainPass {
  std::vector<SetupTime> setups;
  std::vector<int64_t> op_ns;
  std::vector<double> op_scale;  // scales op_ns to the reference host
  std::vector<int64_t> probe_ns;  // the host probes along the ops
  std::vector<uint64_t> exact;  // bit-exact answer digest per read op
  engine::ViewCacheStats cache;
  WriteCounts writes;
  double peak_rss_mb = 0.0;
  double steal_s = 0.0;  // host steal over the measured ops, all CPUs
  uint64_t minor_faults = 0;  // over the measured ops (and their checks)
  uint64_t failed = 0;
};

// Counts one wrong or failed op, and describes the first few.
void Fail(RunResult* result, uint64_t* failed, const std::string& what) {
  if (*failed < 5) result->notes.push_back("FAIL " + what);
  ++*failed;
}

bool RunPlain(const WorkloadData& data, const std::vector<Op>& ops,
              const OpTexts& texts, const RunOptions& options, int setups,
              PlainPass* pass, RunResult* result) {
  Served sv;
  {
    Status st;
    pass->setups.push_back(ProbedSetup([&] {
      int64_t ns = 0;
      st = TimedSetup(data, &sv, &ns);
      return ns;
    }));
    if (!st.ok()) {
      result->notes.push_back("FAIL set-up: " + st.ToString());
      return false;
    }
  }
  api::QueryAnswerer* a = sv.answerer.get();

  // The other set-ups run before these op indexes: evenly spaced deck
  // boundaries, the last one after the final op.
  const size_t deck = data.deck_size();
  const size_t decks = ops.size() / deck;
  std::vector<size_t> setup_at;
  for (int k = 1; k < setups; ++k) {
    setup_at.push_back(decks * static_cast<size_t>(k) /
                       static_cast<size_t>(setups - 1) * deck);
  }
  size_t next_setup = 0;
  bool setups_ok = true;
  auto setups_before = [&](size_t i) {
    for (; next_setup < setup_at.size() && setup_at[next_setup] == i;
         ++next_setup) {
      const SetupTime setup =
          ProbedSetup([&] { return TimedSetupInChild(data); });
      if (setup.ns < 0) {
        setups_ok = false;
      } else {
        pass->setups.push_back(setup);
      }
    }
  };

  // Inputs and expectations, prepared before the first measured op.
  const std::vector<rdf::Triple> triples = ResolveWrites(data, a, ops);
  Expected expected;
  if (data.workload == Workload::kLubmMix) {
    Status st = ExpectedAnswers(data, a, &expected);
    if (!st.ok()) {
      result->notes.push_back("FAIL expected answers: " + st.ToString());
      return false;
    }
  }
  bool corrupt = options.corrupt_expectation;
  if (corrupt && data.workload == Workload::kLubmMix) {
    for (const Op& op : ops) {
      if (op.kind != Op::kRead) continue;
      expected[data.classes[op.read_class].template_index]->set_sum ^= 1;
      break;
    }
    corrupt = false;
  }
  const engine::ViewCacheStats cache_start = a->view_cache_stats();
  const double steal_start = StealSeconds();
  const uint64_t faults_start = MinorFaults();

  pass->op_ns.assign(ops.size(), 0);
  pass->exact.assign(ops.size(), 0);
  // One probe per deck: the op right after a probe finds colder caches, so
  // probing more often would slow the short reads it measures.
  HostSpeed host(deck);
  size_t reads = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    setups_before(i);
    host.BeforeOp(i);
    const Op& op = ops[i];
    if (op.kind != Op::kRead) {
      const Clock::time_point start = Clock::now();
      Status st = Write(a, triples[i], op.kind == Op::kInsert, nullptr,
                        static_cast<int64_t>(i), &pass->writes);
      pass->op_ns[i] = ElapsedNs(start);
      if (!st.ok()) Fail(result, &pass->failed, Fmt("op %zu write: %s", i,
                                                    st.ToString().c_str()));
      continue;
    }
    const ReadClass& rc = data.classes[op.read_class];
    const std::string& text = texts.texts[texts.of_op[i]];
    const Clock::time_point start = Clock::now();
    Result<engine::Table> answer = PlainRead(a, text, rc.strategy);
    pass->op_ns[i] = ElapsedNs(start);
    ++reads;
    if (!answer.ok()) {
      Fail(result, &pass->failed,
           Fmt("op %zu %s: %s", i, rc.name.c_str(),
               answer.status().ToString().c_str()));
      continue;
    }
    // Checks run here, between ops, outside every timing.
    const AnswerDigest digest = Digest(*answer);
    pass->exact[i] = digest.exact;
    switch (data.workload) {
      case Workload::kLubmMix:
        if (!digest.SameSet(*expected[rc.template_index])) {
          Fail(result, &pass->failed,
               Fmt("op %zu %s: answer differs from Sat's", i,
                   rc.name.c_str()));
        }
        break;
      case Workload::kSp2bRw: {
        if ((reads - 1) % kRwCheckEvery != 0) break;
        // Uncached, on the same epoch (no write ran since the read), by
        // another complete strategy.
        api::AnswerOptions uncached;
        uncached.use_view_cache = false;
        Result<engine::Table> check =
            PlainRead(a, text, Strategy::kRefScq, uncached);
        AnswerDigest want = check.ok() ? Digest(*check) : AnswerDigest{};
        if (corrupt) {
          want.set_sum ^= 1;
          corrupt = false;
        }
        if (!check.ok() || !digest.SameSet(want)) {
          Fail(result, &pass->failed,
               Fmt("op %zu %s: answer differs from the uncached check", i,
                   rc.name.c_str()));
        }
        break;
      }
    }
  }
  host.Finish();
  pass->peak_rss_mb = PeakRssMb();
  pass->steal_s = StealSeconds() - steal_start;
  pass->minor_faults = MinorFaults() - faults_start;
  pass->op_scale.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) pass->op_scale[i] = host.Scale(i);
  pass->probe_ns = host.probe_ns();
  pass->cache = Delta(a->view_cache_stats(), cache_start);
  setups_before(ops.size());
  if (!setups_ok) {
    result->notes.push_back("FAIL a set-up in a child process failed");
    return false;
  }
  return true;
}

// Where a percentile's rank falls: the class of the op at that rank, and
// how flat the latency curve is over the ranks around it.
std::string DescribeRank(
    const std::vector<std::pair<double, uint16_t>>& sorted,
    const Percentile& p, const WorkloadData& data) {
  const size_t n = sorted.size();
  const size_t r = p.rank - 1;
  const size_t w = std::max<size_t>(3, n / 200);
  const size_t lo = r >= w ? r - w : 0;
  const size_t hi = std::min(n - 1, r + w);
  std::map<uint16_t, size_t> in_window;
  for (size_t i = lo; i <= hi; ++i) ++in_window[sorted[i].second];
  const uint16_t cls = sorted[r].second;
  const double spread = p.value > 0.0
                            ? (sorted[hi].first - sorted[lo].first) / p.value
                            : 0.0;
  return Fmt("rank %zu/%zu (%zu beyond) in class %s; ranks %zu..%zu: %zu%% "
             "that class, %zu classes, latency spread %.1f%%",
             p.rank, n, p.beyond, data.classes[cls].name.c_str(), lo + 1,
             hi + 1, 100 * in_window[cls] / (hi - lo + 1), in_window.size(),
             100.0 * spread);
}

// Every time is scaled to the reference host (host_speed.h); the notes give
// the times as measured beside them.
void EndToEndMetrics(const WorkloadData& data, const std::vector<Op>& ops,
                     const PlainPass& pass, RunResult* result) {
  std::vector<std::pair<double, uint16_t>> reads;
  std::vector<double> writes, measured_read_ms;
  double total_ns = 0.0, measured_ns = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const double ns = static_cast<double>(pass.op_ns[i]) * pass.op_scale[i];
    total_ns += ns;
    measured_ns += static_cast<double>(pass.op_ns[i]);
    if (ops[i].kind == Op::kRead) {
      reads.emplace_back(ns / 1e6, ops[i].read_class);
      measured_read_ms.push_back(Ms(pass.op_ns[i]));
    } else {
      writes.push_back(ns / 1e6);
    }
  }
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());
  std::sort(measured_read_ms.begin(), measured_read_ms.end());
  std::vector<double> read_ms;
  for (const auto& [ms, cls] : reads) read_ms.push_back(ms);

  std::vector<double> setup_s, measured_setup_s;
  std::string setups;
  for (const SetupTime& t : pass.setups) {
    setup_s.push_back(static_cast<double>(t.ns) * t.scale / 1e9);
    measured_setup_s.push_back(static_cast<double>(t.ns) / 1e9);
    setups += Fmt(" %.4f", setup_s.back());
  }
  result->metrics.push_back({"setup_s", Median(setup_s), "s"});
  result->metrics.push_back(
      {"ops_per_s", static_cast<double>(ops.size()) / (total_ns / 1e9),
       "1/s"});
  result->notes.push_back(Fmt("setup_s: median of %zu set-ups:%s",
                              setup_s.size(), setups.c_str()));
  result->notes.push_back(Fmt("ops_per_s: %zu ops (%zu reads, %zu writes) in "
                              "%.3f s of op time; host steal %.2f CPU-s; "
                              "%llu minor page faults",
                              ops.size(), reads.size(), writes.size(),
                              total_ns / 1e9, pass.steal_s,
                              static_cast<unsigned long long>(
                                  pass.minor_faults)));
  std::vector<double> probe_ms;
  for (int64_t ns : pass.probe_ns) probe_ms.push_back(Ms(ns));
  std::sort(probe_ms.begin(), probe_ms.end());
  const std::optional<Percentile> m50 = NearestRank(measured_read_ms, 50);
  const std::optional<Percentile> m99 = NearestRank(measured_read_ms, 99);
  result->notes.push_back(Fmt(
      "host probe: %zu probes, median %.4f ms (reference %.4f ms), "
      "min %.4f, max %.4f; as measured: setup_s %.4f, ops_per_s %.2f, "
      "read_p50_ms %.4f, read_p99_ms %.4f",
      probe_ms.size(), Median(probe_ms), kProbeReferenceNs / 1e6,
      probe_ms.empty() ? 0.0 : probe_ms.front(),
      probe_ms.empty() ? 0.0 : probe_ms.back(), Median(measured_setup_s),
      static_cast<double>(ops.size()) / (measured_ns / 1e9),
      m50.has_value() ? m50->value : 0.0, m99.has_value() ? m99->value : 0.0));
  for (int percent : {50, 99}) {
    const std::string name = Fmt("read_p%d_ms", percent);
    std::optional<Percentile> p = NearestRank(read_ms, percent);
    if (!p.has_value()) {
      result->complete = false;
      result->notes.push_back("FAIL " + name + ": fewer than " +
                              std::to_string(kMinSamplesBeyond) +
                              " reads beyond its rank");
      continue;
    }
    result->metrics.push_back({name, p->value, "ms"});
    result->notes.push_back(Fmt("%s = %.4f: ", name.c_str(), p->value) +
                            DescribeRank(reads, *p, data));
  }
  result->metrics.push_back({"peak_rss_mb", pass.peak_rss_mb, "MB"});
  // Per-class latency, for the class shares at each percentile's rank.
  std::vector<std::vector<double>> by_class(data.classes.size());
  for (const auto& [ms, cls] : reads) by_class[cls].push_back(ms);
  for (size_t c = 0; c < by_class.size(); ++c) {
    const std::vector<double>& v = by_class[c];
    if (v.empty()) continue;
    double sum = 0.0;
    for (double x : v) sum += x;
    result->notes.push_back(Fmt(
        "class %-28s n=%5zu (%5.2f%%) mean %9.4f  min %9.4f  median %9.4f  "
        "max %9.4f ms",
        data.classes[c].name.c_str(), v.size(),
        100.0 * static_cast<double>(v.size()) /
            static_cast<double>(reads.size()),
        sum / static_cast<double>(v.size()), v.front(), v[(v.size() - 1) / 2],
        v.back()));
  }
  // Writes: the median and the highest percentile with 10 writes beyond.
  for (int percent : {50, 99, 95, 90}) {
    std::optional<Percentile> p = NearestRank(writes, percent);
    if (!p.has_value()) continue;
    result->notes.push_back(Fmt("write_p%d_ms = %.6f: rank %zu/%zu (%zu beyond)",
                                percent, p->value, p->rank, p->n, p->beyond));
    if (percent != 50) break;
  }
  if (!writes.empty()) {
    result->notes.push_back(Fmt("maintenance: %llu freezes, %llu compactions "
                                "in %zu writes (freeze at %zu head entries, "
                                "compact at %zu runs)",
                                static_cast<unsigned long long>(
                                    pass.writes.freezes),
                                static_cast<unsigned long long>(
                                    pass.writes.compactions),
                                writes.size(), kFreezeHeadEntries,
                                kCompactRuns));
  }
  if (data.view_cache) {
    result->notes.push_back(Fmt(
        "view cache: %llu hits, %llu misses (hit rate %.4f), %llu installs, "
        "%llu evictions, %llu invalidations, %zu bytes",
        static_cast<unsigned long long>(pass.cache.hits),
        static_cast<unsigned long long>(pass.cache.misses),
        pass.cache.hit_rate(),
        static_cast<unsigned long long>(pass.cache.installs),
        static_cast<unsigned long long>(pass.cache.evictions),
        static_cast<unsigned long long>(pass.cache.invalidations),
        pass.cache.bytes));
  }
}

// Per-layer totals of the traced replay.
struct LayerCounts {
  uint64_t cqs = 0, interval_atoms = 0, covers_explored = 0;
  uint64_t fragment_rows = 0, rows_out = 0, head_entries = 0;
  uint64_t reads = 0, writes = 0;
  std::vector<double> q_errors;
  StorageCounts storage;
  WriteCounts maintenance;
  SetupCounts setup;
  engine::ViewCacheStats cache;
  uint64_t added_triples = 0;
};

bool RunTraced(const WorkloadData& data, const std::vector<Op>& ops,
               const OpTexts& texts, const RunOptions& options,
               const PlainPass& plain, RunResult* result) {
  Tracer tracer;
  Served sv;
  LayerCounts counts;
  // The traced replay is scaled to the reference host as the untraced one
  // is, so that layer times and the tracing overhead compare across runs.
  std::vector<int64_t> setup_probes;
  ProbeRound(&setup_probes);
  {
    Status st = SetupTraced(data, &sv, &tracer, &counts.setup);
    if (!st.ok()) {
      result->notes.push_back("FAIL traced set-up: " + st.ToString());
      return false;
    }
  }
  ProbeRound(&setup_probes);
  const double setup_scale = ScaleFor(std::move(setup_probes));
  HostSpeed host(data.deck_size());
  api::QueryAnswerer* a = sv.answerer.get();
  counts.added_triples = a->saturation_added();
  const std::vector<rdf::Triple> triples = ResolveWrites(data, a, ops);
  const rdfref::cost::CostModel cost_model(&a->ref_store().stats());
  const engine::ViewCacheStats cache_start =
      sv.cache != nullptr ? sv.cache->Stats() : engine::ViewCacheStats{};
  std::vector<int32_t> roots(ops.size(), -1);
  uint64_t failed = 0;
  uint64_t drifted = 0;

  for (size_t i = 0; i < ops.size(); ++i) {
    host.BeforeOp(i);
    const Op& op = ops[i];
    const int64_t id = static_cast<int64_t>(i);
    if (op.kind != Op::kRead) {
      roots[i] = tracer.Begin(SpanName::kApiWrite, id);
      Status st = Write(a, triples[i], op.kind == Op::kInsert, &tracer, id,
                        &counts.maintenance);
      tracer.End(roots[i]);
      ++counts.writes;
      if (!st.ok()) Fail(result, &failed, "traced write: " + st.ToString());
      continue;
    }
    const ReadClass& rc = data.classes[op.read_class];
    ReadDetail detail;
    roots[i] = tracer.Begin(SpanName::kApiRead, id);
    Result<engine::Table> answer =
        ComposedRead(&sv, texts.texts[texts.of_op[i]], rc.strategy, &tracer,
                     id, &counts.storage, &detail);
    tracer.End(roots[i]);
    ++counts.reads;
    if (!answer.ok()) {
      Fail(result, &failed,
           Fmt("traced op %zu %s: %s", i, rc.name.c_str(),
               answer.status().ToString().c_str()));
      continue;
    }
    // Drift guard: the composed answer must be the untraced one, bit for
    // bit.
    if (Digest(*answer).exact != plain.exact[i]) {
      ++drifted;
      Fail(result, &failed,
           Fmt("traced op %zu %s: composed answer differs from Answer's", i,
               rc.name.c_str()));
    }
    counts.rows_out += answer->NumRows();
    counts.head_entries += detail.head_entries;
    counts.covers_explored += detail.covers_explored;
    for (size_t f = 0; f < detail.fragment_ucqs.size(); ++f) {
      const query::Ucq& ucq = detail.fragment_ucqs[f];
      counts.cqs += ucq.size();
      for (const query::Cq& member : ucq.members()) {
        for (const query::Atom& atom : member.body()) {
          counts.interval_atoms += atom.has_range() ? 1 : 0;
        }
      }
      if (f < detail.fragment_rows.size()) {
        const double est = std::max(cost_model.EstimateUcqRows(ucq), 1.0);
        const double act =
            std::max(static_cast<double>(detail.fragment_rows[f]), 1.0);
        counts.q_errors.push_back(std::max(est / act, act / est));
        counts.fragment_rows += detail.fragment_rows[f];
      }
    }
  }
  host.Finish();
  if (sv.cache != nullptr) counts.cache = Delta(sv.cache->Stats(), cache_start);
  if (!options.trace_out.empty() && !tracer.WriteTsv(options.trace_out)) {
    result->notes.push_back("could not write spans to " + options.trace_out);
  }

  // Self-time rollup: per layer over the measured ops, and over the set-up
  // (whose warm-up reads are not measured ops). It is only sound when every
  // op's spans nest under its root span, so that is checked first.
  const size_t misnested = tracer.MisnestedSpans(roots);
  if (misnested > 0) {
    result->correct = false;
    result->notes.push_back(
        Fmt("FAIL %zu spans do not nest under their op's root span",
            misnested));
  }
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = tracer.SelfTimes();
  std::vector<double> scale(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) scale[i] = host.Scale(i);
  // Scaled self times, in ms.
  std::vector<double> by_name(static_cast<size_t>(SpanName::kCount), 0.0);
  std::vector<double> setup_by_name(by_name.size(), 0.0);
  for (size_t s = 0; s < spans.size(); ++s) {
    const size_t name = static_cast<size_t>(spans[s].name);
    if (spans[s].op < 0) {
      setup_by_name[name] += Ms(self[s]) * setup_scale;
    } else {
      by_name[name] += Ms(self[s]) * scale[static_cast<size_t>(spans[s].op)];
    }
  }
  double traced_ns = 0.0, plain_ns = 0.0;
  double measured_traced_ns = 0.0, measured_plain_ns = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Span& root = spans[static_cast<size_t>(roots[i])];
    const double root_ns = static_cast<double>(root.end_ns - root.start_ns);
    traced_ns += root_ns * scale[i];
    plain_ns += static_cast<double>(plain.op_ns[i]) * plain.op_scale[i];
    measured_traced_ns += root_ns;
    measured_plain_ns += static_cast<double>(plain.op_ns[i]);
  }
  const double n = static_cast<double>(ops.size());
  auto per_op = [&](SpanName name) {
    return by_name[static_cast<size_t>(name)] / n;
  };
  const double api_self = (by_name[static_cast<size_t>(SpanName::kApiRead)] +
                           by_name[static_cast<size_t>(SpanName::kApiWrite)]) /
                          n;
  // Set-up spans: one traced set-up per run, so the mean is the value.
  auto per_setup = [&](SpanName name) {
    return setup_by_name[static_cast<size_t>(name)];
  };
  std::vector<Metric>& m = result->metrics;
  m.push_back({"api.self_ms", api_self, "ms"});
  m.push_back({"query.parse_ms", per_op(SpanName::kQueryParse), "ms"});
  m.push_back({"reformulation.reformulate_ms", per_op(SpanName::kReformulate),
               "ms"});
  m.push_back({"optimizer.gcov_ms", per_op(SpanName::kOptimizerGcov), "ms"});
  m.push_back({"engine.eval_ms", per_op(SpanName::kEngineEval), "ms"});
  m.push_back({"storage.pin_ms", per_op(SpanName::kStoragePin), "ms"});
  m.push_back({"storage.index_ms", per_setup(SpanName::kStorageIndex), "ms"});
  m.push_back({"schema.encode_ms", per_setup(SpanName::kSchemaEncode), "ms"});
  m.push_back(
      {"schema.closure_ms", per_setup(SpanName::kSchemaClosure), "ms"});
  auto count = [&m](const char* name, double v) {
    m.push_back({name, v, "count"});
  };
  std::vector<double> q = counts.q_errors;
  std::sort(q.begin(), q.end());
  count("reformulation.cqs", static_cast<double>(counts.cqs));
  count("reformulation.interval_atoms",
        static_cast<double>(counts.interval_atoms));
  count("optimizer.covers_explored",
        static_cast<double>(counts.covers_explored));
  count("optimizer.views_selected",
        static_cast<double>(counts.setup.views_selected));
  m.push_back({"cost.q_error_p50", Median(q), "ratio"});
  m.push_back({"cost.q_error_max", q.empty() ? 0.0 : q.back(), "ratio"});
  count("engine.fragment_rows", static_cast<double>(counts.fragment_rows));
  count("engine.rows_out", static_cast<double>(counts.rows_out));
  m.push_back({"engine.scanned_per_row",
               static_cast<double>(counts.storage.rows_scanned) /
                   static_cast<double>(std::max<uint64_t>(counts.rows_out, 1)),
               "ratio"});
  count("engine.cache_hits", static_cast<double>(counts.cache.hits));
  count("engine.cache_misses", static_cast<double>(counts.cache.misses));
  m.push_back({"engine.cache_hit_rate", counts.cache.hit_rate(), "ratio"});
  count("engine.cache_installs", static_cast<double>(counts.cache.installs));
  count("engine.cache_evictions", static_cast<double>(counts.cache.evictions));
  count("engine.cache_invalidations",
        static_cast<double>(counts.cache.invalidations));
  m.push_back(
      {"engine.cache_bytes", static_cast<double>(counts.cache.bytes), "bytes"});
  count("storage.head_entries", static_cast<double>(counts.head_entries));
  count("storage.range_lookups",
        static_cast<double>(counts.storage.range_lookups));
  count("storage.rows_scanned",
        static_cast<double>(counts.storage.rows_scanned));
  count("storage.freezes", static_cast<double>(counts.maintenance.freezes));
  count("storage.compactions",
        static_cast<double>(counts.maintenance.compactions));
  count("api.writes", static_cast<double>(counts.writes));
  count("reasoner.added_triples", static_cast<double>(counts.added_triples));
  const double overhead = 100.0 * (traced_ns - plain_ns) / plain_ns;
  m.push_back({"trace.overhead_pct", overhead, "%"});

  // Layer times that are zero on some workload stay out of the metrics
  // (a time must never read the same on every run) and are reported here.
  result->notes.push_back(Fmt(
      "set-up layers (ms): reasoner.saturate %.3f, "
      "optimizer.select_views %.3f, api.construct %.3f",
      per_setup(SpanName::kReasonerSaturate),
      per_setup(SpanName::kOptimizerSelectViews),
      per_setup(SpanName::kApiConstruct)));
  if (counts.writes > 0) {
    const double w = static_cast<double>(counts.writes);
    result->notes.push_back(Fmt(
        "write layers (ms per write): api.write %.6f, storage.freeze %.6f, "
        "storage.compact %.6f",
        by_name[static_cast<size_t>(SpanName::kApiWrite)] / w,
        by_name[static_cast<size_t>(SpanName::kStorageFreeze)] / w,
        by_name[static_cast<size_t>(SpanName::kStorageCompact)] / w));
  }
  result->notes.push_back(Fmt(
      "tracing overhead: %.3f s traced vs %.3f s untraced op time (%+.2f%%; "
      "as measured %.3f vs %.3f s); composed answers equal to Answer's: "
      "%llu of %llu reads differ",
      traced_ns / 1e9, plain_ns / 1e9, overhead, measured_traced_ns / 1e9,
      measured_plain_ns / 1e9, static_cast<unsigned long long>(drifted),
      static_cast<unsigned long long>(counts.reads)));
  if (data.view_cache &&
      (counts.cache.hits != plain.cache.hits ||
       counts.cache.misses != plain.cache.misses ||
       counts.cache.invalidations != plain.cache.invalidations)) {
    result->notes.push_back(
        "WARN view-cache counters differ between the untraced and traced "
        "replays");
  }
  result->failed += failed;
  return true;
}
}  // namespace

RunResult Run(const WorkloadData& data, const RunOptions& options) {
  RunResult result;
  const std::vector<Op> ops = MakeOps(data, options.seed, options.decks);
  const OpTexts texts = MakeTexts(data, ops);
  PlainPass plain;
  if (!RunPlain(data, ops, texts, options, options.trace ? 1 : kSetups, &plain,
                &result)) {
    result.correct = false;
    return result;
  }
  result.attempted = ops.size();
  result.failed = plain.failed;
  if (options.trace) {
    if (!RunTraced(data, ops, texts, options, plain, &result)) {
      result.correct = false;
    }
  } else {
    EndToEndMetrics(data, ops, plain, &result);
  }
  result.notes.push_back(
      Fmt("fail_ratio = %.6f (%llu failed of %llu attempted)",
          static_cast<double>(result.failed) /
              static_cast<double>(std::max<uint64_t>(result.attempted, 1)),
          static_cast<unsigned long long>(result.failed),
          static_cast<unsigned long long>(result.attempted)));
  if (result.failed > 0) result.correct = false;
  return result;
}

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace perfbench
