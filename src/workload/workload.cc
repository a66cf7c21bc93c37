#include "workload/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/synchronization.h"
#include "common/timer.h"
#include "query/sparql_parser.h"
#include "storage/version_set.h"

namespace rdfref {
namespace workload {

namespace {

constexpr const char* kSpPrefix = "PREFIX sp: <http://rdfref.org/sp2b#>\n";

bool IsRefStrategy(api::Strategy s) {
  switch (s) {
    case api::Strategy::kRefUcq:
    case api::Strategy::kRefScq:
    case api::Strategy::kRefJucq:
    case api::Strategy::kRefGcov:
    case api::Strategy::kRefIncomplete:
      return true;
    case api::Strategy::kSaturation:
    case api::Strategy::kDatalog:
      return false;
  }
  return false;
}

double ToMillis(uint64_t micros) { return static_cast<double>(micros) / 1e3; }

}  // namespace

MixSampler::MixSampler(const WorkloadMix* mix) : mix_(mix) {
  cumulative_.reserve(mix->queries.size());
  double total = 0.0;
  for (const WorkloadQuery& q : mix->queries) {
    total += q.weight > 0.0 ? q.weight : 0.0;
    cumulative_.push_back(total);
  }
}

size_t MixSampler::Sample(Rng* rng) const {
  const double u = rng->UniformDouble() * cumulative_.back();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  if (it == cumulative_.end()) --it;
  // Skip zero-weight entries lower_bound may land on (flat cumulative).
  size_t i = static_cast<size_t>(it - cumulative_.begin());
  while (i + 1 < cumulative_.size() && mix_->queries[i].weight <= 0.0) ++i;
  return i;
}

std::unique_ptr<api::QueryAnswerer> MakeSp2bAnswerer(double scale,
                                                     uint64_t seed) {
  datagen::Sp2bConfig config;
  config.scale = scale;
  config.seed = seed;
  rdf::Graph graph;
  datagen::Sp2b::Generate(config, &graph);
  return std::make_unique<api::QueryAnswerer>(std::move(graph));
}

Result<WorkloadMix> Sp2bQueryMix(api::QueryAnswerer* answerer) {
  struct Spec {
    const char* name;
    std::string body;
    double weight;
    std::vector<std::vector<int>> cover;  // empty = single fragment
  };
  const std::string classic = datagen::Sp2b::DocumentUri(0);
  const std::vector<Spec> specs = {
      // Zipf-skewed point lookup: who cites the most-cited classic? The
      // cites subtree (extends/refutes/reproduces) forces reformulation.
      {"P1-classic-citers",
       "SELECT ?x WHERE { ?x sp:cites <" + classic + "> . }", 30, {}},
      // Deep-hierarchy scan: Publication has 20 subclasses, depth 8.
      {"T2-publications", "SELECT ?d WHERE { ?d a sp:Publication . }", 15,
       {}},
      // Venue join with a type atom on the Event subtree.
      {"V3-event-papers",
       "SELECT ?d ?v WHERE { ?d sp:publishedIn ?v . ?v a sp:Event . }", 20,
       {{0}, {1}}},
      // High-fanout star on one document variable.
      {"S4-doc-star",
       "SELECT ?d ?p ?v ?o WHERE { ?d a sp:Article . "
       "?d sp:hasContributor ?p . ?d sp:publishedIn ?v . "
       "?d sp:references ?o . }",
       8, {{0, 1}, {0, 2}, {0, 3}}},
      // Long chain: author -> paper -> cited -> cited -> venue.
      {"C5-citation-chain",
       "SELECT ?a ?x ?y ?v WHERE { ?w sp:hasFirstAuthor ?a . "
       "?w sp:cites ?x . ?x sp:cites ?y . ?y sp:publishedIn ?v . }",
       8, {{0, 1}, {1, 2}, {2, 3}}},
      // Cyclic join: mutual citations (LUBM's DAG shapes never cycle).
      {"Y6-mutual-citations",
       "SELECT ?x ?y WHERE { ?x sp:cites ?y . ?y sp:cites ?x . }", 9,
       {{0}, {1}}},
      // Triangle: co-authorship closed by a citation edge.
      {"A7-coauthor-cites",
       "SELECT ?x ?y ?p WHERE { ?x sp:hasAuthor ?p . ?y sp:hasAuthor ?p . "
       "?x sp:cites ?y . }",
       10, {{0, 2}, {1, 2}}},
  };

  WorkloadMix mix;
  for (const Spec& spec : specs) {
    RDFREF_ASSIGN_OR_RETURN(
        query::Cq cq,
        query::ParseSparql(kSpPrefix + spec.body, &answerer->dict()));
    WorkloadQuery wq;
    wq.name = spec.name;
    wq.weight = spec.weight;
    wq.cover = spec.cover.empty()
                   ? query::Cover::SingleFragment(cq.body().size())
                   : query::Cover(spec.cover);
    RDFREF_RETURN_NOT_OK(wq.cover.Validate(cq));
    wq.cq = std::move(cq);
    mix.queries.push_back(std::move(wq));
  }
  return mix;
}

Result<WorkloadReport> RunClosedLoop(api::QueryAnswerer* answerer,
                                     const WorkloadMix& mix,
                                     const DriverOptions& options) {
  if (mix.queries.empty()) {
    return Status::InvalidArgument("empty workload mix");
  }
  if (options.clients < 1) {
    return Status::InvalidArgument("need at least one client");
  }
  if (options.ops_per_client <= 0 && options.duration_ms <= 0.0) {
    return Status::InvalidArgument("need ops_per_client or duration_ms");
  }
  if (options.concurrent_writer && !IsRefStrategy(options.strategy)) {
    return Status::InvalidArgument(
        "concurrent writer requires a Ref strategy: Sat/Dat lazy state is "
        "not synchronized against updates");
  }
  if (options.strategy == api::Strategy::kDatalog && options.clients > 1) {
    return Status::InvalidArgument(
        "kDatalog evaluation is single-threaded; use clients=1");
  }

  if (options.view_cache && !IsRefStrategy(options.strategy)) {
    return Status::InvalidArgument(
        "the view cache serves the Ref strategies only");
  }

  const size_t num_queries = mix.queries.size();
  // Per-query AnswerOptions, fixed for the whole run: the JUCQ strategy
  // takes each query's cover, everything else carries only the thread knob.
  std::vector<api::AnswerOptions> per_query(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    per_query[i].threads = options.eval_threads;
    // Off-knob runs must stay cold even when the caller's answerer already
    // carries an enabled (and warm) cache — e.g. the cold leg of a sweep.
    per_query[i].use_view_cache = options.view_cache;
    if (options.strategy == api::Strategy::kRefJucq) {
      per_query[i].cover =
          mix.queries[i].cover.num_fragments() > 0
              ? mix.queries[i].cover
              : query::Cover::SingleFragment(mix.queries[i].cq.body().size());
    }
  }

  // View-cache setup happens before warm-up: the warm-up pass then doubles
  // as the cache fill, and the measured window reports steady-state rates.
  // (optimizer:: types arrive through api/query_answering.h — the workload
  // layer deliberately has no direct optimizer dependency.)
  std::vector<std::string> selected_views;
  if (options.view_cache) {
    answerer->EnableViewCache();
    if (options.view_selection) {
      std::vector<optimizer::WorkloadQueryProfile> profiles;
      profiles.reserve(num_queries);
      for (const WorkloadQuery& wq : mix.queries) {
        optimizer::WorkloadQueryProfile p;
        p.cq = wq.cq;
        p.weight = wq.weight;
        if (wq.cover.num_fragments() > 0 && wq.cover.Validate(wq.cq).ok()) {
          p.covers.push_back(wq.cover);
        }
        profiles.push_back(std::move(p));
      }
      RDFREF_ASSIGN_OR_RETURN(optimizer::ViewSelectionResult selection,
                              answerer->SelectViews(profiles));
      selected_views = std::move(selection.chosen_keys);
    }
  }

  // Warm-up pass, single-threaded, before the clock: builds lazy strategy
  // state (saturation store, Datalog program) and surfaces per-query
  // errors (bad covers, unsafe queries) deterministically instead of as
  // mid-run error counts.
  for (size_t i = 0; i < num_queries; ++i) {
    RDFREF_ASSIGN_OR_RETURN(
        engine::Table warm,
        answerer->Answer(mix.queries[i].cq, options.strategy, nullptr,
                         per_query[i]));
    (void)warm;
  }
  // Counter baseline at the warm/measured boundary: the report's deltas
  // then describe steady-state behaviour, not the initial fill.
  const engine::ViewCacheStats cache_baseline = answerer->view_cache_stats();

  // Pre-interned churn triples over a workload-only property: the writer
  // thread must never touch the (unsynchronized) dictionary. The property
  // appears in no schema constraint and no mix query, so churn shifts the
  // version set's shape — head fills, runs seal, compaction races — without
  // changing any answer.
  std::vector<rdf::Triple> churn;
  if (options.concurrent_writer) {
    rdf::Dictionary& dict = answerer->dict();
    const rdf::TermId touches =
        dict.InternUri("http://rdfref.org/workload#churn");
    const int batch = std::max(options.writer_batch, 1);
    churn.reserve(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      churn.emplace_back(
          dict.InternUri("http://rdfref.org/workload#s" +
                         std::to_string(i % 128)),
          touches,
          dict.InternUri("http://rdfref.org/workload#o" + std::to_string(i)));
    }
  }

  // Shared lock-free measurement state.
  LatencyHistogram global_hist;
  std::vector<std::unique_ptr<LatencyHistogram>> query_hists;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> query_counts;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> query_rows;
  for (size_t i = 0; i < num_queries; ++i) {
    query_hists.push_back(std::make_unique<LatencyHistogram>());
    query_counts.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    query_rows.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> writer_ops{0};
  std::atomic<bool> stop{false};

  // Independent per-client streams: client c's draw sequence depends only
  // on (seed, c), never on how fast the other clients run.
  Rng root(options.seed);
  std::vector<Rng> client_rngs;
  client_rngs.reserve(static_cast<size_t>(options.clients));
  for (int c = 0; c < options.clients; ++c) {
    client_rngs.push_back(root.Split());
  }
  Rng writer_rng = root.Split();

  storage::VersionSet& versions = answerer->versions();
  if (options.concurrent_writer) {
    storage::VersionSetOptions maintenance;
    maintenance.freeze_threshold = 256;
    maintenance.compact_min_runs = 3;
    versions.StartBackgroundCompaction(maintenance);
  }

  Timer wall;
  std::thread writer;
  // Clients start only once the writer's first write has landed, so every
  // concurrent-writer run overlaps reads with writes, however fast the
  // clients finish their ops.
  common::Notification first_write;
  if (options.concurrent_writer) {
    writer = std::thread([&] {
      // Insert the churn set, drain it, repeat — the head keeps crossing
      // the freeze threshold and compaction keeps firing.
      // `stop` stays false until the clients, which wait for the first
      // write, are done.
      bool notified = false;
      while (!stop.load(std::memory_order_relaxed)) {
        for (const rdf::Triple& t : churn) {
          if (stop.load(std::memory_order_relaxed)) return;
          versions.Insert(t);
          writer_ops.fetch_add(1, std::memory_order_relaxed);
          if (!notified) {
            first_write.Notify();
            notified = true;
          }
        }
        for (const rdf::Triple& t : churn) {
          if (stop.load(std::memory_order_relaxed)) return;
          versions.Remove(t);
          writer_ops.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  if (options.concurrent_writer) first_write.WaitForNotification();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(options.clients));
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng = client_rngs[static_cast<size_t>(c)];
      MixSampler sampler(&mix);
      int done = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (options.ops_per_client > 0 && done >= options.ops_per_client) {
          break;
        }
        const size_t qi = sampler.Sample(&rng);
        Timer timer;
        Result<engine::Table> answer = answerer->Answer(
            mix.queries[qi].cq, options.strategy, nullptr, per_query[qi]);
        const uint64_t micros = static_cast<uint64_t>(timer.ElapsedMicros());
        if (answer.ok()) {
          global_hist.Record(micros);
          query_hists[qi]->Record(micros);
          query_counts[qi]->fetch_add(1, std::memory_order_relaxed);
          query_rows[qi]->fetch_add(answer->NumRows(),
                                    std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        ++done;
      }
    });
  }

  if (options.ops_per_client <= 0) {
    // Duration mode: sleep in slices so shutdown stays prompt.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(
            static_cast<int64_t>(options.duration_ms * 1000.0));
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  if (writer.joinable()) writer.join();
  const double wall_ms = wall.ElapsedMillis();

  if (options.concurrent_writer) {
    versions.StopBackgroundCompaction();
    // Leave the store exactly as found: drain any half-inserted wave.
    for (const rdf::Triple& t : churn) {
      if (versions.Contains(t)) versions.Remove(t);
    }
  }
  (void)writer_rng;  // reserved for randomized churn orders

  WorkloadReport report;
  report.wall_ms = wall_ms;
  report.errors = errors.load();
  report.writer_ops = writer_ops.load();
  report.total_queries = global_hist.TotalCount();
  report.throughput_qps =
      wall_ms > 0.0
          ? static_cast<double>(report.total_queries) / (wall_ms / 1e3)
          : 0.0;
  report.p50_ms = ToMillis(global_hist.Percentile(50));
  report.p95_ms = ToMillis(global_hist.Percentile(95));
  report.p99_ms = ToMillis(global_hist.Percentile(99));
  for (size_t i = 0; i < num_queries; ++i) {
    QueryStats stats;
    stats.name = mix.queries[i].name;
    stats.count = query_counts[i]->load();
    stats.rows = query_rows[i]->load();
    stats.p50_ms = ToMillis(query_hists[i]->Percentile(50));
    stats.p95_ms = ToMillis(query_hists[i]->Percentile(95));
    stats.p99_ms = ToMillis(query_hists[i]->Percentile(99));
    report.total_rows += stats.rows;
    report.per_query.push_back(std::move(stats));
  }
  if (options.view_cache) {
    const engine::ViewCacheStats end = answerer->view_cache_stats();
    report.view_cache = true;
    report.cache_hits = end.hits - cache_baseline.hits;
    report.cache_misses = end.misses - cache_baseline.misses;
    report.cache_installs = end.installs - cache_baseline.installs;
    report.cache_evictions = end.evictions - cache_baseline.evictions;
    report.cache_invalidations =
        end.invalidations - cache_baseline.invalidations;
    const uint64_t probes = report.cache_hits + report.cache_misses;
    report.cache_hit_rate =
        probes > 0 ? static_cast<double>(report.cache_hits) /
                         static_cast<double>(probes)
                   : 0.0;
    report.cache_bytes = end.bytes;
    report.cache_entries = end.entries;
    report.selected_views = std::move(selected_views);
  }
  return report;
}

}  // namespace workload
}  // namespace rdfref
