// Macro-benchmark CLI: runs the sp2b closed-loop workload over a sweep of
// (strategy, client count, writer on/off) configurations against one shared
// QueryAnswerer and emits an "rdfref-workload/1" JSON document.
//
//   workload_driver --scale 0.5 --clients 1,4,16 --strategies REF-UCQ,REF-JUCQ
//       --duration-ms 500 --writer-sweep --json macro.json
//
// CI's perf-smoke job runs a pinned sweep; speed claims cite the benchmark
// of record, perfbench/run.py.
//
// --require-progress makes the process exit nonzero unless every
// configuration completed queries without errors — the CI smoke contract.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workload/workload.h"

namespace {

using rdfref::Result;
using rdfref::api::Strategy;
using rdfref::workload::DriverOptions;
using rdfref::workload::WorkloadMix;
using rdfref::workload::WorkloadReport;

struct Flags {
  double scale = 0.25;
  uint64_t seed = 1;
  std::vector<int> clients = {1, 4, 16};
  std::vector<Strategy> strategies = {Strategy::kRefUcq, Strategy::kRefJucq};
  double duration_ms = 500;
  int ops_per_client = 0;  // 0 = duration mode
  int writer_mode = 2;     // 0 = off, 1 = on, 2 = sweep both
  int cache_mode = 0;      // 0 = off, 1 = on, 2 = sweep both
  bool view_selection = true;
  std::string json_path;
  bool require_progress = false;
  bool require_cache_hits = false;
};

bool ParseStrategy(const std::string& name, Strategy* out) {
  const struct {
    const char* name;
    Strategy s;
  } kTable[] = {
      {"SAT", Strategy::kSaturation},
      {"REF-UCQ", Strategy::kRefUcq},
      {"REF-SCQ", Strategy::kRefScq},
      {"REF-JUCQ", Strategy::kRefJucq},
      {"REF-GCOV", Strategy::kRefGcov},
      {"REF-INCOMPLETE", Strategy::kRefIncomplete},
      {"DATALOG", Strategy::kDatalog},
  };
  for (const auto& entry : kTable) {
    if (name == entry.name) {
      *out = entry.s;
      return true;
    }
  }
  return false;
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

int Usage() {
  std::cerr
      << "usage: workload_driver [--scale F] [--seed N] [--clients A,B,C]\n"
         "         [--strategies REF-UCQ,REF-JUCQ,...] [--duration-ms F]\n"
         "         [--ops N] [--writer | --no-writer | --writer-sweep]\n"
         "         [--view-cache | --no-view-cache | --view-cache-sweep]\n"
         "         [--no-view-selection] [--require-cache-hits]\n"
         "         [--json PATH] [--require-progress]\n";
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::stod(argv[++i]);
      return true;
    };
    if (arg == "--scale") {
      if (!next(&flags->scale)) return false;
    } else if (arg == "--seed") {
      double v;
      if (!next(&v)) return false;
      flags->seed = static_cast<uint64_t>(v);
    } else if (arg == "--clients") {
      if (i + 1 >= argc) return false;
      flags->clients.clear();
      for (const std::string& part : SplitCsv(argv[++i])) {
        flags->clients.push_back(std::stoi(part));
      }
      if (flags->clients.empty()) return false;
    } else if (arg == "--strategies") {
      if (i + 1 >= argc) return false;
      flags->strategies.clear();
      for (const std::string& part : SplitCsv(argv[++i])) {
        Strategy s;
        if (!ParseStrategy(part, &s)) {
          std::cerr << "unknown strategy: " << part << "\n";
          return false;
        }
        flags->strategies.push_back(s);
      }
      if (flags->strategies.empty()) return false;
    } else if (arg == "--duration-ms") {
      if (!next(&flags->duration_ms)) return false;
    } else if (arg == "--ops") {
      double v;
      if (!next(&v)) return false;
      flags->ops_per_client = static_cast<int>(v);
    } else if (arg == "--writer") {
      flags->writer_mode = 1;
    } else if (arg == "--no-writer") {
      flags->writer_mode = 0;
    } else if (arg == "--writer-sweep") {
      flags->writer_mode = 2;
    } else if (arg == "--view-cache") {
      flags->cache_mode = 1;
    } else if (arg == "--no-view-cache") {
      flags->cache_mode = 0;
    } else if (arg == "--view-cache-sweep") {
      flags->cache_mode = 2;
    } else if (arg == "--no-view-selection") {
      flags->view_selection = false;
    } else if (arg == "--require-cache-hits") {
      flags->require_cache_hits = true;
    } else if (arg == "--json") {
      if (i + 1 >= argc) return false;
      flags->json_path = argv[++i];
    } else if (arg == "--require-progress") {
      flags->require_progress = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";  // canonical view keys separate atoms with newlines
    } else {
      out += c;
    }
  }
  return out;
}

struct RunRecord {
  Strategy strategy;
  int clients;
  bool writer;
  bool cache;
  WorkloadReport report;
};

void WriteJson(std::ostream& os, const Flags& flags,
               const std::vector<RunRecord>& runs) {
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return std::string(buf);
  };
  os << "{\n  \"schema\": \"rdfref-workload/1\",\n"
     << "  \"scenario\": \"sp2b\",\n"
     << "  \"scale\": " << num(flags.scale) << ",\n"
     << "  \"seed\": " << flags.seed << ",\n"
     << "  \"duration_ms\": " << num(flags.duration_ms) << ",\n"
     << "  \"ops_per_client\": " << flags.ops_per_client << ",\n"
     << "  \"host_threads\": " << std::thread::hardware_concurrency()
     << ",\n  \"results\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    const WorkloadReport& rep = r.report;
    os << "    {\"strategy\": \"" << rdfref::api::StrategyName(r.strategy)
       << "\", \"clients\": " << r.clients
       << ", \"writer\": " << (r.writer ? "true" : "false")
       << ", \"queries\": " << rep.total_queries
       << ", \"rows\": " << rep.total_rows
       << ", \"errors\": " << rep.errors
       << ", \"writer_ops\": " << rep.writer_ops
       << ", \"wall_ms\": " << num(rep.wall_ms)
       << ", \"qps\": " << num(rep.throughput_qps)
       << ", \"p50_ms\": " << num(rep.p50_ms)
       << ", \"p95_ms\": " << num(rep.p95_ms)
       << ", \"p99_ms\": " << num(rep.p99_ms)
       << ",\n     \"view_cache\": " << (r.cache ? "true" : "false")
       << ", \"cache_hits\": " << rep.cache_hits
       << ", \"cache_misses\": " << rep.cache_misses
       << ", \"cache_hit_rate\": " << num(rep.cache_hit_rate)
       << ", \"cache_installs\": " << rep.cache_installs
       << ", \"cache_evictions\": " << rep.cache_evictions
       << ", \"cache_invalidations\": " << rep.cache_invalidations
       << ", \"cache_bytes\": " << rep.cache_bytes
       << ", \"cache_entries\": " << rep.cache_entries
       << ",\n     \"selected_views\": [";
    for (size_t v = 0; v < rep.selected_views.size(); ++v) {
      if (v) os << ", ";
      os << "\"" << JsonEscape(rep.selected_views[v]) << "\"";
    }
    os << "],\n     \"per_query\": [";
    for (size_t q = 0; q < rep.per_query.size(); ++q) {
      const auto& stats = rep.per_query[q];
      if (q) os << ", ";
      os << "{\"name\": \"" << JsonEscape(stats.name)
         << "\", \"count\": " << stats.count << ", \"rows\": " << stats.rows
         << ", \"p50_ms\": " << num(stats.p50_ms)
         << ", \"p95_ms\": " << num(stats.p95_ms)
         << ", \"p99_ms\": " << num(stats.p99_ms) << "}";
    }
    os << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();

  std::cerr << "generating sp2b graph (scale " << flags.scale << ")...\n";
  auto answerer = rdfref::workload::MakeSp2bAnswerer(flags.scale);
  Result<WorkloadMix> mix = rdfref::workload::Sp2bQueryMix(answerer.get());
  if (!mix.ok()) {
    std::cerr << "query mix failed: " << mix.status().ToString() << "\n";
    return 1;
  }

  std::vector<bool> writer_settings;
  if (flags.writer_mode == 0) writer_settings = {false};
  if (flags.writer_mode == 1) writer_settings = {true};
  if (flags.writer_mode == 2) writer_settings = {false, true};
  std::vector<bool> cache_settings;
  if (flags.cache_mode == 0) cache_settings = {false};
  if (flags.cache_mode == 1) cache_settings = {true};
  if (flags.cache_mode == 2) cache_settings = {false, true};

  std::vector<RunRecord> runs;
  bool ok = true;
  for (Strategy strategy : flags.strategies) {
    for (int clients : flags.clients) {
      for (bool writer : writer_settings) {
        if (writer && (strategy == Strategy::kSaturation ||
                       strategy == Strategy::kDatalog)) {
          continue;  // lazy strategy state is not update-safe; skip quietly
        }
        if (strategy == Strategy::kDatalog && clients > 1) continue;
        for (bool cache : cache_settings) {
          if (cache && (strategy == Strategy::kSaturation ||
                        strategy == Strategy::kDatalog)) {
            continue;  // the view cache serves the Ref strategies only
          }
          DriverOptions options;
          options.strategy = strategy;
          options.clients = clients;
          options.seed = flags.seed;
          options.ops_per_client = flags.ops_per_client;
          options.duration_ms = flags.duration_ms;
          options.concurrent_writer = writer;
          options.view_cache = cache;
          options.view_selection = flags.view_selection;
          Result<WorkloadReport> report =
              rdfref::workload::RunClosedLoop(answerer.get(), *mix, options);
          if (!report.ok()) {
            std::cerr << rdfref::api::StrategyName(strategy) << " x" << clients
                      << (writer ? " +writer" : "") << (cache ? " +cache" : "")
                      << " failed: " << report.status().ToString() << "\n";
            ok = false;
            continue;
          }
          std::cerr << rdfref::api::StrategyName(strategy) << " x" << clients
                    << (writer ? " +writer" : "") << (cache ? " +cache" : "")
                    << ": " << report->total_queries << " queries, "
                    << static_cast<int>(report->throughput_qps)
                    << " qps, p50 " << report->p50_ms << " ms, p99 "
                    << report->p99_ms << " ms, errors " << report->errors;
          if (cache) {
            std::cerr << ", hit-rate " << report->cache_hit_rate
                      << " (" << report->cache_hits << "/"
                      << (report->cache_hits + report->cache_misses) << ")";
          }
          std::cerr << "\n";
          if (report->total_queries == 0 || report->errors != 0) ok = false;
          if (cache && flags.require_cache_hits && report->cache_hits == 0) {
            std::cerr << "FAIL: cache-on run recorded zero hits\n";
            ok = false;
          }
          runs.push_back({strategy, clients, writer, cache,
                          std::move(*report)});
        }
      }
    }
  }

  if (!flags.json_path.empty()) {
    std::ofstream out(flags.json_path);
    if (!out) {
      std::cerr << "cannot open " << flags.json_path << "\n";
      return 1;
    }
    WriteJson(out, flags, runs);
    std::cerr << "wrote " << flags.json_path << "\n";
  } else {
    WriteJson(std::cout, flags, runs);
  }

  if (flags.require_progress && !ok) {
    std::cerr << "FAIL: some configuration made no progress or errored\n";
    return 1;
  }
  return 0;
}
