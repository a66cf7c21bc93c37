// Command-line query answering over an RDF file — the library as a tool.
//
//   ./rdfref_cli DATA.ttl QUERY.rq [--strategy=sat|ucq|scq|gcov|incomplete|datalog]
//                                  [--explain] [--stats] [--max-rows=N]
//
// DATA.ttl holds triples (constraints included) in the Turtle subset;
// QUERY.rq holds one SELECT ... WHERE { ... } conjunctive query.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "api/query_answering.h"
#include "query/sparql_parser.h"
#include "rdf/parser.h"
#include "storage/serialize.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s DATA.ttl|DATA.rdfb QUERY.rq "
      "[--strategy=sat|ucq|scq|gcov|incomplete|datalog] [--explain] "
      "[--stats] [--max-rows=N] [--save-binary=OUT.rdfb]\n",
      argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream contents;
  contents << in.rdbuf();
  *out = contents.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using rdfref::api::AnswerProfile;
  using rdfref::api::QueryAnswerer;
  using rdfref::api::Strategy;
  using rdfref::api::StrategyName;

  if (argc < 3) return Usage(argv[0]);
  const std::string data_path = argv[1];
  const std::string query_path = argv[2];
  Strategy strategy = Strategy::kRefGcov;
  bool explain = false, stats = false;
  size_t max_rows = 20;
  std::string save_binary;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--strategy=", 0) == 0) {
      std::string name = arg.substr(11);
      if (name == "sat") {
        strategy = Strategy::kSaturation;
      } else if (name == "ucq") {
        strategy = Strategy::kRefUcq;
      } else if (name == "scq") {
        strategy = Strategy::kRefScq;
      } else if (name == "gcov") {
        strategy = Strategy::kRefGcov;
      } else if (name == "incomplete") {
        strategy = Strategy::kRefIncomplete;
      } else if (name == "datalog") {
        strategy = Strategy::kDatalog;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg.rfind("--max-rows=", 0) == 0) {
      max_rows = static_cast<size_t>(std::atoll(arg.c_str() + 11));
    } else if (arg.rfind("--save-binary=", 0) == 0) {
      save_binary = arg.substr(14);
    } else {
      return Usage(argv[0]);
    }
  }

  rdfref::rdf::Graph graph;
  const bool binary_input =
      data_path.size() > 5 &&
      data_path.compare(data_path.size() - 5, 5, ".rdfb") == 0;
  if (binary_input) {
    auto loaded = rdfref::storage::LoadGraph(data_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: %s\n", data_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(*loaded);
  } else {
    rdfref::Status st =
        rdfref::rdf::TurtleParser::ParseFile(data_path, &graph);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", data_path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }
  if (!save_binary.empty()) {
    rdfref::Status st = rdfref::storage::SaveGraph(graph, save_binary);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", save_binary.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", save_binary.c_str());
  }
  std::fprintf(stderr, "loaded %zu triples from %s\n", graph.size(),
               data_path.c_str());
  QueryAnswerer answerer(std::move(graph));
  if (stats) {
    std::printf("%s\n",
                answerer.ref_store().stats().Report(answerer.dict()).c_str());
  }

  std::string query_text;
  if (!ReadFile(query_path, &query_text)) {
    std::fprintf(stderr, "cannot read %s\n", query_path.c_str());
    return 1;
  }
  auto query = rdfref::query::ParseSparql(query_text, &answerer.dict());
  if (!query.ok()) {
    std::fprintf(stderr, "%s: %s\n", query_path.c_str(),
                 query.status().ToString().c_str());
    return 1;
  }

  if (explain) {
    rdfref::engine::Evaluator evaluator(&answerer.ref_store());
    std::printf("%s\n", evaluator.ExplainCq(*query).c_str());
  }

  AnswerProfile profile;
  auto table = answerer.Answer(*query, strategy, &profile);
  if (!table.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", StrategyName(strategy),
                 table.status().ToString().c_str());
    return 1;
  }
  table->Sort();
  std::printf("%s", table->ToString(answerer.dict(), max_rows).c_str());
  std::fprintf(stderr,
               "%s: %zu answer(s); prepare %.2f ms, eval %.2f ms, %llu "
               "reformulated CQ(s) of %llu before minimization%s%s\n",
               StrategyName(strategy), table->NumRows(),
               profile.prepare_millis, profile.eval_millis,
               static_cast<unsigned long long>(profile.reformulation_cqs),
               static_cast<unsigned long long>(profile.raw_cqs),
               strategy == Strategy::kRefGcov ? "; cover " : "",
               strategy == Strategy::kRefGcov
                   ? profile.cover.ToString().c_str()
                   : "");
  return 0;
}
