// Differential fuzzing driver — the correctness gate every PR runs.
//
// Draws seeded random (schema, graph, query) scenarios, answers each query
// with every strategy, and checks the oracle protocol (Sat is ground truth;
// complete strategies match bit-for-bit; incomplete Ref is a subset) plus
// the metamorphic relations (thread-count / deadline invariance, projecting
// head variables away, federation graph-partition equivalence, insertion
// monotonicity, DRed consistency).
// On divergence the case is greedily shrunk and emitted as a compilable
// gtest snippet plus a replayable seed file.
//
// Usage:
//   fuzz_driver --seeds 0..500            # fuzz a seed range (inclusive)
//   fuzz_driver --seeds 200               # 0..200
//   fuzz_driver --replay repro.seed       # re-run one recorded case
//   fuzz_driver --inject-bug --seeds 50   # harness self-test: a synthetic
//                                         #   evaluator bug MUST be caught
//   --trials N        queries per seed (default 4)
//   --no-metamorphic  oracle only
//   --no-federation   skip the federation partition relation
//   --no-updates      skip insert/delete relations
//   --no-encoded      skip the hierarchy-encoding equivalence relation
//   --check-encoded   ONLY the hierarchy-encoding relation: interval
//                     reformulation vs the classic UCQ it fuses, at load,
//                     after a schema insert, and across Reencode(); a
//                     classic UCQ over its max_cqs budget is a reference
//                     refusal (counted in the summary line), not a
//                     divergence, and the interval answers are still
//                     checked against saturation
//   --no-cached       skip the view-cache equivalence relation
//   --check-cached    ONLY the view-cache relation: cache-mediated
//                     evaluation (fill then replay, whole unions and JUCQ
//                     fragments) vs cold evaluation, bit-for-bit, across
//                     load/update/compact phases
//   --no-shrink       report the unshrunk failing case
//   --scenario NAME   graph source: random (default) or sp2b (the
//                     SP2Bench-style bibliographic generator — deep
//                     hierarchies, cyclic Zipf-skewed citations)
//   --updates-concurrent
//                     ONLY the threaded snapshot relation: a churning
//                     writer (with background compaction) races reader
//                     threads whose pinned epochs must answer bit-
//                     identically to from-scratch evaluation — both
//                     directly and through the shared view cache;
//                     divergences are reported unshrunk (timing-dependent)
//   --out PATH        write the shrunken repro test here (default
//                     fuzz_repro.cc next to the seed file fuzz_repro.seed)
//
// Exit code 0 = no divergence; 1 = divergence (artifacts written); 2 = bad
// usage. With --inject-bug the meaning inverts: 0 = the injected bug was
// caught AND shrunk small (the harness works), 1 = it slipped through.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "testing/fuzz.h"

namespace {

using rdfref::testing::FuzzFailure;
using rdfref::testing::FuzzOptions;
using rdfref::testing::FuzzReport;

bool ParseSeedRange(const std::string& arg, uint64_t* begin, uint64_t* end) {
  size_t dots = arg.find("..");
  char* parse_end = nullptr;
  if (dots == std::string::npos) {
    *begin = 0;
    *end = std::strtoull(arg.c_str(), &parse_end, 10);
    return parse_end && *parse_end == '\0';
  }
  // Keep the substrings alive past the *parse_end checks (a temporary's
  // c_str() would dangle by then).
  const std::string head = arg.substr(0, dots);
  const std::string tail = arg.substr(dots + 2);
  *begin = std::strtoull(head.c_str(), &parse_end, 10);
  if (!parse_end || *parse_end != '\0') return false;
  *end = std::strtoull(tail.c_str(), &parse_end, 10);
  return parse_end && *parse_end == '\0' && *begin <= *end;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

void PrintFailure(const FuzzFailure& failure) {
  std::fprintf(stderr,
               "DIVERGENCE seed=%llu trial=%d relation=%s\n%s\n"
               "shrunk to %zu triple(s) (%zu schema + %zu data), "
               "%zu query atom(s) in %d round(s), %d evaluation(s)%s\n",
               static_cast<unsigned long long>(failure.seed), failure.trial,
               failure.relation.c_str(), failure.detail.c_str(),
               failure.shrunk.triples(), failure.shrunk.schema_triples.size(),
               failure.shrunk.data_triples.size(),
               failure.shrunk.query.body().size(), failure.shrunk.rounds,
               failure.shrunk.evaluations,
               failure.shrunk.truncated ? " (stopped at its budget)" : "");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed_begin = 0, seed_end = 100;
  bool inject_bug = false;
  bool have_replay = false;
  std::string replay_path;
  std::string out_path = "fuzz_repro.cc";
  FuzzOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds") {
      const char* v = next();
      if (!v || !ParseSeedRange(v, &seed_begin, &seed_end)) {
        std::fprintf(stderr, "bad --seeds (want N or A..B)\n");
        return 2;
      }
    } else if (arg == "--trials") {
      const char* v = next();
      if (!v) return 2;
      options.trials_per_seed = std::atoi(v);
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return 2;
      have_replay = true;
      replay_path = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return 2;
      out_path = v;
    } else if (arg == "--inject-bug") {
      inject_bug = true;
    } else if (arg == "--no-metamorphic") {
      options.check_metamorphic = false;
    } else if (arg == "--no-federation") {
      options.check_federation = false;
    } else if (arg == "--no-updates") {
      options.check_updates = false;
    } else if (arg == "--no-encoded") {
      options.check_encoded = false;
    } else if (arg == "--no-cached") {
      options.check_cached = false;
    } else if (arg == "--check-encoded") {
      // Focused mode: every cycle goes to the encoding-equivalence relation.
      options.check_oracle = false;
      options.check_columnar = false;
      options.check_metamorphic = false;
      options.check_federation = false;
      options.check_updates = false;
      options.check_snapshots = false;
      options.check_cached = false;
      options.check_encoded = true;
    } else if (arg == "--check-cached") {
      // Focused mode: every cycle goes to the view-cache relation.
      options.check_oracle = false;
      options.check_columnar = false;
      options.check_metamorphic = false;
      options.check_federation = false;
      options.check_updates = false;
      options.check_snapshots = false;
      options.check_encoded = false;
      options.check_cached = true;
    } else if (arg == "--updates-concurrent") {
      // Focused mode: every cycle goes to the threaded relations (the
      // snapshot one, then the view-cache one).
      options.check_oracle = false;
      options.check_columnar = false;
      options.check_metamorphic = false;
      options.check_federation = false;
      options.check_updates = false;
      options.check_snapshots = false;
      options.check_encoded = false;
      options.check_cached = false;
      options.check_concurrent = true;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (!v) return 2;
      const std::string name = v;
      if (name == "random") {
        options.scenario.source = rdfref::testing::ScenarioSource::kRandom;
      } else if (name == "sp2b") {
        options.scenario.source = rdfref::testing::ScenarioSource::kSp2b;
      } else {
        std::fprintf(stderr, "unknown --scenario %s (random|sp2b)\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  if (inject_bug) {
    // The mutation check: silently drop one row from Ref-SCQ's answers.
    // This models a real evaluator bug class (a lost tuple); the oracle
    // must flag it and the shrinker must reduce it to a tiny repro.
    options.mutate = [](rdfref::api::Strategy s, rdfref::engine::Table* t) {
      if (s == rdfref::api::Strategy::kRefScq && !t->empty()) {
        t->RemoveLastRow();
      }
    };
  }

  FuzzReport report;
  if (have_replay) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    rdfref::testing::SeedFileEntry entry;
    if (!rdfref::testing::ParseSeedFile(buffer.str(), &entry)) {
      std::fprintf(stderr, "malformed seed file %s\n", replay_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "replaying seed=%llu trial=%d (%s)\n",
                 static_cast<unsigned long long>(entry.seed), entry.trial,
                 entry.relation.c_str());
    rdfref::testing::RunFuzzSeed(entry.seed, options, &report);
  } else {
    report = rdfref::testing::RunFuzz(seed_begin, seed_end, options);
  }

  std::fprintf(stderr,
               "fuzz: %llu seed(s), %llu quer%s, %llu check(s), "
               "%llu classic-reference refusal(s), %zu divergence(s)\n",
               static_cast<unsigned long long>(report.seeds_run),
               static_cast<unsigned long long>(report.queries_checked),
               report.queries_checked == 1 ? "y" : "ies",
               static_cast<unsigned long long>(report.checks_run),
               static_cast<unsigned long long>(report.classic_refusals),
               report.failures.size());

  if (!report.failures.empty()) {
    const FuzzFailure& failure = report.failures.front();
    PrintFailure(failure);
    std::string seed_path = out_path;
    size_t dot = seed_path.rfind(".cc");
    seed_path = (dot == std::string::npos ? seed_path
                                          : seed_path.substr(0, dot)) +
                ".seed";
    if (!WriteFile(out_path, failure.repro_cc) ||
        !WriteFile(seed_path, failure.seed_file)) {
      std::fprintf(stderr, "warning: could not write repro artifacts\n");
    } else {
      std::fprintf(stderr, "repro test:  %s\nseed file:   %s\n",
                   out_path.c_str(), seed_path.c_str());
    }
  }

  if (inject_bug) {
    if (report.failures.empty()) {
      std::fprintf(stderr,
                   "MUTATION CHECK FAILED: injected bug was not caught\n");
      return 1;
    }
    const FuzzFailure& failure = report.failures.front();
    const bool small = failure.shrunk.triples() <= 10 &&
                       failure.shrunk.query.body().size() <= 3;
    if (!options.shrink) {
      std::fprintf(stderr, "mutation check: caught (shrinking disabled)\n");
      return 0;
    }
    if (!small) {
      std::fprintf(stderr,
                   "MUTATION CHECK FAILED: repro not minimal "
                   "(%zu triples, %zu atoms)\n",
                   failure.shrunk.triples(),
                   failure.shrunk.query.body().size());
      return 1;
    }
    std::fprintf(stderr,
                 "mutation check: injected bug caught and shrunk to "
                 "%zu triple(s), %zu atom(s)\n",
                 failure.shrunk.triples(),
                 failure.shrunk.query.body().size());
    return 0;
  }
  return report.failures.empty() ? 0 : 1;
}
