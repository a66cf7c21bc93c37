// The benchmark of record: one workload, one seed, one JSON line.
//
//   perfbench --workload lubm-mix|sp2b-rw --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--corrupt-expectation]
//
// Report lines start with '#'; the last line is the result object.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ops.h"
#include "runner.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lubm-mix|sp2b-rw --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--corrupt-expectation]\n",
               why);
  return 2;
}

// Shortest text that reads back as exactly `v`.
std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

bool ParseInt(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  long long seed = -1, seconds = -1, trace = -1;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-expectation") {
      options.corrupt_expectation = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      ok = ParseInt(value, &seed) && seed >= 0;
    } else if (arg == "--seconds") {
      ok = ParseInt(value, &seconds) && seconds >= 1;
    } else if (arg == "--trace") {
      ok = ParseInt(value, &trace) && (trace == 0 || trace == 1);
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (!ok) return Usage(("bad value for " + arg).c_str());
  }
  const auto workload = perfbench::ParseWorkload(workload_name);
  if (!workload.has_value()) return Usage("unknown or missing --workload");
  if (seed < 0 || seconds < 1 || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }

  const perfbench::WorkloadData data = perfbench::MakeWorkloadData(*workload);
  options.seed = static_cast<uint64_t>(seed);
  options.trace = trace == 1;
  options.decks = perfbench::DecksFor(data, static_cast<int>(seconds));
  const perfbench::RunResult result = perfbench::Run(data, options);

  std::printf("# workload %s, seed %llu, %zu decks of %zu ops, trace %d\n",
              perfbench::WorkloadName(*workload),
              static_cast<unsigned long long>(options.seed), options.decks,
              data.deck_size(), options.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct && result.complete && result.failed == 0 ? 0 : 1;
}
