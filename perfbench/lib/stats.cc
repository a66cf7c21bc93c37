#include "stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <string>

#include "common/hash.h"

namespace perfbench {

std::optional<Percentile> NearestRank(const std::vector<double>& sorted,
                                      int percent) {
  const size_t n = sorted.size();
  if (n == 0 || percent <= 0 || percent >= 100) return std::nullopt;
  const size_t p = static_cast<size_t>(percent);
  const size_t rank = (p * n + 99) / 100;  // ceil(p·n/100), >= 1
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  return Percentile{sorted[rank - 1], rank, n, n - rank};
}

AnswerDigest Digest(const rdfref::engine::Table& table) {
  AnswerDigest d;
  d.rows = table.NumRows();
  size_t exact = rdfref::HashCombine(0x9ae16a3b2f90404fULL, table.arity());
  for (rdfref::query::VarId c : table.columns) {
    exact = rdfref::HashCombine(exact, c);
  }
  exact = rdfref::HashCombine(exact, d.rows);
  for (size_t i = 0; i < d.rows; ++i) {
    size_t row = 0x51ed270bULL;
    for (rdfref::rdf::TermId v : table.row(i)) {
      row = rdfref::HashCombine(row, v);
      exact = rdfref::HashCombine(exact, v);
    }
    d.set_sum += rdfref::HashCombine(row, table.arity());
  }
  d.exact = exact;
  return d;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t MinorFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return 0.0;
  }
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
