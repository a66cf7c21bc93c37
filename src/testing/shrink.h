#ifndef RDFREF_TESTING_SHRINK_H_
#define RDFREF_TESTING_SHRINK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "query/cq.h"
#include "rdf/triple.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// \brief Re-runs the failing check on a candidate (scenario, query) pair;
/// returns true while the failure still reproduces. The predicate must be
/// deterministic — the shrinker trusts a single evaluation per candidate.
using FailurePredicate =
    std::function<bool(const Scenario& sc, const query::Cq& q)>;

/// \brief A minimized failing case plus its replay artifacts.
struct ShrinkResult {
  std::vector<rdf::Triple> schema_triples;
  std::vector<rdf::Triple> data_triples;
  query::Cq query;
  /// Fixpoint rounds and candidate evaluations the greedy pass used.
  int rounds = 0;
  int evaluations = 0;
  /// True when the pass stopped at its evaluation budget: the case still
  /// fails but may not be 1-minimal.
  bool truncated = false;
  size_t triples() const {
    return schema_triples.size() + data_triples.size();
  }
};

/// \brief Greedy delta-debugging: repeatedly try dropping each data triple,
/// each schema triple, and each query atom (rebuilding the head from the
/// remaining body variables), keeping any removal after which `fails` still
/// holds, until a fixpoint. The result is 1-minimal: removing any single
/// remaining element makes the failure vanish. A positive
/// `max_evaluations` stops the pass after that many candidate evaluations,
/// returning the smallest failing case found so far (marked truncated).
ShrinkResult Shrink(const Scenario& sc, const query::Cq& q,
                    const FailurePredicate& fails, int max_evaluations = 0);

/// \brief Renders the shrunken case as a self-contained gtest snippet
/// (compilable against the repo's public headers) that rebuilds the graph,
/// the query, and asserts all complete strategies agree.
std::string EmitReproTest(const Scenario& base, const ShrinkResult& shrunk,
                          const std::string& test_name,
                          const std::string& relation);

/// \brief Renders a replayable seed file: key/value lines the fuzz driver
/// parses back with ParseSeedFile to re-run the exact original case.
std::string EmitSeedFile(uint64_t seed, int trial,
                         const std::string& relation);

/// \brief Parsed seed file contents.
struct SeedFileEntry {
  uint64_t seed = 0;
  int trial = -1;  ///< -1 = run all trials of the seed
  std::string relation;
};

/// \brief Parses EmitSeedFile output; false on malformed input.
bool ParseSeedFile(const std::string& contents, SeedFileEntry* out);

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_SHRINK_H_
