#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/query_answering.h"
#include "rdf/graph.h"

namespace perfbench {

using rdfref::api::Strategy;

/// \brief The benchmark's workloads (README.md says why each exists).
enum class Workload { kLubmMix, kSp2bRw };

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);

/// \brief Ops of one workload per second of `--seconds`, calibrated to the
/// rate each workload ran at when the benchmark was defined (README.md).
/// The op count of a run is fixed from it, so the op sequence is a pure
/// function of (workload, seed, seconds) and no run ever stops on a timer.
size_t OpsPerSecond(Workload w);

/// \brief One (query template, strategy) pair: the unit a percentile's rank
/// is attributed to.
struct ReadClass {
  std::string name;      ///< e.g. "Q6-members/REF-UCQ"
  size_t template_index;  ///< into Workload data's templates
  Strategy strategy;
};

/// \brief A SPARQL query template. Point templates hold one `{}` slot that
/// each op fills with a Zipf-drawn constant URI; the others are fixed text.
struct QueryTemplate {
  std::string name;
  std::string text;  ///< full SPARQL, prefixes included
  /// URI prefix of the slot's constant (document, author or venue pool) and
  /// the pool size; empty for constant-free templates.
  std::string slot_prefix;
  size_t slot_pool = 0;

  bool is_point() const { return slot_pool > 0; }
  /// \brief The query text with the slot filled by pool rank `constant`.
  std::string Instantiate(uint32_t constant) const;
};

/// \brief The fixed dataset and read classes of a workload. The data do not
/// depend on the seed: they are the pinned LUBM and sp2b datasets, so runs
/// with different seeds measure the same database under different op
/// sequences.
struct WorkloadData {
  Workload workload;
  rdfref::rdf::Graph graph;
  std::vector<QueryTemplate> templates;
  std::vector<ReadClass> classes;
  /// Read classes of one deck (with repeats): every deck of ops holds
  /// exactly these reads, plus `writes_per_deck` writes, in a seeded order.
  std::vector<uint16_t> deck_reads;
  int writes_per_deck = 0;
  /// sp2b: documents in the pool and the explicit (src, dst) sp:cites
  /// document pairs of the base data (writes never insert one of these).
  size_t documents = 0;
  std::vector<std::pair<uint32_t, uint32_t>> base_cites;
  /// Use of the view cache and of Sat's saturated store.
  bool view_cache = false;
  bool uses_sat = false;

  size_t deck_size() const {
    return deck_reads.size() + static_cast<size_t>(writes_per_deck);
  }
};

/// \brief Generates the dataset, templates and classes of `w`.
WorkloadData MakeWorkloadData(Workload w);

/// \brief One op of a sequence.
struct Op {
  enum Kind : uint8_t { kRead = 0, kInsert = 1, kRemove = 2 };
  Kind kind = kRead;
  uint16_t read_class = 0;  ///< reads: index into WorkloadData::classes
  uint32_t constant = 0;    ///< point reads: pool rank of the slot constant
  uint32_t src = 0, dst = 0;  ///< writes: document indexes of the cites edge

  friend bool operator==(const Op& a, const Op& b) {
    return a.kind == b.kind && a.read_class == b.read_class &&
           a.constant == b.constant && a.src == b.src && a.dst == b.dst;
  }
};

/// \brief Bound on the workload-inserted cites edges alive at once (the
/// sp2b-rw live set): writes fill it, then alternate removing the oldest
/// live edge and inserting a fresh one, so the data size stays stationary.
inline constexpr size_t kLiveCitesBound = 64;

/// \brief The op sequence of one run: `decks` decks, each a seeded
/// permutation of the deck's reads and writes. Point constants are Zipf
/// draws; writes insert fresh cites edges (Zipf-popular targets) or remove
/// a live one. A pure function of (data, seed, decks).
std::vector<Op> MakeOps(const WorkloadData& data, uint64_t seed,
                        size_t decks);

/// \brief Number of decks a run of `seconds` replays: OpsPerSecond times
/// `seconds`, rounded up to whole decks, but never fewer than 1000 reads
/// (the fewest that leave 10 reads beyond the p99 rank).
size_t DecksFor(const WorkloadData& data, int seconds);

/// \brief The sp2b-rw maintenance cadence, run synchronously after each
/// write: freeze the head at this many entries, compact at this many sealed
/// runs. Sized so that a run of 250 writes completes several compaction
/// cycles.
inline constexpr size_t kFreezeHeadEntries = 16;
inline constexpr size_t kCompactRuns = 4;

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
