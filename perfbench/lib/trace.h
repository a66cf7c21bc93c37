#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/triple_source.h"

namespace perfbench {

/// \brief The spans the traced run records, one per public call it makes
/// into a layer. The layer of a span is its name up to the first '.'.
enum class SpanName : uint8_t {
  kApiRead,             ///< root of a read op
  kApiWrite,            ///< root of a write op: InsertTriple / RemoveTriple
  kQueryParse,          ///< query::ParseSparql
  kOptimizerGcov,       ///< optimizer::CoverOptimizer::Greedy
  kReformulate,         ///< reformulation::Reformulator::Reformulate
  kStoragePin,          ///< storage::VersionSet::snapshot
  kEngineEval,          ///< engine::Evaluator::Evaluate{Cq,UcqView,Jucq}
  kStorageFreeze,       ///< storage::VersionSet::Freeze
  kStorageCompact,      ///< storage::VersionSet::Compact
  kSetup,               ///< root of one set-up
  kSchemaEncode,        ///< schema::EncodeGraphHierarchy (on a clone)
  kSchemaClosure,       ///< Schema::FromGraph + Saturate + EmitTriples
  kStorageIndex,        ///< storage::Store construction (on a clone)
  kApiConstruct,        ///< QueryAnswerer construction
  kReasonerSaturate,    ///< QueryAnswerer::sat_store (lazy saturation)
  kOptimizerSelectViews,  ///< optimizer::ViewSelector::Select
  kCount,
};

const char* SpanNameString(SpanName name);

/// \brief One recorded span. Times are nanoseconds from the tracer's epoch.
struct Span {
  SpanName name;
  int32_t parent;  ///< index of the parent span, -1 for a root
  int64_t op;      ///< op index; -1 for set-up spans
  int64_t start_ns;
  int64_t end_ns;
};

/// \brief In-memory span recorder for one single-threaded run: spans nest
/// strictly (a span ends before its parent), are kept in begin order, and
/// are written out only when the run ends.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int32_t Begin(SpanName name, int64_t op);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Self time of every span: its duration minus the time its child
  /// spans cover (children nest and never overlap on one thread).
  std::vector<int64_t> SelfTimes() const;

  /// \brief Counts the spans that break the nesting the self-time rollup
  /// relies on. The spans of op k must form one tree under its root span
  /// `roots[k]`: each span ends after it starts, carries its parent's op,
  /// lies inside its parent and starts after its previous sibling ended;
  /// only op k's root may be a root with op k. Set-up spans (op -1) are
  /// held to the same rules under their own roots. When none breaks them,
  /// every self time is non-negative and op k's self times sum to its root
  /// span; an unclosed span, a span closed out of order or one given the
  /// wrong op shows here.
  size_t MisnestedSpans(const std::vector<int32_t>& roots) const;

  /// \brief Writes one tab-separated line per span (id, parent, op, name,
  /// start_ns, end_ns). False when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span ids
};

/// \brief RAII span: begins on construction, ends on destruction (or at
/// End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, int64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (id_ >= 0) tracer_->End(id_);
    id_ = -1;
  }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// \brief Work counters of the storage layer as the engine drives it.
struct StorageCounts {
  uint64_t range_lookups = 0;  ///< pattern/interval scans served
  uint64_t rows_scanned = 0;   ///< triples those scans returned
};

/// \brief A TripleSource that forwards every call to a pinned source and
/// counts lookups and the rows they return. It does not time calls: a
/// clock read per lookup would swamp the join it measures.
class CountingSource : public rdfref::storage::TripleSource {
 public:
  /// \brief `inner` and `counts` must outlive this source.
  CountingSource(const rdfref::storage::TripleSource* inner,
                 StorageCounts* counts)
      : inner_(inner), counts_(counts) {}

  void Scan(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
            rdfref::rdf::TermId o,
            const std::function<void(const rdfref::rdf::Triple&)>& fn)
      const override;
  bool TryGetRange(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                   rdfref::rdf::TermId o,
                   std::span<const rdfref::rdf::Triple>* out) const override;
  bool TryGetRangeHinted(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                         rdfref::rdf::TermId o,
                         std::span<const rdfref::rdf::Triple>* out,
                         rdfref::storage::RangeHint* hint) const override;
  void ScanInto(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                rdfref::rdf::TermId o,
                std::vector<rdfref::rdf::Triple>* out) const override;
  size_t CountMatches(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                      rdfref::rdf::TermId o) const override;
  bool TryGetIntervalRange(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                           rdfref::rdf::TermId o, int range_pos,
                           rdfref::rdf::TermId hi,
                           std::span<const rdfref::rdf::Triple>* out)
      const override;
  void ScanIntervalInto(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                        rdfref::rdf::TermId o, int range_pos,
                        rdfref::rdf::TermId hi,
                        std::vector<rdfref::rdf::Triple>* out) const override;
  size_t CountIntervalMatches(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                              rdfref::rdf::TermId o, int range_pos,
                              rdfref::rdf::TermId hi) const override;
  const rdfref::rdf::Dictionary& dict() const override {
    return inner_->dict();
  }

 private:
  const rdfref::storage::TripleSource* inner_;
  StorageCounts* counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
