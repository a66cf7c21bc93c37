#include "trace.h"

#include <cstdint>
#include <cstdio>

namespace perfbench {

namespace rdf = rdfref::rdf;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kApiRead:
      return "api.read";
    case SpanName::kApiWrite:
      return "api.write";
    case SpanName::kQueryParse:
      return "query.parse";
    case SpanName::kOptimizerGcov:
      return "optimizer.gcov";
    case SpanName::kReformulate:
      return "reformulation.reformulate";
    case SpanName::kStoragePin:
      return "storage.pin";
    case SpanName::kEngineEval:
      return "engine.eval";
    case SpanName::kStorageFreeze:
      return "storage.freeze";
    case SpanName::kStorageCompact:
      return "storage.compact";
    case SpanName::kSetup:
      return "api.setup";
    case SpanName::kSchemaEncode:
      return "schema.encode";
    case SpanName::kSchemaClosure:
      return "schema.closure";
    case SpanName::kStorageIndex:
      return "storage.index";
    case SpanName::kApiConstruct:
      return "api.construct";
    case SpanName::kReasonerSaturate:
      return "reasoner.saturate";
    case SpanName::kOptimizerSelectViews:
      return "optimizer.select_views";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

int32_t Tracer::Begin(SpanName name, int64_t op) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), op, Now(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = Now();
  // Spans nest strictly: the one ending is the innermost open span.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

size_t Tracer::MisnestedSpans(const std::vector<int32_t>& roots) const {
  size_t bad = 0;
  for (size_t k = 0; k < roots.size(); ++k) {
    const int32_t r = roots[k];
    if (r < 0 || static_cast<size_t>(r) >= spans_.size() ||
        spans_[static_cast<size_t>(r)].parent >= 0 ||
        spans_[static_cast<size_t>(r)].op != static_cast<int64_t>(k)) {
      ++bad;
    }
  }
  // End of the latest child seen so far, per span.
  std::vector<int64_t> child_end(spans_.size(), INT64_MIN);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    bool ok = s.end_ns >= s.start_ns;
    if (s.parent < 0) {
      ok = ok && (s.op < 0 || (static_cast<size_t>(s.op) < roots.size() &&
                               roots[static_cast<size_t>(s.op)] ==
                                   static_cast<int32_t>(i)));
    } else {
      const size_t p = static_cast<size_t>(s.parent);
      const Span& parent = spans_[p];
      ok = ok && p < i && parent.op == s.op &&
           s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns &&
           s.start_ns >= child_end[p];
      child_end[p] = s.end_ns;
    }
    if (!ok) ++bad;
  }
  return bad;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%lld\t%s\t%lld\t%lld\n", i, s.parent,
                 static_cast<long long>(s.op), SpanNameString(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void CountingSource::Scan(
    rdf::TermId s, rdf::TermId p, rdf::TermId o,
    const std::function<void(const rdf::Triple&)>& fn) const {
  ++counts_->range_lookups;
  inner_->Scan(s, p, o, [this, &fn](const rdf::Triple& t) {
    ++counts_->rows_scanned;
    fn(t);
  });
}

bool CountingSource::TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 std::span<const rdf::Triple>* out) const {
  if (!inner_->TryGetRange(s, p, o, out)) return false;
  ++counts_->range_lookups;
  counts_->rows_scanned += out->size();
  return true;
}

bool CountingSource::TryGetRangeHinted(
    rdf::TermId s, rdf::TermId p, rdf::TermId o,
    std::span<const rdf::Triple>* out,
    rdfref::storage::RangeHint* hint) const {
  if (!inner_->TryGetRangeHinted(s, p, o, out, hint)) return false;
  ++counts_->range_lookups;
  counts_->rows_scanned += out->size();
  return true;
}

void CountingSource::ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                              std::vector<rdf::Triple>* out) const {
  inner_->ScanInto(s, p, o, out);
  ++counts_->range_lookups;
  counts_->rows_scanned += out->size();
}

size_t CountingSource::CountMatches(rdf::TermId s, rdf::TermId p,
                                    rdf::TermId o) const {
  return inner_->CountMatches(s, p, o);
}

bool CountingSource::TryGetIntervalRange(
    rdf::TermId s, rdf::TermId p, rdf::TermId o, int range_pos,
    rdf::TermId hi, std::span<const rdf::Triple>* out) const {
  if (!inner_->TryGetIntervalRange(s, p, o, range_pos, hi, out)) return false;
  ++counts_->range_lookups;
  counts_->rows_scanned += out->size();
  return true;
}

void CountingSource::ScanIntervalInto(rdf::TermId s, rdf::TermId p,
                                      rdf::TermId o, int range_pos,
                                      rdf::TermId hi,
                                      std::vector<rdf::Triple>* out) const {
  inner_->ScanIntervalInto(s, p, o, range_pos, hi, out);
  ++counts_->range_lookups;
  counts_->rows_scanned += out->size();
}

size_t CountingSource::CountIntervalMatches(rdf::TermId s, rdf::TermId p,
                                            rdf::TermId o, int range_pos,
                                            rdf::TermId hi) const {
  return inner_->CountIntervalMatches(s, p, o, range_pos, hi);
}

}  // namespace perfbench
