#ifndef RDFREF_STORAGE_TRIPLE_SOURCE_H_
#define RDFREF_STORAGE_TRIPLE_SOURCE_H_

#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace rdfref {
namespace storage {

/// \brief Wildcard marker in scan patterns ("any value at this position").
inline constexpr rdf::TermId kAny = rdf::kInvalidTermId;

/// \brief True when triple `t` matches the (s, p, o) pattern; kAny
/// wildcards a position.
inline bool MatchesPattern(const rdf::Triple& t, rdf::TermId s, rdf::TermId p,
                           rdf::TermId o) {
  return (s == kAny || t.s == s) && (p == kAny || t.p == p) &&
         (o == kAny || t.o == o);
}

/// \brief Conservative index of which triple patterns a set of overlay
/// triples can intersect: the distinct subjects, properties and objects the
/// set has ever touched. MayMatch answers "could any tracked triple match
/// this pattern?" — false positives are allowed (entries are never evicted,
/// so erased triples leave stale residue until the owner clears the whole
/// presence), false negatives are not. Overlay sources consult it to keep
/// the zero-copy base fast path for scans the overlay provably cannot
/// affect.
///
/// MayMatch checks EXACT ids only. An interval probe (TryGetIntervalRange)
/// must NOT pass the interval's low endpoint here — that would miss overlay
/// triples touching ids strictly inside (lo, hi]. Interval callers widen the
/// ranged position to kAny before consulting any presence filter.
class PatternPresence {
 public:
  void Add(const rdf::Triple& t) {
    s_.insert(t.s);
    p_.insert(t.p);
    o_.insert(t.o);
  }

  void Clear() {
    s_.clear();
    p_.clear();
    o_.clear();
  }

  bool MayMatch(rdf::TermId s, rdf::TermId p, rdf::TermId o) const {
    if (p_.empty()) return false;  // nothing tracked
    return (s == kAny || s_.count(s) > 0) && (p == kAny || p_.count(p) > 0) &&
           (o == kAny || o_.count(o) > 0);
  }

 private:
  std::unordered_set<rdf::TermId> s_, p_, o_;
};

/// \brief Opaque position hint threaded through TryGetRangeHinted calls.
/// `index` identifies which physical ordering the position refers to (the
/// source compares it against its own index identity and ignores a stale
/// hint); `pos` is the begin offset of the previous result in that index.
struct RangeHint {
  const void* index = nullptr;
  size_t pos = 0;
};

/// \brief Abstract triple-pattern access path: what the evaluation engine
/// needs from a database.
///
/// Implemented by the local Store (clustered indexes) and by
/// federation::FederatedSource (a mediator over independent RDF endpoints,
/// Section 1 of the paper: data "split across independent sources").
///
/// Access comes in two granularities:
///   - the batch API (`TryGetRange` / `ScanInto`), which every source
///     implements and the columnar engine drives: a whole pattern's matches
///     at once, as a contiguous block (zero-copy when the source is
///     range-capable, one buffered copy otherwise);
///   - the per-triple callback `Scan`, a base-class convenience over the
///     batch API for the endpoint, the Datalog loader and the reference
///     evaluator.
class TripleSource {
 public:
  virtual ~TripleSource() = default;

  /// \brief Invokes `fn` on every triple matching the pattern; kAny
  /// (rdf::kInvalidTermId) wildcards a position. May deliver duplicates
  /// across underlying sources; the engine deduplicates answers. Iterates
  /// TryGetRange when it succeeds, otherwise a ScanInto buffer. Hot code
  /// should use TryGetRange/ScanInto directly.
  virtual void Scan(
      rdf::TermId s, rdf::TermId p, rdf::TermId o,
      const std::function<void(const rdf::Triple&)>& fn) const {  // rdfref-check: allow(std-function)
    std::span<const rdf::Triple> range;
    if (TryGetRange(s, p, o, &range)) {
      for (const rdf::Triple& t : range) fn(t);
      return;
    }
    std::vector<rdf::Triple> buffer;
    ScanInto(s, p, o, &buffer);
    for (const rdf::Triple& t : buffer) fn(t);
  }

  /// \brief Batch fast path: when the source can expose every match as one
  /// contiguous block (valid until the source is modified), sets `*out`
  /// and returns true. The local Store answers every pattern this way from
  /// its clustered permutation indexes; overlay and mediator sources
  /// return false and are served by ScanInto.
  ///
  /// Borrow contract: `*out` points into storage owned (or pinned) by this
  /// source and is invalidated by its modification or destruction — never
  /// store it in a field or by-value capture that outlives the source.
  RDFREF_BORROWS_FROM(this)
  virtual bool TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                           std::span<const rdf::Triple>* out) const {
    (void)s;
    (void)p;
    (void)o;
    (void)out;
    return false;
  }

  /// \brief Hinted batch fast path: like TryGetRange, but carries a
  /// position hint between successive lookups. When a nested-loop join
  /// drives its inner atom from an index-ordered outer range, successive
  /// patterns have non-decreasing bound prefixes, so the next range starts
  /// at or after the previous one: range-capable sources gallop forward
  /// from the hint (O(log gap)) instead of binary-searching the whole
  /// index (O(log n)). The hint is advisory — results are always exactly
  /// the pattern's matches — and sources without a fast path ignore it.
  RDFREF_BORROWS_FROM(this)
  virtual bool TryGetRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 std::span<const rdf::Triple>* out,
                                 RangeHint* hint) const {
    (void)hint;
    return TryGetRange(s, p, o, out);
  }

  /// \brief Batch fallback: clears `*out` and appends every match, in the
  /// order TryGetRange would return them when it succeeds.
  virtual void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                        std::vector<rdf::Triple>* out) const = 0;

  /// \brief Number of triples matching the pattern (exact for local
  /// stores; an upper bound for federations).
  virtual size_t CountMatches(rdf::TermId s, rdf::TermId p,
                              rdf::TermId o) const = 0;

  /// \brief Interval batch fast path, for the hierarchy-encoded atoms of
  /// rdf/encoding.h: like TryGetRange, but the position selected by
  /// `range_pos` (query::Atom::kRangeP = property, kRangeO = object)
  /// matches any id in [its pattern value, hi] instead of exactly one id.
  /// Range-capable sources answer when one of their clustered orders makes
  /// the interval contiguous; everyone else returns false and is served by
  /// ScanIntervalInto.
  RDFREF_BORROWS_FROM(this)
  virtual bool TryGetIntervalRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                   int range_pos, rdf::TermId hi,
                                   std::span<const rdf::Triple>* out) const {
    (void)s;
    (void)p;
    (void)o;
    (void)range_pos;
    (void)hi;
    (void)out;
    return false;
  }

  /// \brief Hinted interval fast path: TryGetIntervalRange with the
  /// position hint of TryGetRangeHinted, so a join's inner interval atom
  /// gallops forward from its previous lookup like a classic atom does.
  /// The hint is advisory; sources without a fast path ignore it.
  RDFREF_BORROWS_FROM(this)
  virtual bool TryGetIntervalRangeHinted(rdf::TermId s, rdf::TermId p,
                                         rdf::TermId o, int range_pos,
                                         rdf::TermId hi,
                                         std::span<const rdf::Triple>* out,
                                         RangeHint* hint) const {
    (void)hint;
    return TryGetIntervalRange(s, p, o, range_pos, hi, out);
  }

  /// \brief Interval batch fallback: clears `*out` and appends every match
  /// of the pattern with the ranged position relaxed to [lo, hi]. The
  /// default reads the pattern with the ranged position widened to a
  /// wildcard through the batch API (TryGetRange, else ScanInto) and keeps
  /// the triples inside the interval, in the order that read delivered;
  /// sources with better access paths may override.
  virtual void ScanIntervalInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                int range_pos, rdf::TermId hi,
                                std::vector<rdf::Triple>* out) const {
    const bool on_p = range_pos == 1;
    const rdf::TermId lo = on_p ? p : o;
    const rdf::TermId wp = on_p ? kAny : p;
    const rdf::TermId wo = on_p ? o : kAny;
    auto outside = [&](const rdf::Triple& t) {
      const rdf::TermId v = on_p ? t.p : t.o;
      return v < lo || v > hi;
    };
    std::span<const rdf::Triple> range;
    if (TryGetRange(s, wp, wo, &range)) {
      out->clear();
      for (const rdf::Triple& t : range) {
        if (!outside(t)) out->push_back(t);
      }
      return;
    }
    ScanInto(s, wp, wo, out);
    std::erase_if(*out, outside);
  }

  /// \brief Number of triples matching the interval pattern: exact when the
  /// interval is contiguous in some clustered order, otherwise the count of
  /// the widened (wildcarded) pattern — an upper bound, which is what the
  /// join-ordering and costing consumers need.
  virtual size_t CountIntervalMatches(rdf::TermId s, rdf::TermId p,
                                      rdf::TermId o, int range_pos,
                                      rdf::TermId hi) const {
    std::span<const rdf::Triple> range;
    if (TryGetIntervalRange(s, p, o, range_pos, hi, &range)) {
      return range.size();
    }
    const bool on_p = range_pos == 1;
    return CountMatches(s, on_p ? kAny : p, on_p ? o : kAny);
  }

  /// \brief The dictionary the triples are encoded against.
  virtual const rdf::Dictionary& dict() const RDFREF_LIFETIME_BOUND = 0;
};

/// \brief Residual equality constraints a triple-pattern scan cannot
/// express: repeated variables within one atom, e.g. (?x p ?x) requires
/// s == o on every delivered triple.
struct ResidualEq {
  bool s_eq_p = false;
  bool s_eq_o = false;
  bool p_eq_o = false;

  bool any() const { return s_eq_p || s_eq_o || p_eq_o; }
  bool Accepts(const rdf::Triple& t) const {
    return (!s_eq_p || t.s == t.p) && (!s_eq_o || t.s == t.o) &&
           (!p_eq_o || t.p == t.o);
  }
};

/// \brief Reusable pattern cursor: binds to one (s, p, o) pattern at a time
/// and exposes the matches as a contiguous span. Range-capable sources are
/// served zero-copy; others are materialized into an internal buffer that
/// is reused across Reset calls, so a join's inner atoms amortize to zero
/// allocations. The optional residual filter materializes only the triples
/// satisfying intra-atom equality constraints (the "thin filtering cursor"
/// for patterns a prefix range cannot express).
class RDFREF_BORROWS_FROM(source, this) PatternCursor {
 public:
  /// \brief Re-binds the cursor. The returned span (also available via
  /// triples()) is valid until the next Reset or the cursor's destruction;
  /// for zero-copy sources, until the source is modified.
  std::span<const rdf::Triple> Reset(
      const TripleSource& source RDFREF_LIFETIME_BOUND, rdf::TermId s,
      rdf::TermId p, rdf::TermId o, ResidualEq residual = {},
      RangeHint* hint = nullptr) RDFREF_LIFETIME_BOUND {
    if (!residual.any()) {
      if (source.TryGetRangeHinted(s, p, o, &view_, hint)) return view_;
      source.ScanInto(s, p, o, &buffer_);
      view_ = buffer_;
      return view_;
    }
    // Residual filtering: copy only the accepted triples.
    std::span<const rdf::Triple> raw;
    if (source.TryGetRangeHinted(s, p, o, &raw, hint)) {
      buffer_.clear();
      for (const rdf::Triple& t : raw) {
        if (residual.Accepts(t)) buffer_.push_back(t);
      }
    } else {
      source.ScanInto(s, p, o, &scratch_);
      buffer_.clear();
      for (const rdf::Triple& t : scratch_) {
        if (residual.Accepts(t)) buffer_.push_back(t);
      }
    }
    view_ = buffer_;
    return view_;
  }

  /// \brief Re-binds the cursor to an interval pattern (the ranged position
  /// holds the interval's low endpoint; see TryGetIntervalRange). Zero-copy
  /// when the source exposes the interval contiguously, buffered otherwise;
  /// `hint` is threaded through as in Reset.
  std::span<const rdf::Triple> ResetInterval(
      const TripleSource& source RDFREF_LIFETIME_BOUND, rdf::TermId s,
      rdf::TermId p, rdf::TermId o, int range_pos, rdf::TermId hi,
      ResidualEq residual = {},
      RangeHint* hint = nullptr) RDFREF_LIFETIME_BOUND {
    if (!residual.any()) {
      if (source.TryGetIntervalRangeHinted(s, p, o, range_pos, hi, &view_,
                                           hint)) {
        return view_;
      }
      source.ScanIntervalInto(s, p, o, range_pos, hi, &buffer_);
      view_ = buffer_;
      return view_;
    }
    std::span<const rdf::Triple> raw;
    if (source.TryGetIntervalRangeHinted(s, p, o, range_pos, hi, &raw,
                                         hint)) {
      buffer_.clear();
      for (const rdf::Triple& t : raw) {
        if (residual.Accepts(t)) buffer_.push_back(t);
      }
    } else {
      source.ScanIntervalInto(s, p, o, range_pos, hi, &scratch_);
      buffer_.clear();
      for (const rdf::Triple& t : scratch_) {
        if (residual.Accepts(t)) buffer_.push_back(t);
      }
    }
    view_ = buffer_;
    return view_;
  }

  std::span<const rdf::Triple> triples() const RDFREF_LIFETIME_BOUND {
    return view_;
  }

 private:
  std::span<const rdf::Triple> view_;
  std::vector<rdf::Triple> buffer_;
  std::vector<rdf::Triple> scratch_;
};

}  // namespace storage
}  // namespace rdfref

#endif  // RDFREF_STORAGE_TRIPLE_SOURCE_H_
