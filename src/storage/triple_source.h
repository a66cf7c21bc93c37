#ifndef RDFREF_STORAGE_TRIPLE_SOURCE_H_
#define RDFREF_STORAGE_TRIPLE_SOURCE_H_

#include <compare>
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

/// \brief One triple pattern as the scan path reads it: each position a
/// bound id or kAny, and at most one *ranged* position — a hierarchy-encoded
/// atom (rdf/encoding.h) — whose value is the low endpoint of the inclusive
/// id interval [value, hi]. `range_pos` takes query::Atom's values: kRangeP,
/// kRangeO, or kRangeNone for a classic pattern, which is an interval
/// pattern with no ranged position.
struct Pattern {
  static constexpr int kRangeP = 1;
  static constexpr int kRangeO = 2;
  static constexpr int kRangeNone = 3;

  rdf::TermId s = kAny;
  rdf::TermId p = kAny;
  rdf::TermId o = kAny;
  int range_pos = kRangeNone;
  rdf::TermId hi = 0;  ///< inclusive upper bound; meaningful iff ranged

  bool has_range() const { return range_pos != kRangeNone; }

  /// \brief True when `t` matches: every bound position equal, the ranged
  /// one inside [value, hi].
  bool Matches(const rdf::Triple& t) const {
    auto eq = [](rdf::TermId want, rdf::TermId got) {
      return want == kAny || got == want;
    };
    switch (range_pos) {
      case kRangeP:
        return eq(s, t.s) && t.p >= p && t.p <= hi && eq(o, t.o);
      case kRangeO:
        return eq(s, t.s) && eq(p, t.p) && t.o >= o && t.o <= hi;
      default:
        return eq(s, t.s) && eq(p, t.p) && eq(o, t.o);
    }
  }

  /// \brief The classic pattern with the ranged position wildcarded (itself
  /// for a classic pattern): the neighbourhood an interval is read from
  /// where no clustered order keeps it contiguous.
  Pattern Widened() const {
    Pattern w = *this;
    if (range_pos == kRangeP) w.p = kAny;
    if (range_pos == kRangeO) w.o = kAny;
    w.range_pos = kRangeNone;
    w.hi = 0;
    return w;
  }

  friend auto operator<=>(const Pattern&, const Pattern&) = default;
};

/// \brief Conservative index of which triple patterns a set of overlay
/// triples can intersect: the distinct subjects, properties and objects the
/// set has ever touched. MayMatch answers "could any tracked triple match
/// this pattern?" — false positives are allowed (entries are never evicted,
/// so erased triples leave stale residue until the owner clears the whole
/// presence), false negatives are not. Overlay sources consult it to keep
/// the zero-copy base fast path for scans the overlay provably cannot
/// affect.
///
/// MayMatch checks EXACT ids, so it treats a ranged position as a wildcard
/// (it probes the pattern Widened()): an interval names only its low
/// endpoint, and the triples it matches may touch any id up to hi.
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

  bool MayMatch(const Pattern& pat) const {
    if (p_.empty()) return false;  // nothing tracked
    auto may = [](const std::unordered_set<rdf::TermId>& ids, rdf::TermId v,
                  bool ranged) {
      return ranged || v == kAny || ids.count(v) > 0;
    };
    return may(s_, pat.s, false) &&
           may(p_, pat.p, pat.range_pos == Pattern::kRangeP) &&
           may(o_, pat.o, pat.range_pos == Pattern::kRangeO);
  }

 private:
  std::unordered_set<rdf::TermId> s_, p_, o_;
};

/// \brief Opaque position hint threaded through the hinted lookups.
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
///   - the batch API (lookup / scan / count), which every source implements
///     and the columnar engine drives: a whole pattern's matches at once,
///     as a contiguous block (zero-copy when the source is range-capable,
///     one buffered copy otherwise);
///   - the per-triple callback `Scan`, a base-class convenience over the
///     batch API for the Datalog loader and the reference evaluator.
///
/// The batch API takes one storage::Pattern through three non-virtual
/// entry points (TryGetPattern, ScanPatternInto, CountPattern). Each routes
/// a classic pattern to its classic virtual and an interval pattern to its
/// interval virtual, so wrapping sources see per-kind calls; Store and
/// SnapshotSource serve both kinds with one body each.
class TripleSource {
 public:
  virtual ~TripleSource() = default;

  /// \brief Invokes `fn` on every triple matching the pattern; kAny
  /// (rdf::kInvalidTermId) wildcards a position. A source may deliver one
  /// triple more than once (a federation concatenating endpoints that
  /// share it) unless DeliversDistinctTriples() says otherwise. Iterates
  /// TryGetRange when it succeeds, otherwise a ScanInto buffer. Hot code
  /// should use the batch API directly.
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

  /// \brief Batch fast path: when the source can expose every match of
  /// `pat` as one contiguous block (valid until the source is modified),
  /// sets `*out` and returns true; otherwise ScanPatternInto serves it.
  /// With a non-null `hint` the source may gallop forward from its previous
  /// lookup: when a nested-loop join drives an inner atom from an
  /// index-ordered outer range, successive patterns have non-decreasing
  /// bound prefixes, so O(log gap) replaces O(log n). The hint is advisory
  /// — results are always exactly the pattern's matches.
  ///
  /// Borrow contract: `*out` points into storage owned (or pinned) by this
  /// source and is invalidated by its modification or destruction — never
  /// store it in a field or by-value capture that outlives the source.
  RDFREF_BORROWS_FROM(this)
  bool TryGetPattern(const Pattern& pat, std::span<const rdf::Triple>* out,
                     RangeHint* hint = nullptr) const {
    if (!pat.has_range()) {
      return hint == nullptr
                 ? TryGetRange(pat.s, pat.p, pat.o, out)
                 : TryGetRangeHinted(pat.s, pat.p, pat.o, out, hint);
    }
    return hint == nullptr
               ? TryGetIntervalRange(pat.s, pat.p, pat.o, pat.range_pos,
                                     pat.hi, out)
               : TryGetIntervalRangeHinted(pat.s, pat.p, pat.o,
                                           pat.range_pos, pat.hi, out, hint);
  }

  /// \brief Batch fallback: clears `*out` and appends every match of
  /// `pat`, in the order TryGetPattern would return them when it succeeds.
  void ScanPatternInto(const Pattern& pat,
                       std::vector<rdf::Triple>* out) const {
    if (!pat.has_range()) {
      ScanInto(pat.s, pat.p, pat.o, out);
    } else {
      ScanIntervalInto(pat.s, pat.p, pat.o, pat.range_pos, pat.hi, out);
    }
  }

  /// \brief Number of triples matching `pat`: exact for local stores on a
  /// classic pattern and on an interval some clustered order keeps
  /// contiguous; otherwise the count of pat.Widened() — an upper bound,
  /// which is what the join-ordering and costing consumers need (and what
  /// federations return for every pattern).
  size_t CountPattern(const Pattern& pat) const {
    if (!pat.has_range()) return CountMatches(pat.s, pat.p, pat.o);
    return CountIntervalMatches(pat.s, pat.p, pat.o, pat.range_pos, pat.hi);
  }

  // The per-kind virtuals behind the three entry points above. A classic
  // call means Pattern{s, p, o}; an interval call means
  // Pattern{s, p, o, range_pos, hi}, the ranged position holding the
  // interval's low endpoint.

  /// \brief TryGetPattern of a classic pattern, unhinted.
  RDFREF_BORROWS_FROM(this)
  virtual bool TryGetRange(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                           std::span<const rdf::Triple>* out) const {
    (void)s;
    (void)p;
    (void)o;
    (void)out;
    return false;
  }

  /// \brief TryGetPattern of a classic pattern, hinted.
  RDFREF_BORROWS_FROM(this)
  virtual bool TryGetRangeHinted(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                 std::span<const rdf::Triple>* out,
                                 RangeHint* hint) const {
    (void)hint;
    return TryGetRange(s, p, o, out);
  }

  /// \brief ScanPatternInto of a classic pattern.
  virtual void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                        std::vector<rdf::Triple>* out) const = 0;

  /// \brief CountPattern of a classic pattern.
  virtual size_t CountMatches(rdf::TermId s, rdf::TermId p,
                              rdf::TermId o) const = 0;

  /// \brief TryGetPattern of an interval pattern, unhinted.
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

  /// \brief TryGetPattern of an interval pattern, hinted.
  RDFREF_BORROWS_FROM(this)
  virtual bool TryGetIntervalRangeHinted(rdf::TermId s, rdf::TermId p,
                                         rdf::TermId o, int range_pos,
                                         rdf::TermId hi,
                                         std::span<const rdf::Triple>* out,
                                         RangeHint* hint) const {
    (void)hint;
    return TryGetIntervalRange(s, p, o, range_pos, hi, out);
  }

  /// \brief ScanPatternInto of an interval pattern. The default reads the
  /// widened pattern through the batch API (TryGetRange, else ScanInto)
  /// and keeps the triples inside the interval, in the order that read
  /// delivered.
  virtual void ScanIntervalInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                int range_pos, rdf::TermId hi,
                                std::vector<rdf::Triple>* out) const {
    const Pattern wide = Pattern{s, p, o, range_pos, hi}.Widened();
    // The widened read matched every other position already.
    const bool on_p = range_pos == Pattern::kRangeP;
    const rdf::TermId lo = on_p ? p : o;
    auto outside = [&](const rdf::Triple& t) {
      const rdf::TermId v = on_p ? t.p : t.o;
      return v < lo || v > hi;
    };
    std::span<const rdf::Triple> range;
    if (TryGetRange(wide.s, wide.p, wide.o, &range)) {
      out->clear();
      for (const rdf::Triple& t : range) {
        if (!outside(t)) out->push_back(t);
      }
      return;
    }
    ScanInto(wide.s, wide.p, wide.o, out);
    std::erase_if(*out, outside);
  }

  /// \brief CountPattern of an interval pattern. The default is exact when
  /// TryGetIntervalRange succeeds and the widened pattern's count otherwise.
  virtual size_t CountIntervalMatches(rdf::TermId s, rdf::TermId p,
                                      rdf::TermId o, int range_pos,
                                      rdf::TermId hi) const {
    std::span<const rdf::Triple> range;
    if (TryGetIntervalRange(s, p, o, range_pos, hi, &range)) {
      return range.size();
    }
    const Pattern wide = Pattern{s, p, o, range_pos, hi}.Widened();
    return CountMatches(wide.s, wide.p, wide.o);
  }

  /// \brief The dictionary the triples are encoded against.
  virtual const rdf::Dictionary& dict() const RDFREF_LIFETIME_BOUND = 0;

  /// \brief True when every lookup, scan and count delivers each matching
  /// triple exactly once. The engine then skips deduplicating the rows of
  /// a CQ whose rows cannot repeat (DESIGN.md §9). False, the default, is
  /// always safe: the engine deduplicates every answer.
  virtual bool DeliversDistinctTriples() const { return false; }
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

/// \brief Reusable pattern cursor: binds to one pattern at a time and
/// exposes the matches as a contiguous span. Range-capable sources are
/// served zero-copy; others are materialized into an internal buffer that
/// is reused across Reset calls, so a join's inner atoms amortize to zero
/// allocations. The optional residual filter materializes only the triples
/// satisfying intra-atom equality constraints (the "thin filtering cursor"
/// for patterns a prefix range cannot express).
class RDFREF_BORROWS_FROM(source, this) PatternCursor {
 public:
  /// \brief Re-binds the cursor to `pat` (classic or interval). The
  /// returned span (also available via triples()) is valid until the next
  /// Reset or the cursor's destruction; for zero-copy sources, until the
  /// source is modified. `hint` is threaded through to TryGetPattern.
  std::span<const rdf::Triple> Reset(
      const TripleSource& source RDFREF_LIFETIME_BOUND, const Pattern& pat,
      ResidualEq residual = {},
      RangeHint* hint = nullptr) RDFREF_LIFETIME_BOUND {
    if (!residual.any()) {
      if (source.TryGetPattern(pat, &view_, hint)) return view_;
      source.ScanPatternInto(pat, &buffer_);
      view_ = buffer_;
      return view_;
    }
    // Residual filtering: copy only the accepted triples.
    std::span<const rdf::Triple> raw;
    if (!source.TryGetPattern(pat, &raw, hint)) {
      source.ScanPatternInto(pat, &scratch_);
      raw = scratch_;
    }
    buffer_.clear();
    for (const rdf::Triple& t : raw) {
      if (residual.Accepts(t)) buffer_.push_back(t);
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
