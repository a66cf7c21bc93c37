#ifndef RDFREF_QUERY_MINIMIZE_H_
#define RDFREF_QUERY_MINIMIZE_H_

#include <cstddef>
#include <cstdint>

#include "query/cq.h"
#include "query/ucq.h"
#include "rdf/dictionary.h"

namespace rdfref {
namespace query {

/// \brief The largest union MinimizeUcq minimizes; a larger one is returned
/// as it is. Its pairwise containment pass is quadratic in the member count.
inline constexpr size_t kMinimizeThreshold = 4096;

/// \brief The work one MinimizeUcq call may spend: one unit per member pair
/// the prefilter examines and per atom pair the homomorphism search tries.
/// Once spent, every check still to run fails, so the members and atoms not
/// yet proven redundant are kept. The outcome depends on the input only.
inline constexpr uint64_t kMinimizeWorkLimit = uint64_t{1} << 21;

/// \brief True when every answer of `contained` is an answer of
/// `container` on every database: a homomorphism maps container's terms to
/// contained's, the identity on constants, head slot i to head slot i, and
/// every body atom onto an atom of contained's body (DESIGN.md §3.1).
///
/// An interval atom `(s [lo..hi] o)` ranges over every id of its interval.
/// It maps onto an atom of contained whose value at the ranged position is
/// a constant inside [lo, hi], or an interval inside [lo, hi]; a classic
/// atom never maps onto an interval atom.
///
/// Resource-constrained variables (reformulation rules 3/7) restrict the
/// container's answers, so a constrained variable may only map to a
/// constant known to be a non-literal (checked via `dict`, when given) or
/// to a variable carrying the same constraint.
bool CqContains(const Cq& container, const Cq& contained,
                const rdf::Dictionary* dict = nullptr);

/// \brief The core of q: q without each atom whose removal leaves an
/// equivalent query, i.e. a homomorphism maps q into q minus that atom
/// while fixing the head. Atoms are tried in body order and the kept ones
/// stay in it.
Cq MinimizeCq(Cq q, const rdf::Dictionary* dict = nullptr);

/// \brief The smallest equivalent union this pass finds: every member
/// reduced to its core (MinimizeCq), then every member dropped that another
/// contains (keeping the first of mutually-equivalent ones). Reformulation
/// unions routinely hold such members: the domain and range rules add
/// atoms that repeat one already there, and members that another member
/// subsumes. Unions above kMinimizeThreshold members are returned as they
/// are, and the work is bounded by kMinimizeWorkLimit.
Ucq MinimizeUcq(Ucq ucq, const rdf::Dictionary* dict = nullptr);

}  // namespace query
}  // namespace rdfref

#endif  // RDFREF_QUERY_MINIMIZE_H_
