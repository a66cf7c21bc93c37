#ifndef RDFREF_TESTING_REFERENCE_EVAL_H_
#define RDFREF_TESTING_REFERENCE_EVAL_H_

#include <cstdint>
#include <string>

#include "engine/table.h"
#include "query/cq.h"
#include "query/ucq.h"
#include "rdf/dictionary.h"
#include "storage/triple_source.h"
#include "testing/oracle.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// \brief Bit-for-bit table comparison: column labels, row order, every
/// TermId. Returns a divergence tagged `relation` (with the query appended
/// to the detail) on the first difference. Shared by the differential
/// relations that demand byte-identical answers (columnar vs reference,
/// pinned snapshot vs materialized rebuild).
Divergence CompareBitForBit(const std::string& relation,
                            const engine::Table& columnar,
                            const engine::Table& reference, const query::Cq& q,
                            const rdf::Dictionary& dict);

/// \brief Reference row-materializing evaluator: the pre-columnar engine,
/// retained as an oracle. It runs the same join plan — the greedy static
/// order, departed from where a filter is ready or expansions compete — but
/// re-derives it over std::set bookkeeping and runs it as a
/// std::function-recursive index nested-loop join over per-triple Scan
/// callbacks, heap-allocating one row vector per emitted tuple and
/// deduplicating through a set of row vectors — the algorithm the columnar
/// batch engine replaced. Slow by design; its only job is to be obviously
/// correct and independently derived.
engine::Table ReferenceEvaluateCq(const storage::TripleSource& source,
                                  const query::Cq& q);

/// \brief Member-by-member union with a single seed-order dedup — the
/// reference UCQ path.
engine::Table ReferenceEvaluateUcq(const storage::TripleSource& source,
                                   const query::Ucq& ucq);

/// \brief Differential check: the columnar engine (sequential and parallel)
/// must match the reference evaluator *bit for bit* — same column labels,
/// same row order, same TermId in every slot — on the plain CQ and on its
/// full UCQ reformulation over the scenario's explicit database. When the
/// reformulation fails, only the plain CQ is checked; a budget refusal
/// (kResourceExhausted) then adds one to `*refusals`, when non-null.
Divergence CheckColumnarVsReference(const Scenario& sc, const query::Cq& q,
                                    uint64_t* refusals = nullptr);

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_REFERENCE_EVAL_H_
