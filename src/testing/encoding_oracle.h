#ifndef RDFREF_TESTING_ENCODING_ORACLE_H_
#define RDFREF_TESTING_ENCODING_ORACLE_H_

#include <cstdint>

#include "query/cq.h"
#include "testing/oracle.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// \brief The hierarchy-encoding differential oracle: over one scenario and
/// query, the encoded reformulation (interval atoms over the id-range
/// dictionary) must produce exactly the answer set of the classic UCQ
/// reformulation (use_encoding = false) — and both must match saturation
/// ground truth. Covers the Ref-UCQ and Ref-SCQ paths plus a post-update
/// re-check, since intervals must stay *sound* while newly inserted schema
/// edges fall back to classic members.
///
/// The classic reformulation is a reference, not the system under test:
/// when it exceeds its max_cqs budget while the encoded one fits, the
/// encoded answers are still checked against saturation and the refusal is
/// added to `*classic_refusals` (when non-null) instead of being reported
/// as a divergence. A refusal of the encoded reformulation, and any other
/// classic error, remains a divergence.
Divergence CheckEncodedEquivalence(const Scenario& sc,
                                   const query::Cq& scenario_q,
                                   uint64_t* classic_refusals = nullptr);

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_ENCODING_ORACLE_H_
