#ifndef RDFREF_TESTING_ORACLE_H_
#define RDFREF_TESTING_ORACLE_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/query_answering.h"
#include "common/result.h"
#include "engine/table.h"
#include "query/cq.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// \brief The outcome of one differential check: empty (found == false)
/// when every strategy agreed, otherwise the name of the relation that
/// broke and a human-readable diagnosis.
struct Divergence {
  bool found = false;
  /// Which check diverged, e.g. "oracle:REF-SCQ", "metamorphic:deadline",
  /// "metamorphic:federation", "metamorphic:monotonicity".
  std::string relation;
  /// Diagnosis: row counts, example rows, the query text.
  std::string detail;

  static Divergence None() { return Divergence{}; }
  static Divergence Of(std::string relation, std::string detail) {
    return Divergence{true, std::move(relation), std::move(detail)};
  }
};

/// \brief A result row decoded to RDF terms — comparable across answerers
/// with different dictionaries (the federation re-encodes every endpoint's
/// values into its own shared dictionary).
using DecodedRow = std::vector<rdf::Term>;

/// \brief Decodes a table's rows against its dictionary, as a set (the
/// paper's queries are set-semantics).
std::set<DecodedRow> DecodeRows(const engine::Table& table,
                                const rdf::Dictionary& dict);

/// \brief Re-expresses a query's constants against another dictionary.
/// Every check that hands a scenario-id query to a QueryAnswerer must
/// translate at that boundary: the answerer hierarchy-encodes (permutes)
/// its dictionary at construction, so scenario TermIds are stale inside it.
query::Cq TranslateQuery(const query::Cq& q, const rdf::Dictionary& from,
                         rdf::Dictionary* to);

/// \brief Same boundary translation for a triple built from scenario ids
/// (update checks insert scenario-pool facts into a remapped answerer).
rdf::Triple TranslateTriple(const rdf::Triple& t, const rdf::Dictionary& from,
                            rdf::Dictionary* to);

/// \brief How a decoded answer must relate to the expected row set.
enum class Expect {
  kEqual,     ///< exactly the expected rows (complete strategies)
  kSubset,    ///< no spurious row (incomplete Ref)
  kSuperset,  ///< no missing row (insertion monotonicity)
};

/// \brief Decodes a successful answer against `dict` into `rows`; a failed
/// one is a divergence named `relation` that carries its status, and so is
/// a table that holds one row twice (answers are sets: this is the check
/// behind the engine's skipped deduplication, DESIGN.md §9).
Divergence DecodeAnswer(const std::string& relation,
                        const Result<engine::Table>& answer,
                        const rdf::Dictionary& dict,
                        std::set<DecodedRow>* rows);

/// \brief The answer-set comparison every decoded relation shares:
/// `answer` must succeed, and its rows, decoded against `dict`, must relate
/// to `expected` as `expect` says. A mismatch reports both row sets, the
/// missing and spurious counts, and `q` rendered against `dict`. `rows`,
/// when non-null, receives the decoded answer.
Divergence CompareAnswer(const std::string& relation,
                         const Result<engine::Table>& answer,
                         const rdf::Dictionary& dict, const query::Cq& q,
                         const std::set<DecodedRow>& expected,
                         Expect expect = Expect::kEqual,
                         std::set<DecodedRow>* rows = nullptr);

/// \brief Hook that corrupts a strategy's answer before comparison (see
/// Oracle).
using AnswerMutator = std::function<void(api::Strategy, engine::Table*)>;

/// \brief The differential oracle protocol over one scenario:
///
///   1. Sat (saturate G, evaluate q directly) is ground truth: q(G∞).
///   2. Every complete strategy — Ref-UCQ, Ref-SCQ, Ref-GCov and Dat —
///      must match it bit-for-bit.
///   3. The raw rule closure (Reformulator::ReformulateUnminimized),
///      evaluated directly, must match it too, and the minimized union
///      the strategies evaluate must be no larger (`oracle:REF-UCQ-raw`).
///   4. The incomplete (Virtuoso-style) Ref must return a subset.
///
/// The mutate hook corrupts a chosen strategy's answer before comparison;
/// it exists so the harness can verify *itself* (an injected evaluator bug
/// must be caught and shrunk — the mutation check of the fuzz driver).
class Oracle {
 public:
  /// \brief Builds a private QueryAnswerer over a clone of the scenario's
  /// graph (the scenario stays reusable and must outlive the oracle: its
  /// dictionary is the id space Check's queries arrive in).
  explicit Oracle(const Scenario& sc, AnswerMutator mutate = {});

  /// \brief Runs the full protocol for one query (given in scenario ids;
  /// translated into the answerer's encoded id space at the boundary).
  Divergence Check(const query::Cq& q);

  api::QueryAnswerer& answerer() { return *answerer_; }

 private:
  Result<engine::Table> Answer(const query::Cq& q, api::Strategy s,
                               const api::AnswerOptions& options = {});
  // Step 3 of the protocol, on a query in the answerer's ids.
  Divergence CheckRawStage(const query::Cq& q,
                           const std::set<DecodedRow>& expected);

  AnswerMutator mutate_;
  const rdf::Dictionary* scenario_dict_;
  std::unique_ptr<api::QueryAnswerer> answerer_;
};

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_ORACLE_H_
