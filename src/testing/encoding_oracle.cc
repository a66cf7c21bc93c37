#include "testing/encoding_oracle.h"

#include <set>
#include <string>

#include "api/query_answering.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace testing {

namespace {

/// Answers q under both reformulation modes and compares the decoded sets
/// against `expected` (saturation ground truth). `stage` labels the phase
/// ("load" / "schema-insert" / "reencode") in the divergence relation.
///
/// The classic arm is only a reference: when it refuses for its CQ budget
/// (kResourceExhausted, a UCQ beyond max_cqs that the fused one fits in),
/// the interval arm is still checked against Sat and the refusal is
/// counted in `*classic_refusals`. Any other classic error, and any error
/// of the interval arm, budget refusals included, is a divergence.
Divergence CompareModes(api::QueryAnswerer* answerer, const query::Cq& q,
                        const std::set<DecodedRow>& expected,
                        const std::string& stage,
                        uint64_t* classic_refusals) {
  api::AnswerOptions encoded;  // use_encoding stays at its default (on)
  api::AnswerOptions classic;
  classic.reform.use_encoding = false;
  for (api::Strategy s : {api::Strategy::kRefUcq, api::Strategy::kRefScq}) {
    for (bool use_encoding : {true, false}) {
      const api::AnswerOptions& options = use_encoding ? encoded : classic;
      auto got = answerer->Answer(q, s, nullptr, options);
      std::string name = "encoded:" + stage + ":" +
                         std::string(api::StrategyName(s)) +
                         (use_encoding ? ":interval" : ":classic");
      if (!use_encoding && !got.ok() &&
          got.status().code() == StatusCode::kResourceExhausted) {
        if (classic_refusals != nullptr) ++*classic_refusals;
        continue;
      }
      Divergence d = CompareAnswer(name, got, answerer->dict(), q, expected);
      if (d.found) return d;
    }
  }
  return Divergence::None();
}

}  // namespace

Divergence CheckEncodedEquivalence(const Scenario& sc,
                                   const query::Cq& scenario_q,
                                   uint64_t* classic_refusals) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  query::Cq q = TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());

  // Phase 1: the load-time encoding. Interval reformulation must be
  // answer-set-equal to the classic UCQ members it fused away.
  std::set<DecodedRow> expected;
  Divergence d = DecodeAnswer("encoded:load:SAT",
                              answerer.Answer(q, api::Strategy::kSaturation),
                              answerer.dict(), &expected);
  if (d.found) return d;
  d = CompareModes(&answerer, q, expected, "load", classic_refusals);
  if (d.found) return d;

  // Phase 2: grow the schema after load. The new edge escapes the frozen
  // intervals (classic-member fallback); existing intervals must stay sound.
  if (sc.classes.size() >= 2) {
    rdf::Triple edge(sc.classes[0], rdf::vocab::kSubClassOfId,
                     sc.classes[sc.classes.size() / 2]);
    Status st = answerer.InsertTriple(
        TranslateTriple(edge, sc.graph.dict(), &answerer.dict()));
    if (!st.ok()) {
      return Divergence::Of("encoded:schema-insert",
                            "insert failed: " + st.ToString());
    }
    d = DecodeAnswer("encoded:schema-insert:SAT",
                     answerer.Answer(q, api::Strategy::kSaturation),
                     answerer.dict(), &expected);
    if (d.found) return d;
    d = CompareModes(&answerer, q, expected, "schema-insert",
                     classic_refusals);
    if (d.found) return d;
  }

  // Phase 3: re-encode at a compaction point. Every id moves again; the
  // escaped edge from phase 2 is folded into fresh intervals. The query is
  // re-translated — all pre-Reencode TermIds are invalidated by contract.
  answerer.Reencode();
  q = TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  d = DecodeAnswer("encoded:reencode:SAT",
                   answerer.Answer(q, api::Strategy::kSaturation),
                   answerer.dict(), &expected);
  if (d.found) return d;
  return CompareModes(&answerer, q, expected, "reencode", classic_refusals);
}

}  // namespace testing
}  // namespace rdfref
