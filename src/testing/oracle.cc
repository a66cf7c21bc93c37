#include "testing/oracle.h"

#include <span>
#include <sstream>
#include <utility>

#include "engine/evaluator.h"
#include "reformulation/reformulator.h"

namespace rdfref {
namespace testing {

std::set<DecodedRow> DecodeRows(const engine::Table& table,
                                const rdf::Dictionary& dict) {
  std::set<DecodedRow> out;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const std::span<const rdf::TermId> row = table.row(r);
    DecodedRow decoded;
    decoded.reserve(row.size());
    for (rdf::TermId id : row) decoded.push_back(dict.Lookup(id));
    out.insert(std::move(decoded));
  }
  return out;
}

query::Cq TranslateQuery(const query::Cq& q, const rdf::Dictionary& from,
                         rdf::Dictionary* to) {
  query::Cq out;
  for (query::VarId v = 0; v < q.num_vars(); ++v) out.AddVar(q.var_name(v));
  auto xlate = [&](query::QTerm t) {
    if (t.is_var) return t;
    return query::QTerm::Const(to->Intern(from.Lookup(t.term())));
  };
  for (const query::Atom& a : q.body()) {
    out.AddAtom(query::Atom(xlate(a.s), xlate(a.p), xlate(a.o)));
  }
  for (query::QTerm h : q.head()) out.AddHead(xlate(h));
  for (query::VarId v : q.resource_vars()) out.AddResourceVar(v);
  return out;
}

rdf::Triple TranslateTriple(const rdf::Triple& t, const rdf::Dictionary& from,
                            rdf::Dictionary* to) {
  return rdf::Triple(to->Intern(from.Lookup(t.s)),
                     to->Intern(from.Lookup(t.p)),
                     to->Intern(from.Lookup(t.o)));
}

namespace {

/// Renders a small sample of a decoded row set for diagnostics.
std::string RowSetPreview(const std::set<DecodedRow>& rows) {
  constexpr size_t kMaxRows = 4;
  std::ostringstream os;
  os << rows.size() << " row(s)";
  size_t shown = 0;
  for (const DecodedRow& row : rows) {
    if (shown++ >= kMaxRows) {
      os << " ...";
      break;
    }
    os << (shown == 1 ? ": " : " | ");
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) os << " ";
      os << row[i].ToString();
    }
  }
  return os.str();
}

}  // namespace

Divergence DecodeAnswer(const std::string& relation,
                        const Result<engine::Table>& answer,
                        const rdf::Dictionary& dict,
                        std::set<DecodedRow>* rows) {
  if (!answer.ok()) return Divergence::Of(relation, answer.status().ToString());
  *rows = DecodeRows(*answer, dict);
  if (rows->size() != answer->NumRows()) {
    return Divergence::Of(
        relation, std::to_string(answer->NumRows()) + " rows hold " +
                      std::to_string(rows->size()) +
                      " distinct ones: an answer repeated a row");
  }
  return Divergence::None();
}

Divergence CompareAnswer(const std::string& relation,
                         const Result<engine::Table>& answer,
                         const rdf::Dictionary& dict, const query::Cq& q,
                         const std::set<DecodedRow>& expected, Expect expect,
                         std::set<DecodedRow>* rows) {
  std::set<DecodedRow> got;
  Divergence d = DecodeAnswer(relation, answer, dict, &got);
  if (d.found) return d;
  size_t missing = 0, spurious = 0;
  for (const DecodedRow& r : expected) missing += got.count(r) == 0;
  for (const DecodedRow& r : got) spurious += expected.count(r) == 0;
  const bool ok = (expect == Expect::kSubset || missing == 0) &&
                  (expect == Expect::kSuperset || spurious == 0);
  if (!ok) {
    std::ostringstream os;
    os << "expected " << RowSetPreview(expected) << "; got "
       << RowSetPreview(got) << " (" << missing << " missing, " << spurious
       << " spurious)\nquery: " << q.ToString(dict);
    return Divergence::Of(relation, os.str());
  }
  if (rows != nullptr) *rows = std::move(got);
  return Divergence::None();
}

Oracle::Oracle(const Scenario& sc, AnswerMutator mutate)
    : mutate_(std::move(mutate)),
      scenario_dict_(&sc.graph.dict()),
      answerer_(std::make_unique<api::QueryAnswerer>(sc.graph.Clone())) {}

Result<engine::Table> Oracle::Answer(const query::Cq& q, api::Strategy s,
                                     const api::AnswerOptions& options) {
  auto table = answerer_->Answer(q, s, nullptr, options);
  if (table.ok() && mutate_) mutate_(s, &*table);
  return table;
}

Divergence Oracle::CheckRawStage(const query::Cq& q,
                                 const std::set<DecodedRow>& expected) {
  const std::string relation = "oracle:REF-UCQ-raw";
  const rdf::Dictionary& dict = answerer_->dict();
  const reformulation::Reformulator ref(&answerer_->schema(), {}, &dict);
  Result<query::Ucq> raw = ref.ReformulateUnminimized(q);
  Result<query::Ucq> minimized = ref.Reformulate(q);
  if (!raw.ok()) return Divergence::Of(relation, raw.status().ToString());
  if (!minimized.ok()) {
    return Divergence::Of(relation, minimized.status().ToString());
  }
  if (minimized->size() > raw->size()) {
    return Divergence::Of(
        relation, "minimization grew the union from " +
                      std::to_string(raw->size()) + " to " +
                      std::to_string(minimized->size()) +
                      " members\nquery: " + q.ToString(dict));
  }
  const storage::SnapshotPtr snap = answerer_->PinSnapshot();
  const engine::Evaluator evaluator(snap.get());
  return CompareAnswer(relation, evaluator.EvaluateUcq(*raw), dict, q,
                       expected);
}

Divergence Oracle::Check(const query::Cq& scenario_q) {
  const query::Cq q =
      TranslateQuery(scenario_q, *scenario_dict_, &answerer_->dict());
  const rdf::Dictionary& dict = answerer_->dict();
  std::set<DecodedRow> expected;
  Divergence d = DecodeAnswer(
      "oracle:SAT", Answer(q, api::Strategy::kSaturation), dict, &expected);
  if (d.found) return d;

  const api::Strategy strategies[] = {
      api::Strategy::kRefUcq, api::Strategy::kRefScq, api::Strategy::kRefGcov,
      api::Strategy::kDatalog};
  for (api::Strategy s : strategies) {
    d = CompareAnswer(std::string("oracle:") + api::StrategyName(s),
                      Answer(q, s), dict, q, expected);
    if (d.found) return d;
  }

  d = CheckRawStage(q, expected);
  if (d.found) return d;

  return CompareAnswer("oracle:REF-INCOMPLETE",
                       Answer(q, api::Strategy::kRefIncomplete), dict, q,
                       expected, Expect::kSubset);
}

}  // namespace testing
}  // namespace rdfref
