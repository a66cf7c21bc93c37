#include "testing/metamorphic.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "federation/federation.h"
#include "testing/reference_eval.h"

namespace rdfref {
namespace testing {

Divergence CheckDeadlineInvariance(const Scenario& sc,
                                   const query::Cq& scenario_q) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  const query::Cq q =
      TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  std::set<DecodedRow> expected;
  Divergence d =
      DecodeAnswer("metamorphic:deadline",
                   answerer.Answer(q, api::Strategy::kRefUcq),
                   answerer.dict(), &expected);
  if (d.found) return d;

  // An explicit infinite deadline and a generous finite one both take the
  // deadline-polling code paths; neither may change the answer.
  const Deadline deadlines[] = {Deadline::Infinite(),
                                Deadline::AfterMillis(1e8)};
  for (const Deadline& deadline : deadlines) {
    api::AnswerOptions options;
    options.deadline = deadline;
    d = CompareAnswer(
        "metamorphic:deadline",
        answerer.Answer(q, api::Strategy::kRefUcq, nullptr, options),
        answerer.dict(), q, expected);
    if (d.found) return d;
  }
  return Divergence::None();
}

Divergence CheckProjection(const Scenario& sc, const query::Cq& scenario_q,
                           uint64_t seed, uint64_t* refusals) {
  // Slot i is dropped when bit i of a draw in [1, 2^n - 2] is set.
  const size_t arity = scenario_q.head().size();
  Rng rng(seed);
  const uint64_t dropped = 1 + rng.Uniform((uint64_t{1} << arity) - 2);
  query::Cq projected = scenario_q;
  projected.mutable_head()->clear();
  std::vector<size_t> kept;
  for (size_t i = 0; i < arity; ++i) {
    if ((dropped >> i) & 1) continue;
    kept.push_back(i);
    projected.AddHead(scenario_q.head()[i]);
  }
  const std::string prefix = "metamorphic:projection:";

  Divergence d = CheckColumnarVsReference(sc, projected, refusals);
  if (d.found) {
    d.relation = prefix + d.relation;
    return d;
  }

  api::QueryAnswerer answerer(sc.graph.Clone());
  const rdf::Dictionary& dict = answerer.dict();
  const query::Cq full =
      TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  const query::Cq q =
      TranslateQuery(projected, sc.graph.dict(), &answerer.dict());
  std::set<DecodedRow> full_rows;
  d = DecodeAnswer(prefix + "SAT-full",
                   answerer.Answer(full, api::Strategy::kSaturation), dict,
                   &full_rows);
  if (d.found) return d;
  std::set<DecodedRow> expected;
  for (const DecodedRow& row : full_rows) {
    DecodedRow slots;
    for (size_t i : kept) slots.push_back(row[i]);
    expected.insert(std::move(slots));
  }
  for (api::Strategy s :
       {api::Strategy::kSaturation, api::Strategy::kRefUcq,
        api::Strategy::kRefScq, api::Strategy::kRefGcov,
        api::Strategy::kDatalog}) {
    Result<engine::Table> got = answerer.Answer(q, s);
    if (!got.ok() && got.status().code() == StatusCode::kResourceExhausted) {
      if (refusals != nullptr) ++*refusals;
      continue;
    }
    d = CompareAnswer(prefix + api::StrategyName(s), got, dict, q, expected);
    if (d.found) return d;
  }
  return Divergence::None();
}

Divergence CheckFederationPartition(const Scenario& sc, const query::Cq& q,
                                    int num_endpoints, uint64_t seed) {
  // Centralized ground truth (query translated into the answerer's
  // hierarchy-encoded id space; the comparison below is over decoded terms,
  // so the two id spaces never meet).
  api::QueryAnswerer central(sc.graph.Clone());
  query::Cq central_q = TranslateQuery(q, sc.graph.dict(), &central.dict());
  std::set<DecodedRow> expected;
  Divergence d = DecodeAnswer(
      "metamorphic:federation",
      central.Answer(central_q, api::Strategy::kSaturation), central.dict(),
      &expected);
  if (d.found) return d;

  // Random partition of schema AND data triples: cross-endpoint
  // consequences (fact on one endpoint, constraint on another) are the
  // interesting case, and a random split produces plenty of them.
  Rng rng(seed);
  std::vector<rdf::Graph> parts;
  for (int i = 0; i < num_endpoints; ++i) parts.emplace_back();
  auto assign = [&](const rdf::Triple& t) {
    rdf::Graph& g = parts[rng.Uniform(parts.size())];
    const rdf::Dictionary& dict = sc.graph.dict();
    g.Add(dict.Lookup(t.s), dict.Lookup(t.p), dict.Lookup(t.o));
  };
  for (const rdf::Triple& t : sc.schema_triples) assign(t);
  for (const rdf::Triple& t : sc.data_triples) assign(t);

  federation::Federation fed;
  for (int i = 0; i < num_endpoints; ++i) {
    fed.AddEndpoint("ep" + std::to_string(i), parts[i]);
  }
  query::Cq fed_q = TranslateQuery(q, sc.graph.dict(), &fed.dict());
  return CompareAnswer("metamorphic:federation", fed.Answer(fed_q),
                       fed.dict(), fed_q, expected);
}

Divergence CheckInsertionMonotonicity(const Scenario& sc,
                                      const query::Cq& scenario_q, Rng* rng,
                                      int num_inserts) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  const query::Cq q =
      TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  std::set<DecodedRow> previous;
  Divergence d = DecodeAnswer("metamorphic:monotonicity",
                              answerer.Answer(q, api::Strategy::kSaturation),
                              answerer.dict(), &previous);
  if (d.found) return d;

  for (int i = 0; i < num_inserts; ++i) {
    Status st = answerer.InsertTriple(TranslateTriple(
        GenerateFact(sc, rng), sc.graph.dict(), &answerer.dict()));
    if (!st.ok()) {
      return Divergence::Of("metamorphic:monotonicity",
                            "insert failed: " + st.ToString());
    }

    // Insertion loses no answer...
    std::set<DecodedRow> now;
    d = CompareAnswer("metamorphic:monotonicity",
                      answerer.Answer(q, api::Strategy::kSaturation),
                      answerer.dict(), q, previous, Expect::kSuperset, &now);
    if (d.found) return d;
    // ...and the complete strategies keep agreeing on the grown graph.
    for (api::Strategy s2 :
         {api::Strategy::kRefUcq, api::Strategy::kDatalog}) {
      d = CompareAnswer(
          std::string("metamorphic:monotonicity:") + api::StrategyName(s2),
          answerer.Answer(q, s2), answerer.dict(), q, now);
      if (d.found) return d;
    }
    previous = std::move(now);
  }
  return Divergence::None();
}

Divergence CheckUpdateConsistency(const Scenario& sc,
                                  const query::Cq& scenario_q, Rng* rng,
                                  int num_ops) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  const query::Cq q =
      TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  // Saturate now so every later update exercises the *incremental* paths
  // (forward chase on insert, DRed on delete) rather than a lazy rebuild.
  auto warm = answerer.Answer(q, api::Strategy::kSaturation);
  if (!warm.ok()) {
    return Divergence::Of("metamorphic:updates", warm.status().ToString());
  }

  std::vector<rdf::Triple> facts = sc.data_triples;
  for (int op = 0; op < num_ops; ++op) {
    const bool remove = !facts.empty() && rng->Chance(0.5);
    if (remove) {
      size_t at = rng->Uniform(facts.size());
      rdf::Triple t = facts[at];
      facts.erase(facts.begin() + at);
      Status st = answerer.RemoveTriple(
          TranslateTriple(t, sc.graph.dict(), &answerer.dict()));
      if (!st.ok()) {
        return Divergence::Of("metamorphic:updates",
                              "remove failed: " + st.ToString());
      }
    } else {
      const rdf::Triple t = GenerateFact(sc, rng);
      if (std::find(facts.begin(), facts.end(), t) == facts.end()) {
        facts.push_back(t);
      }
      Status st = answerer.InsertTriple(
          TranslateTriple(t, sc.graph.dict(), &answerer.dict()));
      if (!st.ok()) {
        return Divergence::Of("metamorphic:updates",
                              "insert failed: " + st.ToString());
      }
    }

    // Ground truth: a from-scratch answerer over the current explicit set.
    // `facts` is kept in scenario ids; the fresh answerer re-encodes its own
    // clone, so the query is translated into *its* id space independently.
    Scenario current = RestrictScenario(sc, sc.schema_triples, facts);
    api::QueryAnswerer fresh(current.graph.Clone());
    query::Cq fresh_q =
        TranslateQuery(scenario_q, sc.graph.dict(), &fresh.dict());
    std::set<DecodedRow> expected;
    Divergence d = DecodeAnswer(
        "metamorphic:updates",
        fresh.Answer(fresh_q, api::Strategy::kSaturation), fresh.dict(),
        &expected);
    if (d.found) return d;

    for (api::Strategy s : {api::Strategy::kSaturation,
                            api::Strategy::kRefUcq, api::Strategy::kDatalog}) {
      d = CompareAnswer(std::string("metamorphic:updates:op") +
                            std::to_string(op) + ":" + api::StrategyName(s),
                        answerer.Answer(q, s), answerer.dict(), q, expected);
      if (d.found) return d;
    }
  }
  return Divergence::None();
}

}  // namespace testing
}  // namespace rdfref
