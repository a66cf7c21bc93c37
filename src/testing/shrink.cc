#include "testing/shrink.h"

#include <sstream>
#include <string>
#include <utility>

#include "rdf/vocab.h"

namespace rdfref {
namespace testing {

namespace {

namespace vocab = rdf::vocab;

/// Drops atom `at` and rebuilds the head from the remaining body variables
/// (complete bindings, as the generator produces).
query::Cq DropAtom(const query::Cq& q, size_t at) {
  query::Cq out = q;
  out.mutable_body()->erase(out.mutable_body()->begin() + at);
  out.mutable_head()->clear();
  for (query::VarId v : out.BodyVars()) {
    out.AddHead(query::QTerm::Var(v));
  }
  return out;
}

}  // namespace

ShrinkResult Shrink(const Scenario& sc, const query::Cq& q,
                    const FailurePredicate& fails, int max_evaluations) {
  ShrinkResult result;
  result.schema_triples = sc.schema_triples;
  result.data_triples = sc.data_triples;
  result.query = q;

  auto still_fails = [&](const std::vector<rdf::Triple>& schema,
                         const std::vector<rdf::Triple>& data,
                         const query::Cq& query) {
    if (max_evaluations > 0 && result.evaluations >= max_evaluations) {
      result.truncated = true;  // out of budget: keep what fails so far
      return false;
    }
    ++result.evaluations;
    Scenario candidate = RestrictScenario(sc, schema, data);
    return fails(candidate, query);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.rounds;

    // Data triples first: there are the most of them and each removal
    // shrinks every later candidate evaluation.
    for (size_t i = 0; i < result.data_triples.size();) {
      std::vector<rdf::Triple> candidate = result.data_triples;
      candidate.erase(candidate.begin() + i);
      if (still_fails(result.schema_triples, candidate, result.query)) {
        result.data_triples = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < result.schema_triples.size();) {
      std::vector<rdf::Triple> candidate = result.schema_triples;
      candidate.erase(candidate.begin() + i);
      if (still_fails(candidate, result.data_triples, result.query)) {
        result.schema_triples = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; result.query.body().size() > 1 &&
                       i < result.query.body().size();) {
      query::Cq candidate = DropAtom(result.query, i);
      if (candidate.head().empty()) {
        ++i;  // would become a boolean query; keep the atom
        continue;
      }
      if (still_fails(result.schema_triples, result.data_triples,
                      candidate)) {
        result.query = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
  }
  return result;
}

namespace {

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// C++ expression rebuilding term `id` against `dict` in the repro.
std::string TermExpr(const rdf::Dictionary& dict, rdf::TermId id) {
  switch (id) {
    case vocab::kTypeId: return "rdf::vocab::kTypeId";
    case vocab::kSubClassOfId: return "rdf::vocab::kSubClassOfId";
    case vocab::kSubPropertyOfId: return "rdf::vocab::kSubPropertyOfId";
    case vocab::kDomainId: return "rdf::vocab::kDomainId";
    case vocab::kRangeId: return "rdf::vocab::kRangeId";
    default: break;
  }
  const rdf::Term& term = dict.Lookup(id);
  const std::string lex = EscapeString(term.lexical);
  switch (term.kind) {
    case rdf::TermKind::kUri: return "dict.InternUri(\"" + lex + "\")";
    case rdf::TermKind::kLiteral:
      return "dict.InternLiteral(\"" + lex + "\")";
    case rdf::TermKind::kBlank: return "dict.InternBlank(\"" + lex + "\")";
  }
  return "/* unreachable */ 0";
}

std::string QTermExpr(const rdf::Dictionary& dict, query::QTerm t) {
  if (t.is_var) {
    return "query::QTerm::Var(" + std::to_string(t.var()) + ")";
  }
  return "query::QTerm::Const(" + TermExpr(dict, t.term()) + ")";
}

}  // namespace

std::string EmitReproTest(const Scenario& base, const ShrinkResult& shrunk,
                          const std::string& test_name,
                          const std::string& relation) {
  const rdf::Dictionary& dict = base.graph.dict();
  std::ostringstream os;
  os << "// Shrunken differential-fuzzing repro (" << relation << "),\n"
     << "// generated by tools/fuzz_driver — " << shrunk.triples()
     << " triple(s), " << shrunk.query.body().size() << " atom(s).\n"
     << "// Compiles in any test target linking rdfref_api.\n"
     << "TEST(FuzzRepro, " << test_name << ") {\n"
     << "  rdf::Graph g;\n"
     << "  {\n"
     << "    rdf::Dictionary& dict = g.dict();\n";
  for (const rdf::Triple& t : shrunk.schema_triples) {
    os << "    g.Add(" << TermExpr(dict, t.s) << ", " << TermExpr(dict, t.p)
       << ", " << TermExpr(dict, t.o) << ");\n";
  }
  for (const rdf::Triple& t : shrunk.data_triples) {
    os << "    g.Add(" << TermExpr(dict, t.s) << ", " << TermExpr(dict, t.p)
       << ", " << TermExpr(dict, t.o) << ");\n";
  }
  // The query's constants must be interned AFTER construction: the
  // answerer hierarchy-encodes (permutes) the dictionary, so any TermId
  // taken from the pre-construction dict would be stale in the query.
  os << "  }\n"
     << "\n  api::QueryAnswerer answerer(std::move(g));\n"
     << "  rdf::Dictionary& dict = answerer.dict();\n"
     << "\n  query::Cq q;\n";
  for (query::VarId v = 0; v < shrunk.query.num_vars(); ++v) {
    os << "  q.AddVar(\"" << EscapeString(shrunk.query.var_name(v))
       << "\");  // VarId " << v << "\n";
  }
  for (const query::Atom& a : shrunk.query.body()) {
    os << "  q.AddAtom(query::Atom(" << QTermExpr(dict, a.s) << ",\n"
       << "                        " << QTermExpr(dict, a.p) << ",\n"
       << "                        " << QTermExpr(dict, a.o) << "));\n";
  }
  for (query::QTerm h : shrunk.query.head()) {
    os << "  q.AddHead(" << QTermExpr(dict, h) << ");\n";
  }
  os << "\n  auto sat = answerer.Answer(q, api::Strategy::kSaturation);\n"
     << "  ASSERT_TRUE(sat.ok()) << sat.status();\n"
     << "  std::set<std::vector<rdf::TermId>> expected = sat->RowSet();\n"
     << "  for (api::Strategy s :\n"
     << "       {api::Strategy::kRefUcq, api::Strategy::kRefScq,\n"
     << "        api::Strategy::kRefGcov, api::Strategy::kDatalog}) {\n"
     << "    auto got = answerer.Answer(q, s);\n"
     << "    ASSERT_TRUE(got.ok()) << api::StrategyName(s);\n"
     << "    EXPECT_EQ(got->RowSet(), expected)\n"
     << "        << api::StrategyName(s);\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

std::string EmitSeedFile(uint64_t seed, int trial,
                         const std::string& relation) {
  std::ostringstream os;
  os << "# rdfref fuzz seed file — replay with: fuzz_driver --replay <file>\n"
     << "seed " << seed << "\n"
     << "trial " << trial << "\n"
     << "relation " << relation << "\n";
  return os.str();
}

bool ParseSeedFile(const std::string& contents, SeedFileEntry* out) {
  std::istringstream is(contents);
  std::string line;
  bool saw_seed = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "seed") {
      if (!(fields >> out->seed)) return false;
      saw_seed = true;
    } else if (key == "trial") {
      if (!(fields >> out->trial)) return false;
    } else if (key == "relation") {
      std::string rest;
      std::getline(fields, rest);
      while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
      out->relation = rest;
    } else {
      return false;
    }
  }
  return saw_seed;
}

}  // namespace testing
}  // namespace rdfref
