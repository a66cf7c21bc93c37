// Example 1 of the paper at laptop scale: the LUBM query whose UCQ
// reformulation explodes, whose SCQ reformulation is slow, and whose
// well-chosen JUCQ cover is fast.
//
//   ./university_demo [universities=2] [scale=1.0]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/query_answering.h"
#include "datagen/lubm.h"
#include "query/sparql_parser.h"

namespace {

void PrintProfile(const char* label, const rdfref::api::AnswerProfile& p,
                  size_t answers) {
  std::printf("%-22s reformulation: %8llu CQs (of %llu)   prepare: %8.2f "
              "ms   eval: %9.2f ms   answers: %zu\n",
              label, static_cast<unsigned long long>(p.reformulation_cqs),
              static_cast<unsigned long long>(p.raw_cqs), p.prepare_millis,
              p.eval_millis, answers);
  for (const auto& f : p.jucq.fragments) {
    std::printf("    fragment %-14s %6llu CQs -> %9llu rows in %8.2f ms\n",
                f.cover_fragment.c_str(),
                static_cast<unsigned long long>(f.ucq_members),
                static_cast<unsigned long long>(f.result_rows), f.millis);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using rdfref::api::AnswerOptions;
  using rdfref::api::AnswerProfile;
  using rdfref::api::QueryAnswerer;
  using rdfref::api::Strategy;

  rdfref::datagen::LubmConfig config;
  config.universities = argc > 1 ? std::atoi(argv[1]) : 2;
  config.scale = argc > 2 ? std::atof(argv[2]) : 1.0;
  // Keep the degree pool compact so the Example 1 join is non-empty at
  // laptop scale (LUBM 100M references ~1000 universities at ~1000x size).
  config.referenced_universities = 10;

  std::printf("generating LUBM-style data (%d universities, scale %.2f)\n",
              config.universities, config.scale);
  rdfref::rdf::Graph graph;
  rdfref::datagen::Lubm::Generate(config, &graph);
  QueryAnswerer answerer(std::move(graph));
  std::printf("%zu explicit triples\n\n", answerer.num_explicit_triples());

  const std::string univ = rdfref::datagen::Lubm::UniversityUri(1);
  auto query = rdfref::query::ParseSparql(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x ?u ?y ?v ?z WHERE {\n"
      "  ?x rdf:type ?u .\n"                       // (t1)
      "  ?y rdf:type ?v .\n"                       // (t2)
      "  ?x ub:mastersDegreeFrom <" + univ + "> .\n"   // (t3)
      "  ?y ub:doctoralDegreeFrom <" + univ + "> .\n"  // (t4)
      "  ?x ub:memberOf ?z .\n"                    // (t5)
      "  ?y ub:memberOf ?z .\n"                    // (t6)
      "}",
      &answerer.dict());
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  // The UCQ reformulation explodes: count it without materializing.
  rdfref::reformulation::Reformulator reformulator(&answerer.schema());
  auto count = reformulator.CountReformulations(*query);
  if (count.ok()) {
    std::printf("UCQ reformulation of q: %llu CQs "
                "(paper: 318,096 — \"could not even be parsed\")\n\n",
                static_cast<unsigned long long>(*count));
  }

  // SCQ (the singleton cover of [15]).
  AnswerProfile scq;
  auto scq_table = answerer.Answer(*query, Strategy::kRefScq, &scq);
  if (!scq_table.ok()) {
    std::fprintf(stderr, "SCQ failed: %s\n",
                 scq_table.status().ToString().c_str());
    return 1;
  }
  PrintProfile("SCQ  (q' of Ex. 1)", scq, scq_table->NumRows());

  // The paper's winning cover q'' = {t1,t3}{t3,t5}{t2,t4}{t4,t6}.
  AnswerOptions options;
  options.cover = rdfref::query::Cover({{0, 2}, {2, 4}, {1, 3}, {3, 5}});
  AnswerProfile jucq;
  auto jucq_table =
      answerer.Answer(*query, Strategy::kRefJucq, &jucq, options);
  if (!jucq_table.ok()) {
    std::fprintf(stderr, "JUCQ failed: %s\n",
                 jucq_table.status().ToString().c_str());
    return 1;
  }
  PrintProfile("JUCQ (q'' of Ex. 1)", jucq, jucq_table->NumRows());

  // GCov finds a cover automatically.
  AnswerProfile gcov;
  auto gcov_table = answerer.Answer(*query, Strategy::kRefGcov, &gcov);
  if (!gcov_table.ok()) {
    std::fprintf(stderr, "GCov failed: %s\n",
                 gcov_table.status().ToString().c_str());
    return 1;
  }
  std::printf("\nGCov selected cover: %s\n", gcov.cover.ToString().c_str());
  PrintProfile("GCov-selected JUCQ", gcov, gcov_table->NumRows());

  double speedup = scq.eval_millis / (jucq.eval_millis > 0.001
                                          ? jucq.eval_millis
                                          : 0.001);
  std::printf("\nq'' evaluation is %.1fx faster than q' "
              "(paper: >430x at 100M triples)\n",
              speedup);
  return 0;
}
