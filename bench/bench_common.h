#ifndef RDFREF_BENCH_BENCH_COMMON_H_
#define RDFREF_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/query_answering.h"
#include "datagen/lubm.h"
#include "datagen/sp2b.h"
#include "query/sparql_parser.h"

namespace rdfref {
namespace bench {

inline constexpr const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

/// \brief Lazily built shared LUBM-style answerer (one per process).
inline api::QueryAnswerer* SharedLubm(int universities = 3,
                                      double scale = 1.0) {
  static api::QueryAnswerer* answerer = [universities, scale]() {
    datagen::LubmConfig config;
    config.universities = universities;
    config.scale = scale;
    // A compact degree pool keeps Example 1 non-empty at bench scale (the
    // paper's LUBM 100M references ~1000 universities at 1000x our size).
    config.referenced_universities = 10;
    rdf::Graph graph;
    datagen::Lubm::Generate(config, &graph);
    auto* a = new api::QueryAnswerer(std::move(graph));
    std::printf("# LUBM-style dataset: %d universities, scale %.2f, "
                "%zu explicit triples\n",
                universities, scale, a->num_explicit_triples());
    return a;
  }();
  return answerer;
}

/// \brief Parses a ub:-prefixed SPARQL BGP against the answerer's
/// dictionary; aborts on error (benchmark setup code).
inline query::Cq ParseUb(api::QueryAnswerer* answerer,
                         const std::string& body) {
  auto q = query::ParseSparql(kUbPrefix + body, &answerer->dict());
  if (!q.ok()) {
    std::fprintf(stderr, "query parse failed: %s\n",
                 q.status().ToString().c_str());
    std::abort();
  }
  return *q;
}

/// \brief The LUBM-flavoured query suite used across benchmarks (the demo's
/// step 2 compares "a query" across all systems; we sweep a suite).
inline const std::vector<std::pair<std::string, std::string>>&
LubmQuerySuite() {
  static const auto* suite =
      new std::vector<std::pair<std::string, std::string>>{
          {"Q1-persons", "SELECT ?x WHERE { ?x a ub:Person . }"},
          {"Q2-professors",
           "SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d . }"},
          {"Q3-students",
           "SELECT ?x ?c WHERE { ?x a ub:Student . ?x ub:takesCourse ?c . }"},
          {"Q4-advisors",
           "SELECT ?x ?a WHERE { ?x ub:advisor ?a . ?a ub:headOf ?d . }"},
          {"Q5-degrees",
           "SELECT ?x WHERE { ?x ub:degreeFrom "
           "<http://www.University1.edu> . }"},
          {"Q6-members",
           "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . ?x ub:memberOf ?z . }"},
          {"Q7-typed-degrees",
           "SELECT ?x ?u WHERE { ?x rdf:type ?u . "
           "?x ub:mastersDegreeFrom <http://www.University1.edu> . }"},
          {"Q8-org-units",
           "SELECT ?g ?d WHERE { ?g a ub:Organization . "
           "?g ub:subOrganizationOf ?d . }"},
          {"Q9-teachers",
           "SELECT ?f ?c ?s WHERE { ?f ub:teacherOf ?c . "
           "?s ub:takesCourse ?c . ?s a ub:Student . }"},
          {"Q10-chain",
           "SELECT ?s ?a ?d WHERE { ?s ub:advisor ?a . "
           "?a ub:worksFor ?d . ?d ub:subOrganizationOf ?u . }"},
      };
  return *suite;
}

/// \brief The Example 1 query of the paper (six triple patterns).
inline query::Cq Example1Query(api::QueryAnswerer* answerer,
                               int university = 1) {
  const std::string univ = datagen::Lubm::UniversityUri(university);
  return ParseUb(answerer,
                 "SELECT ?x ?u ?y ?v ?z WHERE {\n"
                 "  ?x rdf:type ?u .\n"
                 "  ?y rdf:type ?v .\n"
                 "  ?x ub:mastersDegreeFrom <" + univ + "> .\n"
                 "  ?y ub:doctoralDegreeFrom <" + univ + "> .\n"
                 "  ?x ub:memberOf ?z .\n"
                 "  ?y ub:memberOf ?z .\n"
                 "}");
}

/// \brief The paper's winning cover for Example 1 (0-indexed atoms).
inline query::Cover Example1PaperCover() {
  return query::Cover({{0, 2}, {2, 4}, {1, 3}, {3, 5}});
}

/// \brief Lazily built shared sp2b answerer (one per process) at the
/// generator's default seed.
inline api::QueryAnswerer* SharedSp2b(double scale = 0.1) {
  static api::QueryAnswerer* answerer = [scale]() {
    datagen::Sp2bConfig config;
    config.scale = scale;
    rdf::Graph graph;
    datagen::Sp2b::Generate(config, &graph);
    return new api::QueryAnswerer(std::move(graph));
  }();
  return answerer;
}

/// \brief The eight query templates of the sp2b-rw workload, as full
/// SPARQL: each point template's slot is its pool's first entry.
inline const std::vector<std::pair<std::string, std::string>>&
Sp2bTemplateSuite() {
  static const auto* suite = [] {
    const std::string ns = datagen::Sp2b::kNs;
    const std::string prefix = "PREFIX sp: <" + ns + ">\n";
    const std::string doc = "<" + ns + "doc/0>";
    const std::string author = "<" + ns + "author/0>";
    const std::string venue = "<" + ns + "venue/0>";
    const std::vector<std::pair<std::string, std::string>> bodies = {
        {"P1-citers", "SELECT ?x WHERE { ?x sp:cites " + doc + " . }"},
        {"P2-author-papers", "SELECT ?d ?v WHERE { ?d sp:hasAuthor " +
                                 author + " . ?d sp:publishedIn ?v . }"},
        {"P3-venue-pubs", "SELECT ?d WHERE { ?d sp:publishedIn " + venue +
                              " . ?d a sp:Publication . }"},
        {"P4-doc-star", "SELECT ?p ?v ?o WHERE { " + doc +
                            " sp:hasContributor ?p . " + doc +
                            " sp:publishedIn ?v . " + doc +
                            " sp:references ?o . }"},
        {"P5-author-chain", "SELECT ?x ?y WHERE { ?w sp:hasAuthor " + author +
                                " . ?w sp:cites ?x . ?x sp:cites ?y . }"},
        {"A1-publications", "SELECT ?d WHERE { ?d a sp:Publication . }"},
        {"A2-mutual-citations",
         "SELECT ?x ?y WHERE { ?x sp:cites ?y . ?y sp:cites ?x . }"},
        {"A3-coauthor-cites",
         "SELECT ?x ?y ?p WHERE { ?x sp:hasAuthor ?p . "
         "?y sp:hasAuthor ?p . ?x sp:cites ?y . }"},
    };
    auto* out = new std::vector<std::pair<std::string, std::string>>;
    for (const auto& [name, body] : bodies) {
      out->emplace_back(name, prefix + body);
    }
    return out;
  }();
  return *suite;
}

}  // namespace bench
}  // namespace rdfref

#endif  // RDFREF_BENCH_BENCH_COMMON_H_
