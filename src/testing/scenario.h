#ifndef RDFREF_TESTING_SCENARIO_H_
#define RDFREF_TESTING_SCENARIO_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "query/cq.h"
#include "query/ucq.h"
#include "rdf/graph.h"
#include "rdf/triple.h"

namespace rdfref {
namespace testing {

/// \brief Where a scenario's graph comes from.
enum class ScenarioSource {
  /// The random pool generator below (the default).
  kRandom,
  /// The SP2Bench-style bibliographic generator (datagen::Sp2b): deep
  /// class/property hierarchies, cyclic Zipf-skewed citations. The pool
  /// knobs below are ignored; `sp2b_documents` scales the graph. Queries
  /// then draw constants from the sp2b vocabulary, which reaches shapes
  /// the uniform pools never produce (8-deep reformulation fans, cycles).
  kSp2b,
};

/// \brief Knobs of the random scenario generator. The defaults reproduce
/// the shapes the original equivalence property test used; the fuzz driver
/// scales them up and down to hunt corner cases (tiny schemas where one
/// constraint dominates, dense DAGs where closures explode, sparse data
/// where most reformulation members are empty).
struct ScenarioOptions {
  ScenarioSource source = ScenarioSource::kRandom;
  /// Document count of a kSp2b scenario: min + U(extra + 1), seed-drawn so
  /// different fuzz seeds exercise different population sizes.
  int sp2b_min_documents = 24, sp2b_extra_documents = 40;
  /// Vocabulary pools: count = min + U(extra + 1).
  int min_classes = 4, extra_classes = 3;
  int min_properties = 3, extra_properties = 2;
  int min_subjects = 12, extra_subjects = 11;
  int num_literals = 3;
  /// RDFS constraint counts (subClassOf / subPropertyOf edges form random
  /// DAG-like relations; cycles are allowed — the DB fragment handles them).
  int min_subclass = 2, extra_subclass = 3;
  int min_subproperty = 1, extra_subproperty = 2;
  int min_domain = 0, extra_domain = 2;
  int min_range = 0, extra_range = 2;
  /// Instance triples and their mix.
  int min_triples = 30, extra_triples = 39;
  double type_assertion_rate = 0.3;   ///< P(fact is s rdf:type C)
  double literal_object_rate = 0.25;  ///< P(property fact has literal object)
};

/// \brief A generated differential-testing scenario: one RDF graph (schema
/// + instance triples) plus the vocabulary pools queries draw constants
/// from and the explicit triple lists the shrinker minimizes over.
struct Scenario {
  rdf::Graph graph;
  std::vector<rdf::TermId> classes;
  std::vector<rdf::TermId> properties;
  std::vector<rdf::TermId> subjects;
  std::vector<rdf::TermId> literals;
  /// The generated RDFS constraint triples, in generation order.
  std::vector<rdf::Triple> schema_triples;
  /// The generated instance triples (deduplicated), in generation order.
  std::vector<rdf::Triple> data_triples;
};

/// \brief Draws a scenario from a seed (deterministic; independent of
/// platform and of any other consumer of the seed).
Scenario GenerateScenario(uint64_t seed, const ScenarioOptions& options = {});

/// \brief Rebuilds a scenario holding exactly `schema` + `data`, with a
/// dictionary id-compatible with `base` (pools are copied so query
/// generation still works). The shrinker calls this for every removal
/// candidate.
Scenario RestrictScenario(const Scenario& base,
                          const std::vector<rdf::Triple>& schema,
                          const std::vector<rdf::Triple>& data);

/// \brief Knobs of the random conjunctive-query generator. Defaults match
/// the original equivalence property test: 1-3 atoms over a pool of 3
/// variables, variables allowed in property and class positions.
struct QueryOptions {
  int var_pool = 3;
  int min_atoms = 1, extra_atoms = 2;
  double subject_var_rate = 0.7;   ///< P(subject is a variable)
  double type_atom_rate = 0.4;     ///< P(atom is an rdf:type atom)
  double property_atom_rate = 0.5; ///< P(constant-property atom); the rest
                                   ///< get a *variable* property
  double class_const_rate = 0.7;   ///< P(type atom names a constant class)
  double object_var_rate = 0.6;    ///< P(property atom's object is a var)
};

/// \brief Draws a random CQ over the scenario's vocabulary. The head binds
/// every body variable (complete bindings make divergences visible). Always
/// returns a safe query with at least one head variable.
query::Cq GenerateQuery(const Scenario& sc, Rng* rng,
                        const QueryOptions& options = {});

/// \brief Draws a fresh instance fact over the scenario's vocabulary: a
/// random subject, then with probability 0.3 an rdf:type assertion of a
/// random class, otherwise a property assertion whose object and property
/// are drawn in that order. Every update relation draws its inserts here,
/// in a fixed sequence, so a seed replays the same facts under any
/// compiler.
rdf::Triple GenerateFact(const Scenario& sc, Rng* rng);

/// \brief Draws a random UCQ: 1 + U(max_extra_members + 1) member CQs of
/// equal head arity (AnswerUnion requires it).
query::Ucq GenerateUcq(const Scenario& sc, Rng* rng, int max_extra_members,
                       const QueryOptions& options = {});

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_SCENARIO_H_
