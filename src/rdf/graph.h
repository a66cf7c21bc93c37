#ifndef RDFREF_RDF_GRAPH_H_
#define RDFREF_RDF_GRAPH_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace rdf {

/// \brief An RDF graph: a set of well-formed triples plus the dictionary
/// interning their values Val(G).
///
/// The graph holds both data triples and RDFS constraint triples (in the DB
/// fragment, schema statements are triples like any other). The set
/// semantics of RDF is respected: inserting a duplicate triple is a no-op.
class Graph {
 public:
  Graph() : dict_(std::make_unique<Dictionary>()) {}

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// \brief Adds an encoded triple; returns true when it was new.
  bool Add(const Triple& t) { return triples_.insert(t).second; }
  bool Add(TermId s, TermId p, TermId o) { return Add(Triple(s, p, o)); }

  /// \brief Interns the three terms and adds the triple.
  bool Add(const Term& s, const Term& p, const Term& o) {
    return Add(dict_->Intern(s), dict_->Intern(p), dict_->Intern(o));
  }

  /// \brief Convenience: adds <s> <p> <o> with all-URI terms.
  bool AddUri(const std::string& s, const std::string& p,
              const std::string& o) {
    return Add(dict_->InternUri(s), dict_->InternUri(p), dict_->InternUri(o));
  }

  /// \brief Convenience: adds a class assertion s rdf:type c.
  bool AddType(TermId s, TermId c) { return Add(s, vocab::kTypeId, c); }

  bool Contains(const Triple& t) const { return triples_.count(t) > 0; }

  /// \brief Removes a triple; returns true when it was present.
  bool Remove(const Triple& t) { return triples_.erase(t) > 0; }

  size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }

  const std::unordered_set<Triple, TripleHash>& triples() const {
    return triples_;
  }

  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }

  /// \brief Returns a fresh blank node id (labels _:g0, _:g1, ...).
  TermId FreshBlank() {
    std::string label = "g";
    label += std::to_string(blank_counter_++);
    return dict_->InternBlank(label);
  }

  /// \brief Deep copy with an *id-identical* dictionary: every TermId valid
  /// against this graph is valid against the clone and names the same term.
  /// Graphs are otherwise move-only; cloning is explicit because it copies
  /// the whole dictionary. Used by the differential-testing harness to
  /// answer the same query against many QueryAnswerer instances.
  Graph Clone() const {
    Graph out;
    for (TermId id = vocab::kNumBuiltins; id < dict_->size(); ++id) {
      out.dict_->Intern(dict_->Lookup(id));
    }
    // The hierarchy encoding describes the id space, which the clone shares.
    out.dict_->set_encoding(dict_->encoding_ptr());
    out.triples_ = triples_;
    out.blank_counter_ = blank_counter_;
    return out;
  }

  /// \brief Rewrites the graph through a term-id permutation: the dictionary
  /// is permuted (see Dictionary::ApplyPermutation) and every triple's ids
  /// are translated. Drops any attached encoding; the schema encoder is the
  /// intended caller and installs the matching tables afterwards.
  void Remap(const std::vector<TermId>& old_to_new);

  /// \brief Copies all triples as a sorted vector (deterministic order for
  /// tests and store loading).
  std::vector<Triple> SortedTriples() const;

  /// \brief Counts RDFS constraint triples (schema component of the graph).
  size_t CountSchemaTriples() const;

 private:
  std::unique_ptr<Dictionary> dict_;
  std::unordered_set<Triple, TripleHash> triples_;
  uint64_t blank_counter_ = 0;
};

}  // namespace rdf
}  // namespace rdfref

#endif  // RDFREF_RDF_GRAPH_H_
