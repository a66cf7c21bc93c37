#ifndef RDFREF_STORAGE_VERTICAL_STORE_H_
#define RDFREF_STORAGE_VERTICAL_STORE_H_

#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace storage {

/// \brief A second RDBMS-style back-end: vertically partitioned storage —
/// one two-column (subject, object) table per property, each kept in both
/// subject and object order.
///
/// The demonstration runs its reformulations against *three* different
/// RDBMSs; this backend (the classic SW-store / vertical-partitioning
/// layout) complements the clustered-permutation Store so the benchmarks
/// can compare reformulation strategies across physical designs:
///   - property-bound patterns are fast (a dedicated table);
///   - patterns with an *unbound property* must union over every table —
///     precisely the access pattern reformulation rules 8-13 generate,
///     which is why variable-property atoms are expensive here.
class VerticalStore : public TripleSource {
 public:
  explicit VerticalStore(const rdf::Graph& graph);

  VerticalStore(const VerticalStore&) = delete;
  VerticalStore& operator=(const VerticalStore&) = delete;

  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override;
  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override;
  const rdf::Dictionary& dict() const RDFREF_LIFETIME_BOUND override {
    return *dict_;
  }

  /// \brief Each property table holds each (subject, object) pair once.
  bool DeliversDistinctTriples() const override { return true; }

  size_t size() const { return total_; }
  size_t num_properties() const { return tables_.size(); }

 private:
  struct PropertyTable {
    std::vector<std::pair<rdf::TermId, rdf::TermId>> by_subject;  // (s, o)
    std::vector<std::pair<rdf::TermId, rdf::TermId>> by_object;   // (o, s)
  };

  // Appends one property table's matches under the given subject/object
  // bounds to `out`.
  static void ScanTable(const PropertyTable& table, rdf::TermId p,
                        rdf::TermId s, rdf::TermId o,
                        std::vector<rdf::Triple>* out);
  static size_t CountTable(const PropertyTable& table, rdf::TermId s,
                           rdf::TermId o);

  const rdf::Dictionary* dict_;
  std::unordered_map<rdf::TermId, PropertyTable> tables_;
  std::vector<rdf::TermId> properties_;  // deterministic iteration order
  size_t total_ = 0;
};

}  // namespace storage
}  // namespace rdfref

#endif  // RDFREF_STORAGE_VERTICAL_STORE_H_
