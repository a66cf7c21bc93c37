#ifndef RDFREF_QUERY_UCQ_H_
#define RDFREF_QUERY_UCQ_H_

#include <string>
#include <vector>

#include "query/cq.h"

namespace rdfref {
namespace query {

/// \brief A union of conjunctive queries — the classic reformulation target
/// language [7, 8, 9, 12, 16].
///
/// All member CQs share the *arity* of the head; member heads may differ in
/// which slots are constants (when reformulation bound distinguished
/// variables).
class Ucq {
 public:
  Ucq() = default;
  explicit Ucq(std::vector<Cq> members) : members_(std::move(members)) {}

  void Add(Cq cq) { members_.push_back(std::move(cq)); }

  const std::vector<Cq>& members() const { return members_; }
  std::vector<Cq>* mutable_members() { return &members_; }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  /// \brief Head arity (taken from the first member; 0 when empty).
  size_t arity() const { return members_.empty() ? 0 : members_[0].head().size(); }

  std::string ToString(const rdf::Dictionary& dict,
                       size_t max_members = 20) const;

 private:
  std::vector<Cq> members_;
};

}  // namespace query
}  // namespace rdfref

#endif  // RDFREF_QUERY_UCQ_H_
