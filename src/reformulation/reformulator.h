#ifndef RDFREF_REFORMULATION_REFORMULATOR_H_
#define RDFREF_REFORMULATION_REFORMULATOR_H_

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/result.h"
#include "query/cq.h"
#include "query/ucq.h"
#include "schema/schema.h"

namespace rdfref {
namespace reformulation {

/// \brief Options bounding reformulation work.
struct ReformulationOptions {
  /// Hard cap on the number of CQs in a produced UCQ. The paper's Example 1
  /// reformulates into 318,096 CQs, "which could not even be parsed" by the
  /// target systems; we mirror that failure mode by refusing (with
  /// kResourceExhausted) to materialize UCQs beyond this bound.
  uint64_t max_cqs = 1'000'000;
  /// Forces the general CQ-level worklist even when the per-atom product
  /// fast path applies (ablation and differential testing).
  bool force_worklist = false;
  /// Prunes union members subsumed by others (query::MinimizeUcq) after
  /// reformulation. Quadratic in the member count, so only applied to
  /// unions of at most 4096 members.
  bool minimize = false;
  /// Fuses the hierarchy rule families (rules 1/4/5/8) into single
  /// id-interval members when the dictionary carries a hierarchy encoding
  /// (schema/encoder.h). Terms escaping the encoding — secondary parents of
  /// multi-parent nodes, over-budget hierarchies, terms related after
  /// encoding — still get classic members, so the fused UCQ is answer-set
  /// equal to the classic one (proved by the check_encoded fuzz relation).
  /// Off forces classic enumeration even on an encoded dictionary (ablation
  /// and the check_encoded comparison arm). A no-op when the dictionary has
  /// no encoding, which is the default state.
  bool use_encoding = true;
};

/// \brief One member of a single atom's reformulation: the rewritten atom
/// plus the variable-to-constant bindings the applied rules imposed.
struct AtomReformulation {
  query::Atom atom;
  /// Bindings accumulated by rules 5-13, to be applied CQ-wide (they reach
  /// the query head when the bound variable is distinguished).
  std::vector<std::pair<query::VarId, rdf::TermId>> bindings;
  /// Variables that rules 3/7 constrained to resources (URIs/blank nodes):
  /// the subject a rule moved into object position cannot bind a literal,
  /// since a literal cannot be the subject of an entailed rdf:type triple.
  std::vector<query::VarId> resource_vars;
  /// Which rule produced this member last (0 = the original atom).
  int rule = 0;
};

/// \brief The CQ-to-UCQ reformulation algorithm of the RDF database
/// fragment [9]: exhaustive backward-chaining application of 13
/// reformulation rules against the *saturated* RDFS schema.
///
/// The rules (DESIGN.md, Section 3) rewrite one atom at a time:
///   1-3   type atom, constant class: subclass / domain / range
///   4     property atom, constant property: subproperty
///   5-7   type atom, variable class: as 1-3, binding the class variable
///   8-9   variable property: subproperty (binding it), or rdf:type
///   10-13 variable property: bound to one of the four RDFS properties
/// The produced UCQ qref satisfies q(db∞) = qref(db) when db stores its
/// (small) schema component saturated — which PrepareRefGraph in
/// api/query_answering.h guarantees.
class Reformulator {
 public:
  /// \brief `schema` must outlive the reformulator and must be saturated.
  /// `dict`, when provided, refines rules 3/7: a member whose moved
  /// subject is a literal *constant* is dropped (it cannot be typed).
  explicit Reformulator(const schema::Schema* schema,
                        ReformulationOptions options = {},
                        const rdf::Dictionary* dict = nullptr);

  virtual ~Reformulator() = default;

  /// \brief Reformulates a whole CQ into an equivalent UCQ. The original
  /// query is a member unless an interval member subsumes it (see
  /// ReformulateAtom). Fails with kResourceExhausted beyond options.max_cqs.
  Result<query::Ucq> Reformulate(const query::Cq& q) const;

  /// \brief Exact size of the UCQ reformulation of q. When per-atom
  /// reformulations are independent (no bindable variable shared across
  /// atoms), this is a closed-form product and never materializes the UCQ —
  /// this is how the 318,096 of Example 1 is obtained without building it.
  Result<uint64_t> CountReformulations(const query::Cq& q) const;

  /// \brief Reformulates a single atom of q into its set of members.
  /// Exposed for the SCQ strategy and the cost model. A classic member that
  /// an interval member of the set subsumes (equal atom but for the ranged
  /// position, whose interval holds the classic constant; equal bindings;
  /// no resource restriction the classic member lacks) is dropped after the
  /// closure, so it still contributes the members it expands into. Both UCQ
  /// paths apply the same pruning, so CountReformulations stays equal to
  /// Reformulate's size.
  std::vector<AtomReformulation> ReformulateAtom(const query::Cq& q,
                                                 const query::Atom& atom) const;

  /// \brief True when the product fast path is exact for q: no variable
  /// that reformulation may bind (property-position variables, and
  /// class-position variables of type atoms) occurs in more than one atom.
  bool AtomsIndependent(const query::Cq& q) const;

  const schema::Schema& schema() const { return *schema_; }
  const ReformulationOptions& options() const { return options_; }

 protected:
  /// Single-step rule application on `atom`; appends results to `out`.
  /// Overridden by IncompleteReformulator to drop rules.
  virtual void ApplyRules(const query::Cq& q, const AtomReformulation& member,
                          std::vector<AtomReformulation>* out) const;

  /// Emits the hierarchy rule family (rules 1/4/5/8) for one atom: when the
  /// dictionary encodes `term`'s subtree as an id interval wider than one
  /// id, a single interval member replaces the per-sub-term union, and only
  /// the sub-terms escaping the interval are emitted classically; without a
  /// usable interval the classic full enumeration is emitted. `subs` is the
  /// saturated sub-term set of `term`, `property_position` selects the
  /// property rules (4/8) over the class rules (1/5), and `bind_var`, when
  /// set (rules 5/8), is bound to `term` on every emitted member.
  void EmitSubTermMembers(const AtomReformulation& member,
                          const query::Atom& atom, rdf::TermId term,
                          const std::set<rdf::TermId>& subs,
                          bool property_position,
                          std::optional<query::VarId> bind_var, int rule,
                          std::vector<AtomReformulation>* out) const;

  const schema::Schema* schema_;
  ReformulationOptions options_;
  const rdf::Dictionary* dict_;

 private:
  Result<query::Ucq> ReformulateByProduct(const query::Cq& q) const;
  Result<query::Ucq> ReformulateByWorklist(const query::Cq& q) const;
};

/// \brief Emulation of the fixed, *incomplete* reformulation performed by
/// native RDF platforms such as Virtuoso and AllegroGraph (Section 5 of the
/// paper; see [6]): only the class and property hierarchies are used
/// (rules 1/4/5/8), the domain and range constraints are ignored, as are the
/// variable-property specializations. Answers may be missing.
class IncompleteReformulator : public Reformulator {
 public:
  explicit IncompleteReformulator(const schema::Schema* schema,
                                  ReformulationOptions options = {},
                                  const rdf::Dictionary* dict = nullptr)
      : Reformulator(schema, options, dict) {}

 protected:
  void ApplyRules(const query::Cq& q, const AtomReformulation& member,
                  std::vector<AtomReformulation>* out) const override;
};

}  // namespace reformulation
}  // namespace rdfref

#endif  // RDFREF_REFORMULATION_REFORMULATOR_H_
