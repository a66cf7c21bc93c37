#ifndef RDFREF_FEDERATION_FEDERATION_H_
#define RDFREF_FEDERATION_FEDERATION_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/synchronization.h"
#include "engine/table.h"
#include "federation/endpoint.h"
#include "federation/resilience.h"
#include "query/cover.h"
#include "query/cq.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "schema/schema.h"
#include "storage/statistics.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace federation {

/// \brief Mediator view over all endpoints: one TripleSource whose ScanInto
/// fans a pattern request out to every endpoint (respecting each
/// endpoint's answer caps) and whose dictionary is the shared one.
///
/// The fan-out is fault-tolerant: each endpoint request is buffered, retried
/// under the RetryPolicy, and gated by a per-endpoint CircuitBreaker so dead
/// sources stop being hammered. Health is accumulated per endpoint between
/// ResetHealth() calls and summarized by Report() — the mediator's record of
/// which endpoints' data is missing from what it delivered.
class FederatedSource : public storage::TripleSource {
 public:
  FederatedSource(const rdf::Dictionary* dict,
                  const std::vector<std::unique_ptr<Endpoint>>* endpoints)
      : dict_(dict), endpoints_(endpoints) {}

  /// \brief The fault-tolerant fan-out: buffered per endpoint, retried,
  /// breaker-gated, and appended to `out` in endpoint registration order.
  /// The inherited Scan iterates this buffer.
  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override
      RDFREF_EXCLUDES(mu_);
  /// \brief Cost-model cardinality: per-endpoint match counts clamped to
  /// each endpoint's answer cap, skipping endpoints that cannot currently
  /// deliver (hard-down or open circuit breaker) — estimates match what
  /// ScanInto actually returns.
  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override RDFREF_EXCLUDES(mu_);
  const rdf::Dictionary& dict() const override { return *dict_; }

  /// \brief Replaces the retry/breaker policy and resets all breakers.
  void set_resilience(const ResilienceOptions& options) RDFREF_EXCLUDES(mu_);
  /// \brief Snapshot of the current policy (by value: the stored options
  /// are guarded by mu_ and may be replaced concurrently).
  ResilienceOptions resilience() const RDFREF_EXCLUDES(mu_) {
    common::MutexLock lock(&mu_);
    return resilience_;
  }

  /// \brief Scan fan-out parallelism: 1 (the default) requests endpoints
  /// one after another on the calling thread; n > 1 requests up to n
  /// endpoints concurrently; 0 resolves to
  /// common::ThreadPool::DefaultThreads(). Triples are always appended in
  /// endpoint registration order, so answers are identical across
  /// settings.
  void set_threads(int threads);
  int threads() const { return threads_.load(std::memory_order_relaxed); }

  /// \brief Clears accumulated health counters (breaker states persist —
  /// an open breaker stays open across queries until its cool-down).
  void ResetHealth() const RDFREF_EXCLUDES(mu_);

  /// \brief Health accumulated since the last ResetHealth, sorted by
  /// endpoint name.
  CompletenessReport Report() const RDFREF_EXCLUDES(mu_);

  /// \brief Breaker state for one endpoint (kClosed if it has no traffic).
  CircuitState BreakerState(const std::string& endpoint) const
      RDFREF_EXCLUDES(mu_);

 private:
  // Scans one endpoint with retries, collecting its triples into `out`
  // (flushed by ScanInto in endpoint order); true iff its data arrived in
  // full. Thread-safe: multiple endpoints may be scanned concurrently.
  bool ScanEndpoint(const Endpoint& ep, rdf::TermId s, rdf::TermId p,
                    rdf::TermId o, std::vector<rdf::Triple>* out) const
      RDFREF_EXCLUDES(mu_);
  // Both require mu_ to be held by the caller.
  CircuitBreaker& BreakerFor(const std::string& name) const
      RDFREF_REQUIRES(mu_);
  EndpointHealth& HealthFor(const std::string& name) const
      RDFREF_REQUIRES(mu_);

  const rdf::Dictionary* dict_;
  const std::vector<std::unique_ptr<Endpoint>>* endpoints_;
  // Fan-out parallelism knob; atomic because AnswerResilient reconfigures
  // it while a concurrent ScanInto (another query on the same mediator) may
  // be reading it.
  std::atomic<int> threads_{1};
  // Guards the policy, breakers_ and health_ (touched by concurrent
  // endpoint scans); never held across a sleep, a request, or a callback
  // delivery.
  mutable common::Mutex mu_;
  ResilienceOptions resilience_ RDFREF_GUARDED_BY(mu_);
  // std::map: Report() lists endpoints in name order.
  mutable std::map<std::string, CircuitBreaker> breakers_
      RDFREF_GUARDED_BY(mu_);
  mutable std::map<std::string, EndpointHealth> health_
      RDFREF_GUARDED_BY(mu_);
};

/// \brief Options for one resilient federated answering call.
struct FederationAnswerOptions {
  /// Cover to use; nullptr lets GCov pick.
  const query::Cover* cover = nullptr;
  /// Evaluation budget, checked at CQ boundaries of the UCQ/JUCQ loops; an
  /// exploding reformulation returns kDeadlineExceeded instead of running
  /// away. Default: infinite.
  Deadline deadline;
  /// Degraded mode: when endpoints fail past their retries (or are skipped
  /// by an open breaker), return the answers derivable from the healthy
  /// endpoints plus a CompletenessReport, instead of failing outright.
  bool allow_partial = false;
  /// Evaluation + fan-out parallelism (see AnswerOptions::threads and
  /// FederatedSource::set_threads). Defaults to 1: sequential answering
  /// keeps each endpoint's deterministic fault-injector stream in request
  /// order, so fault-injection experiments replay exactly. The answer
  /// table is identical for any setting.
  int threads = 1;
};

/// \brief A (possibly partial) federated answer with its provenance: the
/// rows the mediator could derive, and the report saying whether any
/// endpoint's data is missing from them.
struct FederatedAnswer {
  engine::Table table;
  CompletenessReport report;
};

/// \brief A federation of independent RDF endpoints, per the motivation of
/// Section 1: "Semantic Web data is often split across independent
/// [sources] ... implicit facts may be due to the presence of one fact in
/// one endpoint, and a constraint in another. Computing the complete
/// (distributed) set of consequences in this setting is unfeasible" —
/// which is exactly why reformulation-based answering matters.
///
/// The federation interns every endpoint's values into one shared
/// dictionary (URIs are global), gathers the *mediated schema* (the union
/// of all endpoints' constraint triples, saturated), and answers queries by
/// reformulating against that schema and evaluating over the mediator
/// source. Saturation is impossible here by construction: no endpoint may
/// be written to.
class Federation {
 public:
  Federation() = default;

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// \brief Registers a source. Its triples are re-encoded against the
  /// shared dictionary; with options.locally_saturated the endpoint's data
  /// is saturated with the endpoint's own constraints first (sources
  /// "may or may not be saturated").
  void AddEndpoint(const std::string& name, const rdf::Graph& graph,
                   EndpointOptions options = {});

  /// \brief Answers q completely via reformulation against the mediated
  /// schema. With `cover == nullptr`, GCov picks the cover; otherwise the
  /// given cover is used. All-or-nothing: endpoint failures surviving the
  /// retry policy fail the whole call with kUnavailable.
  Result<engine::Table> Answer(const query::Cq& q,
                               const query::Cover* cover = nullptr);

  /// \brief Resilient answering: retries/breakers always apply; with
  /// options.allow_partial the call degrades to the answers derivable from
  /// healthy endpoints (annotated by the CompletenessReport) instead of
  /// failing; options.deadline bounds evaluation (kDeadlineExceeded).
  Result<FederatedAnswer> AnswerResilient(
      const query::Cq& q, const FederationAnswerOptions& options = {});

  /// \brief Evaluates q against the endpoints without any reasoning
  /// (what a naive mediator would return — incomplete).
  [[nodiscard]] engine::Table EvaluateWithoutReasoning(
      const query::Cq& q) const;

  /// \brief Shared dictionary, for parsing queries against the federation.
  rdf::Dictionary& dict() { return dict_; }

  /// \brief The mediated (saturated) schema.
  const schema::Schema& schema() const { return schema_; }

  const FederatedSource& source() const { return source_; }
  std::vector<std::unique_ptr<Endpoint>>& endpoints() { return endpoints_; }
  const std::vector<std::unique_ptr<Endpoint>>& endpoints() const {
    return endpoints_;
  }

  /// \brief Mediator-side retry and circuit-breaker policy.
  void set_resilience(const ResilienceOptions& options) {
    source_.set_resilience(options);
  }

  /// \brief Summed statistics across endpoints (counts add exactly;
  /// distinct counts add as an upper bound) — the mediator's cost-model
  /// input.
  storage::Statistics MergedStatistics() const;

 private:
  void RefreshSchemaEndpoint();

  rdf::Dictionary dict_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  schema::Schema schema_;
  FederatedSource source_{&dict_, &endpoints_};
  // Saturated-schema triples must be visible to schema-level queries; the
  // mediator holds them as a virtual extra endpoint.
  bool schema_endpoint_stale_ = false;
};

}  // namespace federation
}  // namespace rdfref

#endif  // RDFREF_FEDERATION_FEDERATION_H_
