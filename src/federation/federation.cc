#include "federation/federation.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "cost/cost_model.h"
#include "engine/evaluator.h"
#include "optimizer/gcov.h"
#include "reformulation/reformulator.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace federation {

namespace {

constexpr const char* kSchemaEndpointName = "__mediated_schema";

/// Saturates a triple vector in place with the given (saturated) local
/// schema — the endpoint-side variant of reasoner::Saturator, operating on
/// shared-dictionary triples rather than an owning Graph.
void SaturateTriples(const schema::Schema& local, const rdf::Dictionary& dict,
                     std::vector<rdf::Triple>* triples) {
  std::unordered_set<rdf::Triple, rdf::TripleHash> have(triples->begin(),
                                                        triples->end());
  std::deque<rdf::Triple> worklist(triples->begin(), triples->end());
  auto add = [&](const rdf::Triple& t) {
    if (have.insert(t).second) {
      triples->push_back(t);
      worklist.push_back(t);
    }
  };
  while (!worklist.empty()) {
    rdf::Triple t = worklist.front();
    worklist.pop_front();
    if (t.p == rdf::vocab::kTypeId) {
      for (rdf::TermId super : local.SuperClassesOf(t.o)) {
        add(rdf::Triple(t.s, rdf::vocab::kTypeId, super));
      }
    } else if (!rdf::vocab::IsSchemaProperty(t.p)) {
      for (rdf::TermId super : local.SuperPropertiesOf(t.p)) {
        add(rdf::Triple(t.s, super, t.o));
      }
      for (rdf::TermId c : local.DomainsOf(t.p)) {
        add(rdf::Triple(t.s, rdf::vocab::kTypeId, c));
      }
      if (!dict.Lookup(t.o).is_literal()) {
        for (rdf::TermId c : local.RangesOf(t.p)) {
          add(rdf::Triple(t.o, rdf::vocab::kTypeId, c));
        }
      }
    }
  }
}

/// All constraint triples of a (saturated) schema as a vector.
std::vector<rdf::Triple> SchemaTriples(const schema::Schema& schema) {
  std::vector<rdf::Triple> out;
  for (const auto& [super, subs] : schema.sub_class_map()) {
    for (rdf::TermId sub : subs) {
      out.emplace_back(sub, rdf::vocab::kSubClassOfId, super);
    }
  }
  for (const auto& [super, subs] : schema.sub_property_map()) {
    for (rdf::TermId sub : subs) {
      out.emplace_back(sub, rdf::vocab::kSubPropertyOfId, super);
    }
  }
  for (const auto& [p, classes] : schema.domain_map()) {
    for (rdf::TermId c : classes) {
      out.emplace_back(p, rdf::vocab::kDomainId, c);
    }
  }
  for (const auto& [p, classes] : schema.range_map()) {
    for (rdf::TermId c : classes) {
      out.emplace_back(p, rdf::vocab::kRangeId, c);
    }
  }
  return out;
}

uint64_t NameSeed(const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// FederatedSource
// ---------------------------------------------------------------------------

void FederatedSource::set_resilience(const ResilienceOptions& options) {
  common::MutexLock lock(&mu_);
  resilience_ = options;
  breakers_.clear();
}

void FederatedSource::set_threads(int threads) {
  threads_.store(threads <= 0 ? common::ThreadPool::DefaultThreads() : threads,
                 std::memory_order_relaxed);
}

void FederatedSource::ResetHealth() const {
  common::MutexLock lock(&mu_);
  health_.clear();
}

CircuitBreaker& FederatedSource::BreakerFor(const std::string& name) const {
  auto it = breakers_.find(name);
  if (it == breakers_.end()) {
    it = breakers_.emplace(name, CircuitBreaker(resilience_.breaker)).first;
  }
  return it->second;
}

EndpointHealth& FederatedSource::HealthFor(const std::string& name) const {
  EndpointHealth& h = health_[name];
  if (h.endpoint.empty()) h.endpoint = name;
  return h;
}

CircuitState FederatedSource::BreakerState(const std::string& endpoint) const {
  common::MutexLock lock(&mu_);
  auto it = breakers_.find(endpoint);
  return it == breakers_.end() ? CircuitState::kClosed : it->second.state();
}

CompletenessReport FederatedSource::Report() const {
  common::MutexLock lock(&mu_);
  CompletenessReport report;
  for (const auto& [name, h] : health_) {
    report.total_retries += h.retries;
    if (h.data_lost()) report.known_complete = false;
    report.endpoints.push_back(h);
  }
  return report;
}

bool FederatedSource::ScanEndpoint(const Endpoint& ep, rdf::TermId s,
                                   rdf::TermId p, rdf::TermId o,
                                   std::vector<rdf::Triple>* out) const {
  // Snapshot the policy under the lock: set_resilience may replace it
  // concurrently, and a torn read of the backoff schedule mid-scan would
  // desynchronize retries (found by the thread-safety annotation pass —
  // the old code read resilience_.retry by reference, unlocked).
  RetryPolicy retry;
  {
    common::MutexLock lock(&mu_);
    retry = resilience_.retry;
  }
  const int max_attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    uint64_t backoff_salt = 0;
    {
      common::MutexLock lock(&mu_);
      CircuitBreaker& breaker = BreakerFor(ep.name());
      EndpointHealth& health = HealthFor(ep.name());
      if (!breaker.AllowRequest()) {
        ++health.skipped;
        if (health.last_error.empty()) {
          health.last_error = ep.name() + ": circuit breaker open";
        }
        return false;
      }
      if (attempt > 0) ++health.retries;
      backoff_salt = health.attempts;
      ++health.attempts;
    }
    if (attempt > 0) {
      double wait =
          retry.BackoffMillis(attempt, NameSeed(ep.name()) ^ backoff_salt);
      if (wait > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait));
      }
    }
    // Requests are buffered so a retry (or a mid-scan connection drop)
    // never leaks a partial or duplicated answer prefix to the evaluator.
    out->clear();
    Result<size_t> r =
        ep.Request(s, p, o, [&](const rdf::Triple& t) { out->push_back(t); });
    common::MutexLock lock(&mu_);
    CircuitBreaker& breaker = BreakerFor(ep.name());
    EndpointHealth& health = HealthFor(ep.name());
    if (r.ok()) {
      breaker.RecordSuccess();
      return true;
    }
    breaker.RecordFailure();
    ++health.failures;
    health.last_error = r.status().message();
  }
  common::MutexLock lock(&mu_);
  ++HealthFor(ep.name()).gave_up;
  return false;
}

void FederatedSource::ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                               std::vector<rdf::Triple>* out) const {
  out->clear();
  const size_t n = endpoints_->size();
  const int threads = threads_.load(std::memory_order_relaxed);
  if (threads <= 1 || n < 2) {
    std::vector<rdf::Triple> buffer;
    for (const std::unique_ptr<Endpoint>& ep : *endpoints_) {
      buffer.clear();
      if (ScanEndpoint(*ep, s, p, o, &buffer)) {
        out->insert(out->end(), buffer.begin(), buffer.end());
      }
    }
    return;
  }
  // Parallel fan-out: request every endpoint concurrently (including its
  // retry/backoff schedule), but flush on this thread, in endpoint
  // registration order, so answers are identical to the sequential fan-out.
  std::vector<std::vector<rdf::Triple>> buffers(n);
  std::vector<char> complete(n, 0);
  const size_t chunks = std::min(n, static_cast<size_t>(threads));
  common::ThreadPool::Shared().ParallelFor(chunks, [&](size_t c) {
    for (size_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i) {
      complete[i] =
          ScanEndpoint(*(*endpoints_)[i], s, p, o, &buffers[i]) ? 1 : 0;
    }
  });
  for (size_t i = 0; i < n; ++i) {
    if (!complete[i]) continue;
    out->insert(out->end(), buffers[i].begin(), buffers[i].end());
  }
}

size_t FederatedSource::CountMatches(rdf::TermId s, rdf::TermId p,
                                     rdf::TermId o) const {
  size_t total = 0;
  for (const std::unique_ptr<Endpoint>& ep : *endpoints_) {
    if (ep->options().fault.hard_down) continue;
    if (BreakerState(ep->name()) == CircuitState::kOpen) continue;
    total += ep->CountMatches(s, p, o);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Federation
// ---------------------------------------------------------------------------

void Federation::AddEndpoint(const std::string& name,
                             const rdf::Graph& graph,
                             EndpointOptions options) {
  // Re-encode the endpoint's triples against the shared dictionary (the
  // built-ins keep their stable ids, so constraints stay recognizable).
  std::vector<rdf::Triple> triples;
  triples.reserve(graph.size());
  const rdf::Dictionary& source_dict = graph.dict();
  for (const rdf::Triple& t : graph.triples()) {
    triples.emplace_back(dict_.Intern(source_dict.Lookup(t.s)),
                         dict_.Intern(source_dict.Lookup(t.p)),
                         dict_.Intern(source_dict.Lookup(t.o)));
  }

  if (options.locally_saturated) {
    // The endpoint saturated with its *own* constraints only.
    schema::Schema local;
    for (const rdf::Triple& t : triples) {
      switch (t.p) {
        case rdf::vocab::kSubClassOfId:
          local.AddSubClass(t.s, t.o);
          break;
        case rdf::vocab::kSubPropertyOfId:
          local.AddSubProperty(t.s, t.o);
          break;
        case rdf::vocab::kDomainId:
          local.AddDomain(t.s, t.o);
          break;
        case rdf::vocab::kRangeId:
          local.AddRange(t.s, t.o);
          break;
        default:
          break;
      }
    }
    local.Saturate();
    SaturateTriples(local, dict_, &triples);
  }

  // Fold the endpoint's constraints into the mediated schema.
  for (const rdf::Triple& t : triples) {
    switch (t.p) {
      case rdf::vocab::kSubClassOfId:
        schema_.AddSubClass(t.s, t.o);
        break;
      case rdf::vocab::kSubPropertyOfId:
        schema_.AddSubProperty(t.s, t.o);
        break;
      case rdf::vocab::kDomainId:
        schema_.AddDomain(t.s, t.o);
        break;
      case rdf::vocab::kRangeId:
        schema_.AddRange(t.s, t.o);
        break;
      default:
        break;
    }
  }
  schema_.Saturate();

  endpoints_.push_back(std::make_unique<Endpoint>(
      name, std::make_unique<storage::Store>(&dict_, std::move(triples)),
      options));
  schema_endpoint_stale_ = true;
}

void Federation::RefreshSchemaEndpoint() {
  if (!schema_endpoint_stale_) return;
  // Refresh the virtual endpoint exposing the mediated saturated schema
  // (so schema-position atoms of reformulations are answerable). It is
  // mediator-local: never rate-limited, never faulty.
  for (auto it = endpoints_.begin(); it != endpoints_.end(); ++it) {
    if ((*it)->name() == kSchemaEndpointName) {
      endpoints_.erase(it);
      break;
    }
  }
  endpoints_.push_back(std::make_unique<Endpoint>(
      kSchemaEndpointName,
      std::make_unique<storage::Store>(&dict_, SchemaTriples(schema_)),
      EndpointOptions{}));
  schema_endpoint_stale_ = false;
}

Result<engine::Table> Federation::Answer(const query::Cq& q,
                                         const query::Cover* cover) {
  FederationAnswerOptions options;
  options.cover = cover;
  RDFREF_ASSIGN_OR_RETURN(FederatedAnswer answer, AnswerResilient(q, options));
  return std::move(answer.table);
}

Result<FederatedAnswer> Federation::AnswerResilient(
    const query::Cq& q, const FederationAnswerOptions& options) {
  if (endpoints_.empty()) {
    return Status::InvalidArgument("federation has no endpoints");
  }
  RefreshSchemaEndpoint();
  source_.ResetHealth();

  reformulation::Reformulator reformulator(&schema_, {}, &dict_);
  query::Cover chosen;
  if (options.cover != nullptr) {
    chosen = *options.cover;
  } else {
    storage::Statistics merged = MergedStatistics();
    cost::CostModel cost_model(&merged);
    optimizer::CoverOptimizer optimizer(&reformulator, &cost_model);
    RDFREF_ASSIGN_OR_RETURN(chosen, optimizer.Greedy(q));
  }
  RDFREF_RETURN_NOT_OK(chosen.Validate(q));

  std::vector<query::Cq> fragment_queries = chosen.FragmentQueries(q);
  std::vector<query::Ucq> fragment_ucqs;
  fragment_ucqs.reserve(fragment_queries.size());
  for (const query::Cq& fq : fragment_queries) {
    RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq, reformulator.Reformulate(fq));
    fragment_ucqs.push_back(std::move(ucq));
  }
  source_.set_threads(options.threads);
  engine::Evaluator evaluator(&source_, options.threads);
  RDFREF_ASSIGN_OR_RETURN(
      engine::Table table,
      evaluator.EvaluateJucq(q, fragment_queries, fragment_ucqs,
                             options.deadline));

  FederatedAnswer answer;
  answer.report = source_.Report();
  if (!answer.report.known_complete && !options.allow_partial) {
    std::string who;
    for (const std::string& name : answer.report.degraded_endpoints()) {
      if (!who.empty()) who += ", ";
      who += name;
    }
    return Status::Unavailable("endpoints failed or were skipped: " + who);
  }
  answer.table = std::move(table);
  return answer;
}

engine::Table Federation::EvaluateWithoutReasoning(const query::Cq& q) const {
  engine::Evaluator evaluator(&source_);
  return evaluator.EvaluateCq(q);
}

storage::Statistics Federation::MergedStatistics() const {
  storage::Statistics merged;
  for (const std::unique_ptr<Endpoint>& ep : endpoints_) {
    merged.Absorb(ep->store().stats());
  }
  return merged;
}

}  // namespace federation
}  // namespace rdfref
