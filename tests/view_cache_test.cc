// The cross-query view cache (DESIGN.md §15): key construction, epoch
// validity windows, capped-entry replacement, budgeted eviction, the
// facade wiring (QueryAnswerer), the
// ScanCache span-stability contract it generalizes, and the threaded
// bit-identity relation TSan runs in CI.

#include "engine/view_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/query_answering.h"
#include "datagen/bibliography.h"
#include "engine/scan_cache.h"
#include "engine/table.h"
#include "query/cq.h"
#include "query/sparql_parser.h"
#include "query/ucq.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "storage/triple_source.h"
#include "testing/churn.h"
#include "testing/scenario.h"

namespace rdfref {
namespace engine {
namespace {

// q(x, y) :- x p y — a one-atom view whose footprint is exactly property p.
query::Cq PropertyQuery(rdf::TermId p) {
  query::Cq q;
  query::VarId x = q.AddVar("x");
  query::VarId y = q.AddVar("y");
  q.AddAtom(query::Atom(query::QTerm::Var(x), query::QTerm::Const(p),
                        query::QTerm::Var(y)));
  q.AddHead(query::QTerm::Var(x));
  q.AddHead(query::QTerm::Var(y));
  return q;
}

ViewFootprint FootprintOf(const query::Cq& q) {
  ViewFootprint fp;
  fp.AddCq(q);
  return fp;
}

Table TwoColTable(std::vector<std::vector<rdf::TermId>> rows) {
  return Table::FromRows({0, 1}, rows);
}

class ViewCacheTest : public ::testing::Test {
 protected:
  // Key + footprint of the single-member plan Ucq({q}).
  ViewKey Key(const ViewCache& cache, const query::Cq& q) {
    return cache.KeyFor(q, query::Ucq({q}));
  }

  // The (deterministic) bytes of two entries holding table t, as a budget
  // that fits exactly two of them.
  size_t TwoEntryBudget(const Table& t) {
    query::Cq qa = PropertyQuery(5);
    query::Cq qb = PropertyQuery(6);
    ViewCache probe;
    probe.Install(Key(probe, qa), 0, t, FootprintOf(qa), 1.0);
    probe.Install(Key(probe, qb), 0, t, FootprintOf(qb), 1.0);
    return probe.Stats().bytes;
  }
};

TEST_F(ViewCacheTest, MissThenInstallThenBitIdenticalHit) {
  ViewCache cache;
  query::Cq q = PropertyQuery(5);
  ViewKey key = Key(cache, q);
  ASSERT_TRUE(key.ok());

  EXPECT_FALSE(cache.Lookup(key.full, 0).has_value());

  Table result = TwoColTable({{10, 11}, {10, 12}, {13, 11}});
  cache.Install(key, 0, result, FootprintOf(q), 1.0);

  std::optional<Table> hit = cache.Lookup(key.full, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->RowVectors(), result.RowVectors());
  EXPECT_EQ(hit->columns, result.columns);

  ViewCacheStats s = cache.Stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.installs, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST_F(ViewCacheTest, OversizedPlansAreNotCacheable) {
  ViewCacheOptions options;
  options.max_plan_members = 2;
  ViewCache cache(options);
  query::Cq q = PropertyQuery(5);
  ViewKey key = cache.KeyFor(q, query::Ucq({q, q, q}));
  EXPECT_FALSE(key.ok());
  EXPECT_FALSE(key.canonical.empty());  // selection still groups on it

  // Installing under a not-cacheable key is a no-op, not a crash.
  cache.Install(key, 0, TwoColTable({{1, 2}}), FootprintOf(q), 1.0);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST_F(ViewCacheTest, WindowExtendsAcrossFootprintDisjointWrites) {
  ViewCache cache;
  query::Cq q = PropertyQuery(5);
  ViewKey key = Key(cache, q);
  cache.Install(key, 0, TwoColTable({{1, 2}}), FootprintOf(q), 1.0);

  // Churn on property 9 cannot change a p=5 view: the window must extend.
  cache.OnEpochWrite(rdf::Triple(7, 9, 8), 1, true);
  cache.OnEpochWrite(rdf::Triple(7, 9, 9), 2, false);

  EXPECT_TRUE(cache.Lookup(key.full, 2).has_value());
  EXPECT_EQ(cache.Stats().invalidations, 0u);
}

TEST_F(ViewCacheTest, OverlappingWriteCapsButOldEpochsStillHit) {
  ViewCache cache;
  query::Cq q = PropertyQuery(5);
  ViewKey key = Key(cache, q);
  cache.Install(key, 0, TwoColTable({{1, 2}}), FootprintOf(q), 1.0);

  cache.OnEpochWrite(rdf::Triple(7, 9, 8), 1, true);  // disjoint
  cache.OnEpochWrite(rdf::Triple(7, 5, 8), 2, true);  // inside the footprint

  // The probe at epoch 2 replays the log: extends over epoch 1, caps at 2.
  EXPECT_FALSE(cache.Lookup(key.full, 2).has_value());
  EXPECT_EQ(cache.Stats().invalidations, 1u);

  // A reader pinned inside the surviving window [0, 1] still hits.
  EXPECT_TRUE(cache.Lookup(key.full, 1).has_value());
  EXPECT_TRUE(cache.Lookup(key.full, 0).has_value());
}

TEST_F(ViewCacheTest, FreshInstallReplacesCappedIncumbent) {
  ViewCache cache;
  query::Cq q = PropertyQuery(5);
  ViewKey key = Key(cache, q);
  cache.Install(key, 0, TwoColTable({{1, 2}}), FootprintOf(q), 1.0);
  cache.OnEpochWrite(rdf::Triple(7, 5, 8), 1, true);
  ASSERT_FALSE(cache.Lookup(key.full, 1).has_value());  // capped at 1

  // The re-fill at the new epoch must replace the dead incumbent — one
  // invalidation must never poison the key forever.
  Table fresh = TwoColTable({{1, 2}, {7, 8}});
  cache.Install(key, 1, fresh, FootprintOf(q), 1.0);
  std::optional<Table> hit = cache.Lookup(key.full, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->RowVectors(), fresh.RowVectors());
  EXPECT_EQ(cache.Stats().lost_races, 0u);

  // A *live* incumbent wins against a racing duplicate fill.
  cache.Install(key, 1, fresh, FootprintOf(q), 1.0);
  EXPECT_EQ(cache.Stats().lost_races, 1u);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST_F(ViewCacheTest, ScrolledWriteLogCapsConservatively) {
  ViewCacheOptions options;
  options.write_log_window = 4;
  ViewCache cache(options);
  query::Cq q = PropertyQuery(5);
  ViewKey key = Key(cache, q);
  cache.Install(key, 0, TwoColTable({{1, 2}}), FootprintOf(q), 1.0);

  // Six footprint-disjoint writes; the 4-record window now starts at epoch
  // 3 > valid_hi + 1, so the entry can no longer prove itself untouched.
  for (uint64_t e = 1; e <= 6; ++e) {
    cache.OnEpochWrite(rdf::Triple(7, 9, e), e, true);
  }
  EXPECT_FALSE(cache.Lookup(key.full, 6).has_value());
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

TEST_F(ViewCacheTest, EvictionDropsLowestBenefitAndSparesPreferred) {
  query::Cq qa = PropertyQuery(5);
  query::Cq qb = PropertyQuery(6);
  query::Cq qc = PropertyQuery(7);
  Table t = TwoColTable({{1, 2}, {3, 4}});

  ViewCacheOptions options;
  options.byte_budget = TwoEntryBudget(t);
  ViewCache cache(options);
  ViewKey ka = Key(cache, qa), kb = Key(cache, qb), kc = Key(cache, qc);
  cache.SetPreferred({kb.canonical});
  cache.Install(ka, 0, t, FootprintOf(qa), 1.0);
  cache.Install(kb, 0, t, FootprintOf(qb), 1.0);
  cache.Install(kc, 0, t, FootprintOf(qc), 1.0);  // must evict exactly one

  ViewCacheStats s = cache.Stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, options.byte_budget);
  // The selection-pinned entry survives; the unpinned same-benefit one went.
  EXPECT_FALSE(cache.Lookup(ka.full, 0).has_value());
  EXPECT_TRUE(cache.Lookup(kb.full, 0).has_value());
  EXPECT_TRUE(cache.Lookup(kc.full, 0).has_value());
}

TEST_F(ViewCacheTest, ClearDropsEvictionPreferences) {
  // A canonical key preferred before Clear() names ids from before the
  // re-encode Clear() exists for: afterwards it must protect nothing, so
  // the lowest-benefit entry is the victim even under that key.
  query::Cq qa = PropertyQuery(5);
  query::Cq qb = PropertyQuery(6);
  query::Cq qc = PropertyQuery(7);
  Table t = TwoColTable({{1, 2}, {3, 4}});

  ViewCacheOptions options;
  options.byte_budget = TwoEntryBudget(t);
  ViewCache cache(options);
  ViewKey ka = Key(cache, qa), kb = Key(cache, qb), kc = Key(cache, qc);
  cache.SetPreferred({ka.canonical});
  cache.Clear();
  cache.Install(ka, 0, t, FootprintOf(qa), 0.5);  // cheapest to refill
  cache.Install(kb, 0, t, FootprintOf(qb), 1.0);
  cache.Install(kc, 0, t, FootprintOf(qc), 1.0);  // must evict exactly one

  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup(ka.full, 0).has_value());
  EXPECT_TRUE(cache.Lookup(kb.full, 0).has_value());
  EXPECT_TRUE(cache.Lookup(kc.full, 0).has_value());
}

TEST_F(ViewCacheTest, ResultLargerThanBudgetIsRejected) {
  ViewCacheOptions options;
  options.byte_budget = 64;
  ViewCache cache(options);
  query::Cq q = PropertyQuery(5);
  cache.Install(Key(cache, q), 0, TwoColTable({{1, 2}, {3, 4}}),
                FootprintOf(q), 1.0);
  ViewCacheStats s = cache.Stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST_F(ViewCacheTest, ClearDropsEntriesButKeepsCounters) {
  ViewCache cache;
  query::Cq q = PropertyQuery(5);
  ViewKey key = Key(cache, q);
  cache.Install(key, 0, TwoColTable({{1, 2}}), FootprintOf(q), 1.0);
  ASSERT_TRUE(cache.Lookup(key.full, 0).has_value());

  cache.Clear();
  EXPECT_FALSE(cache.Lookup(key.full, 0).has_value());
  ViewCacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.installs, 1u);  // monotonic counters survive
}

// ---------------------------------------------------------------------------
// ScanCache span-stability regression (the contract the ViewCache payload
// discipline generalizes): spans handed out early must survive a
// rehash-heavy fill of thousands of later patterns.
// ---------------------------------------------------------------------------

// Minimal non-range-capable source: TryGetRange stays false, so every
// Leaf call materializes into the cache (the Store would answer
// zero-copy and bypass it).
class VectorSource : public storage::TripleSource {
 public:
  explicit VectorSource(std::vector<rdf::Triple> triples)
      : triples_(std::move(triples)) {}

  void ScanInto(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                std::vector<rdf::Triple>* out) const override {
    out->clear();
    for (const rdf::Triple& t : triples_) {
      if (storage::Pattern{s, p, o}.Matches(t)) out->push_back(t);
    }
  }

  size_t CountMatches(rdf::TermId s, rdf::TermId p,
                      rdf::TermId o) const override {
    size_t n = 0;
    for (const rdf::Triple& t : triples_) {
      if (storage::Pattern{s, p, o}.Matches(t)) ++n;
    }
    return n;
  }

  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  std::vector<rdf::Triple> triples_;
  rdf::Dictionary dict_;
};

TEST(ScanCacheSpanStabilityTest, EarlySpansSurviveRehashHeavyFill) {
  const size_t kPatterns = 4096;
  std::vector<rdf::Triple> triples;
  for (rdf::TermId i = 0; i < 3 * kPatterns; ++i) {
    triples.emplace_back(i, i % kPatterns, 2 * i + 1);
  }
  VectorSource source(std::move(triples));
  ScanCache cache(&source);

  std::span<const rdf::Triple> early =
      cache.Leaf({storage::kAny, 0, storage::kAny});
  ASSERT_EQ(early.size(), 3u);
  const std::vector<rdf::Triple> snapshot(early.begin(), early.end());
  const rdf::Triple* early_data = early.data();

  // Thousands of distinct patterns force many unordered_map rehashes.
  for (rdf::TermId p = 1; p < kPatterns; ++p) {
    ASSERT_EQ(cache.Leaf({storage::kAny, p, storage::kAny}).size(), 3u);
  }
  EXPECT_EQ(cache.num_cached_leaves(), kPatterns);

  // The span still points at the same, unchanged vector.
  EXPECT_EQ(early.data(), early_data);
  EXPECT_TRUE(std::equal(early.begin(), early.end(), snapshot.begin(),
                         snapshot.end()));
  // And a re-probe of the same pattern returns the shared materialization.
  EXPECT_EQ(cache.Leaf({storage::kAny, 0, storage::kAny}).data(),
            early_data);
}

}  // namespace
}  // namespace engine

// ---------------------------------------------------------------------------
// Facade wiring: the cache behind QueryAnswerer.
// ---------------------------------------------------------------------------

namespace api {
namespace {

class ViewCacheApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::Graph graph;
    datagen::Bibliography::AddFigure2Graph(&graph);
    answerer_ = std::make_unique<QueryAnswerer>(std::move(graph));
  }

  rdf::TermId Bib(const std::string& local) {
    return answerer_->dict().InternUri(datagen::Bibliography::Uri(local));
  }

  query::Cq Parse(const std::string& text) {
    auto q = query::ParseSparql(
        "PREFIX bib: <http://example.org/bib/>\n" + text,
        &answerer_->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  engine::Table Answer(const query::Cq& q, Strategy s,
                       const AnswerOptions& options = {}) {
    auto table = answerer_->Answer(q, s, nullptr, options);
    EXPECT_TRUE(table.ok()) << table.status();
    return *table;
  }

  std::unique_ptr<QueryAnswerer> answerer_;
};

TEST_F(ViewCacheApiTest, WarmAnswerIsBitIdenticalToCold) {
  query::Cq q = Parse(
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . "
      "?x1 ?x4 \"1949\" . }");
  answerer_->EnableViewCache();
  ASSERT_TRUE(answerer_->view_cache_enabled());

  for (Strategy s : {Strategy::kRefUcq, Strategy::kRefGcov}) {
    engine::Table cold = Answer(q, s);
    engine::Table warm = Answer(q, s);
    EXPECT_EQ(warm.RowVectors(), cold.RowVectors()) << StrategyName(s);
    EXPECT_EQ(warm.columns, cold.columns) << StrategyName(s);
  }
  engine::ViewCacheStats stats = answerer_->view_cache_stats();
  EXPECT_GT(stats.installs, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST_F(ViewCacheApiTest, OverlappingInsertNeverServesStaleAnswers) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  answerer_->EnableViewCache();
  engine::Table before = Answer(q, Strategy::kRefUcq);
  Answer(q, Strategy::kRefUcq);  // warm the union

  // A second book appears (typed implicitly via the domain of writtenBy).
  rdf::TermId doi2 = Bib("doi2");
  rdf::TermId author = answerer_->dict().InternBlank("b2");
  ASSERT_TRUE(
      answerer_->InsertTriple(rdf::Triple(doi2, Bib("writtenBy"), author))
          .ok());

  engine::Table after = Answer(q, Strategy::kRefUcq);
  EXPECT_EQ(after.NumRows(), before.NumRows() + 1);
  EXPECT_TRUE(after.RowSet().count({doi2}) > 0);
}

TEST_F(ViewCacheApiTest, PerCallOptOutBypassesTheCache) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  answerer_->EnableViewCache();
  AnswerOptions opt_out;
  opt_out.use_view_cache = false;
  engine::Table a = Answer(q, Strategy::kRefUcq, opt_out);
  engine::Table b = Answer(q, Strategy::kRefUcq, opt_out);
  EXPECT_EQ(a.RowVectors(), b.RowVectors());

  engine::ViewCacheStats stats = answerer_->view_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.installs, 0u);
}

TEST_F(ViewCacheApiTest, SelectViewsChoosesAndAnswersStayCorrect) {
  query::Cq q = Parse(
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . }");
  answerer_->EnableViewCache();

  std::vector<optimizer::WorkloadQueryProfile> workload(1);
  workload[0].cq = q;
  workload[0].weight = 1.0;
  auto selection = answerer_->SelectViews(workload);
  ASSERT_TRUE(selection.ok()) << selection.status();
  EXPECT_FALSE(selection->candidates.empty());

  engine::Table cold = Answer(q, Strategy::kRefGcov);
  engine::Table warm = Answer(q, Strategy::kRefGcov);
  EXPECT_EQ(warm.RowVectors(), cold.RowVectors());
}

TEST_F(ViewCacheApiTest, ReencodeClearsTheCacheAndStaysCorrect) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  answerer_->EnableViewCache();
  size_t before = Answer(q, Strategy::kRefUcq).NumRows();
  Answer(q, Strategy::kRefUcq);
  ASSERT_GT(answerer_->view_cache_stats().entries, 0u);

  answerer_->Reencode();
  // Old TermIds are dead: entries were dropped, and a re-parsed query
  // against the new id space answers correctly (and re-warms).
  EXPECT_EQ(answerer_->view_cache_stats().entries, 0u);
  query::Cq q2 = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  EXPECT_EQ(Answer(q2, Strategy::kRefUcq).NumRows(), before);
  EXPECT_EQ(Answer(q2, Strategy::kRefUcq).NumRows(), before);
}

TEST_F(ViewCacheApiTest, DisableDetachesObserverAndUpdatesStillWork) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  answerer_->EnableViewCache();
  Answer(q, Strategy::kRefUcq);
  answerer_->DisableViewCache();
  EXPECT_FALSE(answerer_->view_cache_enabled());

  rdf::TermId doi2 = Bib("doi2");
  ASSERT_TRUE(answerer_
                  ->InsertTriple(rdf::Triple(
                      doi2, answerer_->dict().InternUri(
                                datagen::Bibliography::Uri("writtenBy")),
                      answerer_->dict().InternBlank("b2")))
                  .ok());
  EXPECT_GT(Answer(q, Strategy::kRefUcq).NumRows(), 0u);
}

}  // namespace
}  // namespace api

// ---------------------------------------------------------------------------
// Threaded bit-identity (the relation CI runs under TSan): readers race a
// churning writer + background compaction through the shared cache.
// ---------------------------------------------------------------------------

namespace testing_stress {
namespace {

TEST(ViewCacheConcurrencyTest, ReadersRaceWriterBitIdentical) {
  for (uint64_t seed : {3ull, 11ull}) {
    testing::Scenario sc = testing::GenerateScenario(seed, {});
    Rng rng(seed * 31 + 7);
    query::Cq q = testing::GenerateQuery(sc, &rng, {});
    testing::ChurnOptions options;
    options.writer_ops = 64;       // modest under TSan
    options.checks_per_reader = 4;
    testing::Divergence d = testing::CheckConcurrentCached(sc, q, seed, options);
    EXPECT_FALSE(d.found) << d.relation << ": " << d.detail;
  }
}

}  // namespace
}  // namespace testing_stress
}  // namespace rdfref
