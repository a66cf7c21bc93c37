// Epoch-based snapshot isolation (DESIGN.md §11): VersionSet epoch
// semantics, pinned-snapshot immutability across Freeze/Compact, the
// per-generation zero-copy fast path, background compaction, a
// K-reader/1-writer stress test (run under TSan in CI), and the facade's
// AnswerOptions::snapshot pinning.

#include "storage/version_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/query_answering.h"
#include "common/hash.h"
#include "common/synchronization.h"
#include "datagen/bibliography.h"
#include "query/sparql_parser.h"
#include "rdf/vocab.h"
#include "storage/store.h"

namespace rdfref {
namespace storage {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s1_ = U("s1");
    s2_ = U("s2");
    p_ = U("p");
    q_ = U("q");
    o1_ = U("o1");
    o2_ = U("o2");
    graph_.Add(s1_, p_, o1_);
    graph_.Add(s1_, p_, o2_);
    graph_.Add(s2_, p_, o1_);
    graph_.Add(s1_, q_, o1_);
    graph_.Add(s2_, q_, o2_);
    base_ = std::make_unique<Store>(graph_);
  }

  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  rdf::Graph graph_;
  std::unique_ptr<Store> base_;
  rdf::TermId s1_, s2_, p_, q_, o1_, o2_;
};

TEST_F(SnapshotTest, EpochBumpsOnlyOnVisibilityChanges) {
  VersionSet v(base_.get());
  EXPECT_EQ(v.epoch(), 0u);

  rdf::Triple fresh(s2_, p_, o2_);
  EXPECT_TRUE(v.Insert(fresh));
  EXPECT_EQ(v.epoch(), 1u);
  EXPECT_FALSE(v.Insert(fresh));  // already visible via the head
  EXPECT_FALSE(v.Insert(rdf::Triple(s1_, p_, o1_)));  // visible via the base
  EXPECT_EQ(v.epoch(), 1u);

  EXPECT_TRUE(v.Remove(rdf::Triple(s1_, p_, o1_)));
  EXPECT_EQ(v.epoch(), 2u);
  EXPECT_FALSE(v.Remove(rdf::Triple(s1_, p_, o1_)));  // already hidden
  EXPECT_FALSE(v.Remove(rdf::Triple(s2_, q_, o1_)));  // never visible
  EXPECT_EQ(v.epoch(), 2u);

  EXPECT_TRUE(v.Insert(rdf::Triple(s1_, p_, o1_)));  // un-hide
  EXPECT_EQ(v.epoch(), 3u);

  // Reorganization is invisible: sealing and merging leave the epoch alone.
  v.Freeze();
  v.Compact();
  EXPECT_EQ(v.epoch(), 3u);
  EXPECT_TRUE(v.Contains(fresh));
  EXPECT_TRUE(v.Contains(rdf::Triple(s1_, p_, o1_)));
}

TEST_F(SnapshotTest, PinnedSnapshotImmuneToLaterChurn) {
  VersionSet v(base_.get());
  SnapshotPtr pin = v.snapshot();
  const std::vector<rdf::Triple> before = pin->Materialize();
  EXPECT_EQ(before.size(), 5u);

  ASSERT_TRUE(v.Insert(rdf::Triple(s2_, p_, o2_)));
  ASSERT_TRUE(v.Remove(rdf::Triple(s1_, q_, o1_)));
  v.Freeze();
  ASSERT_TRUE(v.Remove(rdf::Triple(s2_, p_, o2_)));
  v.Compact();

  // The pin still answers as epoch 0 no matter what happened since.
  EXPECT_EQ(pin->epoch(), 0u);
  EXPECT_EQ(pin->Materialize(), before);
  EXPECT_TRUE(pin->Contains(rdf::Triple(s1_, q_, o1_)));
  EXPECT_FALSE(pin->Contains(rdf::Triple(s2_, p_, o2_)));
  EXPECT_EQ(pin->CountMatches(kAny, kAny, kAny), 5u);

  // A fresh pin sees the churned state: +o2 fact then -o2 fact, -q fact.
  SnapshotPtr now = v.snapshot();
  EXPECT_EQ(now->epoch(), 3u);
  EXPECT_EQ(now->CountMatches(kAny, kAny, kAny), 4u);
  EXPECT_FALSE(now->Contains(rdf::Triple(s1_, q_, o1_)));
}

TEST_F(SnapshotTest, CountsStayExactAcrossGenerations) {
  VersionSet v(base_.get());
  // Generation 1 (sealed run): one add, one removal against the base.
  ASSERT_TRUE(v.Insert(rdf::Triple(s2_, p_, o2_)));
  ASSERT_TRUE(v.Remove(rdf::Triple(s1_, p_, o1_)));
  v.Freeze();
  ASSERT_EQ(v.num_runs(), 1u);
  // Head: one more removal (of a run-added triple) and one add.
  ASSERT_TRUE(v.Remove(rdf::Triple(s2_, p_, o2_)));
  ASSERT_TRUE(v.Insert(rdf::Triple(s2_, q_, o1_)));

  SnapshotPtr snap = v.snapshot();
  // Ground truth: a pristine store over the materialized set must count
  // identically for every pattern shape, and the callback Scan must
  // deliver exactly that many triples.
  Store rebuilt(&graph_.dict(), snap->Materialize());
  for (rdf::TermId s : {kAny, s1_, s2_}) {
    for (rdf::TermId p : {kAny, p_, q_}) {
      for (rdf::TermId o : {kAny, o1_, o2_}) {
        EXPECT_EQ(snap->CountMatches(s, p, o), rebuilt.CountMatches(s, p, o))
            << s << " " << p << " " << o;
        size_t scanned = 0;
        snap->Scan(s, p, o, [&](const rdf::Triple&) { ++scanned; });
        EXPECT_EQ(scanned, rebuilt.CountMatches(s, p, o));
      }
    }
  }
  EXPECT_EQ(snap->CountMatches(kAny, kAny, kAny), 5u);  // 5 - 1 + 1 - 1 + 1
}

TEST_F(SnapshotTest, ZeroCopyForwardsSingleGenerationRanges) {
  VersionSet v(base_.get());
  rdf::TermId r = U("r");
  rdf::TermId s3 = U("s3");
  ASSERT_TRUE(v.Insert(rdf::Triple(s3, r, o1_)));
  ASSERT_TRUE(v.Insert(rdf::Triple(s3, r, o2_)));
  v.Freeze();  // one sealed run, adds only — nothing filters anything

  SnapshotPtr snap = v.snapshot();
  std::span<const rdf::Triple> span;

  // Base-only pattern: the span aliases the base store's own index.
  ASSERT_TRUE(snap->TryGetRange(kAny, p_, kAny, &span));
  std::span<const rdf::Triple> plain;
  ASSERT_TRUE(base_->Lookup({kAny, p_, kAny}, &plain));
  EXPECT_EQ(span.data(), plain.data());
  EXPECT_EQ(span.size(), plain.size());

  // Run-only pattern: forwarded from the run's clustered index.
  ASSERT_TRUE(snap->TryGetRange(kAny, r, kAny, &span));
  EXPECT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].p, r);

  // Hinted variant forwards for base-only patterns too.
  RangeHint hint;
  ASSERT_TRUE(snap->TryGetRangeHinted(s1_, p_, kAny, &span, &hint));
  EXPECT_EQ(span.size(), 2u);

  // No generation matches: success with an empty span.
  ASSERT_TRUE(snap->TryGetRange(s2_, r, kAny, &span));
  EXPECT_TRUE(span.empty());

  // Two generations contribute: the merged (buffered) path is required.
  EXPECT_FALSE(snap->TryGetRange(kAny, kAny, o1_, &span));

  // A head write poisons only the patterns it may affect, by property or
  // by subject; the others still alias the base, hinted or not.
  ASSERT_TRUE(v.Insert(rdf::Triple(s1_, r, o1_)));
  SnapshotPtr with_head = v.snapshot();
  EXPECT_FALSE(with_head->TryGetRange(kAny, r, kAny, &span));
  EXPECT_FALSE(with_head->TryGetRange(s1_, kAny, kAny, &span));
  ASSERT_TRUE(with_head->TryGetRange(kAny, q_, kAny, &span));
  EXPECT_EQ(span.size(), 2u);
  std::span<const rdf::Triple> base_q;
  ASSERT_TRUE(base_->Lookup({kAny, q_, kAny}, &base_q));
  EXPECT_EQ(span.data(), base_q.data());
  ASSERT_TRUE(with_head->TryGetRangeHinted(s2_, p_, kAny, &span, &hint));
  EXPECT_EQ(span.size(), 1u);

  // After compaction everything is one generation again: even the full
  // scan is a single zero-copy range.
  v.Compact();
  SnapshotPtr compacted = v.snapshot();
  EXPECT_EQ(compacted->num_runs(), 0u);
  EXPECT_EQ(compacted->head_size(), 0u);
  ASSERT_TRUE(compacted->TryGetRange(kAny, kAny, kAny, &span));
  EXPECT_EQ(span.size(), 8u);  // 5 base + 3 inserted

  // A head removal likewise: q scans take the buffered path, p scans stay
  // zero-copy.
  ASSERT_TRUE(v.Remove(rdf::Triple(s1_, q_, o1_)));
  SnapshotPtr with_removal = v.snapshot();
  EXPECT_FALSE(with_removal->TryGetRange(kAny, q_, kAny, &span));
  ASSERT_TRUE(with_removal->TryGetRange(kAny, p_, kAny, &span));
  EXPECT_EQ(span.size(), 3u);

  // Un-hiding drains the removal set and its presence filter: a later
  // removal of a p triple no longer gates q scans.
  ASSERT_TRUE(v.Insert(rdf::Triple(s1_, q_, o1_)));
  EXPECT_EQ(v.head_size(), 0u);
  ASSERT_TRUE(v.Remove(rdf::Triple(s2_, p_, o1_)));
  SnapshotPtr unhidden = v.snapshot();
  ASSERT_TRUE(unhidden->TryGetRange(kAny, q_, kAny, &span));
  EXPECT_EQ(span.size(), 2u);
}

TEST_F(SnapshotTest, IntervalProbesAreConservativeAgainstMidIntervalOverlays) {
  // o1_ and o2_ are interned consecutively, so [o1_, o2_] is a genuine id
  // interval. Presence filters track EXACT ids, and the interval pattern
  // only names the low endpoint — an overlay write at the interval's upper
  // id must still gate the zero-copy interval fast path, which is why the
  // probe wildcards the ranged position before consulting any presence set
  // (see PatternPresence in triple_source.h).
  ASSERT_EQ(o2_, o1_ + 1);
  constexpr int kRangeO = 2;  // query::Atom::kRangeO

  VersionSet v(base_.get());
  std::span<const rdf::Triple> span;

  // Clean snapshot: the base answers the object interval zero-copy.
  SnapshotPtr clean = v.snapshot();
  ASSERT_TRUE(clean->TryGetIntervalRange(kAny, p_, o1_, kRangeO, o2_, &span));
  EXPECT_EQ(span.size(), 3u);

  // Head write at the interval's UPPER id: the probe's pattern
  // (kAny, p_, o1_) never mentions o2_, so an exact-id presence check
  // would wrongly keep the fast path and drop this triple.
  ASSERT_TRUE(v.Insert(rdf::Triple(s2_, p_, o2_)));
  SnapshotPtr dirty = v.snapshot();
  EXPECT_FALSE(dirty->TryGetIntervalRange(kAny, p_, o1_, kRangeO, o2_, &span));

  // The buffered interval path delivers the overlay triple.
  PatternCursor cursor;
  std::span<const rdf::Triple> rows =
      cursor.Reset(*dirty, {kAny, p_, o1_, kRangeO, o2_});
  EXPECT_EQ(rows.size(), 4u);
  size_t overlay_hits = 0;
  for (const rdf::Triple& t : rows) {
    if (t == rdf::Triple(s2_, p_, o2_)) ++overlay_hits;
  }
  EXPECT_EQ(overlay_hits, 1u);

  // A head write the widened pattern cannot match keeps the fast path.
  VersionSet untouched(base_.get());
  ASSERT_TRUE(untouched.Insert(rdf::Triple(s1_, q_, o2_)));
  SnapshotPtr other = untouched.snapshot();
  ASSERT_TRUE(other->TryGetIntervalRange(kAny, p_, o1_, kRangeO, o2_, &span));
  EXPECT_EQ(span.size(), 3u);
}

TEST(SnapshotIntervalScanTest, MatchesAPristineStoreElementForElement) {
  // Four consecutively interned ids per role, so [x1, x2] is an id interval
  // with ids on both sides of it in every role.
  rdf::Graph graph;
  auto intern = [&graph](const std::string& prefix) {
    std::vector<rdf::TermId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(
          graph.dict().InternUri("http://ex/" + prefix + std::to_string(i)));
    }
    return ids;
  };
  const std::vector<rdf::TermId> subj = intern("s");
  const std::vector<rdf::TermId> prop = intern("p");
  const std::vector<rdf::TermId> obj = intern("o");
  // The base holds two thirds of the 64 combinations; the overlays add
  // from the rest and remove from every generation below them, inside and
  // outside the intervals.
  std::vector<rdf::Triple> present;
  std::vector<rdf::Triple> absent;
  for (int s = 0; s < 4; ++s) {
    for (int p = 0; p < 4; ++p) {
      for (int o = 0; o < 4; ++o) {
        const rdf::Triple t(subj[s], prop[p], obj[o]);
        if ((s + 2 * p + o) % 3 != 0) {
          graph.Add(t.s, t.p, t.o);
          present.push_back(t);
        } else {
          absent.push_back(t);
        }
      }
    }
  }
  ASSERT_GE(absent.size(), 13u);
  ASSERT_GE(present.size(), 41u);
  Store base(graph);
  VersionSet v(&base);
  // Run 1: adds only.
  for (size_t i : {0, 3, 6, 9, 12}) ASSERT_TRUE(v.Insert(absent[i]));
  v.Freeze();
  // Run 2: adds, and removals from the base and from run 1.
  for (size_t i : {1, 4, 7, 10}) ASSERT_TRUE(v.Insert(absent[i]));
  for (const rdf::Triple& t : {present[5], present[17], absent[0], absent[6]}) {
    ASSERT_TRUE(v.Remove(t));
  }
  v.Freeze();
  // Head: adds, and removals from the base and from both runs.
  for (size_t i : {2, 5, 8}) ASSERT_TRUE(v.Insert(absent[i]));
  for (const rdf::Triple& t :
       {present[30], present[40], absent[3], absent[4]}) {
    ASSERT_TRUE(v.Remove(t));
  }
  ASSERT_EQ(v.num_runs(), 2u);
  ASSERT_GT(v.head_size(), 0u);

  constexpr int kRangeP = 1;  // query::Atom::kRangeP
  constexpr int kRangeO = 2;  // query::Atom::kRangeO
  size_t zero_copy = 0;
  size_t declined = 0;
  auto check_all_shapes = [&](const SnapshotSource& snap) {
    const Store pristine(&graph.dict(), snap.Materialize());
    PatternCursor got_cursor;
    PatternCursor want_cursor;
    PatternCursor hinted_cursor;
    // One hint threaded through the whole sequence below, which sweeps
    // subjects forward, switches shape (and so index) between probes and
    // jumps backward; the hinted calls must equal the unhinted ones,
    // including where the snapshot declines the zero-copy path.
    RangeHint hint;
    RangeHint cursor_hint;
    auto check = [&](const Pattern& pat) {
      SCOPED_TRACE(::testing::Message()
                   << "s=" << pat.s << " p=" << pat.p << " o=" << pat.o
                   << " range_pos=" << pat.range_pos << " hi=" << pat.hi);
      std::span<const rdf::Triple> got = got_cursor.Reset(snap, pat);
      std::span<const rdf::Triple> want = want_cursor.Reset(pristine, pat);
      EXPECT_EQ(std::vector<rdf::Triple>(got.begin(), got.end()),
                std::vector<rdf::Triple>(want.begin(), want.end()));
      std::span<const rdf::Triple> hinted =
          hinted_cursor.Reset(snap, pat, {}, &cursor_hint);
      EXPECT_EQ(std::vector<rdf::Triple>(hinted.begin(), hinted.end()),
                std::vector<rdf::Triple>(want.begin(), want.end()));
      std::span<const rdf::Triple> plain_span;
      std::span<const rdf::Triple> hinted_span;
      const bool plain_ok = snap.TryGetPattern(pat, &plain_span);
      EXPECT_EQ(snap.TryGetPattern(pat, &hinted_span, &hint), plain_ok);
      if (plain_ok) {
        EXPECT_EQ(hinted_span.data(), plain_span.data());
        EXPECT_EQ(hinted_span.size(), plain_span.size());
      }
      ++(plain_ok ? zero_copy : declined);
      EXPECT_EQ(snap.CountPattern(pat), pristine.CountPattern(pat));
    };
    std::vector<rdf::TermId> subjects = {kAny};
    std::vector<rdf::TermId> props = {kAny};
    std::vector<rdf::TermId> objects = {kAny};
    subjects.insert(subjects.end(), subj.begin(), subj.end());
    props.insert(props.end(), prop.begin(), prop.end());
    objects.insert(objects.end(), obj.begin(), obj.end());
    for (rdf::TermId s : subjects) {
      // Classic patterns: all eight bound/free shapes.
      for (rdf::TermId p : props) {
        for (rdf::TermId o : objects) check({s, p, o});
      }
      // Property intervals: (s|? [p1..p2] o|?), and one reaching the end.
      for (rdf::TermId o : objects) {
        check({s, prop[1], o, kRangeP, prop[2]});
        check({s, prop[2], o, kRangeP, prop[3]});
      }
      // Object intervals: (s|? p|? [o1..o2]), and one reaching the end.
      for (rdf::TermId p : props) {
        check({s, p, obj[1], kRangeO, obj[2]});
        check({s, p, obj[2], kRangeO, obj[3]});
      }
    }
  };

  SnapshotPtr overlaid = v.snapshot();
  ASSERT_EQ(overlaid->num_runs(), 2u);
  check_all_shapes(*overlaid);
  v.Compact();
  SnapshotPtr compacted = v.snapshot();
  ASSERT_EQ(compacted->num_runs(), 0u);
  ASSERT_EQ(compacted->head_size(), 0u);
  check_all_shapes(*compacted);
  // The pinned pre-compaction snapshot still answers identically.
  check_all_shapes(*overlaid);
  EXPECT_GT(zero_copy, 0u);
  EXPECT_GT(declined, 0u);
}

TEST_F(SnapshotTest, CompactPreservesVisibilityAndDrainsRuns) {
  VersionSet v(base_.get());
  ASSERT_TRUE(v.Insert(rdf::Triple(s2_, p_, o2_)));
  v.Freeze();
  ASSERT_TRUE(v.Remove(rdf::Triple(s1_, p_, o1_)));
  v.Freeze();
  ASSERT_EQ(v.num_runs(), 2u);

  SnapshotPtr before = v.snapshot();
  const std::vector<rdf::Triple> visible = before->Materialize();
  const uint64_t epoch = v.epoch();

  v.Compact();
  EXPECT_EQ(v.num_runs(), 0u);
  EXPECT_EQ(v.head_size(), 0u);
  EXPECT_EQ(v.epoch(), epoch);

  SnapshotPtr after = v.snapshot();
  EXPECT_EQ(after->Materialize(), visible);
  // Freeze on an empty head is a no-op: no empty runs accumulate.
  v.Freeze();
  EXPECT_EQ(v.num_runs(), 0u);
}

TEST_F(SnapshotTest, BackgroundMaintenanceFreezesAndCompacts) {
  // Intern everything before the maintenance thread starts; the dictionary
  // is not synchronized.
  std::vector<rdf::Triple> inserted;
  inserted.reserve(100);
  for (int i = 0; i < 100; ++i) {
    inserted.emplace_back(U("bg" + std::to_string(i)), p_, o1_);
  }

  VersionSet v(base_.get());
  VersionSetOptions opts;
  opts.freeze_threshold = 8;
  opts.compact_min_runs = 2;
  v.StartBackgroundCompaction(opts);
  for (const rdf::Triple& t : inserted) ASSERT_TRUE(v.Insert(t));

  // The maintenance thread must eventually seal the oversized head and
  // merge the accumulated runs back under both thresholds.
  for (int tries = 0; tries < 500; ++tries) {
    if (v.head_size() < opts.freeze_threshold &&
        v.num_runs() < opts.compact_min_runs) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LT(v.head_size(), opts.freeze_threshold);
  EXPECT_LT(v.num_runs(), opts.compact_min_runs);
  v.StopBackgroundCompaction();

  SnapshotPtr snap = v.snapshot();
  EXPECT_EQ(snap->epoch(), 100u);
  EXPECT_EQ(snap->Materialize().size(), 105u);
  for (const rdf::Triple& t : inserted) EXPECT_TRUE(snap->Contains(t));
}

// Regression test for the `maintenance_` guard gap found by the first
// full-tree rdfref_check sweep (guard-completeness rule). The thread
// handle is assigned in StartBackgroundCompaction and moved out in
// StopBackgroundCompaction, both under mu_, but the field carried no
// RDFREF_GUARDED_BY(mu_) — so thread-safety analysis silently skipped
// it, and a future unlocked touch (e.g. a joinable() fast-path check
// before taking the lock) would have raced undetected.
//
// Fuzz-style repro: interleave start/stop cycles on one thread with a
// writer on another. Any unguarded access to the handle shows up under
// TSan as a data race on the std::thread object itself; with the
// annotation in place, such an access no longer even compiles under
// -Werror=thread-safety.
TEST_F(SnapshotTest, BackgroundMaintenanceStartStopCycleStress) {
  // Intern everything before the threads start; the dictionary is not
  // synchronized.
  std::vector<rdf::Triple> inserted;
  inserted.reserve(64);
  for (int i = 0; i < 64; ++i) {
    inserted.emplace_back(U("cyc" + std::to_string(i)), p_, o1_);
  }

  VersionSet v(base_.get());
  VersionSetOptions opts;
  opts.freeze_threshold = 4;
  opts.compact_min_runs = 2;

  std::thread cycler([&] {
    for (int round = 0; round < 25; ++round) {
      v.StartBackgroundCompaction(opts);
      // Redundant start while enabled must be a locked no-op, not a
      // second thread stomping the handle.
      v.StartBackgroundCompaction(opts);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      v.StopBackgroundCompaction();
      // Redundant stop while disabled must also be a locked no-op.
      v.StopBackgroundCompaction();
    }
  });
  for (const rdf::Triple& t : inserted) {
    ASSERT_TRUE(v.Insert(t));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  cycler.join();
  v.StopBackgroundCompaction();

  SnapshotPtr snap = v.snapshot();
  EXPECT_EQ(snap->epoch(), 64u);
  EXPECT_EQ(snap->Materialize().size(), 69u);
  for (const rdf::Triple& t : inserted) EXPECT_TRUE(snap->Contains(t));
}

// The TSan-targeted stress test: readers pin snapshots while one writer
// churns (inserts, removes, explicit Freeze/Compact) and the background
// maintenance thread races both. Every observation of a given epoch — no
// matter which reader, or whether the triples lived in head, runs, or a
// compacted base at pin time — must materialize the identical set.
TEST_F(SnapshotTest, ConcurrentReadersSeeDeterministicEpochs) {
  std::vector<rdf::TermId> subjects, objects;
  for (int i = 0; i < 8; ++i) subjects.push_back(U("cs" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) objects.push_back(U("co" + std::to_string(i)));

  VersionSet v(base_.get());
  VersionSetOptions opts;
  opts.freeze_threshold = 16;
  opts.compact_min_runs = 2;
  v.StartBackgroundCompaction(opts);

  common::Mutex mu;
  std::map<uint64_t, std::vector<rdf::Triple>> by_epoch;  // guarded by mu
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};

  auto check = [&](const SnapshotPtr& snap) {
    std::vector<rdf::Triple> mat = snap->Materialize();
    if (snap->CountMatches(kAny, kAny, kAny) != mat.size()) {
      ++mismatches;
      return;
    }
    common::MutexLock lock(&mu);
    auto it = by_epoch.find(snap->epoch());
    if (it == by_epoch.end()) {
      by_epoch.emplace(snap->epoch(), std::move(mat));
    } else if (it->second != mat) {
      ++mismatches;
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int c = 0; c < 400 && !done.load(); ++c) check(v.snapshot());
    });
  }

  // Writer churn on the test thread.
  Rng rng(7);
  std::vector<rdf::Triple> pool;
  for (int op = 0; op < 300; ++op) {
    if (!pool.empty() && rng.Chance(0.4)) {
      const size_t at = rng.Uniform(pool.size());
      ASSERT_TRUE(v.Remove(pool[at]));
      pool.erase(pool.begin() + at);
    } else {
      rdf::Triple t(subjects[rng.Uniform(subjects.size())], p_,
                    objects[rng.Uniform(objects.size())]);
      if (v.Insert(t)) pool.push_back(t);
    }
    if (op % 37 == 36) v.Freeze();
    if (op % 97 == 96) v.Compact();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  v.StopBackgroundCompaction();

  EXPECT_EQ(mismatches.load(), 0);
  // The final epoch must agree with the writer's own bookkeeping.
  SnapshotPtr last = v.snapshot();
  EXPECT_EQ(last->Materialize().size(), 5u + pool.size());
}

}  // namespace
}  // namespace storage

// ---------------------------------------------------------------------------
// Facade-level pinning: AnswerOptions::snapshot.

namespace api {
namespace {

namespace vocab = rdf::vocab;

class SnapshotApiTest : public ::testing::Test {
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
        "PREFIX bib: <http://example.org/bib/>\n" + text, &answerer_->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  std::set<std::vector<rdf::TermId>> Rows(Strategy s, const query::Cq& q,
                                          const AnswerOptions& options = {}) {
    auto table = answerer_->Answer(q, s, nullptr, options);
    EXPECT_TRUE(table.ok()) << table.status();
    return table->RowSet();
  }

  std::unique_ptr<QueryAnswerer> answerer_;
};

TEST_F(SnapshotApiTest, PinnedAnswersIgnoreLaterUpdates) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  AnswerOptions pinned;
  pinned.snapshot = answerer_->PinSnapshot();
  const auto before = Rows(Strategy::kRefUcq, q, pinned);
  EXPECT_EQ(before.size(), 1u);

  rdf::TermId doi2 = Bib("doi2");
  ASSERT_TRUE(
      answerer_->InsertTriple(rdf::Triple(doi2, vocab::kTypeId, Bib("Book")))
          .ok());

  // The pinned epoch keeps answering the old state; fresh calls see the new.
  EXPECT_EQ(Rows(Strategy::kRefUcq, q, pinned), before);
  EXPECT_EQ(Rows(Strategy::kRefGcov, q, pinned), before);
  EXPECT_EQ(Rows(Strategy::kRefUcq, q).size(), 2u);

  // Maintenance does not disturb a held pin either.
  answerer_->versions().Freeze();
  answerer_->versions().Compact();
  EXPECT_EQ(Rows(Strategy::kRefUcq, q, pinned), before);
  EXPECT_EQ(Rows(Strategy::kRefUcq, q).size(), 2u);
}

TEST_F(SnapshotApiTest, DatalogPinsTheEpochItsProgramWasBuiltAgainst) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Book . }");
  AnswerOptions pinned;
  pinned.snapshot = answerer_->PinSnapshot();

  rdf::TermId doi2 = Bib("doi2");
  ASSERT_TRUE(
      answerer_->InsertTriple(rdf::Triple(doi2, vocab::kTypeId, Bib("Book")))
          .ok());

  // The insert reset the program; building it against the pre-insert pin
  // answers the pinned epoch.
  EXPECT_EQ(Rows(Strategy::kDatalog, q, pinned).size(), 1u);
  // A fresh program (after another update resets it) sees the insert.
  ASSERT_TRUE(
      answerer_->InsertTriple(rdf::Triple(Bib("doi3"), Bib("writtenBy"),
                                          answerer_->dict().InternBlank("b9")))
          .ok());
  EXPECT_EQ(Rows(Strategy::kDatalog, q).size(), 3u);  // doi3 typed via domain
}

TEST_F(SnapshotApiTest, MaintenanceThroughFacadeKeepsAllStrategiesAgreeing) {
  query::Cq q = Parse("SELECT ?x WHERE { ?x a bib:Person . }");
  const auto before = Rows(Strategy::kSaturation, q);

  rdf::TermId doi2 = Bib("doi2");
  ASSERT_TRUE(answerer_
                  ->InsertTriple(rdf::Triple(doi2, Bib("writtenBy"),
                                             answerer_->dict().InternBlank(
                                                 "b2")))
                  .ok());
  answerer_->versions().Freeze();
  answerer_->versions().Compact();

  const auto expected = Rows(Strategy::kSaturation, q);
  EXPECT_EQ(expected.size(), before.size() + 1);
  for (Strategy s :
       {Strategy::kRefUcq, Strategy::kRefGcov, Strategy::kDatalog}) {
    EXPECT_EQ(Rows(s, q), expected) << StrategyName(s);
  }
}

}  // namespace
}  // namespace api
}  // namespace rdfref
