#include "query/circle_set_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace rnnhm {
namespace {

std::vector<NnCircle> MakeCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

TEST(CircleSetSnapshotTest, HashMatchesFreeFunctionAndIsContentSensitive) {
  const auto circles = MakeCircles(1, 30);
  const auto set = CircleSetSnapshot::Make(circles, Metric::kL2);
  EXPECT_EQ(set->content_hash(), HashCircleSet(circles, Metric::kL2));
  EXPECT_NE(set->content_hash(), HashCircleSet(circles, Metric::kLInf));
  auto nudged = circles;
  nudged[7].radius += 1e-12;
  EXPECT_NE(set->content_hash(), HashCircleSet(nudged, Metric::kL2));
  EXPECT_TRUE(set->SameContent(circles, Metric::kL2));
  EXPECT_FALSE(set->SameContent(circles, Metric::kLInf));
  EXPECT_FALSE(set->SameContent(nudged, Metric::kL2));
}

TEST(CircleSetRegistryTest, RegisterDeduplicatesIdenticalContent) {
  CircleSetRegistry registry;
  const auto circles = MakeCircles(2, 40);
  const CircleSetHandle a = registry.Register(circles, Metric::kLInf);
  const CircleSetHandle b = registry.Register(circles, Metric::kLInf);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);
  // Deduplicated registrations resolve to the very same snapshot object.
  EXPECT_EQ(registry.Resolve(a).get(), registry.Resolve(b).get());
}

TEST(CircleSetRegistryTest, DistinctContentGetsDistinctHandles) {
  CircleSetRegistry registry;
  const CircleSetHandle a =
      registry.Register(MakeCircles(3, 40), Metric::kLInf);
  const CircleSetHandle b =
      registry.Register(MakeCircles(4, 40), Metric::kLInf);
  // Same circles, different metric: different content.
  const CircleSetHandle c =
      registry.Register(MakeCircles(3, 40), Metric::kL2);
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(a.id, c.id);
  EXPECT_NE(a.content_hash, c.content_hash);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(CircleSetRegistryTest, ResolveRejectsForgedAndUnknownHandles) {
  CircleSetRegistry registry;
  const CircleSetHandle a =
      registry.Register(MakeCircles(5, 20), Metric::kL1);
  EXPECT_NE(registry.Resolve(a), nullptr);
  EXPECT_EQ(registry.Resolve(CircleSetHandle{}), nullptr);
  EXPECT_EQ(registry.Resolve(CircleSetHandle{a.id + 999, a.content_hash}),
            nullptr);
  // Right id, wrong hash: a stale or forged handle must not resolve.
  EXPECT_EQ(registry.Resolve(CircleSetHandle{a.id, a.content_hash ^ 1}),
            nullptr);
}

TEST(CircleSetRegistryTest, FindByHashLocatesRegisteredContent) {
  CircleSetRegistry registry;
  const auto circles = MakeCircles(6, 25);
  const CircleSetHandle a = registry.Register(circles, Metric::kL2);
  EXPECT_EQ(registry.FindByHash(a.content_hash), a);
  EXPECT_FALSE(registry.FindByHash(a.content_hash ^ 1).valid());
}

TEST(CircleSetRegistryTest, ReleaseIsRefCounted) {
  CircleSetRegistry registry;
  const auto circles = MakeCircles(7, 30);
  const CircleSetHandle a = registry.Register(circles, Metric::kLInf);
  const CircleSetHandle b = registry.Register(circles, Metric::kLInf);
  ASSERT_EQ(a, b);  // two registrations of one entry
  EXPECT_TRUE(registry.Release(a));
  EXPECT_EQ(registry.size(), 1u);  // one registration still holds it
  EXPECT_NE(registry.Resolve(a), nullptr);
  EXPECT_TRUE(registry.Release(a));
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Resolve(a), nullptr);
  EXPECT_FALSE(registry.Release(a));  // already gone
}

TEST(CircleSetRegistryTest, SnapshotsOutliveRelease) {
  CircleSetRegistry registry;
  const CircleSetHandle a =
      registry.Register(MakeCircles(8, 30), Metric::kLInf);
  const std::shared_ptr<const CircleSetSnapshot> pinned =
      registry.Resolve(a);
  ASSERT_NE(pinned, nullptr);
  EXPECT_TRUE(registry.Release(a));
  // The registry dropped its reference; ours keeps the data alive.
  EXPECT_EQ(pinned->circles().size(), 30u);
  EXPECT_EQ(pinned->content_hash(), a.content_hash);
}

TEST(CircleSetRegistryTest, ReRegisteringReleasedContentIssuesFreshId) {
  CircleSetRegistry registry;
  const auto circles = MakeCircles(9, 15);
  const CircleSetHandle a = registry.Register(circles, Metric::kL2);
  ASSERT_TRUE(registry.Release(a));
  const CircleSetHandle b = registry.Register(circles, Metric::kL2);
  EXPECT_NE(a.id, b.id);  // ids are never reused
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(registry.Resolve(a), nullptr);
  EXPECT_NE(registry.Resolve(b), nullptr);
}

// Parallel Register/Resolve/Release over a small pool of contents; run
// under ASan/TSan. Every thread re-registers each content it resolves, so
// entries stay live while in use, and the final counts must balance.
TEST(CircleSetRegistryTest, ConcurrentRegisterResolveReleaseIsSafe) {
  CircleSetRegistry registry;
  constexpr int kContents = 5;
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<std::vector<NnCircle>> contents;
  for (int c = 0; c < kContents; ++c) {
    contents.push_back(MakeCircles(100 + c, 20));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto& circles = contents[(t + i) % kContents];
        const CircleSetHandle handle =
            registry.Register(circles, Metric::kLInf);
        const auto set = registry.Resolve(handle);
        if (set == nullptr ||
            !set->SameContent(circles, Metric::kLInf)) {
          ++mismatches;
        }
        registry.Release(handle);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(registry.size(), 0u);  // every registration was released
}

// --- Hash/equality correctness (the -0.0 and NaN pitfalls) ----------------

TEST(CircleSetRegistryTest, NegativeZeroDeduplicatesWithPositiveZero) {
  // -0.0 == +0.0 under operator==, so these two sets MUST also hash
  // identically — otherwise SameContent says "equal" while the hash
  // buckets disagree, and dedup depends on which bucket is probed.
  std::vector<NnCircle> plus = MakeCircles(20, 10);
  plus[3].center.x = 0.0;
  plus[5].radius = 0.0;
  std::vector<NnCircle> minus = plus;
  minus[3].center.x = -0.0;
  minus[5].radius = -0.0;
  EXPECT_EQ(HashCircleSet(plus, Metric::kLInf),
            HashCircleSet(minus, Metric::kLInf));
  CircleSetRegistry registry;
  const CircleSetHandle a = registry.Register(plus, Metric::kLInf);
  const CircleSetHandle b = registry.Register(minus, Metric::kLInf);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(CircleSetRegistryTest, NanMembersCompareEqualToThemselves) {
  // A NaN coordinate must not make a set unequal to itself: comparison is
  // bitwise, so re-registering the same NaN-bearing content deduplicates
  // instead of spawning a fresh entry per registration.
  std::vector<NnCircle> circles = MakeCircles(21, 8);
  circles[2].center.y = std::numeric_limits<double>::quiet_NaN();
  CircleSetRegistry registry;
  const CircleSetHandle a = registry.Register(circles, Metric::kL2);
  const CircleSetHandle b = registry.Register(circles, Metric::kL2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);
  const auto set = registry.Resolve(a);
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->SameContent(circles, Metric::kL2));
}

// --- Collision behavior (satellite: FindByHash must not guess) ------------

TEST(CircleSetRegistryTest, FindByHashRefusesAmbiguousCollision) {
  CircleSetRegistry registry;
  const auto content_a = MakeCircles(22, 12);
  const auto content_b = MakeCircles(23, 12);
  const uint64_t forced = 0xDEADBEEFCAFEF00Dull;
  const CircleSetHandle a =
      registry.RegisterWithHashForTesting(content_a, Metric::kLInf, forced);
  const CircleSetHandle b =
      registry.RegisterWithHashForTesting(content_b, Metric::kLInf, forced);
  ASSERT_NE(a.id, b.id);
  EXPECT_EQ(registry.size(), 2u);
  // Two distinct contents under one hash: the hash alone cannot name
  // either set, so the lookup must refuse rather than resolve the wrong
  // circle set.
  EXPECT_FALSE(registry.FindByHash(forced).valid());
  // The handles themselves still resolve — only by-hash naming is
  // ambiguous.
  EXPECT_NE(registry.Resolve(a), nullptr);
  EXPECT_NE(registry.Resolve(b), nullptr);
}

TEST(CircleSetRegistryTest, CollidedEntryResolvesContentWithRealHash) {
  // A single forced-collision entry: FindByHash returns it, but the
  // snapshot's true content hash differs from the filed hash — exactly
  // what the wire path's content-hash verification must catch.
  CircleSetRegistry registry;
  const auto circles = MakeCircles(24, 12);
  const uint64_t forced = HashCircleSet(circles, Metric::kLInf) ^ 0x1234;
  const CircleSetHandle handle =
      registry.RegisterWithHashForTesting(circles, Metric::kLInf, forced);
  const CircleSetHandle found = registry.FindByHash(forced);
  ASSERT_TRUE(found.valid());
  EXPECT_EQ(found, handle);
  const auto set = registry.Resolve(found);
  ASSERT_NE(set, nullptr);
  EXPECT_NE(set->content_hash(), forced);
}

// --- Retention / eviction -------------------------------------------------

TEST(CircleSetRegistryTest, RetentionKeepsReleasedEntriesResolvable) {
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 2;
  CircleSetRegistry registry(options);
  const CircleSetHandle a =
      registry.Register(MakeCircles(30, 10), Metric::kLInf);
  EXPECT_TRUE(registry.Release(a));
  // Fully released but retained: still resolvable, by handle and by hash.
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.unpinned_entries(), 1u);
  EXPECT_NE(registry.Resolve(a), nullptr);
  EXPECT_EQ(registry.FindByHash(a.content_hash), a);
}

TEST(CircleSetRegistryTest, EvictionIsLruOrdered) {
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 2;
  CircleSetRegistry registry(options);
  const CircleSetHandle a =
      registry.Register(MakeCircles(31, 10), Metric::kLInf);
  const CircleSetHandle b =
      registry.Register(MakeCircles(32, 10), Metric::kLInf);
  const CircleSetHandle c =
      registry.Register(MakeCircles(33, 10), Metric::kLInf);
  EXPECT_TRUE(registry.Release(a));
  EXPECT_TRUE(registry.Release(b));
  // Touch a: it becomes most recently used of the two unpinned entries.
  EXPECT_NE(registry.Resolve(a), nullptr);
  // Releasing c overflows the budget of 2; the LRU victim is b, not a.
  EXPECT_TRUE(registry.Release(c));
  EXPECT_EQ(registry.total_evicted(), 1u);
  EXPECT_EQ(registry.Resolve(b), nullptr);
  EXPECT_NE(registry.Resolve(a), nullptr);
  EXPECT_NE(registry.Resolve(c), nullptr);
}

TEST(CircleSetRegistryTest, ByteBudgetEvicts) {
  CircleSetRegistryOptions options;
  options.max_unpinned_bytes = 12 * sizeof(NnCircle);
  CircleSetRegistry registry(options);
  const CircleSetHandle a =
      registry.Register(MakeCircles(34, 10), Metric::kLInf);
  const CircleSetHandle b =
      registry.Register(MakeCircles(35, 10), Metric::kLInf);
  EXPECT_TRUE(registry.Release(a));
  EXPECT_EQ(registry.unpinned_entries(), 1u);  // 10 circles fit
  EXPECT_TRUE(registry.Release(b));
  // 20 circles exceed the 12-circle byte budget: the older entry goes.
  EXPECT_EQ(registry.total_evicted(), 1u);
  EXPECT_EQ(registry.Resolve(a), nullptr);
  EXPECT_NE(registry.Resolve(b), nullptr);
}

TEST(CircleSetRegistryTest, ReRegisteringUnpinnedContentRepins) {
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 4;
  CircleSetRegistry registry(options);
  const auto circles = MakeCircles(36, 10);
  const CircleSetHandle a = registry.Register(circles, Metric::kLInf);
  EXPECT_TRUE(registry.Release(a));
  EXPECT_EQ(registry.unpinned_entries(), 1u);
  // Same content comes back: the retained entry re-pins under its
  // original id (ids are stable for resident content).
  const CircleSetHandle b = registry.Register(circles, Metric::kLInf);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.unpinned_entries(), 0u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(CircleSetRegistryTest, ReleaseOfUnpinnedEntryCannotUnderflow) {
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 4;
  CircleSetRegistry registry(options);
  const auto circles = MakeCircles(37, 10);
  const CircleSetHandle a = registry.Register(circles, Metric::kLInf);
  EXPECT_TRUE(registry.Release(a));
  // A second release of the retained (zero-registration) entry is a safe
  // no-op — NOT an underflow that would wedge the count at a huge value.
  EXPECT_FALSE(registry.Release(a));
  EXPECT_FALSE(registry.Release(a));
  // Re-register then release once: the counts still balance.
  const CircleSetHandle b = registry.Register(circles, Metric::kLInf);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(registry.Release(b));
  EXPECT_EQ(registry.unpinned_entries(), 1u);
}

// --- ApplyDelta -----------------------------------------------------------

TEST(CircleSetRegistryTest, ApplyDeltaReplaceAppendSwapRemove) {
  CircleSetRegistry registry;
  auto circles = MakeCircles(40, 5);
  const CircleSetHandle base = registry.Register(circles, Metric::kLInf);

  const NnCircle moved{{0.5, 0.5}, 0.1, 1};
  const NnCircle added{{0.9, 0.1}, 0.05, 5};
  const std::vector<CircleSetEdit> edits = {
      {CircleSetEdit::Kind::kReplace, 1, moved},
      {CircleSetEdit::Kind::kAppend, 0, added},
      {CircleSetEdit::Kind::kSwapRemove, 0, {}},
  };
  // Mirror the edits locally to predict the derived content.
  auto expected = circles;
  expected[1] = moved;
  expected.push_back(added);
  expected[0] = expected.back();
  expected.pop_back();

  CircleSetHandle derived;
  DirtyRegionSet dirty;
  std::shared_ptr<const CircleSetSnapshot> base_set;
  const Status status =
      registry.ApplyDelta(base, edits,
                          HashCircleSet(expected, Metric::kLInf), &derived,
                          &dirty, &base_set);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(derived.valid());
  ASSERT_NE(base_set, nullptr);
  EXPECT_EQ(base_set->content_hash(), base.content_hash);
  const auto derived_set = registry.Resolve(derived);
  ASSERT_NE(derived_set, nullptr);
  EXPECT_TRUE(derived_set->SameContent(expected, Metric::kLInf));
  EXPECT_FALSE(dirty.empty());
  // Base and derived are both resident (the base registration is intact).
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_NE(registry.Resolve(base), nullptr);
}

TEST(CircleSetRegistryTest, ApplyDeltaRejectsBadIndexAndHashMismatch) {
  CircleSetRegistry registry;
  const CircleSetHandle base =
      registry.Register(MakeCircles(41, 4), Metric::kL2);
  CircleSetHandle derived;

  const std::vector<CircleSetEdit> out_of_range = {
      {CircleSetEdit::Kind::kReplace, 99, NnCircle{{0, 0}, 0.1, 0}}};
  EXPECT_EQ(registry.ApplyDelta(base, out_of_range, std::nullopt, &derived)
                .code,
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(derived.valid());
  EXPECT_EQ(registry.size(), 1u);  // nothing registered on failure

  const std::vector<CircleSetEdit> fine = {
      {CircleSetEdit::Kind::kReplace, 0, NnCircle{{0, 0}, 0.1, 0}}};
  EXPECT_EQ(registry.ApplyDelta(base, fine, uint64_t{0x1234}, &derived).code,
            StatusCode::kInvalidArgument);  // wrong expected hash
  EXPECT_FALSE(derived.valid());
  EXPECT_EQ(registry.size(), 1u);

  EXPECT_TRUE(registry.ApplyDelta(base, fine, std::nullopt, &derived).ok());
  EXPECT_TRUE(derived.valid());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(CircleSetRegistryTest, ApplyDeltaFromReleasedBaseIsNotFound) {
  CircleSetRegistry registry;  // no retention: release erases
  const CircleSetHandle base =
      registry.Register(MakeCircles(42, 4), Metric::kLInf);
  ASSERT_TRUE(registry.Release(base));
  CircleSetHandle derived;
  const std::vector<CircleSetEdit> edits = {
      {CircleSetEdit::Kind::kReplace, 0, NnCircle{{0, 0}, 0.1, 0}}};
  EXPECT_EQ(registry.ApplyDelta(base, edits, std::nullopt, &derived).code,
            StatusCode::kNotFound);
  EXPECT_FALSE(derived.valid());
}

// --- RegistrationScope ----------------------------------------------------

TEST(RegistrationScopeTest, ReleasesTrackedHandlesOnDestruction) {
  CircleSetRegistry registry;
  const CircleSetHandle a =
      registry.Register(MakeCircles(50, 8), Metric::kLInf);
  {
    RegistrationScope scope(&registry);
    scope.Track(a);
    EXPECT_EQ(scope.tracked(), 1u);
    EXPECT_EQ(registry.size(), 1u);
  }
  // Scope death released the only registration: entry gone (no retention).
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistrationScopeTest, CapReleasesOldestFirst) {
  CircleSetRegistry registry;
  RegistrationScope scope(&registry, /*max_tracked=*/2);
  const CircleSetHandle a =
      registry.Register(MakeCircles(51, 8), Metric::kLInf);
  const CircleSetHandle b =
      registry.Register(MakeCircles(52, 8), Metric::kLInf);
  const CircleSetHandle c =
      registry.Register(MakeCircles(53, 8), Metric::kLInf);
  scope.Track(a);
  scope.Track(b);
  scope.Track(c);  // pushes a out
  EXPECT_EQ(scope.tracked(), 2u);
  EXPECT_EQ(registry.Resolve(a), nullptr);
  EXPECT_NE(registry.Resolve(b), nullptr);
  EXPECT_NE(registry.Resolve(c), nullptr);
}

// --- Bounded-memory soak (the tentpole's acceptance bar) ------------------

TEST(CircleSetRegistryTest, SoakTenThousandSetsStaysBounded) {
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 64;
  CircleSetRegistry registry(options);
  constexpr int kSets = 10000;
  constexpr size_t kCirclesPerSet = 4;
  for (int i = 0; i < kSets; ++i) {
    const CircleSetHandle handle =
        registry.Register(MakeCircles(1000 + i, kCirclesPerSet),
                          Metric::kLInf);
    ASSERT_TRUE(handle.valid());
    registry.Release(handle);
  }
  // Resident state is capped by the retention budget, not the set count.
  EXPECT_LE(registry.size(), options.max_unpinned_entries);
  EXPECT_LE(registry.resident_bytes(),
            options.max_unpinned_entries * kCirclesPerSet * sizeof(NnCircle));
  EXPECT_GE(registry.total_evicted(),
            static_cast<size_t>(kSets) - options.max_unpinned_entries);
}

// --- Concurrency ----------------------------------------------------------

// Readers (Resolve + FindByHash) hammer a set of pinned and *unpinned*
// handles — unpinned so every hit also splices LRU recency, the one write
// lookups perform — while a writer churns registrations, releases, and
// deltas. Exercises the shared-lock read path against concurrent
// exclusive mutations; every resolve must return the right content or a
// clean miss, never a torn entry.
// Lock-order smoke test for the registry's two-mutex protocol (exclusive
// or shared mu_ first, leaf lru_mu_ second — the order the annotations in
// circle_set_registry.h encode). Resolve-under-load takes shared mu_ and
// then lru_mu_ for the LRU touch, while a churning writer drives the
// eviction sweep, which takes exclusive mu_ and then lru_mu_ repeatedly.
// Run under TSan (RNNHM_TSAN) this catches an unlocked touch at runtime;
// a *reversed* acquisition would already be a Clang compile error via
// RNNHM_ACQUIRED_AFTER, so the pair of checkers covers both failure
// modes.
TEST(CircleSetRegistryStressTest, LockOrderResolveUnderLoadDuringEviction) {
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 4;  // tiny budget: every churn evicts
  CircleSetRegistry registry(options);

  // A pool of retained-but-unpinned sets for the readers to resolve: each
  // Resolve touches the LRU (shared mu_ -> lru_mu_).
  constexpr int kPool = 8;
  std::vector<CircleSetHandle> pool;
  for (int s = 0; s < kPool; ++s) {
    pool.push_back(registry.Register(MakeCircles(4200 + s, 8), Metric::kL2));
    ASSERT_TRUE(pool.back().valid());
  }

  constexpr int kReaders = 3;
  constexpr int kIters = 2000;
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!start.load()) {
      }
      for (int i = 0; i < kIters; ++i) {
        // A resolved handle may have been evicted by the churner after
        // its release below — either outcome is valid; the test's
        // assertion is TSan's (and the annotations') silence.
        (void)registry.Resolve(pool[(t + i) % kPool]);
        (void)registry.FindByHash(pool[(t + i) % kPool].content_hash);
      }
    });
  }
  std::thread churner([&] {
    while (!start.load()) {
    }
    // Register + release churn: every release funnels an entry into the
    // unpinned LRU and every registration past the budget runs the
    // eviction sweep (exclusive mu_ -> lru_mu_, held across the loop).
    for (int i = 0; i < kIters && !stop.load(); ++i) {
      const CircleSetHandle h =
          registry.Register(MakeCircles(9100 + i, 6), Metric::kL2);
      ASSERT_TRUE(h.valid());
      ASSERT_TRUE(registry.Release(h));
    }
  });
  // Release the pool mid-flight so reader touches and evictions overlap
  // on the same entries.
  start.store(true);
  for (int s = 0; s < kPool; ++s) {
    ASSERT_TRUE(registry.Release(pool[s]));
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  churner.join();

  // The budget must have held under the churn.
  EXPECT_LE(registry.unpinned_entries(), 4u);
}

TEST(CircleSetRegistryStressTest, ContendedReadersSurviveConcurrentWrites) {
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 16;  // retention on: touches splice LRU
  CircleSetRegistry registry(options);

  constexpr int kStableSets = 8;
  std::vector<std::vector<NnCircle>> contents;
  std::vector<CircleSetHandle> handles;
  for (int s = 0; s < kStableSets; ++s) {
    contents.push_back(MakeCircles(700 + s, 12 + s));
    handles.push_back(registry.Register(contents.back(), Metric::kL2));
    ASSERT_TRUE(handles.back().valid());
  }
  // Unpin half of them: still resolvable through retention, and every
  // resolve now refreshes their LRU position.
  for (int s = 0; s < kStableSets / 2; ++s) {
    ASSERT_TRUE(registry.Release(handles[s]));
  }

  constexpr int kReaders = 4;
  constexpr int kIters = 3000;
  std::atomic<bool> start{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) {
      }
      for (int i = 0; i < kIters; ++i) {
        const int s = (t + i) % kStableSets;
        const auto set = registry.Resolve(handles[s]);
        // A stable set may only miss if the retention budget evicted it
        // (possible for the unpinned half while the writer churns).
        if (set != nullptr && !set->SameContent(contents[s], Metric::kL2)) {
          mismatches.fetch_add(1);
        }
        const CircleSetHandle by_hash =
            registry.FindByHash(handles[s].content_hash);
        if (by_hash.valid() &&
            by_hash.content_hash != handles[s].content_hash) {
          mismatches.fetch_add(1);
        }
        if ((i & 63) == 0) {
          (void)registry.size();
          (void)registry.unpinned_entries();
          (void)registry.resident_bytes();
        }
      }
    });
  }
  std::thread writer([&] {
    while (!start.load()) {
    }
    RegistrationScope scope(&registry, /*max_tracked=*/8);
    for (int i = 0; i < kIters / 4; ++i) {
      const CircleSetHandle churn =
          registry.Register(MakeCircles(9000 + i, 10), Metric::kL2);
      scope.Track(churn);
      const std::vector<CircleSetEdit> edits = {
          {CircleSetEdit::Kind::kReplace, 0, NnCircle{{0.5, 0.5}, 0.1, 0}}};
      CircleSetHandle derived;
      if (registry.ApplyDelta(churn, edits, std::nullopt, &derived).ok()) {
        scope.Track(derived);
      }
    }
  });
  start.store(true);
  for (std::thread& t : threads) t.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The pinned half must have survived every eviction sweep.
  for (int s = kStableSets / 2; s < kStableSets; ++s) {
    const auto set = registry.Resolve(handles[s]);
    ASSERT_NE(set, nullptr) << s;
    EXPECT_TRUE(set->SameContent(contents[s], Metric::kL2));
  }
}

// --- Ingress validation ---------------------------------------------------

TEST(CircleSetRegistryIngressTest, CheckedRegisterRefusesNonFiniteCircles) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CircleSetRegistry registry;
  for (const NnCircle& bad :
       {NnCircle{{0.5, 0.5}, inf, 3}, NnCircle{{nan, 0.5}, 0.1, 3},
        NnCircle{{0.5, -inf}, 0.1, 3}, NnCircle{{0.5, 0.5}, nan, 3}}) {
    std::vector<NnCircle> circles = MakeCircles(70, 3);
    circles.push_back(bad);
    CircleSetHandle handle;
    const Status status =
        registry.Register(std::move(circles), Metric::kL2, &handle);
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
    EXPECT_FALSE(handle.valid());
  }
  EXPECT_EQ(registry.size(), 0u);
  // Finite input, negative radius included (an empty circle), registers.
  std::vector<NnCircle> circles = MakeCircles(70, 3);
  circles.push_back(NnCircle{{0.5, 0.5}, -1.0, 3});
  CircleSetHandle handle;
  ASSERT_TRUE(registry.Register(circles, Metric::kL2, &handle).ok());
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle, registry.Register(circles, Metric::kL2));
}

TEST(CircleSetRegistryIngressTest, ApplyDeltaRefusesNonFiniteEdits) {
  const double inf = std::numeric_limits<double>::infinity();
  CircleSetRegistry registry;
  const CircleSetHandle base = registry.Register(MakeCircles(71, 4),
                                                 Metric::kLInf);
  for (const CircleSetEdit& edit :
       {CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                      NnCircle{{0.5, 0.5}, inf, 4}},
        CircleSetEdit{CircleSetEdit::Kind::kReplace, 1,
                      NnCircle{{std::numeric_limits<double>::quiet_NaN(),
                                0.5},
                               0.1, 1}}}) {
    CircleSetHandle derived;
    const Status status = registry.ApplyDelta(
        base, std::span<const CircleSetEdit>(&edit, 1), std::nullopt,
        &derived);
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument) << status.message;
    EXPECT_FALSE(derived.valid());
  }
  EXPECT_EQ(registry.size(), 1u);
}

}  // namespace
}  // namespace rnnhm
