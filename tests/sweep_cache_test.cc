#include "query/sweep_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "heatmap/influence.h"
#include "heatmap/serialization.h"
#include "query/heatmap_engine.h"

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

HeatmapRequest MakeRequest(uint64_t seed, int n = 40,
                           Metric metric = Metric::kLInf) {
  return HeatmapRequest{MakeCircles(seed, n), Rect{{0, 0}, {1, 1}}, 24, 24,
                        metric};
}

HeatmapEngineOptions SingleWorker() {
  HeatmapEngineOptions options;
  options.num_threads = 1;
  return options;
}

HeatmapResponse MakeResponse(const HeatmapRequest& request) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, SingleWorker());
  return engine.Execute(request);
}

// Entries pack integer-valued grids; every other value must still come
// back bit for bit: fractions, -0.0, NaN, values past the 16-bit range.
TEST(SweepCacheTest, PackedAndUnpackedGridsRoundTripBitForBit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cases = {
      {0.0, 1.0, 65535.0, 7.0},      // packs
      {0.0, 1.5, 2.0, 3.0},          // fraction
      {0.0, -0.0, 2.0, 3.0},         // negative zero
      {0.0, nan, 2.0, 3.0},          // NaN
      {0.0, 65536.0, 2.0, 3.0},      // past 16 bits
      {0.0, -1.0, 2.0, 3.0}};        // negative
  SweepCache cache(SweepCacheOptions{});
  const HeatmapRequest request = MakeRequest(2);
  for (const std::vector<double>& values : cases) {
    HeatmapResponse response = MakeResponse(request);
    response.grid = HeatmapGrid(2, 2, Rect{{0, 0}, {1, 1}}, values);
    cache.Insert(request, response);
    const auto hit = cache.Lookup(request);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->grid.values().size(), values.size());
    EXPECT_EQ(std::memcmp(hit->grid.values().data(), values.data(),
                          values.size() * sizeof(double)),
              0);
  }
}

TEST(SweepCacheTest, MissThenHitReturnsBitIdenticalResponse) {
  SweepCache cache(SweepCacheOptions{});
  const HeatmapRequest request = MakeRequest(1);
  EXPECT_FALSE(cache.Lookup(request).has_value());
  const HeatmapResponse response = MakeResponse(request);
  cache.Insert(request, response);
  const auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->grid.values(), response.grid.values());
  EXPECT_EQ(hit->grid.domain(), response.grid.domain());
  EXPECT_EQ(hit->stats.num_labelings, response.stats.num_labelings);
  EXPECT_EQ(hit->cache.hits, 1u);
  EXPECT_EQ(hit->cache.misses, 1u);
}

TEST(SweepCacheTest, FingerprintIsContentSensitive) {
  const HeatmapRequest base = MakeRequest(2);
  const uint64_t key = SweepCache::Fingerprint(base);
  EXPECT_EQ(key, SweepCache::Fingerprint(MakeRequest(2)));  // deterministic

  HeatmapRequest nudged = base;
  nudged.circles[7].center.x += 1e-12;  // one circle, one ulp-ish nudge
  EXPECT_NE(key, SweepCache::Fingerprint(nudged));
  HeatmapRequest resized = base;
  resized.width = 25;
  EXPECT_NE(key, SweepCache::Fingerprint(resized));
  HeatmapRequest remetriced = base;
  remetriced.metric = Metric::kL2;
  EXPECT_NE(key, SweepCache::Fingerprint(remetriced));
  HeatmapRequest moved_domain = base;
  moved_domain.domain.hi.x += 0.5;
  EXPECT_NE(key, SweepCache::Fingerprint(moved_domain));
}

TEST(SweepCacheTest, PerturbedRequestMisses) {
  SweepCache cache(SweepCacheOptions{});
  const HeatmapRequest request = MakeRequest(3);
  cache.Insert(request, MakeResponse(request));
  HeatmapRequest nudged = request;
  nudged.circles.back().radius *= 1.0000001;
  EXPECT_FALSE(cache.Lookup(nudged).has_value());
  EXPECT_TRUE(cache.Lookup(request).has_value());
}

TEST(SweepCacheTest, LruEvictsOldestFirstUnderEntryBudget) {
  SweepCacheOptions options;
  options.max_entries = 2;
  SweepCache cache(options);
  const HeatmapRequest a = MakeRequest(10), b = MakeRequest(11),
                       c = MakeRequest(12);
  cache.Insert(a, MakeResponse(a));
  cache.Insert(b, MakeResponse(b));
  EXPECT_TRUE(cache.Lookup(a).has_value());  // touch a: b becomes LRU
  cache.Insert(c, MakeResponse(c));          // evicts b
  EXPECT_TRUE(cache.Lookup(a).has_value());
  EXPECT_FALSE(cache.Lookup(b).has_value());
  EXPECT_TRUE(cache.Lookup(c).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SweepCacheTest, ByteBudgetBoundsResidency) {
  const HeatmapRequest a = MakeRequest(20);
  const HeatmapResponse response = MakeResponse(a);
  const size_t grid_bytes =
      UnpackedSizeBytes(response.grid.width(), response.grid.height());
  SweepCacheOptions options;
  options.max_bytes = 2 * grid_bytes + 2 * sizeof(HeatmapRequest) +
                      2 * a.circles.size() * sizeof(NnCircle);
  SweepCache cache(options);
  for (uint64_t seed = 20; seed < 25; ++seed) {
    const HeatmapRequest r = MakeRequest(seed);
    cache.Insert(r, MakeResponse(r));
  }
  EXPECT_LE(cache.stats().bytes, options.max_bytes);
  EXPECT_LE(cache.stats().entries, 2u);
  EXPECT_GE(cache.stats().evictions, 3u);
}

// The budget charges a grid at its unpacked size whatever it packs to: a
// count grid (a quarter of the doubles on the wire) and a grid of
// fractions of the same shape cost the same, so admission and eviction do
// not move with the encoding.
TEST(SweepCacheTest, ChargesTheUnpackedSizeWhateverTheEncoding) {
  const HeatmapRequest a = MakeRequest(21);
  HeatmapResponse counts = MakeResponse(a);
  HeatmapResponse fractions = counts;
  for (int j = 0; j < a.height; ++j) {
    for (int i = 0; i < a.width; ++i) fractions.grid.At(i, j) += 0.5;
  }
  ASSERT_LT(SerializedSizeBytes(counts.grid),
            SerializedSizeBytes(fractions.grid));
  const size_t charge = 48 + 8 * 24 * 24 + a.circles.size() * sizeof(NnCircle) +
                        sizeof(HeatmapRequest);
  EXPECT_EQ(UnpackedSizeBytes(24, 24), 48u + 8u * 24 * 24);
  for (const HeatmapResponse* response : {&counts, &fractions}) {
    SweepCache cache(SweepCacheOptions{});
    cache.Insert(a, *response);
    EXPECT_EQ(cache.stats().bytes, charge);
  }
  // A budget one byte short of the charge admits neither form.
  SweepCacheOptions tight;
  tight.max_bytes = charge - 1;
  for (const HeatmapResponse* response : {&counts, &fractions}) {
    SweepCache cache(tight);
    cache.Insert(a, *response);
    EXPECT_EQ(cache.stats().entries, 0u);
  }
}

TEST(SweepCacheTest, OversizedEntryIsNotAdmitted) {
  SweepCacheOptions options;
  options.max_bytes = 16;  // smaller than any response
  SweepCache cache(options);
  const HeatmapRequest a = MakeRequest(30);
  cache.Insert(a, MakeResponse(a));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup(a).has_value());
}

TEST(SweepCacheTest, ClearDropsEntriesButKeepsCounters) {
  SweepCache cache(SweepCacheOptions{});
  const HeatmapRequest a = MakeRequest(40);
  cache.Insert(a, MakeResponse(a));
  ASSERT_TRUE(cache.Lookup(a).has_value());
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.Lookup(a).has_value());
}

// --- Engine integration ---------------------------------------------------

TEST(EngineCacheTest, RepeatSubmissionsHitAndMatchBitIdentically) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 32 << 20;
  HeatmapEngine engine(measure, options);

  const HeatmapRequest request = MakeRequest(50, 60, Metric::kL2);
  const HeatmapResponse cold = engine.Execute(request);
  EXPECT_FALSE(cold.from_cache);
  const HeatmapResponse warm = engine.Execute(request);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.grid.values(), cold.grid.values());
  EXPECT_EQ(warm.l2_stats.num_labelings, cold.l2_stats.num_labelings);
  EXPECT_EQ(engine.cache_stats().hits, 1u);

  // The cached response must also equal what a cache-less engine computes.
  HeatmapEngine plain(measure, SingleWorker());
  EXPECT_EQ(plain.Execute(request).grid.values(), warm.grid.values());
}

TEST(EngineCacheTest, RunBatchServesDuplicatesFromCache) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 2;
  options.cache_bytes = 32 << 20;
  HeatmapEngine engine(measure, options);

  std::vector<HeatmapRequest> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(MakeRequest(60 + i % 3));
  const std::vector<HeatmapResponse> responses =
      engine.RunBatch(std::move(batch));
  ASSERT_EQ(responses.size(), 12u);
  // 3 distinct requests: at least 9 of 12 must have been served by the
  // cache (racing workers may compute a duplicate concurrently before the
  // first insert lands, so exact counts are scheduling-dependent).
  const SweepCacheStats stats = engine.cache_stats();
  EXPECT_GE(stats.hits + stats.misses, 12u);
  EXPECT_GE(stats.hits, 1u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(responses[i].grid.values(), responses[i % 3].grid.values());
  }
}

TEST(EngineCacheTest, DisabledCacheReportsZeroStats) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, SingleWorker());
  const HeatmapResponse response = engine.Execute(MakeRequest(70));
  EXPECT_FALSE(response.from_cache);
  EXPECT_EQ(response.cache.hits + response.cache.misses, 0u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(EngineCacheTest, ConcurrentSubmittersShareTheCacheSafely) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 4;
  options.cache_bytes = 32 << 20;
  HeatmapEngine engine(measure, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::vector<std::thread> submitters;
  std::vector<std::vector<HeatmapResponse>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        results[t].push_back(
            engine.Submit(MakeRequest(100 + (t + i) % 5, 30)).get());
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  // Every response for the same seed must be bit-identical regardless of
  // which thread computed or cached it.
  for (int t = 1; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int seed = (t + i) % 5;
      for (int u = 0; u < kPerThread; ++u) {
        if ((0 + u) % 5 == seed) {
          EXPECT_EQ(results[t][i].grid.values(), results[0][u].grid.values());
        }
      }
    }
  }
}

}  // namespace
}  // namespace rnnhm
