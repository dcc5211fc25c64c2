#include "query/heatmap_engine.h"

#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "heatmap/column_raster.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"

namespace rnnhm {
namespace {

std::vector<NnCircle> RandomCircles(int n, Rng& rng, double max_r = 0.15) {
  std::vector<NnCircle> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.01, max_r), i});
  }
  return out;
}

HeatmapEngineOptions Options(int threads, int slabs = 1) {
  HeatmapEngineOptions options;
  options.num_threads = threads;
  options.slabs_per_request = slabs;
  return options;
}

HeatmapRequest RandomRequest(int n, uint64_t seed) {
  Rng rng(seed);
  HeatmapRequest req;
  req.circles = RandomCircles(n, rng);
  req.domain = Rect{{-0.1, -0.1}, {1.1, 1.1}};
  req.width = 64;
  req.height = 64;
  return req;
}

std::vector<HeatmapRequest> RandomBatch(int count) {
  std::vector<HeatmapRequest> batch;
  for (int i = 0; i < count; ++i) {
    batch.push_back(RandomRequest(40 + 10 * i, 1000 + i));
  }
  return batch;
}

/// The sequential reference every engine configuration must reproduce
/// bit-for-bit.
HeatmapGrid Reference(const HeatmapRequest& req,
                      const InfluenceMeasure& measure) {
  return BuildHeatmapLInf(req.circles, measure, req.domain, req.width,
                          req.height);
}

void ExpectBitIdentical(const HeatmapGrid& got, const HeatmapGrid& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (size_t i = 0; i < got.values().size(); ++i) {
    ASSERT_EQ(got.values()[i], want.values()[i]) << "flat index " << i;
  }
}

TEST(HeatmapEngineTest, SingleThreadModeMatchesSequentialCrest) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(1));
  EXPECT_EQ(engine.num_threads(), 1);
  const auto batch = RandomBatch(6);
  const auto responses = engine.RunBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(responses[i].grid, Reference(batch[i], measure));
    // The kernel ran (chords painted) and counted: Size is never evaluated.
    EXPECT_GT(responses[i].stats.num_events, 0u);
    EXPECT_EQ(responses[i].stats.num_labelings, 0u);
  }
}

TEST(HeatmapEngineTest, MultiThreadBatchIsBitIdenticalToSequential) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(4));
  EXPECT_EQ(engine.num_threads(), 4);
  const auto batch = RandomBatch(12);
  const auto responses = engine.RunBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(responses[i].grid, Reference(batch[i], measure));
  }
}

TEST(HeatmapEngineTest, SlabParallelSweepIsBitIdenticalToSequential) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(2, 4));
  const auto batch = RandomBatch(4);
  const auto responses = engine.RunBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectBitIdentical(responses[i].grid, Reference(batch[i], measure));
  }
}

TEST(HeatmapEngineTest, WeightedMeasureFlowsThroughUnchanged) {
  Rng rng(7);
  std::vector<double> weights;
  for (int i = 0; i < 80; ++i) weights.push_back(rng.Uniform(0.5, 2.0));
  WeightedInfluence measure(weights);
  HeatmapEngine engine(measure, Options(3));
  const auto req = RandomRequest(80, 42);
  const auto response = engine.Submit(req).get();
  ExpectBitIdentical(response.grid, Reference(req, measure));
}

TEST(HeatmapEngineTest, ExecuteBypassesQueueWithSameResult) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(2));
  const auto req = RandomRequest(50, 99);
  ExpectBitIdentical(engine.Execute(req).grid, Reference(req, measure));
}

TEST(HeatmapEngineTest, EmptyBatchAndEmptyRequestAreServed) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(2));
  EXPECT_TRUE(engine.RunBatch(std::vector<HeatmapRequest>{}).empty());
  HeatmapRequest req;  // no circles
  req.domain = Rect{{0, 0}, {1, 1}};
  req.width = 8;
  req.height = 8;
  const auto response = engine.Submit(std::move(req)).get();
  for (const double v : response.grid.values()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(response.stats.num_events, 0u);
}

// Many client threads hammering Submit concurrently; run under ASan/TSan to
// catch races. Every response must still equal the sequential reference.
TEST(HeatmapEngineTest, ConcurrentSubmissionFromManyThreadsIsRaceFree) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(4));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<HeatmapResponse>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, &futures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(
            engine.Submit(RandomRequest(30, 500 + t * kPerThread + i)));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto response = futures[t][i].get();
      const auto req = RandomRequest(30, 500 + t * kPerThread + i);
      ExpectBitIdentical(response.grid, Reference(req, measure));
    }
  }
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(HeatmapEngineTest, PendingDrainsToZero) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(2));
  auto batch = RandomBatch(5);
  std::vector<std::future<HeatmapResponse>> futures;
  for (auto& r : batch) futures.push_back(engine.Submit(std::move(r)));
  for (auto& f : futures) f.get();
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(HeatmapEngineTest, DestructorDrainsOutstandingRequests) {
  SizeInfluence measure;
  std::future<HeatmapResponse> future;
  {
    HeatmapEngine engine(measure, Options(1));
    future = engine.Submit(RandomRequest(60, 7));
  }  // destructor joins after serving the queue
  const auto response = future.get();
  EXPECT_GT(response.stats.num_events, 0u);
}

TEST(HeatmapEngineTest, DestructorDrainsDeepQueueAcrossWorkers) {
  // Many requests still queued when the engine dies: every future must
  // still resolve with a correct response (no request is dropped).
  SizeInfluence measure;
  std::vector<std::future<HeatmapResponse>> futures;
  constexpr int kQueued = 16;
  {
    HeatmapEngine engine(measure, Options(2));
    for (int i = 0; i < kQueued; ++i) {
      futures.push_back(engine.Submit(RandomRequest(40, 9000 + i)));
    }
  }
  for (int i = 0; i < kQueued; ++i) {
    const auto response = futures[i].get();
    ExpectBitIdentical(response.grid,
                       Reference(RandomRequest(40, 9000 + i), measure));
  }
}

// --- Failure paths --------------------------------------------------------

/// Throws for every nonempty RNN set; the empty-set evaluation that seeds
/// the grid background stays safe.
class ThrowingInfluence : public InfluenceMeasure {
 public:
  double Evaluate(std::span<const int32_t> clients) const override {
    if (!clients.empty()) {
      throw std::runtime_error("influence backend unavailable");
    }
    return 0.0;
  }
};

TEST(HeatmapEngineTest, SubmitFuturePropagatesWorkerExceptions) {
  ThrowingInfluence measure;
  HeatmapEngine engine(measure, Options(2));
  auto failing = engine.Submit(RandomRequest(40, 1));
  EXPECT_THROW(failing.get(), std::runtime_error);
  // The worker that threw must survive and keep serving. An empty request
  // never evaluates a nonempty set, so it succeeds on the same engine.
  HeatmapRequest empty;
  empty.domain = Rect{{0, 0}, {1, 1}};
  empty.width = 4;
  empty.height = 4;
  const auto response = engine.Submit(std::move(empty)).get();
  EXPECT_EQ(response.stats.num_events, 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(HeatmapEngineTest, ColumnBlockExceptionsReachTheFuture) {
  // With several column blocks per request, a measure that throws on a
  // block thread is forwarded to the caller once every block has joined.
  ThrowingInfluence measure;
  HeatmapEngine engine(measure, Options(1, 4));
  auto failing = engine.Submit(RandomRequest(40, 2));
  EXPECT_THROW(failing.get(), std::runtime_error);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(HeatmapEngineTest, AllFailingBatchResolvesEveryFuture) {
  ThrowingInfluence measure;
  HeatmapEngine engine(measure, Options(4));
  std::vector<std::future<HeatmapResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(engine.Submit(RandomRequest(30, 100 + i)));
  }
  for (auto& f : futures) EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(HeatmapEngineTest, RunBatchKeepsRequestOrderUnderContention) {
  // Responses must come back in request order even with workers racing and
  // other threads hammering Submit concurrently. Each request's raster
  // size encodes its batch position.
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(4));
  std::vector<HeatmapRequest> batch;
  constexpr int kBatch = 24;
  for (int i = 0; i < kBatch; ++i) {
    HeatmapRequest req = RandomRequest(30 + i, 700 + i);
    req.width = 8 + i;  // marker: response i must have width 8 + i
    batch.push_back(std::move(req));
  }
  std::thread noise([&engine] {
    std::vector<std::future<HeatmapResponse>> side;
    for (int i = 0; i < 48; ++i) {
      side.push_back(engine.Submit(RandomRequest(20, 3000 + i)));
    }
    for (auto& f : side) f.get();
  });
  const auto responses = engine.RunBatch(std::move(batch));
  noise.join();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(responses[i].grid.width(), 8 + i) << "position " << i;
  }
}

// --- L2 requests through the engine ---------------------------------------

std::vector<NnCircle> RandomDisks(int n, uint64_t seed) {
  Rng rng(seed);
  return RandomCircles(n, rng);
}

HeatmapRequest L2Request(int n, uint64_t seed) {
  HeatmapRequest req;
  req.circles = RandomDisks(n, seed);
  req.domain = Rect{{-0.1, -0.1}, {1.1, 1.1}};
  req.width = 56;
  req.height = 56;
  req.metric = Metric::kL2;
  return req;
}

TEST(HeatmapEngineTest, L2RequestsMatchSequentialArcSweepBitForBit) {
  SizeInfluence measure;
  for (const int slabs : {1, 2, 4, 8}) {
    HeatmapEngine engine(measure, Options(2, slabs));
    const auto req = L2Request(60, 2100 + slabs);
    const auto response = engine.Submit(req).get();
    ExpectBitIdentical(response.grid,
                       BuildHeatmapL2(req.circles, measure, req.domain,
                                      req.width, req.height));
    EXPECT_GT(response.l2_stats.num_events, 0u);
    EXPECT_EQ(response.stats.num_events, 0u);  // L2 counters only
    EXPECT_EQ(response.l2_stats.num_labelings, 0u);  // Size is counted
  }
}

TEST(HeatmapEngineTest, L2StatsAggregateAcrossSlabs) {
  // The engine surfaces the column kernel's counters (query/wire.h maps
  // them): circles, chords as events, Evaluate calls as labelings — the
  // same totals for every slab count, since each column is painted alike.
  SizeInfluence measure;
  const auto req = L2Request(80, 2200);
  HeatmapGrid grid(req.width, req.height, req.domain, 0.0);
  const ColumnRasterStats kernel =
      RasterizeGrid(Metric::kL2, req.circles, measure, 1, &grid);
  for (const int slabs : {1, 4}) {
    HeatmapEngine engine(measure, Options(1, slabs));
    const auto response = engine.Submit(req).get();
    EXPECT_EQ(response.l2_stats.num_circles, kernel.num_circles);
    EXPECT_EQ(response.l2_stats.num_skipped_circles,
              kernel.num_skipped_circles);
    EXPECT_EQ(response.l2_stats.num_events, kernel.num_chords);
    EXPECT_EQ(response.l2_stats.num_labelings, kernel.num_evaluations);
    EXPECT_EQ(response.l2_stats.num_cross_events, 0u);  // sweep-only
    EXPECT_GT(response.l2_stats.num_events, 0u);
    EXPECT_EQ(response.l2_stats.num_labelings, 0u);  // Size is counted
  }
}

TEST(HeatmapEngineTest, MixedMetricBatchDispatchesPerRequest) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(3, 2));
  std::vector<HeatmapRequest> batch;
  batch.push_back(RandomRequest(40, 51));       // kLInf
  batch.push_back(L2Request(40, 52));           // kL2
  HeatmapRequest l1 = RandomRequest(40, 53);
  l1.metric = Metric::kL1;
  batch.push_back(std::move(l1));
  const auto responses = engine.RunBatch(std::move(batch));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_GT(responses[0].stats.num_events, 0u);
  EXPECT_EQ(responses[0].l2_stats.num_events, 0u);
  EXPECT_GT(responses[1].l2_stats.num_events, 0u);
  EXPECT_EQ(responses[1].stats.num_events, 0u);
  EXPECT_GT(responses[2].stats.num_events, 0u);
  for (const HeatmapResponse& r : responses) {
    EXPECT_EQ(r.stats.num_labelings + r.l2_stats.num_labelings, 0u);
  }
}

// --- Serving API v2: handles + registry -----------------------------------

TEST(HeatmapEngineV2Test, HandleRequestsMatchLegacyInlineBitForBit) {
  SizeInfluence measure;
  for (const int slabs : {1, 4}) {
    HeatmapEngine engine(measure, Options(2, slabs));
    for (const Metric metric : {Metric::kLInf, Metric::kL1, Metric::kL2}) {
      HeatmapRequest legacy = RandomRequest(45, 4000 + slabs);
      legacy.metric = metric;
      const CircleSetHandle handle =
          engine.registry().Register(legacy.circles, metric);
      const HeatmapResponse v2 = engine.Execute(HeatmapRequestV2{
          handle, legacy.domain, legacy.width, legacy.height});
      const HeatmapResponse inline_response = engine.Execute(legacy);
      ExpectBitIdentical(v2.grid, inline_response.grid);
    }
  }
}

TEST(HeatmapEngineV2Test, SubmitAndRunBatchServeHandles) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(3));
  const HeatmapRequest base = RandomRequest(50, 4100);
  const CircleSetHandle handle =
      engine.registry().Register(base.circles, base.metric);
  // One shared set fanned across resolutions — the registry stores the
  // circles once, each response is still the exact sequential raster.
  std::vector<HeatmapRequestV2> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(
        HeatmapRequestV2{handle, base.domain, 16 + i, 16 + i});
  }
  const auto responses = engine.RunBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(responses[i].grid.width(), 16 + i);
    HeatmapRequest reference = base;
    reference.width = reference.height = 16 + i;
    ExpectBitIdentical(responses[i].grid, Reference(reference, measure));
  }
}

TEST(HeatmapEngineV2Test, ReleasedHandleStaysServableWhileInFlight) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, Options(2));
  const HeatmapRequest base = RandomRequest(60, 4200);
  const CircleSetHandle handle =
      engine.registry().Register(base.circles, base.metric);
  // Submit pins the snapshot; releasing the registration afterwards must
  // not unmap the data under the worker.
  auto future = engine.Submit(
      HeatmapRequestV2{handle, base.domain, base.width, base.height});
  EXPECT_TRUE(engine.registry().Release(handle));
  ExpectBitIdentical(future.get().grid, Reference(base, measure));
}

TEST(HeatmapEngineV2Test, EnginesShareARegistryPassedViaOptions) {
  SizeInfluence measure;
  auto registry = std::make_shared<CircleSetRegistry>();
  HeatmapEngineOptions options = Options(1);
  options.registry = registry;
  HeatmapEngine a(measure, options);
  HeatmapEngine b(measure, options);
  const HeatmapRequest base = RandomRequest(40, 4300);
  const CircleSetHandle handle =
      registry->Register(base.circles, base.metric);
  const HeatmapRequestV2 request{handle, base.domain, base.width,
                                 base.height};
  ExpectBitIdentical(a.Execute(request).grid, b.Execute(request).grid);
  EXPECT_EQ(&a.registry(), registry.get());
  EXPECT_EQ(&b.registry(), registry.get());
}

TEST(HeatmapEngineV2Test, HandleAndInlinePathsShareTheCache) {
  SizeInfluence measure;
  HeatmapEngineOptions options = Options(1);
  options.cache_bytes = 16 << 20;
  HeatmapEngine engine(measure, options);
  const HeatmapRequest base = RandomRequest(55, 4400);
  // Miss via the legacy inline path...
  const HeatmapResponse cold = engine.Execute(base);
  EXPECT_FALSE(cold.from_cache);
  // ...hit via the handle path (same content, same geometry)...
  const CircleSetHandle handle =
      engine.registry().Register(base.circles, base.metric);
  const HeatmapResponse warm = engine.Execute(
      HeatmapRequestV2{handle, base.domain, base.width, base.height});
  EXPECT_TRUE(warm.from_cache);
  ExpectBitIdentical(warm.grid, cold.grid);
  // ...and hit again through the inline const-ref path (copy-free).
  const HeatmapResponse warm_inline = engine.Execute(base);
  EXPECT_TRUE(warm_inline.from_cache);
  ExpectBitIdentical(warm_inline.grid, cold.grid);
  EXPECT_EQ(engine.cache_stats().hits, 2u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
}

TEST(HeatmapEngineV2Test, RepeatedHandleExecutesHitWithoutRehashing) {
  SizeInfluence measure;
  HeatmapEngineOptions options = Options(1);
  options.cache_bytes = 16 << 20;
  HeatmapEngine engine(measure, options);
  const HeatmapRequest base = RandomRequest(70, 4500);
  const CircleSetHandle handle =
      engine.registry().Register(base.circles, base.metric);
  const HeatmapRequestV2 request{handle, base.domain, base.width,
                                 base.height};
  const HeatmapResponse first = engine.Execute(request);
  EXPECT_FALSE(first.from_cache);
  for (int i = 0; i < 5; ++i) {
    const HeatmapResponse again = engine.Execute(request);
    EXPECT_TRUE(again.from_cache);
    ExpectBitIdentical(again.grid, first.grid);
  }
  EXPECT_EQ(engine.cache_stats().hits, 5u);
}

}  // namespace
}  // namespace rnnhm
