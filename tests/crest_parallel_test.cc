#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/brute_force.h"
#include "core/crest.h"
#include "core/crest_parallel.h"
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

class ParallelProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelProperty, ShardUnionEqualsSequentialDistinctSets) {
  const auto [n, shards] = GetParam();
  Rng rng(1100 + n + shards);
  const auto circles = RandomCircles(n, rng);
  SizeInfluence measure;

  DistinctSetSink sequential;
  RunCrest(circles, measure, &sequential);

  std::vector<DistinctSetSink> shard_sinks(shards);
  std::vector<RegionLabelSink*> sink_ptrs;
  for (auto& s : shard_sinks) sink_ptrs.push_back(&s);
  const CrestStats stats = RunCrestParallel(circles, measure, sink_ptrs);
  EXPECT_GE(stats.num_labelings, sequential.sets().size() - 1);

  std::map<std::vector<int32_t>, double> merged;
  for (const auto& s : shard_sinks) {
    for (const auto& [set, influence] : s.sets()) merged[set] = influence;
  }
  EXPECT_EQ(merged, sequential.sets());
}

TEST_P(ParallelProperty, ParallelRasterEqualsSequentialRaster) {
  const auto [n, shards] = GetParam();
  Rng rng(1200 + n + shards);
  const auto circles = RandomCircles(n, rng);
  SizeInfluence measure;
  const Rect domain{{-0.2, -0.2}, {1.2, 1.2}};

  const HeatmapGrid sequential =
      BuildHeatmapLInf(circles, measure, domain, 100, 100);

  const HeatmapGrid parallel =
      BuildHeatmapLInfParallel(circles, measure, domain, 100, 100, shards);

  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 100; ++j) {
      ASSERT_DOUBLE_EQ(parallel.At(i, j), sequential.At(i, j))
          << "pixel " << i << "," << j << " shards=" << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelProperty,
    ::testing::Combine(::testing::Values(10, 100, 400),
                       ::testing::Values(2, 4, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_shards" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(ParallelCrestTest, SingleShardMatchesSequentialExactly) {
  Rng rng(1300);
  const auto circles = RandomCircles(80, rng);
  SizeInfluence measure;
  CountingSink sequential, parallel;
  const CrestStats s1 = RunCrest(circles, measure, &sequential);
  RegionLabelSink* sinks[] = {&parallel};
  const CrestStats s2 = RunCrestParallel(circles, measure, sinks);
  EXPECT_EQ(s1.num_labelings, s2.num_labelings);
  EXPECT_EQ(sequential.count(), parallel.count());
}

TEST(ParallelCrestTest, HeavyDuplicateBoundaries) {
  // Many rectangles sharing identical x-sides collapse slab boundaries;
  // empty slabs must no-op and the union must stay correct.
  std::vector<NnCircle> circles;
  for (int i = 0; i < 40; ++i) {
    circles.push_back(
        NnCircle{{0.5, 0.1 + 0.02 * i}, 0.25, i});  // identical x-extents
  }
  SizeInfluence measure;
  DistinctSetSink sequential;
  RunCrest(circles, measure, &sequential);
  std::vector<DistinctSetSink> shard_sinks(4);
  std::vector<RegionLabelSink*> sink_ptrs;
  for (auto& s : shard_sinks) sink_ptrs.push_back(&s);
  RunCrestParallel(circles, measure, sink_ptrs);
  std::map<std::vector<int32_t>, double> merged;
  for (const auto& s : shard_sinks) {
    for (const auto& [set, influence] : s.sets()) merged[set] = influence;
  }
  EXPECT_EQ(merged, sequential.sets());
}

TEST(ParallelCrestTest, PerShardMeasuresForUnsafeMeasures) {
  // CapacityInfluence has per-instance scratch: one instance per shard.
  Rng rng(1400);
  const auto circles = RandomCircles(100, rng);
  std::vector<int32_t> client_nn(100, 0);
  const std::vector<int32_t> caps{50};
  std::vector<CapacityInfluence> measures;
  measures.reserve(4);
  for (int s = 0; s < 4; ++s) measures.emplace_back(client_nn, caps, 10);
  std::vector<const InfluenceMeasure*> measure_ptrs;
  for (auto& m : measures) measure_ptrs.push_back(&m);
  std::vector<DistinctSetSink> shard_sinks(4);
  std::vector<RegionLabelSink*> sink_ptrs;
  for (auto& s : shard_sinks) sink_ptrs.push_back(&s);
  RunCrestParallel(circles, measure_ptrs, sink_ptrs);

  CapacityInfluence reference(client_nn, caps, 10);
  DistinctSetSink sequential;
  RunCrest(circles, reference, &sequential);
  std::map<std::vector<int32_t>, double> merged;
  for (const auto& s : shard_sinks) {
    for (const auto& [set, influence] : s.sets()) merged[set] = influence;
  }
  EXPECT_EQ(merged, sequential.sets());
}

}  // namespace
}  // namespace rnnhm
