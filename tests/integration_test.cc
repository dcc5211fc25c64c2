// End-to-end tests across modules: dataset -> NN-circles -> sweep ->
// measures -> post-processing, under all metrics and both RNN flavours.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/baseline.h"
#include "core/brute_force.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/pruning.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "heatmap/postprocess.h"
#include "index/kdtree.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {
namespace {

struct PipelineCase {
  DatasetKind dataset;
  size_t num_clients;
  size_t num_facilities;
  uint64_t seed;
};

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, L1PipelineMatchesOracleAtSampledPoints) {
  const PipelineCase c = GetParam();
  const Dataset ds = MakeDataset(c.dataset, c.seed, 4096);
  const Workload w =
      SampleWorkload(ds, c.num_clients, c.num_facilities, c.seed);
  const auto l1_circles =
      BuildNnCircles(w.clients, w.facilities, Metric::kL1);
  SizeInfluence measure;

  // CREST over the rotated frame; verify distinct sets against the oracle
  // at sampled original-frame points.
  DistinctSetSink sink;
  const CrestStats stats = RunCrestL1(l1_circles, measure, &sink);
  EXPECT_GT(stats.num_labelings, 0u);
  Rng rng(c.seed + 123);
  const Rect box = BoundingBox(w.clients, 0.05);
  for (int q = 0; q < 2000; ++q) {
    const Point p{rng.Uniform(box.lo.x, box.hi.x),
                  rng.Uniform(box.lo.y, box.hi.y)};
    const auto rnn = BruteForceRnnSet(p, l1_circles, Metric::kL1);
    if (rnn.empty()) continue;
    ASSERT_TRUE(sink.sets().count(rnn))
        << "oracle found a set the sweep never labeled";
    ASSERT_DOUBLE_EQ(sink.sets().at(rnn), static_cast<double>(rnn.size()));
  }
}

TEST_P(PipelineTest, L2PipelineMatchesOracleAtSampledPoints) {
  const PipelineCase c = GetParam();
  const Dataset ds = MakeDataset(c.dataset, c.seed + 1, 4096);
  const Workload w =
      SampleWorkload(ds, c.num_clients / 2, c.num_facilities, c.seed);
  const auto disks = BuildNnCircles(w.clients, w.facilities, Metric::kL2);
  SizeInfluence measure;
  DistinctSetSink sink;
  RunCrestL2(disks, measure, &sink);
  Rng rng(c.seed + 321);
  const Rect box = BoundingBox(w.clients, 0.05);
  for (int q = 0; q < 1500; ++q) {
    const Point p{rng.Uniform(box.lo.x, box.hi.x),
                  rng.Uniform(box.lo.y, box.hi.y)};
    const auto rnn = BruteForceRnnSet(p, disks, Metric::kL2);
    if (rnn.empty()) continue;
    ASSERT_TRUE(sink.sets().count(rnn));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, PipelineTest,
    ::testing::Values(
        PipelineCase{DatasetKind::kNyc, 256, 32, 1000},
        PipelineCase{DatasetKind::kLa, 256, 16, 1001},
        PipelineCase{DatasetKind::kUniform, 512, 8, 1002},
        PipelineCase{DatasetKind::kZipfian, 512, 64, 1003}),
    [](const ::testing::TestParamInfo<PipelineCase>& param_info) {
      return DatasetKindName(param_info.param.dataset) + "_o" +
             std::to_string(param_info.param.num_clients) + "_f" +
             std::to_string(param_info.param.num_facilities);
    });

TEST(IntegrationTest, MonochromaticPipeline) {
  // O = F: every point's NN-circle reaches its nearest sibling; the sweep
  // must agree with the oracle and lambda stays constant-bounded.
  const Dataset ds = MakeDataset(DatasetKind::kUniform, 7, 2048);
  Rng rng(7);
  const auto points = SampleWithoutReplacement(ds.points, 500, rng);
  const auto circles = BuildMonochromaticNnCircles(points, Metric::kL1);
  SizeInfluence measure;
  DistinctSetSink sink;
  MaxInfluenceSink max_sink;
  TeeSink tee({&sink, &max_sink});
  RunCrestL1(circles, measure, &tee);
  EXPECT_LE(max_sink.max_influence(), 8.0);  // lambda = O(1) (Section VII-A)
  const Rect box = BoundingBox(points, 0.05);
  for (int q = 0; q < 1500; ++q) {
    const Point p{rng.Uniform(box.lo.x, box.hi.x),
                  rng.Uniform(box.lo.y, box.hi.y)};
    const auto rnn = BruteForceRnnSet(p, circles, Metric::kL1);
    if (!rnn.empty()) {
      ASSERT_TRUE(sink.sets().count(rnn));
    }
  }
}

TEST(IntegrationTest, CapacityMeasureThroughTheFullStack) {
  // The courier scenario: capacity-constrained influence through CREST,
  // validated against brute force at sampled points.
  const Dataset ds = MakeDataset(DatasetKind::kNyc, 8, 4096);
  const Workload w = SampleWorkload(ds, 300, 30, 8);
  const auto circles = BuildNnCircles(w.clients, w.facilities, Metric::kL1);
  // Client -> NN facility assignment for the measure.
  KdTree ftree(w.facilities);
  std::vector<int32_t> client_nn;
  for (const Point& c : w.clients) {
    client_nn.push_back(ftree.Nearest(c, Metric::kL1).index);
  }
  std::vector<int32_t> caps;
  Rng rng(88);
  for (size_t f = 0; f < w.facilities.size(); ++f) {
    caps.push_back(1 + static_cast<int32_t>(rng.NextBounded(10)));
  }
  CapacityInfluence measure(client_nn, caps, 8);

  DistinctSetSink sink;
  RunCrestL1(circles, measure, &sink);
  const Rect box = BoundingBox(w.clients, 0.02);
  for (int q = 0; q < 800; ++q) {
    const Point p{rng.Uniform(box.lo.x, box.hi.x),
                  rng.Uniform(box.lo.y, box.hi.y)};
    auto rnn = BruteForceRnnSet(p, circles, Metric::kL1);
    if (rnn.empty()) continue;
    ASSERT_TRUE(sink.sets().count(rnn));
    ASSERT_DOUBLE_EQ(sink.sets().at(rnn), measure.Evaluate(rnn));
  }
}

TEST(IntegrationTest, ThreeAlgorithmsAgreeOnMaxInfluenceL2) {
  // Enough facilities that overlap degrees stay tractable for the
  // exponential Pruning comparator (its blow-up on dense inputs is the
  // behaviour Figs. 18-19 measure, not something a unit test should pay).
  const Dataset ds = MakeDataset(DatasetKind::kUniform, 9, 2048);
  const Workload w = SampleWorkload(ds, 100, 25, 9);
  const auto disks = BuildNnCircles(w.clients, w.facilities, Metric::kL2);
  SizeInfluence measure;
  MaxInfluenceSink crest_sink;
  RunCrestL2(disks, measure, &crest_sink);
  PruningOptions options;
  options.time_budget_ms = 60000.0;
  const PruningResult pruning = RunPruning(disks, measure, options);
  ASSERT_FALSE(pruning.timed_out);
  EXPECT_DOUBLE_EQ(crest_sink.max_influence(), pruning.max_influence);
}

TEST(IntegrationTest, CrestAndBaselineAgreeOnCityWorkload) {
  // Real city workloads are degenerate: every NN-circle of clients sharing
  // a facility passes through that facility's location, and after the L1
  // rotation the coincident square sides differ by ~1 ulp. That creates
  // sliver regions a few 1e-14 wide, which CREST enumerates exactly but
  // the baseline's cell centroids round onto (producing boundary-set
  // artifacts). Compare only regions whose witness extent is robustly
  // positive; those must agree exactly.
  const Dataset ds = MakeDataset(DatasetKind::kLa, 10, 2048);
  const Workload w = SampleWorkload(ds, 200, 20, 10);
  const auto circles = BuildNnCircles(w.clients, w.facilities, Metric::kL1);
  SizeInfluence measure;
  CollectingSink via_crest, via_baseline;
  RunCrestL1(circles, measure, &via_crest);
  RunBaselineL1(circles, measure, &via_baseline);
  // CREST labels a region when it first appears — possibly while it is
  // still ulp-thin — and correctly never relabels it as it widens; the
  // baseline's centroid probing is instead blind to slivers but robust on
  // wide cells. So compare by double inclusion: every robustly-sized
  // region either algorithm finds must appear (at any size) in the other.
  constexpr double kEps = 1e-9;
  auto all_sets = [](const CollectingSink& s) {
    std::set<std::vector<int32_t>> out;
    for (const auto& label : s.labels()) {
      if (!label.rnn.empty()) out.insert(label.rnn);
    }
    return out;
  };
  auto robust_sets = [&](const CollectingSink& s) {
    std::set<std::vector<int32_t>> out;
    for (const auto& label : s.labels()) {
      if (label.rnn.empty()) continue;
      const Rect& r = label.subregion;
      if (r.hi.x - r.lo.x > kEps && r.hi.y - r.lo.y > kEps) {
        out.insert(label.rnn);
      }
    }
    return out;
  };
  const auto crest_all = all_sets(via_crest);
  const auto baseline_all = all_sets(via_baseline);
  const auto crest_robust = robust_sets(via_crest);
  const auto baseline_robust = robust_sets(via_baseline);
  EXPECT_GT(crest_robust.size(), 200u);
  for (const auto& set : crest_robust) {
    ASSERT_TRUE(baseline_all.count(set))
        << "baseline missed a robust CREST region of size " << set.size();
  }
  for (const auto& set : baseline_robust) {
    ASSERT_TRUE(crest_all.count(set))
        << "CREST missed a robust baseline region of size " << set.size();
  }
}

TEST(IntegrationTest, TopKRegionsAreRealAndOrdered) {
  const Dataset ds = MakeDataset(DatasetKind::kNyc, 11, 4096);
  const Workload w = SampleWorkload(ds, 400, 20, 11);
  const auto circles = BuildNnCircles(w.clients, w.facilities, Metric::kL1);
  SizeInfluence measure;
  RegionQuerySink query;
  RunCrestL1(circles, measure, &query);
  const auto top = query.TopK(10);
  ASSERT_EQ(top.size(), 10u);
  const auto rot = RotateCirclesToLInf(circles);
  for (const auto& region : top) {
    // Witness rectangles are in the rotated frame; verify there.
    const Point center = region.representative.Center();
    const auto rnn = BruteForceRnnSet(center, rot, Metric::kLInf);
    EXPECT_EQ(rnn, region.rnn);
  }
}

TEST(IntegrationTest, HeatmapImagePipelineRuns) {
  const Dataset ds = MakeDataset(DatasetKind::kNyc, 12, 8192);
  const Workload w = SampleWorkload(ds, 2000, 600, 12);
  SizeInfluence measure;
  const Rect domain = BoundingBox(ds.points, 0.01);
  const HeatmapGrid grid =
      BuildHeatmapForMetric(Metric::kL1,
                            BuildNnCircles(w.clients, w.facilities, Metric::kL1),
                            measure, domain, 200, 200);
  EXPECT_GT(grid.MaxValue(), 1.0);
  // Some pixels must be hot, most lukewarm (city data is clustered).
  int hot = 0;
  for (const double v : grid.values()) hot += v >= grid.MaxValue() / 2;
  EXPECT_GT(hot, 0);
  EXPECT_LT(hot, 200 * 200 / 2);
}

}  // namespace
}  // namespace rnnhm
