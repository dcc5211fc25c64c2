#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/brute_force.h"
#include "core/crest.h"
#include "data/generators.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "nn/nn_circle_builder.h"

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

// Distinct non-empty RNN sets labeled by a run.
std::map<std::vector<int32_t>, double> DistinctNonEmpty(
    const DistinctSetSink& sink) {
  std::map<std::vector<int32_t>, double> out;
  for (const auto& [set, influence] : sink.sets()) {
    if (!set.empty()) out[set] = influence;
  }
  return out;
}

TEST(CrestTest, SingleSquare) {
  const std::vector<NnCircle> circles{{{0.5, 0.5}, 0.25, 0}};
  SizeInfluence measure;
  CollectingSink sink;
  const CrestStats stats = RunCrest(circles, measure, &sink);
  ASSERT_EQ(sink.labels().size(), 1u);
  EXPECT_EQ(sink.labels()[0].rnn, (std::vector<int32_t>{0}));
  EXPECT_DOUBLE_EQ(sink.labels()[0].influence, 1.0);
  EXPECT_EQ(stats.num_events, 2u);
  EXPECT_EQ(stats.num_labelings, 1u);
}

TEST(CrestTest, TwoDisjointSquares) {
  const std::vector<NnCircle> circles{{{0.2, 0.2}, 0.1, 0},
                                      {{0.8, 0.8}, 0.1, 1}};
  SizeInfluence measure;
  DistinctSetSink sink;
  RunCrest(circles, measure, &sink);
  const auto sets = DistinctNonEmpty(sink);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_TRUE(sets.count({0}));
  EXPECT_TRUE(sets.count({1}));
}

TEST(CrestTest, TwoOverlappingSquares) {
  const std::vector<NnCircle> circles{{{0.4, 0.5}, 0.2, 0},
                                      {{0.6, 0.5}, 0.2, 1}};
  SizeInfluence measure;
  DistinctSetSink sink;
  RunCrest(circles, measure, &sink);
  const auto sets = DistinctNonEmpty(sink);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_TRUE(sets.count({0}));
  EXPECT_TRUE(sets.count({1}));
  EXPECT_TRUE(sets.count({0, 1}));
  EXPECT_DOUBLE_EQ(sets.at({0, 1}), 2.0);
}

TEST(CrestTest, NestedSquares) {
  const std::vector<NnCircle> circles{{{0.5, 0.5}, 0.4, 0},
                                      {{0.5, 0.5}, 0.2, 1},
                                      {{0.5, 0.5}, 0.1, 2}};
  SizeInfluence measure;
  DistinctSetSink sink;
  RunCrest(circles, measure, &sink);
  const auto sets = DistinctNonEmpty(sink);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_TRUE(sets.count({0}));
  EXPECT_TRUE(sets.count({0, 1}));
  EXPECT_TRUE(sets.count({0, 1, 2}));
}

TEST(CrestTest, ZeroRadiusCirclesAreSkipped) {
  const std::vector<NnCircle> circles{{{0.5, 0.5}, 0.0, 0},
                                      {{0.5, 0.5}, 0.2, 1}};
  SizeInfluence measure;
  DistinctSetSink sink;
  const CrestStats stats = RunCrest(circles, measure, &sink);
  EXPECT_EQ(stats.num_skipped_circles, 1u);
  EXPECT_EQ(stats.num_circles, 1u);
  const auto sets = DistinctNonEmpty(sink);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_TRUE(sets.count({1}));
}

TEST(CrestTest, EmptyInput) {
  SizeInfluence measure;
  CollectingSink sink;
  const CrestStats stats = RunCrest({}, measure, &sink);
  EXPECT_EQ(stats.num_events, 0u);
  EXPECT_TRUE(sink.labels().empty());
}

// ---------------------------------------------------------------------------
// Property tests: CREST agrees with the brute-force oracle everywhere.
// ---------------------------------------------------------------------------

struct CrestCase {
  int n;
  double max_r;
  uint64_t seed;
};

class CrestProperty : public ::testing::TestWithParam<CrestCase> {};

TEST_P(CrestProperty, HeatAtRandomPointsMatchesBruteForce) {
  const CrestCase c = GetParam();
  Rng rng(c.seed);
  const std::vector<NnCircle> circles = RandomCircles(c.n, rng, c.max_r);
  SizeInfluence measure;
  const Rect domain{{-0.2, -0.2}, {1.2, 1.2}};
  const HeatmapGrid grid =
      BuildHeatmapLInf(circles, measure, domain, 160, 160);
  int checked = 0;
  for (int i = 0; i < grid.width(); i += 7) {
    for (int j = 0; j < grid.height(); j += 7) {
      const Point p = grid.PixelCenter(i, j);
      const auto rnn = BruteForceRnnSet(p, circles, Metric::kLInf);
      ASSERT_DOUBLE_EQ(grid.At(i, j), static_cast<double>(rnn.size()))
          << "pixel " << i << "," << j;
      ++checked;
    }
  }
  EXPECT_GT(checked, 400);
}

TEST_P(CrestProperty, CrestAndCrestAProduceIdenticalDistinctSets) {
  const CrestCase c = GetParam();
  Rng rng(c.seed + 1);
  const std::vector<NnCircle> circles = RandomCircles(c.n, rng, c.max_r);
  SizeInfluence measure;
  DistinctSetSink full, variant_a;
  CrestOptions options_a;
  options_a.use_changed_intervals = false;
  const CrestStats stats_full = RunCrest(circles, measure, &full);
  const CrestStats stats_a = RunCrest(circles, measure, &variant_a, options_a);
  EXPECT_EQ(DistinctNonEmpty(full), DistinctNonEmpty(variant_a));
  // The changed-interval optimization can only reduce labelings.
  EXPECT_LE(stats_full.num_labelings, stats_a.num_labelings);
}

TEST_P(CrestProperty, LabelingCountIsWithinLemma3Bounds) {
  const CrestCase c = GetParam();
  Rng rng(c.seed + 2);
  const std::vector<NnCircle> circles = RandomCircles(c.n, rng, c.max_r);
  SizeInfluence measure;
  CountingSink counter;
  const CrestStats stats = RunCrest(circles, measure, &counter);
  EXPECT_EQ(counter.count(), stats.num_labelings);
  // Very weak but universal: at least one labeling per circle "lens", and
  // k <= 14 r <= 14 * (quadratic bound on regions).
  EXPECT_GE(stats.num_labelings, static_cast<size_t>(c.n));
  const size_t r_max = static_cast<size_t>(c.n) * c.n + c.n + 2;
  EXPECT_LE(stats.num_labelings, 14 * r_max);
}

TEST_P(CrestProperty, EveryLabelMatchesOracleAtRectCenter) {
  // For every labeled subregion with positive area, the RNN set computed by
  // the sweep must equal the oracle's set at the subregion center.
  const CrestCase c = GetParam();
  Rng rng(c.seed + 3);
  const std::vector<NnCircle> circles = RandomCircles(c.n, rng, c.max_r);
  SizeInfluence measure;
  CollectingSink sink;
  RunCrest(circles, measure, &sink);
  int checked = 0;
  for (const auto& label : sink.labels()) {
    const Rect& r = label.subregion;
    if (!(r.lo.x < r.hi.x && r.lo.y < r.hi.y)) continue;
    const Point center = r.Center();
    const auto want = BruteForceRnnSet(center, circles, Metric::kLInf);
    ASSERT_EQ(label.rnn, want)
        << "subregion center " << center.x << "," << center.y;
    ++checked;
  }
  EXPECT_GT(checked, c.n / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrestProperty,
    ::testing::Values(CrestCase{3, 0.3, 70}, CrestCase{10, 0.25, 71},
                      CrestCase{30, 0.2, 72}, CrestCase{100, 0.12, 73},
                      CrestCase{300, 0.08, 74}, CrestCase{100, 0.5, 75},
                      CrestCase{50, 0.02, 76}),
    [](const ::testing::TestParamInfo<CrestCase>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_seed" +
             std::to_string(param_info.param.seed);
    });

TEST_P(CrestProperty, StatusBackendsProduceIdenticalResults) {
  const CrestCase c = GetParam();
  Rng rng(c.seed + 4);
  const std::vector<NnCircle> circles = RandomCircles(c.n, rng, c.max_r);
  SizeInfluence measure;
  DistinctSetSink skiplist_sink, multimap_sink;
  CrestOptions multimap_options;
  multimap_options.status_backend = StatusBackend::kStdMultimap;
  const CrestStats s1 = RunCrest(circles, measure, &skiplist_sink);
  const CrestStats s2 =
      RunCrest(circles, measure, &multimap_sink, multimap_options);
  EXPECT_EQ(skiplist_sink.sets(), multimap_sink.sets());
  EXPECT_EQ(s1.num_labelings, s2.num_labelings);
  EXPECT_EQ(s1.num_events, s2.num_events);
}

// ---------------------------------------------------------------------------
// Structural results from the paper.
// ---------------------------------------------------------------------------

TEST(CrestStructuralTest, WorstCaseArrangementLabelingBounds) {
  // Fig. 8: r = n^2 - n + 2 regions; Lemma 3 guarantees r <= k <= 14 r
  // (k counts the exterior face never being labeled, so k >= r - 1).
  for (const int n : {4, 8, 16, 32}) {
    const auto circles = MakeWorstCaseSquares(n);
    SizeInfluence measure;
    CountingSink counter;
    const CrestStats stats = RunCrest(circles, measure, &counter);
    const size_t r = static_cast<size_t>(n) * n - n + 2;
    EXPECT_GE(stats.num_labelings, r - 1) << "n=" << n;
    EXPECT_LE(stats.num_labelings, 14 * r) << "n=" << n;
  }
}

TEST(CrestStructuralTest, ElementDistinctnessReduction) {
  // Section VI-C: with distinct inputs the arrangement of n-1 nested squares
  // has exactly n regions, i.e. n-1 distinct non-empty RNN sets; duplicates
  // collapse regions.
  SizeInfluence measure;
  {
    const std::vector<double> distinct{0.0, 1.0, 2.5, 3.0, 7.0};
    DistinctSetSink sink;
    RunCrest(MakeElementDistinctnessSquares(distinct), measure, &sink);
    EXPECT_EQ(DistinctNonEmpty(sink).size(), distinct.size() - 1);
  }
  {
    const std::vector<double> dup{0.0, 1.0, 2.5, 1.0, 7.0};  // one duplicate
    DistinctSetSink sink;
    RunCrest(MakeElementDistinctnessSquares(dup), measure, &sink);
    // 4 distinct values -> 3 distinct non-empty sets... but the duplicated
    // squares coincide, producing the same region set; expect 3.
    EXPECT_EQ(DistinctNonEmpty(sink).size(), 3u);
  }
}

TEST(CrestStructuralTest, MonochromaticRnnSetsAreSmall) {
  // Korn et al.: monochromatic RNN sets are O(1)-sized (at most 6 under L2;
  // a small constant under Linf as well). Check lambda stays tiny.
  Rng rng(80);
  std::vector<Point> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  const auto circles = BuildMonochromaticNnCircles(points, Metric::kLInf);
  SizeInfluence measure;
  MaxInfluenceSink sink;
  RunCrest(circles, measure, &sink);
  ASSERT_TRUE(sink.HasResult());
  EXPECT_LE(sink.max_influence(), 8.0);
  EXPECT_GE(sink.max_influence(), 1.0);
}

// ---------------------------------------------------------------------------
// Generic measures flow through the sweep unchanged.
// ---------------------------------------------------------------------------

TEST(CrestMeasureTest, WeightedMeasureMatchesOracle) {
  Rng rng(81);
  const std::vector<NnCircle> circles = RandomCircles(60, rng);
  std::vector<double> weights;
  for (int i = 0; i < 60; ++i) weights.push_back(rng.Uniform(0.5, 2.0));
  WeightedInfluence measure(weights);
  const Rect domain{{-0.2, -0.2}, {1.2, 1.2}};
  const HeatmapGrid grid = BuildHeatmapLInf(circles, measure, domain, 96, 96);
  for (int i = 0; i < 96; i += 5) {
    for (int j = 0; j < 96; j += 5) {
      const Point p = grid.PixelCenter(i, j);
      const auto rnn = BruteForceRnnSet(p, circles, Metric::kLInf);
      double want = 0.0;
      for (const int32_t cl : rnn) want += weights[cl];
      ASSERT_NEAR(grid.At(i, j), want, 1e-9);
    }
  }
}

TEST(CrestMeasureTest, MaxInfluenceWitnessIsConsistent) {
  Rng rng(82);
  const std::vector<NnCircle> circles = RandomCircles(120, rng);
  SizeInfluence measure;
  MaxInfluenceSink sink;
  RunCrest(circles, measure, &sink);
  ASSERT_TRUE(sink.HasResult());
  // The witness rectangle's center must actually attain the max influence.
  const Point center = sink.witness().Center();
  const auto rnn = BruteForceRnnSet(center, circles, Metric::kLInf);
  EXPECT_EQ(static_cast<double>(rnn.size()), sink.max_influence());
  EXPECT_EQ(rnn, sink.witness_rnn());
}

// ---------------------------------------------------------------------------
// L1 support via rotation.
// ---------------------------------------------------------------------------

TEST(CrestL1Test, RotatedOracleMatchesDirectL1Oracle) {
  Rng rng(83);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 150; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 15; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  const auto l1_circles = BuildNnCircles(clients, facilities, Metric::kL1);
  const auto rot_circles = RotateCirclesToLInf(l1_circles);
  for (int q = 0; q < 400; ++q) {
    const Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const auto direct = BruteForceRnnSet(p, l1_circles, Metric::kL1);
    const auto rotated =
        BruteForceRnnSet(RotateToLInf(p), rot_circles, Metric::kLInf);
    ASSERT_EQ(direct, rotated);
  }
}

TEST(CrestL1Test, L1HeatmapMatchesBruteForceEverywhere) {
  Rng rng(84);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 80; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 8; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};
  const auto circles = BuildNnCircles(clients, facilities, Metric::kL1);
  const HeatmapGrid grid =
      BuildHeatmapForMetric(Metric::kL1, circles, measure, domain, 128, 128);
  int mismatches = 0;
  int total = 0;
  for (int i = 0; i < 128; i += 3) {
    for (int j = 0; j < 128; j += 3) {
      const Point p = grid.PixelCenter(i, j);
      const auto rnn = BruteForceRnnSet(p, circles, Metric::kL1);
      mismatches += grid.At(i, j) != static_cast<double>(rnn.size());
      ++total;
    }
  }
  // The column kernel samples the diamonds in the original frame: exact.
  EXPECT_EQ(mismatches, 0) << mismatches << "/" << total;
}

TEST(CrestL1Test, RunCrestL1DistinctSetsMatchRotatedRun) {
  Rng rng(85);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 100; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 10; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  const auto l1_circles = BuildNnCircles(clients, facilities, Metric::kL1);
  SizeInfluence measure;
  DistinctSetSink via_l1;
  RunCrestL1(l1_circles, measure, &via_l1);
  DistinctSetSink via_rotation;
  RunCrest(RotateCirclesToLInf(l1_circles), measure, &via_rotation);
  EXPECT_EQ(via_l1.sets(), via_rotation.sets());
}

}  // namespace
}  // namespace rnnhm
