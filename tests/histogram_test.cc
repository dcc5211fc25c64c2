#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/crest.h"
#include "heatmap/histogram.h"
#include "heatmap/influence.h"

namespace rnnhm {
namespace {

TEST(AreaHistogramTest, AccumulatesExactAreas) {
  AreaHistogramSink sink;
  sink.OnRegionLabel({{0, 0}, {2, 1}}, {}, 1.0);   // area 2 at influence 1
  sink.OnRegionLabel({{0, 1}, {1, 3}}, {}, 1.0);   // area 2 at influence 1
  sink.OnRegionLabel({{5, 0}, {6, 4}}, {}, 3.0);   // area 4 at influence 3
  sink.OnRegionLabel({{9, 0}, {9, 4}}, {}, 9.0);   // zero width: ignored
  EXPECT_DOUBLE_EQ(sink.TotalArea(), 8.0);
  EXPECT_DOUBLE_EQ(sink.area_by_influence().at(1.0), 4.0);
  EXPECT_DOUBLE_EQ(sink.area_by_influence().at(3.0), 4.0);
  EXPECT_DOUBLE_EQ(sink.AreaAtLeast(2.0), 4.0);
  EXPECT_DOUBLE_EQ(sink.AreaAtLeast(1.0), 8.0);
  EXPECT_DOUBLE_EQ(sink.AreaAtLeast(5.0), 0.0);
}

TEST(AreaHistogramTest, QuantileWalksFromTheTop) {
  AreaHistogramSink sink;
  sink.OnRegionLabel({{0, 0}, {1, 1}}, {}, 1.0);   // area 1
  sink.OnRegionLabel({{0, 1}, {1, 2}}, {}, 2.0);   // area 1
  sink.OnRegionLabel({{0, 2}, {2, 3}}, {}, 4.0);   // area 2
  // Top 25% of 4.0 total = 1.0 area -> influence 4 covers 2 >= 1.
  EXPECT_DOUBLE_EQ(sink.QuantileInfluence(0.25), 4.0);
  // Top 80% = 3.2 area -> need down to influence 1.
  EXPECT_DOUBLE_EQ(sink.QuantileInfluence(0.80), 1.0);
  AreaHistogramSink empty;
  EXPECT_DOUBLE_EQ(empty.QuantileInfluence(0.5), 0.0);
}

TEST(AreaHistogramTest, SingleSquareExactArea) {
  const std::vector<NnCircle> circles{{{0.5, 0.5}, 0.25, 0}};
  SizeInfluence measure;
  AreaHistogramSink histogram;
  CrestOptions options;
  options.use_changed_intervals = false;
  RunCrest(circles, measure, &histogram, options);
  // One label: the square itself, side 0.5.
  EXPECT_DOUBLE_EQ(histogram.TotalArea(), 0.25);
  EXPECT_DOUBLE_EQ(histogram.area_by_influence().at(1.0), 0.25);
}

TEST(AreaHistogramTest, OverlappingSquaresDecompose) {
  // Two 0.4-side squares overlapping in a 0.2 x 0.4 band.
  const std::vector<NnCircle> circles{{{0.4, 0.5}, 0.2, 0},
                                      {{0.6, 0.5}, 0.2, 1}};
  SizeInfluence measure;
  AreaHistogramSink histogram;
  CrestOptions options;
  options.use_changed_intervals = false;
  RunCrest(circles, measure, &histogram, options);
  EXPECT_NEAR(histogram.area_by_influence().at(2.0), 0.2 * 0.4, 1e-12);
  EXPECT_NEAR(histogram.area_by_influence().at(1.0), 2 * 0.2 * 0.4, 1e-12);
  EXPECT_NEAR(histogram.TotalArea(), 0.6 * 0.4, 1e-12);
}

TEST(AreaHistogramTest, MatchesRasterApproximationOnRandomInput) {
  Rng rng(3100);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 60; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.02, 0.15), i});
  }
  SizeInfluence measure;
  AreaHistogramSink histogram;
  CrestOptions options;
  options.use_changed_intervals = false;
  RunCrest(circles, measure, &histogram, options);
  // Monte-Carlo estimate of the area with influence >= 2 over the same
  // bounding box must agree within sampling error.
  Rect box = EmptyRect();
  for (const NnCircle& c : circles) box = box.Union(c.Bounds());
  int hits = 0;
  const int samples = 200000;
  for (int s = 0; s < samples; ++s) {
    const Point p{rng.Uniform(box.lo.x, box.hi.x),
                  rng.Uniform(box.lo.y, box.hi.y)};
    int count = 0;
    for (const NnCircle& c : circles) count += c.Contains(p, Metric::kLInf);
    hits += count >= 2;
  }
  const double monte_carlo = box.Area() * hits / samples;
  EXPECT_NEAR(histogram.AreaAtLeast(2.0), monte_carlo,
              monte_carlo * 0.08 + 0.001);
}

}  // namespace
}  // namespace rnnhm
