// The column raster kernel against its definition: every pixel holds the
// influence of exactly the circles whose Contains(pixel center) holds, as
// BuildHeatmapBruteForce evaluates it. The adversarial leg aims at the
// places a chord estimate can be off — centers and radii on the pixel
// lattice, tangencies, duplicates, degenerate and huge radii, off-domain
// circles, one-pixel-wide grids, windowed fragments and coordinates so
// large the pixel pitch is below one ulp — for all three metrics, four
// order-insensitive measures and several block counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "heatmap/column_raster.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"

namespace rnnhm {
namespace {

constexpr Metric kMetrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};
constexpr int kBlockCounts[] = {1, 2, 4, 8};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The RNN set's size, but not a SizeInfluence: the kernel walks and
// evaluates it, so it is the count path's reference.
class WalkedSize : public InfluenceMeasure {
 public:
  double Evaluate(std::span<const int32_t> clients) const override {
    return static_cast<double>(clients.size());
  }
};

// The measures the kernel must reproduce exactly for any set order: each
// is built per block, so CapacityInfluence's scratch is never shared.
// kSize takes the kernel's count path, the others its walk.
enum class MeasureKind {
  kSize,
  kWalkedSize,
  kDyadicWeighted,
  kCapacity,
  kConnectivity
};

constexpr MeasureKind kMeasures[] = {
    MeasureKind::kSize, MeasureKind::kWalkedSize,
    MeasureKind::kDyadicWeighted, MeasureKind::kCapacity,
    MeasureKind::kConnectivity};

std::string MeasureName(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::kSize:
      return "size";
    case MeasureKind::kWalkedSize:
      return "walked-size";
    case MeasureKind::kDyadicWeighted:
      return "dyadic-weighted";
    case MeasureKind::kCapacity:
      return "capacity";
    case MeasureKind::kConnectivity:
      return "connectivity";
  }
  return "?";
}

std::unique_ptr<InfluenceMeasure> MakeMeasure(MeasureKind kind,
                                              int32_t num_clients) {
  switch (kind) {
    case MeasureKind::kSize:
      return std::make_unique<SizeInfluence>();
    case MeasureKind::kWalkedSize:
      return std::make_unique<WalkedSize>();
    case MeasureKind::kDyadicWeighted: {
      std::vector<double> weights;
      for (int32_t c = 0; c < num_clients; ++c) {
        weights.push_back(0.125 * (c % 7) + 0.5);  // exact in any order
      }
      return std::make_unique<WeightedInfluence>(std::move(weights));
    }
    case MeasureKind::kCapacity: {
      std::vector<int32_t> client_nn;
      for (int32_t c = 0; c < num_clients; ++c) client_nn.push_back(c % 3);
      return std::make_unique<CapacityInfluence>(std::move(client_nn),
                                                 std::vector<int32_t>{2, 5, 1},
                                                 4);
    }
    case MeasureKind::kConnectivity: {
      std::vector<std::pair<int32_t, int32_t>> edges;
      for (int32_t c = 0; c + 1 < num_clients; ++c) {
        edges.emplace_back(c, c + 1);
        if (c + 3 < num_clients) edges.emplace_back(c, c + 3);
      }
      return std::make_unique<ConnectivityInfluence>(num_clients, edges);
    }
  }
  return nullptr;
}

// Paints `window` of a width x height raster over `domain` into a
// window-sized grid (origin at the window's low corner) with `blocks`
// column blocks, each with its own measure instance.
HeatmapGrid RasterWindow(Metric metric, const std::vector<NnCircle>& circles,
                         MeasureKind kind, int32_t num_clients,
                         const Rect& domain, int width, int height,
                         const PixelWindow& window, int blocks,
                         ColumnRasterStats* stats = nullptr) {
  std::vector<std::unique_ptr<InfluenceMeasure>> owned;
  std::vector<const InfluenceMeasure*> measures;
  for (int b = 0; b < blocks; ++b) {
    owned.push_back(MakeMeasure(kind, num_clients));
    measures.push_back(owned.back().get());
  }
  HeatmapGrid out(window.width(), window.height(), domain,
                  std::numeric_limits<double>::quiet_NaN());
  const ColumnRasterStats s = RasterizeColumns(
      metric, circles, measures, ColumnAxis(domain, width),
      RowAxis(domain, height), window, window.col_lo, window.row_lo, &out);
  if (stats != nullptr) *stats = s;
  return out;
}

// Every window pixel equals the brute-force value at its global center.
void ExpectWindowMatchesBruteForce(Metric metric,
                                   const std::vector<NnCircle>& circles,
                                   int32_t num_clients, const Rect& domain,
                                   int width, int height,
                                   const PixelWindow& window,
                                   const std::string& label) {
  for (const MeasureKind kind : kMeasures) {
    const std::unique_ptr<InfluenceMeasure> reference_measure =
        MakeMeasure(kind, num_clients);
    const HeatmapGrid oracle = BuildHeatmapBruteForce(
        circles, metric, *reference_measure, domain, width, height);
    for (const int blocks : kBlockCounts) {
      const HeatmapGrid got = RasterWindow(metric, circles, kind, num_clients,
                                           domain, width, height, window,
                                           blocks);
      int mismatches = 0;
      for (int j = window.row_lo; j < window.row_hi; ++j) {
        for (int i = window.col_lo; i < window.col_hi; ++i) {
          const double want = oracle.At(i, j);
          const double have = got.At(i - window.col_lo, j - window.row_lo);
          if (!SameBits(want, have)) {
            if (++mismatches <= 3) {
              ADD_FAILURE() << label << " " << MetricName(metric) << " "
                            << MeasureName(kind) << " blocks=" << blocks
                            << " pixel (" << i << ", " << j << "): want "
                            << want << " got " << have;
            }
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << label << " " << MetricName(metric) << " "
                               << MeasureName(kind) << " blocks=" << blocks;
    }
  }
}

void ExpectGridMatchesBruteForce(Metric metric,
                                 const std::vector<NnCircle>& circles,
                                 const Rect& domain, int width, int height,
                                 const std::string& label) {
  ExpectWindowMatchesBruteForce(metric, circles,
                                static_cast<int32_t>(circles.size()), domain,
                                width, height, PixelWindow{0, width, 0, height},
                                label);
}

// A unit domain at 16 x 16: pitch 1/16, centers at (k + 1/2)/16 and
// boundaries at k/16 are all exact dyadics, so lattice-aligned circles
// put centers exactly on square edges, diamond edges and disk rims.
constexpr double kPitch = 1.0 / 16;
const Rect kUnit{{0.0, 0.0}, {1.0, 1.0}};

double Center(int k) { return (k + 0.5) * kPitch; }
double Boundary(int k) { return k * kPitch; }

std::vector<NnCircle> LatticeCircles() {
  std::vector<NnCircle> c;
  const auto add = [&c](double x, double y, double r) {
    c.push_back(NnCircle{{x, y}, r, static_cast<int32_t>(c.size())});
  };
  // Centers on pixel centers, radii exact multiples of the pitch: every
  // rim passes through pixel centers.
  add(Center(4), Center(5), 2 * kPitch);
  add(Center(9), Center(9), 3 * kPitch);
  add(Center(12), Center(3), kPitch);
  // Centers on pixel boundaries (between centers), pitch-multiple radii.
  add(Boundary(6), Boundary(10), 2 * kPitch);
  add(Boundary(3), Center(12), 1.5 * kPitch);
  // Tangent pairs: rims meet exactly at a pixel center.
  add(Center(2), Center(2), kPitch);
  add(Center(4), Center(2), kPitch);
  add(Center(13), Center(11), 2 * kPitch);
  add(Center(13), Center(15), 2 * kPitch);
  // Exact duplicates (distinct clients).
  add(Center(9), Center(9), 3 * kPitch);
  add(Boundary(6), Boundary(10), 2 * kPitch);
  // Zero radius on a pixel center (covers it) and off the lattice (covers
  // nothing); subnormal radii likewise.
  add(Center(7), Center(1), 0.0);
  add(0.3, 0.7, 0.0);
  add(Center(1), Center(14), std::numeric_limits<double>::denorm_min());
  add(0.55, 0.45, 1e-310);
  // A radius so large every pixel is covered.
  add(0.5, 0.5, 1e300);
  // Wholly off the domain, on every side.
  add(-0.5, 0.5, 0.25);
  add(1.5, 0.5, 0.25);
  add(0.5, -0.5, 0.25);
  add(0.5, 1.5, 0.25);
  // Just touching the domain edge from outside: the rim reaches the first
  // column's centers exactly.
  add(-kPitch / 2 - 3 * kPitch, Center(8), 3 * kPitch);
  return c;
}

TEST(ColumnRasterAdversarialTest, LatticeGeometryMatchesBruteForce) {
  const std::vector<NnCircle> circles = LatticeCircles();
  for (const Metric metric : kMetrics) {
    ExpectGridMatchesBruteForce(metric, circles, kUnit, 16, 16, "lattice");
  }
}

TEST(ColumnRasterAdversarialTest, OnePixelWideAndTallGrids) {
  const std::vector<NnCircle> circles = LatticeCircles();
  for (const Metric metric : kMetrics) {
    ExpectGridMatchesBruteForce(metric, circles, kUnit, 1, 16, "1x16");
    ExpectGridMatchesBruteForce(metric, circles, kUnit, 16, 1, "16x1");
    ExpectGridMatchesBruteForce(metric, circles, kUnit, 1, 1, "1x1");
    // A column/row through the lattice centers at a finer pitch.
    ExpectGridMatchesBruteForce(metric, circles, kUnit, 1, 64, "1x64");
    ExpectGridMatchesBruteForce(metric, circles, kUnit, 64, 1, "64x1");
  }
}

TEST(ColumnRasterAdversarialTest, WindowedFragmentsWithOrigin) {
  const std::vector<NnCircle> circles = LatticeCircles();
  const int32_t n = static_cast<int32_t>(circles.size());
  const PixelWindow windows[] = {
      {3, 11, 2, 14}, {0, 1, 0, 16}, {15, 16, 0, 16},
      {0, 16, 7, 8},  {5, 6, 9, 10}, {8, 16, 8, 16}};
  for (const Metric metric : kMetrics) {
    for (const PixelWindow& w : windows) {
      ExpectWindowMatchesBruteForce(
          metric, circles, n, kUnit, 16, 16, w,
          "window [" + std::to_string(w.col_lo) + "," +
              std::to_string(w.col_hi) + ")x[" + std::to_string(w.row_lo) +
              "," + std::to_string(w.row_hi) + ")");
    }
  }
}

TEST(ColumnRasterAdversarialTest, RandomCirclesSnappedToTheLattice) {
  // Random centers and radii rounded to quarter pitches: dense boundary
  // ties everywhere, on a non-square grid and domain.
  Rng rng(4242);
  std::vector<NnCircle> circles;
  for (int32_t i = 0; i < 48; ++i) {
    const double x = std::round(rng.Uniform(-0.1, 1.1) * 64) / 64;
    const double y = std::round(rng.Uniform(-0.1, 1.1) * 64) / 64;
    const double r = std::round(rng.Uniform(0.0, 0.3) * 64) / 64;
    circles.push_back(NnCircle{{x, y}, r, i});
  }
  const Rect domain{{0.0, 0.0}, {1.0, 0.75}};
  for (const Metric metric : kMetrics) {
    ExpectGridMatchesBruteForce(metric, circles, domain, 32, 24, "snapped");
  }
}

TEST(ColumnRasterAdversarialTest, RandomCirclesOffLatticeDomain) {
  Rng rng(777);
  std::vector<NnCircle> circles;
  for (int32_t i = 0; i < 60; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.0, 0.25), i});
  }
  const Rect domain{{-0.31250731, -0.27103343}, {1.29310917, 1.31071529}};
  for (const Metric metric : kMetrics) {
    ExpectGridMatchesBruteForce(metric, circles, domain, 37, 29, "random");
  }
}

TEST(ColumnRasterAdversarialTest, HugeOffsetsWithSubUlpPitch) {
  // Far from the origin the pitch drops below one ulp: pixel centers
  // repeat and every closed-form chord estimate is off by whole rows, so
  // only the nudge toward the nearest center keeps the chords exact.
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const double base = seed % 2 == 1 ? 1e15 : 3e15;
    const Rect domain{{base, base}, {base + 6.4, base + 4.8}};
    std::vector<NnCircle> circles;
    for (int32_t i = 0; i < 20; ++i) {
      circles.push_back(NnCircle{{base + rng.Uniform(-1.0, 7.4),
                                  base + rng.Uniform(-1.0, 5.8)},
                                 rng.Uniform(0.0, 2.5), i});
    }
    for (const Metric metric : kMetrics) {
      ExpectGridMatchesBruteForce(metric, circles, domain, 64, 48,
                                  "offset seed " + std::to_string(seed));
    }
  }
}

// --- Painting contract: exactly the window, every cell once --------------

TEST(ColumnRasterTest, PaintsEveryWindowCellAndNothingElse) {
  const std::vector<NnCircle> circles = LatticeCircles();
  SizeInfluence measure;
  const InfluenceMeasure* measures[] = {&measure, &measure, &measure};
  const double sentinel = -7.0;
  for (const Metric metric : kMetrics) {
    // A window of the 16 x 16 raster stored at origin (2, 1) of a larger
    // grid: cells outside the window keep the sentinel.
    const PixelWindow w{4, 12, 3, 9};
    HeatmapGrid out(14, 10, kUnit, sentinel);
    RasterizeColumns(metric, circles, measures, ColumnAxis(kUnit, 16),
                     RowAxis(kUnit, 16), w, 2, 1, &out);
    for (int j = 0; j < out.height(); ++j) {
      for (int i = 0; i < out.width(); ++i) {
        const int gi = i + 2;
        const int gj = j + 1;
        const bool inside =
            gi >= w.col_lo && gi < w.col_hi && gj >= w.row_lo && gj < w.row_hi;
        EXPECT_EQ(out.At(i, j) == sentinel, !inside)
            << MetricName(metric) << " cell (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(ColumnRasterTest, FragmentsStitchToTheWholeGrid) {
  Rng rng(31337);
  std::vector<NnCircle> circles;
  for (int32_t i = 0; i < 80; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.02, 0.2), i});
  }
  SizeInfluence measure;
  const InfluenceMeasure* one[] = {&measure};
  const Rect domain{{-0.05, -0.05}, {1.05, 1.05}};
  const PixelAxis cols = ColumnAxis(domain, 45);
  const PixelAxis rows = RowAxis(domain, 38);
  for (const Metric metric : kMetrics) {
    const HeatmapGrid whole =
        BuildHeatmapForMetric(metric, circles, measure, domain, 45, 38);
    HeatmapGrid stitched(45, 38, domain, -1.0);
    for (const int c : {0, 13, 30}) {
      for (const int r : {0, 19}) {
        const PixelWindow w{c, c == 30 ? 45 : (c == 0 ? 13 : 30), r,
                            r == 0 ? 19 : 38};
        HeatmapGrid fragment(w.width(), w.height(), domain, -1.0);
        RasterizeColumns(metric, circles, one, cols, rows, w, w.col_lo,
                         w.row_lo, &fragment);
        for (int j = 0; j < w.height(); ++j) {
          for (int i = 0; i < w.width(); ++i) {
            stitched.At(w.col_lo + i, w.row_lo + j) = fragment.At(i, j);
          }
        }
      }
    }
    EXPECT_EQ(stitched.values(), whole.values()) << MetricName(metric);
  }
}

// --- Ported from the strip-sink tests of the retired sweep rasterizer ----

// The pattern that once leaked a stale cached value into a revived pair:
// circle 0 removed first, circle 1's upper side surviving, circle 2
// inserted above the gap.
TEST(ColumnRasterTest, RegressionRevivedTopmostPairValue) {
  const std::vector<NnCircle> circles{{{0.2100, 0.6383}, 0.1080, 0},
                                      {{0.3285, 0.4228}, 0.1285, 1},
                                      {{0.4284, 0.6400}, 0.0348, 2}};
  for (const Metric metric : kMetrics) {
    ExpectGridMatchesBruteForce(metric, circles, kUnit, 96, 96, "revived");
  }
}

TEST(ColumnRasterTest, ManySeedsMatchBruteForce) {
  for (const uint64_t seed : {11u, 212u, 1212u, 9001u, 4444u}) {
    Rng rng(seed);
    const int n = 5 + static_cast<int>(rng.NextBounded(60));
    std::vector<NnCircle> circles;
    for (int32_t i = 0; i < n; ++i) {
      circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                                 rng.Uniform(0.02, 0.15), i});
    }
    for (const Metric metric : kMetrics) {
      ExpectGridMatchesBruteForce(metric, circles, kUnit, 40, 40,
                                  "seed " + std::to_string(seed));
    }
  }
}

// --- Semantics at the edges of the input space ---------------------------

TEST(ColumnRasterTest, ZeroRadiusCircleCoversItsOwnPixelCenter) {
  // Contains is closed, so a zero-radius circle centerd on a pixel center
  // covers that pixel (the sweeps skip it as a point, not a region).
  const std::vector<NnCircle> circles{{{Center(3), Center(5)}, 0.0, 0}};
  SizeInfluence measure;
  for (const Metric metric : kMetrics) {
    const HeatmapGrid grid =
        BuildHeatmapForMetric(metric, circles, measure, kUnit, 16, 16);
    EXPECT_EQ(grid.At(3, 5), 1.0) << MetricName(metric);
    EXPECT_EQ(grid.MaxValue(), 1.0);
    double total = 0.0;
    for (const double v : grid.values()) total += v;
    EXPECT_EQ(total, 1.0) << MetricName(metric);
  }
}

TEST(ColumnRasterTest, CountsChordsEvaluationsAndSkippedCircles) {
  const std::vector<NnCircle> circles{{{0.5, 0.5}, 0.25, 0},
                                      {{0.5, 0.5}, -1.0, 1},
                                      {{5.0, 5.0}, 0.25, 2}};
  SizeInfluence size;
  WalkedSize walked;
  for (const Metric metric : kMetrics) {
    HeatmapGrid grid(16, 16, kUnit, 0.0);
    const ColumnRasterStats stats =
        RasterizeGrid(metric, circles, walked, 1, &grid);
    EXPECT_EQ(stats.num_circles, 2u) << MetricName(metric);
    EXPECT_EQ(stats.num_skipped_circles, 1u) << "negative radius";
    // One chord per covered column of circle 0; one evaluation where it
    // enters each column (its exit restores the background).
    EXPECT_GT(stats.num_chords, 0u);
    EXPECT_EQ(stats.num_evaluations, stats.num_chords);
    EXPECT_LE(stats.num_chords, 9u);
    // SizeInfluence is counted, never evaluated; the other counters keep
    // their meaning.
    const ColumnRasterStats counted =
        RasterizeGrid(metric, circles, size, 1, &grid);
    EXPECT_EQ(counted.num_evaluations, 0u) << MetricName(metric);
    EXPECT_EQ(counted.num_chords, stats.num_chords) << MetricName(metric);
    EXPECT_EQ(counted.num_circles, stats.num_circles);
    EXPECT_EQ(counted.num_skipped_circles, stats.num_skipped_circles);
  }
}

TEST(ColumnRasterTest, OutputIsIdenticalForEveryBlockCount) {
  Rng rng(5150);
  std::vector<NnCircle> circles;
  for (int32_t i = 0; i < 200; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.01, 0.2), i});
  }
  std::vector<double> weights;
  for (int i = 0; i < 200; ++i) weights.push_back(rng.Uniform(0, 1));
  // Non-dyadic weights: order-sensitive sums, yet every block count walks
  // each column identically, so even these agree bit for bit.
  WeightedInfluence measure(weights);
  const Rect domain{{0, 0}, {1, 1}};
  for (const Metric metric : kMetrics) {
    const HeatmapGrid one =
        BuildHeatmapForMetric(metric, circles, measure, domain, 70, 50);
    for (const int blocks : {2, 3, 8, 70, 100}) {
      const HeatmapGrid many = BuildHeatmapForMetric(metric, circles, measure,
                                                     domain, 70, 50, blocks);
      EXPECT_EQ(one.values(), many.values())
          << MetricName(metric) << " blocks=" << blocks;
    }
  }
}

// --- Count path: SizeInfluence is counted, not evaluated ------------------

// Paints `window` three ways into copies of `prefill` — stored with the
// window's pixel (i, j) at cell (i - origin_col, j - origin_row) — and
// expects them equal bit for bit: SizeInfluence (the count path), the
// walk with WalkedSize, and the brute-force oracle copied in. Cells
// outside the window must keep `prefill`. Every block count is tried.
void ExpectCountPathMatchesWalkAndBruteForce(
    Metric metric, const std::vector<NnCircle>& circles, const Rect& domain,
    int width, int height, const PixelWindow& window, int origin_col,
    int origin_row, const HeatmapGrid& prefill, const std::string& label) {
  const std::string where = label + " " + MetricName(metric);
  SizeInfluence size;
  const WalkedSize walked;
  HeatmapGrid want = prefill;
  const HeatmapGrid oracle =
      BuildHeatmapBruteForce(circles, metric, size, domain, width, height);
  for (int j = window.row_lo; j < window.row_hi; ++j) {
    for (int i = window.col_lo; i < window.col_hi; ++i) {
      want.At(i - origin_col, j - origin_row) = oracle.At(i, j);
    }
  }
  const PixelAxis cols = ColumnAxis(domain, width);
  const PixelAxis rows = RowAxis(domain, height);
  for (const int blocks : {1, 2, 4}) {
    const std::vector<const InfluenceMeasure*> counted(blocks, &size);
    const std::vector<const InfluenceMeasure*> walks(blocks, &walked);
    HeatmapGrid by_count = prefill;
    HeatmapGrid by_walk = prefill;
    const ColumnRasterStats count_stats =
        RasterizeColumns(metric, circles, counted, cols, rows, window,
                         origin_col, origin_row, &by_count);
    const ColumnRasterStats walk_stats =
        RasterizeColumns(metric, circles, walks, cols, rows, window,
                         origin_col, origin_row, &by_walk);
    int mismatches = 0;
    for (size_t k = 0; k < want.values().size(); ++k) {
      const double w = want.values()[k];
      const double c = by_count.values()[k];
      const double v = by_walk.values()[k];
      if (!SameBits(w, c) || !SameBits(w, v)) {
        if (++mismatches <= 3) {
          ADD_FAILURE() << where << " blocks=" << blocks << " cell " << k
                        << ": oracle " << w << " count " << c << " walk "
                        << v;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << where << " blocks=" << blocks;
    EXPECT_EQ(count_stats.num_evaluations, 0u) << where;
    EXPECT_EQ(count_stats.num_chords, walk_stats.num_chords) << where;
    EXPECT_EQ(count_stats.num_circles, walk_stats.num_circles) << where;
    EXPECT_EQ(count_stats.num_skipped_circles,
              walk_stats.num_skipped_circles)
        << where;
  }
}

// The lattice cases (zero radii on pixel centers, boundary-exact centers
// and rims, off-window circles) plus negative radii.
std::vector<NnCircle> CountPathCircles() {
  std::vector<NnCircle> circles = LatticeCircles();
  const auto add = [&circles](double x, double y, double r) {
    circles.push_back(
        NnCircle{{x, y}, r, static_cast<int32_t>(circles.size())});
  };
  add(Center(8), Center(8), -kPitch);
  add(0.5, 0.5, -0.0);  // contains its center only: not a pixel center
  add(Center(2), Center(13), -1e300);
  add(Center(5), Center(6), 0.0);  // a second zero radius on a center
  return circles;
}

TEST(ColumnCountPathTest, WholeGridsMatchWalkAndBruteForce) {
  const std::vector<NnCircle> lattice = CountPathCircles();
  Rng rng(8080);
  std::vector<NnCircle> random;
  for (int32_t i = 0; i < 120; ++i) {
    random.push_back(NnCircle{{rng.Uniform(-0.1, 1.1), rng.Uniform(-0.1, 1.1)},
                              rng.Uniform(-0.05, 0.3), i});
  }
  const Rect domain{{-0.05, 0.0}, {1.05, 0.9}};
  for (const Metric metric : kMetrics) {
    ExpectCountPathMatchesWalkAndBruteForce(
        metric, lattice, kUnit, 16, 16, PixelWindow{0, 16, 0, 16}, 0, 0,
        HeatmapGrid(16, 16, kUnit, -1.0), "lattice");
    ExpectCountPathMatchesWalkAndBruteForce(
        metric, random, domain, 53, 41, PixelWindow{0, 53, 0, 41}, 0, 0,
        HeatmapGrid(53, 41, domain, -1.0), "random");
    ExpectCountPathMatchesWalkAndBruteForce(
        metric, lattice, kUnit, 1, 16, PixelWindow{0, 1, 0, 16}, 0, 0,
        HeatmapGrid(1, 16, kUnit, -1.0), "1x16");
    ExpectCountPathMatchesWalkAndBruteForce(
        metric, lattice, kUnit, 16, 1, PixelWindow{0, 16, 0, 1}, 0, 0,
        HeatmapGrid(16, 1, kUnit, -1.0), "16x1");
  }
}

TEST(ColumnCountPathTest, TileWindowsWithNonZeroOrigins) {
  // Tile fragments: a window stored at its own low corner, and the same
  // window stored inside a larger grid at another origin.
  const std::vector<NnCircle> circles = CountPathCircles();
  const PixelWindow windows[] = {{3, 11, 2, 14}, {0, 1, 0, 16},
                                 {15, 16, 0, 16}, {0, 16, 7, 8},
                                 {5, 6, 9, 10},   {8, 16, 8, 16}};
  for (const Metric metric : kMetrics) {
    for (const PixelWindow& w : windows) {
      const std::string label = "tile [" + std::to_string(w.col_lo) + "," +
                                std::to_string(w.col_hi) + ")x[" +
                                std::to_string(w.row_lo) + "," +
                                std::to_string(w.row_hi) + ")";
      ExpectCountPathMatchesWalkAndBruteForce(
          metric, circles, kUnit, 16, 16, w, w.col_lo, w.row_lo,
          HeatmapGrid(w.width(), w.height(), kUnit, -1.0), label);
      ExpectCountPathMatchesWalkAndBruteForce(
          metric, circles, kUnit, 16, 16, w, w.col_lo - 1, w.row_lo - 2,
          HeatmapGrid(w.width() + 3, w.height() + 4, kUnit, -1.0),
          label + " inset");
    }
  }
}

TEST(ColumnCountPathTest, DeltaSpliceWindowsKeepTheRetainedPixels) {
  // A delta splice repaints a dirty window of the retained grid in place:
  // pixels inside take the new set's values, the rest keep the old map.
  Rng rng(9191);
  std::vector<NnCircle> before;
  for (int32_t i = 0; i < 60; ++i) {
    before.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                              rng.Uniform(0.0, 0.2), i});
  }
  std::vector<NnCircle> after = before;
  after[7].center = {0.41, 0.37};
  after[19].radius = 0.31;
  after.push_back(NnCircle{{Center(20), Center(9)}, 0.0, 60});
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  SizeInfluence size;
  for (const Metric metric : kMetrics) {
    const HeatmapGrid retained =
        BuildHeatmapBruteForce(before, metric, size, domain, 48, 40);
    for (const PixelWindow& w : {PixelWindow{10, 30, 5, 25},
                                 PixelWindow{0, 48, 12, 13},
                                 PixelWindow{47, 48, 0, 40}}) {
      ExpectCountPathMatchesWalkAndBruteForce(metric, after, domain, 48, 40,
                                              w, 0, 0, retained, "splice");
    }
  }
}

TEST(ColumnCountPathTest, SubUlpPitchesFarFromTheOrigin) {
  for (const uint64_t seed : {5u, 6u}) {
    Rng rng(seed);
    const double base = seed % 2 == 1 ? 1e15 : 3e15;
    const Rect domain{{base, base}, {base + 6.4, base + 4.8}};
    std::vector<NnCircle> circles;
    for (int32_t i = 0; i < 24; ++i) {
      circles.push_back(NnCircle{{base + rng.Uniform(-1.0, 7.4),
                                  base + rng.Uniform(-1.0, 5.8)},
                                 rng.Uniform(-0.5, 2.5), i});
    }
    for (const Metric metric : kMetrics) {
      ExpectCountPathMatchesWalkAndBruteForce(
          metric, circles, domain, 64, 48, PixelWindow{0, 64, 0, 48}, 0, 0,
          HeatmapGrid(64, 48, domain, -1.0), "offset");
      ExpectCountPathMatchesWalkAndBruteForce(
          metric, circles, domain, 64, 48, PixelWindow{9, 40, 13, 31}, 9, 13,
          HeatmapGrid(31, 18, domain, -1.0), "offset tile");
    }
  }
}

TEST(ColumnCountPathTest, SubclassOfSizeInfluenceIsWalked) {
  // Only the exact type SizeInfluence is counted: a subclass that
  // overrides Evaluate is evaluated once per event row, like any measure.
  class DoubledSize : public SizeInfluence {
   public:
    double Evaluate(std::span<const int32_t> clients) const override {
      return 2.0 * static_cast<double>(clients.size());
    }
  };
  const std::vector<NnCircle> circles = CountPathCircles();
  const SizeInfluence size;
  const DoubledSize doubled;
  for (const Metric metric : kMetrics) {
    HeatmapGrid counted(16, 16, kUnit, -1.0);
    HeatmapGrid walked(16, 16, kUnit, -1.0);
    EXPECT_EQ(RasterizeGrid(metric, circles, size, 2, &counted)
                  .num_evaluations,
              0u);
    EXPECT_GT(RasterizeGrid(metric, circles, doubled, 2, &walked)
                  .num_evaluations,
              0u)
        << MetricName(metric);
    for (size_t k = 0; k < counted.values().size(); ++k) {
      ASSERT_EQ(walked.values()[k], 2.0 * counted.values()[k])
          << MetricName(metric) << " cell " << k;
    }
  }
}

}  // namespace
}  // namespace rnnhm
