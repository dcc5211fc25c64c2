// Randomized tile fuzzing: ~200 seeded configurations of domain, raster
// resolution, tile-grid shape, circle population (with degenerate radii:
// exact zeros and near-infinite giants), metric, and slab count. Each
// configuration asserts the two tiling invariants:
//   1. ownership — TileWindows partitions the pixel space: every output
//      pixel belongs to exactly one tile window;
//   2. stitching — the windows painted as fragments (PaintTileFragment:
//      RasterizeColumns over the whole circle set) and stitched
//      (StitchFragment) are bit-identical to the untiled builder.
// Runs under the `differential` CTest label (and therefore again with
// RNNHM_DISABLE_SIMD=1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "tile/tile_plan.h"

namespace rnnhm {
namespace {

constexpr int kConfigs = 200;

struct FuzzConfig {
  Rect domain;
  int width = 0;
  int height = 0;
  int tile_rows = 0;
  int tile_cols = 0;
  int num_slabs = 0;
  Metric metric = Metric::kLInf;
  std::vector<NnCircle> circles;
};

FuzzConfig MakeConfig(uint64_t seed) {
  Rng rng(seed);
  FuzzConfig cfg;
  const double lo_x = rng.Uniform(-5.0, 5.0);
  const double lo_y = rng.Uniform(-5.0, 5.0);
  // Extents from sub-pixel-tiny to wide; never degenerate.
  cfg.domain = Rect{{lo_x, lo_y},
                    {lo_x + rng.Uniform(0.01, 8.0),
                     lo_y + rng.Uniform(0.01, 8.0)}};
  cfg.width = 1 + static_cast<int>(rng.NextBounded(48));
  cfg.height = 1 + static_cast<int>(rng.NextBounded(48));
  // Tile counts may exceed the resolution: that leaves some windows empty,
  // which the stitch skips (ownership still covers every pixel).
  cfg.tile_rows = 1 + static_cast<int>(rng.NextBounded(6));
  cfg.tile_cols = 1 + static_cast<int>(rng.NextBounded(6));
  constexpr int kSlabs[] = {1, 2, 4, 8};
  cfg.num_slabs = kSlabs[rng.NextBounded(4)];
  constexpr Metric kMetrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};
  cfg.metric = kMetrics[rng.NextBounded(3)];
  const int n = static_cast<int>(rng.NextBounded(60));
  const double extent =
      std::max(cfg.domain.hi.x - cfg.domain.lo.x,
               cfg.domain.hi.y - cfg.domain.lo.y);
  for (int i = 0; i < n; ++i) {
    // Centers mostly inside the domain, sometimes outside it.
    const double margin = 0.25 * extent;
    NnCircle c;
    c.center = {rng.Uniform(cfg.domain.lo.x - margin, cfg.domain.hi.x + margin),
                rng.Uniform(cfg.domain.lo.y - margin,
                            cfg.domain.hi.y + margin)};
    const double roll = rng.NextDouble();
    if (roll < 0.08) {
      c.radius = 0.0;  // degenerate: skipped by every sweep
    } else if (roll < 0.14) {
      c.radius = rng.Uniform(1.0e8, 1.0e9);  // near-inf: covers everything
    } else {
      c.radius = rng.Uniform(1.0e-4 * extent, 0.6 * extent);
    }
    c.client = i;
    cfg.circles.push_back(c);
  }
  return cfg;
}

std::string Describe(const FuzzConfig& cfg, uint64_t seed) {
  return "seed=" + std::to_string(seed) + " " + MetricName(cfg.metric) + " " +
         std::to_string(cfg.width) + "x" + std::to_string(cfg.height) +
         " tiles=" + std::to_string(cfg.tile_rows) + "x" +
         std::to_string(cfg.tile_cols) +
         " slabs=" + std::to_string(cfg.num_slabs) +
         " n=" + std::to_string(cfg.circles.size());
}

HeatmapGrid Untiled(const FuzzConfig& cfg, const InfluenceMeasure& measure) {
  switch (cfg.metric) {
    case Metric::kLInf:
      return BuildHeatmapLInfParallel(cfg.circles, measure, cfg.domain,
                                      cfg.width, cfg.height, cfg.num_slabs);
    case Metric::kL1:
      return BuildHeatmapL1Parallel(cfg.circles, measure, cfg.domain,
                                    cfg.width, cfg.height, cfg.num_slabs);
    case Metric::kL2:
    default:
      return BuildHeatmapL2Parallel(cfg.circles, measure, cfg.domain,
                                    cfg.width, cfg.height, cfg.num_slabs);
  }
}

TEST(TileFuzzTest, OwnershipAndStitchBitIdentity) {
  SizeInfluence measure;
  for (uint64_t seed = 1; seed <= kConfigs; ++seed) {
    const FuzzConfig cfg = MakeConfig(9000 + seed);
    const std::string what = Describe(cfg, seed);

    // Invariant 1: every pixel is owned by exactly one tile window.
    const std::vector<TileWindow> windows = TileWindows(
        cfg.domain, cfg.width, cfg.height, cfg.tile_rows, cfg.tile_cols);
    ASSERT_EQ(windows.size(),
              static_cast<size_t>(cfg.tile_rows) * cfg.tile_cols)
        << what;
    std::vector<int> owners(static_cast<size_t>(cfg.width) * cfg.height, 0);
    for (const TileWindow& w : windows) {
      for (int j = w.row_lo; j < w.row_hi; ++j) {
        for (int i = w.col_lo; i < w.col_hi; ++i) {
          ++owners[static_cast<size_t>(j) * cfg.width + i];
        }
      }
    }
    for (size_t p = 0; p < owners.size(); ++p) {
      ASSERT_EQ(owners[p], 1) << what << " pixel " << p;
    }

    // Invariant 2: the stitched tiled raster is the untiled raster, bit
    // for bit.
    const HeatmapGrid reference = Untiled(cfg, measure);
    HeatmapGrid tiled(cfg.width, cfg.height, cfg.domain, measure.Evaluate({}));
    for (const TileWindow& w : windows) {
      if (w.empty()) continue;
      const HeatmapGrid fragment =
          PaintTileFragment(cfg.metric, cfg.circles, measure, cfg.num_slabs,
                            cfg.domain, cfg.width, cfg.height, w);
      StitchFragment(w, fragment, &tiled);
    }
    ASSERT_EQ(reference.values(), tiled.values()) << what;
  }
}

}  // namespace
}  // namespace rnnhm
