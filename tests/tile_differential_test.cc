// Tile differential harness: the acceptance gate for domain tiling
// (src/tile/tile_plan.h). For every tested tile grid, metric, and block
// count, the windows of TileWindows painted as fragments
// (PaintTileFragment, i.e. RasterizeColumns over the whole circle set) and
// stitched (StitchFragment) must be *bit-identical* to the untiled
// builder's raster — including workloads with circles spanning four or
// more tiles, circles larger than a tile, entirely empty tiles, tile
// boundaries landing exactly on pixel centers, and a domain whose extent
// is not exactly representable (the seam-risk regression: boundaries
// must come from PixelAxis::LowerBound, never independent float math).
// Runs under the `differential` CTest label, so the whole file is re-run
// with RNNHM_DISABLE_SIMD=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "heatmap/column_raster.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "query/heatmap_engine.h"
#include "tile/tile_plan.h"

namespace rnnhm {
namespace {

constexpr int kSlabCounts[] = {1, 2, 4, 8};
struct TileGrid {
  int rows;
  int cols;
};
constexpr TileGrid kTileGrids[] = {{1, 1}, {1, 4}, {4, 1}, {3, 3}, {5, 2}};
const Metric kMetrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};

std::string CaseName(Metric metric, const TileGrid& g, int slabs) {
  return MetricName(metric) + " " + std::to_string(g.rows) + "x" +
         std::to_string(g.cols) + " slabs=" + std::to_string(slabs);
}

std::vector<NnCircle> MakeCircles(uint64_t seed, int n, double r_lo,
                                  double r_hi) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(r_lo, r_hi), i});
  }
  return out;
}

HeatmapGrid Untiled(Metric metric, const std::vector<NnCircle>& circles,
                    const InfluenceMeasure& measure, const Rect& domain,
                    int width, int height, int num_slabs) {
  switch (metric) {
    case Metric::kLInf:
      return BuildHeatmapLInfParallel(circles, measure, domain, width, height,
                                      num_slabs);
    case Metric::kL1:
      return BuildHeatmapL1Parallel(circles, measure, domain, width, height,
                                    num_slabs);
    case Metric::kL2:
    default:
      return BuildHeatmapL2Parallel(circles, measure, domain, width, height,
                                    num_slabs);
  }
}

// The raster painted window by window and stitched: what `heatmap --tiles`
// and a by-tile router produce.
HeatmapGrid Tiled(Metric metric, const std::vector<NnCircle>& circles,
                  const InfluenceMeasure& measure, const Rect& domain,
                  int width, int height, const TileGrid& g, int num_blocks) {
  HeatmapGrid stitched(width, height, domain, measure.Evaluate({}));
  for (const TileWindow& w :
       TileWindows(domain, width, height, g.rows, g.cols)) {
    if (w.empty()) continue;
    const HeatmapGrid fragment = PaintTileFragment(
        metric, circles, measure, num_blocks, domain, width, height, w);
    StitchFragment(w, fragment, &stitched);
  }
  return stitched;
}

// The number of tile windows of `g` in which `circles` paint at least one
// pixel away from the background.
int TilesReached(Metric metric, const std::vector<NnCircle>& circles,
                 const Rect& domain, int width, int height, const TileGrid& g) {
  SizeInfluence measure;
  int reached = 0;
  for (const TileWindow& w :
       TileWindows(domain, width, height, g.rows, g.cols)) {
    if (w.empty()) continue;
    const HeatmapGrid fragment = PaintTileFragment(
        metric, circles, measure, 1, domain, width, height, w);
    const std::vector<double>& v = fragment.values();
    if (std::any_of(v.begin(), v.end(), [](double x) { return x != 0.0; })) {
      ++reached;
    }
  }
  return reached;
}

void ExpectTiledMatchesUntiled(const std::vector<NnCircle>& circles,
                               const Rect& domain, int width, int height) {
  SizeInfluence measure;
  for (const Metric metric : kMetrics) {
    const HeatmapGrid reference =
        Untiled(metric, circles, measure, domain, width, height, 1);
    for (const TileGrid& g : kTileGrids) {
      for (const int slabs : kSlabCounts) {
        const HeatmapGrid tiled =
            Tiled(metric, circles, measure, domain, width, height, g, slabs);
        EXPECT_EQ(reference.values(), tiled.values())
            << CaseName(metric, g, slabs);
      }
    }
  }
}

TEST(TileDifferentialTest, RandomWorkloadAllGridsMetricsSlabs) {
  const Rect domain{{-0.05, -0.05}, {1.05, 1.05}};
  ExpectTiledMatchesUntiled(MakeCircles(101, 60, 0.02, 0.2), domain, 48, 48);
}

TEST(TileDifferentialTest, NonSquareRasterAndDomain) {
  const Rect domain{{-0.31250731, -0.27103343}, {1.29310917, 1.31071529}};
  ExpectTiledMatchesUntiled(MakeCircles(202, 50, 0.02, 0.25), domain, 52, 36);
}

// Circles whose influence region overlaps four or more tiles of the 3x3
// grid, verified structurally before the bit-compare.
TEST(TileDifferentialTest, CirclesSpanningManyTiles) {
  std::vector<NnCircle> circles = MakeCircles(303, 30, 0.02, 0.1);
  // Centered giants: radius 0.45 over a unit domain covers every tile of a
  // 3x3 split (tile extent ~0.37), and is also "larger than a tile".
  circles.push_back(NnCircle{{0.5, 0.5}, 0.45, 30});
  circles.push_back(NnCircle{{0.34, 0.61}, 0.4, 31});
  const Rect domain{{0.0, 0.0}, {1.1, 1.1}};
  const int tiles_with_giant =
      TilesReached(Metric::kLInf, {circles[30]}, domain, 48, 48, {3, 3});
  EXPECT_GE(tiles_with_giant, 4);
  ExpectTiledMatchesUntiled(circles, domain, 48, 48);
}

// All circles clustered in one corner: far tiles get no circles at all and
// must come out as pure background, matching the untiled raster.
TEST(TileDifferentialTest, EmptyTiles) {
  Rng rng(404);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 40; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2)},
                               rng.Uniform(0.01, 0.05), i});
  }
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  const int empty_tiles =
      9 - TilesReached(Metric::kL2, circles, domain, 48, 48, {3, 3});
  EXPECT_GT(empty_tiles, 0);
  ExpectTiledMatchesUntiled(circles, domain, 48, 48);
}

// Domain [0, 45] at width 45 makes the pixel pitch exactly 1.0, so pixel
// centers (i + 0.5) and the 2x2 cut coordinate 22.5 are all exact doubles:
// the cut lands exactly on the center of pixel 22. The boundary pixel must
// belong to exactly one tile (the right one, by LowerBound's >= convention)
// and the stitch must stay bit-identical.
TEST(TileDifferentialTest, TileBoundaryOnPixelCenter) {
  const Rect domain{{0.0, 0.0}, {45.0, 45.0}};
  const int res = 45;
  const std::vector<TileWindow> windows = TileWindows(domain, res, res, 2, 2);
  EXPECT_EQ(windows[0].col_hi, 22);
  EXPECT_EQ(windows[1].col_lo, 22);
  EXPECT_EQ(windows[0].row_hi, 22);
  Rng rng(505);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 50; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 45), rng.Uniform(0, 45)},
                               rng.Uniform(0.5, 9.0), i});
  }
  ExpectTiledMatchesUntiled(circles, domain, res, res);
}

// Seam-risk regression: a domain whose extents are not exactly
// representable (1/3 and 0.7) over prime resolutions. Tile boundaries are
// derived from PixelAxis::LowerBound over the global center table; if a
// tile edge ever came from independent float math it could disagree with
// the sweeps' span edges on exactly this kind of domain.
TEST(TileDifferentialTest, NonRepresentableDomainWidth) {
  const Rect domain{{0.1, 0.2}, {0.1 + 1.0 / 3.0, 0.9}};
  Rng rng(606);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 45; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0.1, 0.44), rng.Uniform(0.2, 0.9)},
                               rng.Uniform(0.005, 0.08), i});
  }
  ExpectTiledMatchesUntiled(circles, domain, 37, 29);
}

// Degenerate radii ride along with regular circles: zero-radius circles
// are skipped by every sweep, giants cover the whole domain.
TEST(TileDifferentialTest, DegenerateRadii) {
  std::vector<NnCircle> circles = MakeCircles(707, 30, 0.02, 0.15);
  circles.push_back(NnCircle{{0.3, 0.4}, 0.0, 30});
  circles.push_back(NnCircle{{0.6, 0.1}, 0.0, 31});
  circles.push_back(NnCircle{{0.5, 0.5}, 1.0e9, 32});
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  ExpectTiledMatchesUntiled(circles, domain, 40, 40);
}

// Fragments + stitching (the shard path) are the same bits as painting
// each window in place into the full grid and as the untiled raster.
TEST(TileDifferentialTest, FragmentStitchMatches) {
  const std::vector<NnCircle> circles = MakeCircles(808, 45, 0.02, 0.2);
  const Rect domain{{-0.02, -0.02}, {1.02, 1.02}};
  SizeInfluence measure;
  const std::vector<const InfluenceMeasure*> measures(2, &measure);
  for (const Metric metric : kMetrics) {
    const HeatmapGrid reference =
        Untiled(metric, circles, measure, domain, 44, 44, 1);
    HeatmapGrid stitched(44, 44, domain, measure.Evaluate({}));
    HeatmapGrid in_place(44, 44, domain, measure.Evaluate({}));
    for (const TileWindow& w : TileWindows(domain, 44, 44, 2, 3)) {
      if (w.empty()) continue;
      const HeatmapGrid fragment =
          PaintTileFragment(metric, circles, measure, 2, domain, 44, 44, w);
      StitchFragment(w, fragment, &stitched);
      RasterizeColumns(metric, circles, measures, ColumnAxis(domain, 44),
                       RowAxis(domain, 44), w, /*origin_col=*/0,
                       /*origin_row=*/0, &in_place);
    }
    EXPECT_EQ(reference.values(), stitched.values()) << MetricName(metric);
    EXPECT_EQ(reference.values(), in_place.values()) << MetricName(metric);
  }
}

// The shard-facing fragment path: ExecuteTileFragmentChecked returns
// window-sized fragments that stitch into the Execute raster for every
// metric — also around a circle whose bounding box crosses into a
// neighbouring tile without containing any of its pixel centers — never
// touches the cache, and rejects bad tile ids and empty windows with a
// Status instead of a crash.
TEST(TileDifferentialTest, EngineTileFragmentsStitch) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8ull << 20;
  HeatmapEngine engine(measure, options);
  const Rect domain{{-0.02, -0.02}, {1.02, 1.02}};
  constexpr int kSize = 44;
  const std::vector<TileWindow> windows =
      TileWindows(domain, kSize, kSize, 2, 3);

  // A circle three pixels wide whose box ends a quarter pitch past the
  // left edge of tile 1, short of that tile's first column of centers.
  const PixelAxis cols = ColumnAxis(domain, kSize);
  const PixelAxis rows = RowAxis(domain, kSize);
  const double pitch = (domain.hi.x - domain.lo.x) / kSize;
  const int edge_col = windows[1].col_lo;
  const int mid_row = (windows[1].row_lo + windows[1].row_hi) / 2;
  const double radius = 3 * pitch;
  NnCircle straddler;
  straddler.center.x = cols.centers()[edge_col] - 0.25 * pitch - radius;
  straddler.center.y = rows.centers()[mid_row];
  straddler.radius = radius;
  straddler.client = 45;
  ASSERT_GT(straddler.Bounds().hi.x, domain.lo.x + edge_col * pitch);

  for (const Metric metric : kMetrics) {
    const std::string what = MetricName(metric);
    for (int j = windows[1].row_lo; j < windows[1].row_hi; ++j) {
      for (int i = windows[1].col_lo; i < windows[1].col_hi; ++i) {
        const Point center{cols.centers()[i], rows.centers()[j]};
        ASSERT_FALSE(straddler.Contains(center, metric)) << what;
      }
    }
    std::vector<NnCircle> circles = MakeCircles(1111, 45, 0.02, 0.2);
    circles.push_back(straddler);
    const CircleSetHandle handle =
        engine.registry().Register(std::move(circles), metric);
    const HeatmapRequestV2 request{handle, domain, kSize, kSize};
    const HeatmapResponse reference = engine.Execute(request);
    const size_t entries = engine.cache_stats().entries;
    HeatmapGrid stitched(kSize, kSize, domain, measure.Evaluate({}));
    for (int tile_id = 0; tile_id < 6; ++tile_id) {
      std::optional<HeatmapResponse> fragment;
      ASSERT_TRUE(
          engine.ExecuteTileFragmentChecked(request, 2, 3, tile_id, &fragment)
              .ok());
      ASSERT_TRUE(fragment.has_value());
      EXPECT_FALSE(fragment->from_cache) << what;
      EXPECT_EQ(fragment->grid.width(), windows[tile_id].width());
      EXPECT_EQ(fragment->grid.height(), windows[tile_id].height());
      StitchFragment(windows[tile_id], fragment->grid, &stitched);
    }
    EXPECT_EQ(reference.grid.values(), stitched.values()) << what;
    EXPECT_EQ(engine.cache_stats().entries, entries) << what;
  }

  const CircleSetHandle handle = engine.registry().Register(
      MakeCircles(1111, 45, 0.02, 0.2), Metric::kL2);
  const HeatmapRequestV2 request{handle, domain, kSize, kSize};
  std::optional<HeatmapResponse> fragment;
  EXPECT_FALSE(
      engine.ExecuteTileFragmentChecked(request, 2, 3, 6, &fragment).ok());
  EXPECT_FALSE(
      engine.ExecuteTileFragmentChecked(request, 0, 3, 0, &fragment).ok());
  // A tile grid finer than the raster leaves some windows empty; asking
  // for one is a client error, not a crash.
  EXPECT_FALSE(
      engine
          .ExecuteTileFragmentChecked(
              HeatmapRequestV2{handle, domain, 2, 2}, 4, 4, 1, &fragment)
          .ok());
}

}  // namespace
}  // namespace rnnhm
