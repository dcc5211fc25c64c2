// Packed grids: the exactness rule, bit-exact widening, and the claim the
// wire relies on — a map's encoded grid bytes are a pure function of its
// content, whichever serving path produced it.
#include "heatmap/packed_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "heatmap/serialization.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/wire.h"
#include "query/wire_layout.h"
#include "tile/tile_plan.h"

namespace rnnhm {
namespace {

const Rect kDomain{{-0.1, -0.1}, {1.1, 1.1}};

// Bitwise equality: == would call NaN unequal and -0.0 equal to 0.0.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

HeatmapGrid GridOf(int width, int height, std::vector<double> values) {
  return HeatmapGrid(width, height, Rect{{0, 0}, {1, 1}}, std::move(values));
}

std::vector<uint8_t> Encoded(const HeatmapGrid& grid) {
  std::vector<uint8_t> bytes;
  EncodeHeatmap(grid, &bytes);
  return bytes;
}

HeatmapGrid Decoded(const std::vector<uint8_t>& bytes) {
  size_t consumed = 0;
  std::string error;
  std::optional<HeatmapGrid> grid =
      DecodeHeatmap(bytes.data(), bytes.size(), &consumed, &error);
  EXPECT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(consumed, bytes.size());
  return grid.has_value() ? std::move(*grid) : GridOf(1, 1, {0.0});
}

// --- The exactness rule ---------------------------------------------------

// Sizes straddle the 8-lane vector body, its 1024-value check blocks and
// the scalar tail.
constexpr int kWidths[] = {1, 7, 8, 9, 33, 1025, 2051};

TEST(PackedGridTest, CountGridsPackAndWidenBitExactly) {
  Rng rng(11);
  for (const int width : kWidths) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<double> values(static_cast<size_t>(width) * 3);
    for (double& v : values) {
      v = std::floor(rng.Uniform(0.0, 65536.0));
    }
    values.front() = 0.0;
    values.back() = 65535.0;
    const HeatmapGrid grid = GridOf(width, 3, values);
    const PackedGrid packed = PackedGrid::Pack(grid);
    ASSERT_TRUE(packed.is_counts());
    EXPECT_TRUE(packed.values().empty());
    EXPECT_TRUE(SameBits(packed.Unpack().values(), values));

    const std::vector<uint8_t> bytes = Encoded(grid);
    EXPECT_EQ(bytes.size(), 56 + 2 * values.size());
    EXPECT_EQ(bytes.size(), SerializedSizeBytes(packed));
    EXPECT_TRUE(SameBits(Decoded(bytes).values(), values));
  }
}

TEST(PackedGridTest, NonCountValuesKeepTheDoublesAnywhereInTheGrid) {
  const double non_counts[] = {
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      65535.5,
      65536.0,
      -1.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      0.1,
      1.0 / 3.0,  // a non-dyadic Weighted value
      1e300,
  };
  for (const int width : kWidths) {
    const size_t n = static_cast<size_t>(width) * 2;
    // First pixel, a vector-body pixel, the last pixel of the first check
    // block, and the scalar tail's last pixel.
    for (const size_t at : {size_t{0}, n / 2, std::min(n - 1, size_t{1023}),
                            n - 1}) {
      for (const double bad : non_counts) {
        SCOPED_TRACE("width " + std::to_string(width) + " at " +
                     std::to_string(at) + " value " + std::to_string(bad));
        std::vector<double> values(n, 3.0);
        values[at] = bad;
        const HeatmapGrid grid = GridOf(width, 2, values);
        const PackedGrid packed = PackedGrid::Pack(grid);
        ASSERT_FALSE(packed.is_counts());
        EXPECT_TRUE(SameBits(packed.values(), values));
        EXPECT_TRUE(SameBits(packed.Unpack().values(), values));

        const std::vector<uint8_t> bytes = Encoded(grid);
        EXPECT_EQ(bytes.size(), 56 + 8 * n);
        EXPECT_TRUE(SameBits(Decoded(bytes).values(), values));
      }
    }
  }
}

TEST(PackedGridTest, PackCountsFindsOnePlantedNonCountAnywhere) {
  const double planted[] = {65536.0, 70000.5, -0.0, 2.5,
                            std::numeric_limits<double>::quiet_NaN()};
  Rng rng(12);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.Uniform(0, 3000));
    std::vector<double> values(n);
    for (double& v : values) v = std::floor(rng.Uniform(0.0, 65536.0));
    const bool plant = trial % 2 == 1;
    if (plant) {
      const size_t at = std::min(n - 1, static_cast<size_t>(rng.Uniform(0, n)));
      values[at] = planted[trial / 2 % std::size(planted)];
    }
    std::vector<uint8_t> out(2 * n);
    ASSERT_EQ(PackCounts(values.data(), n, out.data()), !plant) << n;
    if (plant) continue;
    std::vector<double> widened(n);
    WidenCounts(out.data(), n, widened.data());
    EXPECT_TRUE(SameBits(widened, values));
  }
}

TEST(PackedGridTest, EncodingThePackedFormGivesTheSameBytes) {
  const std::vector<std::vector<double>> cases = {
      {0.0, 1.0, 2.0, 65535.0, 4.0, 5.0},  // counts
      {0.0, 1.0, 2.0, 0.5, 4.0, 5.0},      // f64
  };
  for (const std::vector<double>& values : cases) {
    const HeatmapGrid grid = GridOf(3, 2, values);
    std::vector<uint8_t> from_packed;
    EncodeHeatmap(PackedGrid::Pack(grid), &from_packed);
    EXPECT_EQ(from_packed, Encoded(grid));
    EXPECT_EQ(SerializedSizeBytes(grid), from_packed.size());
  }
}

// --- One map, every serving path ------------------------------------------

std::vector<NnCircle> MakeCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.05, 0.3), i});
  }
  return out;
}

// The grid blob of an ok response frame: everything after the header and
// the 17 stats words.
std::vector<uint8_t> GridBytes(const std::vector<uint8_t>& frame) {
  const size_t at = wire_layout::kResponseHeaderBytes +
                    wire_layout::kResponseStatsWords * sizeof(uint64_t);
  EXPECT_GT(frame.size(), at);
  return std::vector<uint8_t>(frame.begin() + static_cast<ptrdiff_t>(at),
                              frame.end());
}

HeatmapEngineOptions Options(size_t cache_bytes) {
  HeatmapEngineOptions options;
  options.num_threads = 1;  // CapacityInfluence is not thread-safe
  options.cache_bytes = cache_bytes;
  return options;
}

PackedHeatmapResponse MustExecute(const HeatmapEngine& engine,
                                  const HeatmapRequestV2& request) {
  std::optional<PackedHeatmapResponse> response;
  EXPECT_TRUE(engine.ExecuteChecked(request, &response).ok());
  return std::move(*response);
}

// What a by-tile ShardRouter does: every fragment crosses the wire from a
// shard, is decoded (widened) and stitched into a doubles grid, and the
// stitched map is encoded once more.
std::vector<uint8_t> RouterStitchedGridBytes(const HeatmapEngine& engine,
                                             const HeatmapRequestV2& request,
                                             int tiles) {
  HeatmapGrid stitched(request.width, request.height, request.domain, 0.0);
  const std::vector<TileWindow> windows = TileWindows(
      request.domain, request.width, request.height, tiles, tiles);
  for (int tile = 0; tile < tiles * tiles; ++tile) {
    if (windows[tile].empty()) continue;
    std::optional<PackedHeatmapResponse> fragment;
    EXPECT_TRUE(engine
                    .ExecuteTileFragmentChecked(request, tiles, tiles, tile,
                                                &fragment)
                    .ok());
    std::string error;
    const std::optional<WireResponse> decoded =
        DecodeResponse(EncodeResponse(*fragment), &error);
    EXPECT_TRUE(decoded.has_value()) << error;
    StitchFragment(windows[tile], decoded->response->grid, &stitched);
  }
  return GridBytes(
      EncodeResponse(HeatmapResponse{std::move(stitched), {}, {}, false, {}}));
}

TEST(GridBytesAcrossPathsTest, EveryPathEncodesTheSameGridBytes) {
  constexpr int kClients = 40;
  constexpr int kSize = 29;
  const std::vector<NnCircle> base = MakeCircles(31, kClients);
  // The map under test is the derived set: base + these edits.
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 3,
                    NnCircle{{0.4, 0.6}, 0.2, 3}},
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.7, 0.3}, 0.25, kClients}}};
  std::vector<NnCircle> derived = base;
  derived[3] = edits[0].circle;
  derived.push_back(edits[1].circle);

  std::vector<int32_t> client_nn;
  std::vector<std::pair<int32_t, int32_t>> edges;
  std::vector<double> weights;
  for (int32_t i = 0; i <= kClients; ++i) {
    client_nn.push_back(i % 4);
    if (i + 1 <= kClients) edges.emplace_back(i, i + 1);
    if (i + 3 <= kClients) edges.emplace_back(i, i + 3);
    weights.push_back(0.25 * (i % 7) + 0.5);
  }
  const SizeInfluence size;
  const CapacityInfluence capacity(client_nn, {3, 5, 2, 4}, 6);
  const ConnectivityInfluence connectivity(kClients + 1, edges);
  // Fractional weights keep the grid f64. They are dyadic so every sum is
  // exact: tiles and splices visit the RNN set in another order.
  const WeightedInfluence weighted(weights);
  const struct {
    const char* name;
    const InfluenceMeasure* measure;
    bool counts;
  } measures[] = {{"size", &size, true},
                  {"capacity", &capacity, true},
                  {"connectivity", &connectivity, true},
                  {"weighted", &weighted, false}};

  for (const auto& m : measures) {
    for (const Metric metric : {Metric::kLInf, Metric::kL1, Metric::kL2}) {
      SCOPED_TRACE(std::string(m.name) + " metric " +
                   std::to_string(static_cast<int>(metric)));
      // Cached engine: a miss, then a hit of the same map.
      const HeatmapEngine cached(*m.measure, Options(16 << 20));
      const HeatmapRequestV2 request{
          cached.registry().Register(derived, metric), kDomain, kSize, kSize};
      const PackedHeatmapResponse miss = MustExecute(cached, request);
      const PackedHeatmapResponse hit = MustExecute(cached, request);
      ASSERT_FALSE(miss.from_cache);
      ASSERT_TRUE(hit.from_cache);
      EXPECT_EQ(hit.grid, miss.grid);  // the entry shares the miss's grid
      EXPECT_EQ(miss.grid->is_counts(), m.counts);
      const std::vector<uint8_t> want = GridBytes(EncodeResponse(miss));
      EXPECT_EQ(GridBytes(EncodeResponse(hit)), want);
      EXPECT_EQ(GridBytes(EncodeResponse(miss.Unpack())), want);

      // Cache-disabled engine, packed and widened.
      const HeatmapEngine uncached(*m.measure, Options(0));
      const HeatmapRequestV2 plain{
          uncached.registry().Register(derived, metric), kDomain, kSize,
          kSize};
      EXPECT_EQ(GridBytes(EncodeResponse(MustExecute(uncached, plain))), want);
      std::optional<HeatmapResponse> wide;
      ASSERT_TRUE(uncached.ExecuteChecked(plain, &wide).ok());
      EXPECT_EQ(GridBytes(EncodeResponse(*wide)), want);

      // Delta splice off the cached base raster.
      const HeatmapEngine splicing(*m.measure, Options(16 << 20));
      const CircleSetHandle base_handle =
          splicing.registry().Register(base, metric);
      MustExecute(splicing,
                  HeatmapRequestV2{base_handle, kDomain, kSize, kSize});
      CircleSetHandle derived_handle;
      std::optional<PackedHeatmapResponse> spliced_response;
      bool spliced = false;
      ASSERT_TRUE(splicing
                      .ExecuteDeltaChecked(base_handle, edits, std::nullopt,
                                           kDomain, kSize, kSize,
                                           &derived_handle, &spliced_response,
                                           &spliced)
                      .ok());
      EXPECT_TRUE(spliced);
      EXPECT_EQ(GridBytes(EncodeResponse(*spliced_response)), want);

      // By-tile fan-out, stitched as the router does it.
      const HeatmapEngine tiled(*m.measure, Options(16 << 20));
      const HeatmapRequestV2 tile_request{
          tiled.registry().Register(derived, metric), kDomain, kSize, kSize};
      EXPECT_EQ(RouterStitchedGridBytes(tiled, tile_request, 3), want);
    }
  }
}

}  // namespace
}  // namespace rnnhm
