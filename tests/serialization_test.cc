#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "heatmap/heatmap.h"
#include "heatmap/serialization.h"

namespace rnnhm {
namespace {

TEST(SerializationTest, RoundTripPreservesEverything) {
  Rng rng(3000);
  HeatmapGrid grid(37, 21, Rect{{-2.5, 3.5}, {4.5, 9.5}});
  for (int i = 0; i < 37; ++i) {
    for (int j = 0; j < 21; ++j) grid.At(i, j) = rng.Uniform(-5, 5);
  }
  const std::string path = "/tmp/rnnhm_grid.bin";
  ASSERT_TRUE(SaveHeatmap(grid, path));
  const auto loaded = LoadHeatmap(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->width(), grid.width());
  EXPECT_EQ(loaded->height(), grid.height());
  EXPECT_EQ(loaded->domain(), grid.domain());
  for (int i = 0; i < 37; ++i) {
    for (int j = 0; j < 21; ++j) {
      ASSERT_DOUBLE_EQ(loaded->At(i, j), grid.At(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, SerializedSizeMatchesTheFileExactly) {
  for (const auto& [w, h] : {std::pair{1, 1}, {1, 64}, {64, 1}, {37, 21}}) {
    HeatmapGrid grid(w, h, Rect{{0, 0}, {1, 1}}, 0.5);
    const std::string path = "/tmp/rnnhm_size.bin";
    ASSERT_TRUE(SaveHeatmap(grid, path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long on_disk = std::ftell(f);
    std::fclose(f);
    EXPECT_EQ(static_cast<size_t>(on_disk), SerializedSizeBytes(grid))
        << w << "x" << h;
    std::remove(path.c_str());
  }
}

// The degenerate shapes the cache must size and round-trip correctly: the
// minimal 1x1 grid and single-row/column strips.
TEST(SerializationTest, DegenerateGridsRoundTrip) {
  Rng rng(3100);
  for (const auto& [w, h] : {std::pair{1, 1}, {1, 48}, {48, 1}}) {
    HeatmapGrid grid(w, h, Rect{{-1e6, -0.25}, {1e6, 0.75}});
    for (int i = 0; i < w; ++i) {
      for (int j = 0; j < h; ++j) grid.At(i, j) = rng.Uniform(-1e9, 1e9);
    }
    const std::string path = "/tmp/rnnhm_degenerate.bin";
    ASSERT_TRUE(SaveHeatmap(grid, path));
    const auto loaded = LoadHeatmap(path);
    ASSERT_TRUE(loaded.has_value()) << w << "x" << h;
    EXPECT_EQ(loaded->width(), w);
    EXPECT_EQ(loaded->height(), h);
    EXPECT_EQ(loaded->domain(), grid.domain());
    EXPECT_EQ(loaded->values(), grid.values());  // bit-exact payload
    std::remove(path.c_str());
  }
}

// Extreme but representable values must survive the binary round trip
// bit for bit (the cache trusts grids to be value-faithful).
TEST(SerializationTest, ExtremeValuesRoundTripBitExactly) {
  HeatmapGrid grid(3, 2, Rect{{0, 0}, {1, 1}});
  grid.At(0, 0) = 0.0;
  grid.At(1, 0) = -0.0;
  grid.At(2, 0) = 1e308;
  grid.At(0, 1) = -1e308;
  grid.At(1, 1) = 5e-324;  // smallest subnormal
  grid.At(2, 1) = 0.1;     // not exactly representable
  const std::string path = "/tmp/rnnhm_extreme.bin";
  ASSERT_TRUE(SaveHeatmap(grid, path));
  const auto loaded = LoadHeatmap(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->values(), grid.values());
  EXPECT_TRUE(std::signbit(loaded->At(1, 0)));
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsNonPositiveDimensionsAndBadDomain) {
  // Hand-craft headers with corrupted fields; every one must be refused.
  HeatmapGrid grid(4, 4, Rect{{0, 0}, {1, 1}}, 1.0);
  const std::string path = "/tmp/rnnhm_header.bin";
  ASSERT_TRUE(SaveHeatmap(grid, path));
  // Header layout: magic[4], version u32, width i32, height i32, domain.
  struct Patch {
    long offset;
    int32_t value;
  };
  for (const Patch& patch :
       {Patch{8, 0}, Patch{8, -4}, Patch{12, 0}, Patch{12, -4}}) {
    HeatmapGrid fresh(4, 4, Rect{{0, 0}, {1, 1}}, 1.0);
    ASSERT_TRUE(SaveHeatmap(fresh, path));
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, patch.offset, SEEK_SET);
    std::fwrite(&patch.value, sizeof(patch.value), 1, f);
    std::fclose(f);
    EXPECT_FALSE(LoadHeatmap(path).has_value())
        << "offset " << patch.offset << " value " << patch.value;
  }
  // Inverted domain (lo.x >= hi.x): patch the four domain doubles.
  HeatmapGrid fresh(4, 4, Rect{{0, 0}, {1, 1}}, 1.0);
  ASSERT_TRUE(SaveHeatmap(fresh, path));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const double bad_lo_x = 2.0;  // domain.lo.x at offset 16
  std::fseek(f, 16, SEEK_SET);
  std::fwrite(&bad_lo_x, sizeof(bad_lo_x), 1, f);
  std::fclose(f);
  EXPECT_FALSE(LoadHeatmap(path).has_value());
  std::remove(path.c_str());
}

// Files written before the count encoding existed are RNHM version 1: a
// 48-byte header and row-major doubles. They must still load.
TEST(SerializationTest, LoadsVersionOneFiles) {
  const Rect domain{{-1.5, 2.0}, {3.5, 4.25}};
  const std::vector<double> values = {0.0, 2.0, -0.0, 0.5, 65536.0, 7.0};
  std::vector<uint8_t> bytes = {'R', 'N', 'H', 'M'};
  const auto put = [&bytes](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  const uint32_t version = 1;
  const int32_t width = 3, height = 2;
  put(&version, 4);
  put(&width, 4);
  put(&height, 4);
  for (const double d : {domain.lo.x, domain.lo.y, domain.hi.x, domain.hi.y}) {
    put(&d, 8);
  }
  put(values.data(), values.size() * sizeof(double));
  ASSERT_EQ(bytes.size(), 48 + 8 * values.size());

  const std::string path = "/tmp/rnnhm_v1.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  const auto loaded = LoadHeatmap(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->width(), width);
  EXPECT_EQ(loaded->height(), height);
  EXPECT_EQ(loaded->domain(), domain);
  ASSERT_EQ(loaded->values().size(), values.size());
  EXPECT_EQ(std::memcmp(loaded->values().data(), values.data(),
                        values.size() * sizeof(double)),
            0);

  size_t consumed = 0;
  ASSERT_TRUE(DecodeHeatmap(bytes.data(), bytes.size(), &consumed).has_value());
  EXPECT_EQ(consumed, bytes.size());
}

// Count grids save as version 2 with 16-bit counts: a quarter of the
// payload, loaded back as the same doubles.
TEST(SerializationTest, CountGridsSaveAsCounts) {
  HeatmapGrid grid(5, 4, Rect{{0, 0}, {1, 1}});
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 5; ++i) grid.At(i, j) = i * 1000 + j;
  }
  const std::string path = "/tmp/rnnhm_counts.bin";
  ASSERT_TRUE(SaveHeatmap(grid, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long on_disk = std::ftell(f);
  std::fclose(f);
  EXPECT_EQ(static_cast<size_t>(on_disk), 56u + 2u * 20u);
  EXPECT_EQ(static_cast<size_t>(on_disk), SerializedSizeBytes(grid));
  const auto loaded = LoadHeatmap(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->values(), grid.values());
}

TEST(SerializationTest, MissingFileFails) {
  EXPECT_FALSE(LoadHeatmap("/nonexistent/grid.bin").has_value());
  HeatmapGrid grid(2, 2, Rect{{0, 0}, {1, 1}});
  EXPECT_FALSE(SaveHeatmap(grid, "/nonexistent_dir/grid.bin"));
}

TEST(SerializationTest, RejectsBadMagicAndTruncation) {
  const std::string path = "/tmp/rnnhm_bad.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a heatmap at all", f);
  std::fclose(f);
  EXPECT_FALSE(LoadHeatmap(path).has_value());

  // Valid header, truncated payload.
  HeatmapGrid grid(64, 64, Rect{{0, 0}, {1, 1}}, 1.0);
  ASSERT_TRUE(SaveHeatmap(grid, path));
  f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), full / 2), 0);
  EXPECT_FALSE(LoadHeatmap(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rnnhm
