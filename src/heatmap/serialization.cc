#include "heatmap/serialization.h"

#include <cstdio>
#include <cstring>
#include <utility>

namespace rnnhm {

namespace {
constexpr char kMagic[4] = {'R', 'N', 'H', 'M'};
constexpr uint32_t kVersion1 = 1;
constexpr uint32_t kVersion = 2;

// Payload encodings of a version-2 blob.
constexpr uint32_t kEncodingF64 = 0;
constexpr uint32_t kEncodingCounts = 1;

// The version-1 header; version 2 appends the encoding word and a
// reserved word, keeping an f64 payload 8-byte aligned.
struct Header {
  char magic[4];
  uint32_t version;
  int32_t width;
  int32_t height;
  double lo_x, lo_y, hi_x, hi_y;
};

struct HeaderV2 {
  Header base;
  uint32_t encoding;
  uint32_t reserved;
};

static_assert(sizeof(Header) == 48 && sizeof(HeaderV2) == 56);

bool Fail(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

// The header of `grid` (a HeatmapGrid or a PackedGrid).
template <typename Grid>
HeaderV2 MakeHeader(const Grid& grid, uint32_t encoding) {
  HeaderV2 h;
  std::memcpy(h.base.magic, kMagic, 4);
  h.base.version = kVersion;
  h.base.width = grid.width();
  h.base.height = grid.height();
  h.base.lo_x = grid.domain().lo.x;
  h.base.lo_y = grid.domain().lo.y;
  h.base.hi_x = grid.domain().hi.x;
  h.base.hi_y = grid.domain().hi.y;
  h.encoding = encoding;
  h.reserved = 0;
  return h;
}

// Appends header + raw payload bytes.
void Append(const HeaderV2& h, const void* payload, size_t payload_bytes,
            std::vector<uint8_t>* out) {
  const size_t start = out->size();
  out->resize(start + sizeof(h) + payload_bytes);
  std::memcpy(out->data() + start, &h, sizeof(h));
  std::memcpy(out->data() + start + sizeof(h), payload, payload_bytes);
}
}  // namespace

void EncodeHeatmap(const HeatmapGrid& grid, std::vector<uint8_t>* out) {
  const size_t n = grid.values().size();
  const size_t start = out->size();
  HeaderV2 h = MakeHeader(grid, kEncodingCounts);
  out->resize(start + sizeof(h) + n * sizeof(uint16_t));
  if (PackCounts(grid.data(), n, out->data() + start + sizeof(h))) {
    std::memcpy(out->data() + start, &h, sizeof(h));
    return;
  }
  out->resize(start);
  h.encoding = kEncodingF64;
  Append(h, grid.data(), n * sizeof(double), out);
}

void EncodeHeatmap(const PackedGrid& grid, std::vector<uint8_t>* out) {
  if (grid.is_counts()) {
    Append(MakeHeader(grid, kEncodingCounts), grid.counts().data(),
           grid.size() * sizeof(uint16_t), out);
  } else {
    Append(MakeHeader(grid, kEncodingF64), grid.values().data(),
           grid.size() * sizeof(double), out);
  }
}

std::optional<HeatmapGrid> DecodeHeatmap(const uint8_t* data, size_t size,
                                         size_t* consumed,
                                         std::string* error) {
  Header h;
  if (size < sizeof(h)) {
    Fail(error, "heatmap blob shorter than its header");
    return std::nullopt;
  }
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kMagic, 4) != 0) {
    Fail(error, "bad heatmap magic");
    return std::nullopt;
  }
  size_t header_bytes = sizeof(Header);
  uint32_t encoding = kEncodingF64;
  if (h.version == kVersion) {
    HeaderV2 h2;
    if (size < sizeof(h2)) {
      Fail(error, "heatmap blob shorter than its header");
      return std::nullopt;
    }
    std::memcpy(&h2, data, sizeof(h2));
    if (h2.encoding != kEncodingF64 && h2.encoding != kEncodingCounts) {
      Fail(error, "unknown heatmap encoding");
      return std::nullopt;
    }
    if (h2.reserved != 0) {
      Fail(error, "reserved heatmap header bits set");
      return std::nullopt;
    }
    header_bytes = sizeof(h2);
    encoding = h2.encoding;
  } else if (h.version != kVersion1) {
    Fail(error, "unsupported heatmap version");
    return std::nullopt;
  }
  if (h.width <= 0 || h.height <= 0) {
    Fail(error, "non-positive heatmap dimensions");
    return std::nullopt;
  }
  if (!(h.lo_x < h.hi_x) || !(h.lo_y < h.hi_y)) {
    Fail(error, "degenerate heatmap domain");
    return std::nullopt;
  }
  const size_t pixel_bytes =
      encoding == kEncodingCounts ? sizeof(uint16_t) : sizeof(double);
  const uint64_t count =
      static_cast<uint64_t>(h.width) * static_cast<uint64_t>(h.height);
  if ((size - header_bytes) / pixel_bytes < count) {
    Fail(error, "truncated heatmap payload");
    return std::nullopt;
  }
  const uint8_t* payload = data + header_bytes;
  std::vector<double> values(count);
  if (encoding == kEncodingCounts) {
    WidenCounts(payload, values.size(), values.data());
  } else {
    std::memcpy(values.data(), payload, values.size() * sizeof(double));
  }
  if (consumed != nullptr) {
    *consumed = header_bytes + static_cast<size_t>(count) * pixel_bytes;
  }
  return HeatmapGrid(h.width, h.height,
                     Rect{{h.lo_x, h.lo_y}, {h.hi_x, h.hi_y}},
                     std::move(values));
}

bool SaveHeatmap(const HeatmapGrid& grid, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::vector<uint8_t> bytes;
  EncodeHeatmap(grid, &bytes);
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return (std::fclose(f) == 0) && ok;
}

size_t SerializedSizeBytes(const HeatmapGrid& grid) {
  return SerializedSizeBytes(PackedGrid::Pack(grid));
}

size_t SerializedSizeBytes(const PackedGrid& grid) {
  return sizeof(HeaderV2) +
         grid.size() * (grid.is_counts() ? sizeof(uint16_t) : sizeof(double));
}

size_t UnpackedSizeBytes(int width, int height) {
  const size_t pixels = static_cast<size_t>(width) * height;
  return sizeof(Header) + pixels * sizeof(double);
}

std::optional<HeatmapGrid> LoadHeatmap(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return std::nullopt;
  return DecodeHeatmap(bytes.data(), bytes.size(), nullptr);
}

}  // namespace rnnhm
