#include "query/wire.h"

#include <bit>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "heatmap/serialization.h"
#include "query/wire_layout.h"

namespace rnnhm {

namespace {

namespace wl = wire_layout;

constexpr char kRequestMagic[4] = {'R', 'N', 'W', 'Q'};
constexpr char kResponseMagic[4] = {'R', 'N', 'W', 'S'};
constexpr char kStatsRequestMagic[4] = {'R', 'N', 'W', 'T'};
constexpr char kStatsResponseMagic[4] = {'R', 'N', 'W', 'U'};
constexpr char kDeltaRequestMagic[4] = {'R', 'N', 'W', 'D'};
constexpr char kTileRequestMagic[4] = {'R', 'N', 'W', 'L'};
constexpr uint8_t kFlagInlineCircles = 0x1;
// A delta edit record is a kind byte, then a u32 index (replace,
// swap-remove) and a circle record (replace, append); it has no table.
constexpr size_t kEditIndexBytes = sizeof(uint32_t);

// The current protocol version must be the last history row, and its
// published sizes must be the live tables'.
constexpr wl::WireVersionInfo kLive =
    wl::kWireVersionHistory[std::size(wl::kWireVersionHistory) - 1];
static_assert(kLive.version == kWireVersion &&
              kLive.request_header_bytes == wl::kRequestHeaderBytes &&
              kLive.response_header_bytes == wl::kResponseHeaderBytes &&
              kLive.stats_request_bytes == wl::kStatsRequestBytes &&
              kLive.stats_response_bytes == wl::kStatsResponseBytes &&
              kLive.delta_header_bytes == wl::kDeltaHeaderBytes &&
              kLive.tile_header_bytes == wl::kTileHeaderBytes);

// --- Table rows by name ---------------------------------------------------
// Resolved at compile time: a name missing from its table does not build.

consteval wl::WireField RequestRow(const char* name) {
  return wl::FieldOf(wl::kRequestLayout, name);
}
consteval wl::WireField ResponseRow(const char* name) {
  return wl::FieldOf(wl::kResponseLayout, name);
}
consteval wl::WireField DeltaRow(const char* name) {
  return wl::FieldOf(wl::kDeltaLayout, name);
}
consteval wl::WireField TileRow(const char* name) {
  return wl::FieldOf(wl::kTileLayout, name);
}
consteval wl::WireField StatsRequestRow(const char* name) {
  return wl::FieldOf(wl::kStatsRequestLayout, name);
}
consteval wl::WireField StatsResponseRow(const char* name) {
  return wl::FieldOf(wl::kStatsResponseLayout, name);
}
consteval wl::WireField CircleRow(const char* name) {
  return wl::FieldOf(wl::kCircleLayout, name);
}

// --- Little-endian field access (host-endianness independent) -------------

void StoreLe(uint8_t* at, size_t size, uint64_t v) {
  for (size_t i = 0; i < size; ++i) at[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t LoadLe(const uint8_t* at, size_t size) {
  uint64_t v = 0;
  for (size_t i = size; i-- > 0;) v = (v << 8) | at[i];
  return v;
}

// Header fields are unsigned integers of their row's size (signed ones
// travel as two's complement), f64 bit patterns, or the 4-byte magic.
void Put(uint8_t* frame, wl::WireField f, uint64_t v) {
  StoreLe(frame + f.offset, f.size, v);
}
void PutF64(uint8_t* frame, wl::WireField f, double v) {
  Put(frame, f, std::bit_cast<uint64_t>(v));
}
void PutMagic(uint8_t* frame, wl::WireField f, const char magic[4]) {
  std::memcpy(frame + f.offset, magic, f.size);
}
uint64_t Get(const uint8_t* frame, wl::WireField f) {
  return LoadLe(frame + f.offset, f.size);
}
int32_t GetI32(const uint8_t* frame, wl::WireField f) {
  return static_cast<int32_t>(Get(frame, f));
}
double GetF64(const uint8_t* frame, wl::WireField f) {
  return std::bit_cast<double>(Get(frame, f));
}
bool Covers(std::span<const uint8_t> bytes, wl::WireField f) {
  return bytes.size() >= f.offset + f.size;
}
bool HasMagic(std::span<const uint8_t> bytes, wl::WireField f,
              const char magic[4]) {
  return Covers(bytes, f) &&
         std::memcmp(bytes.data() + f.offset, magic, f.size) == 0;
}

// Grows *out by `bytes` zeroed bytes and returns the first of them.
uint8_t* Grow(std::vector<uint8_t>* out, size_t bytes) {
  const size_t at = out->size();
  out->resize(at + bytes);
  return out->data() + at;
}

std::nullopt_t Fail(std::string* error, std::string_view message) {
  if (error != nullptr) *error = message;
  return std::nullopt;
}

// --- The circle record ----------------------------------------------------

void PutCircle(uint8_t* record, const NnCircle& c) {
  PutF64(record, CircleRow("center_x"), c.center.x);
  PutF64(record, CircleRow("center_y"), c.center.y);
  PutF64(record, CircleRow("radius"), c.radius);
  Put(record, CircleRow("client"), static_cast<uint32_t>(c.client));
}

NnCircle GetCircle(const uint8_t* record) {
  return NnCircle{{GetF64(record, CircleRow("center_x")),
                   GetF64(record, CircleRow("center_y"))},
                  GetF64(record, CircleRow("radius")),
                  GetI32(record, CircleRow("client"))};
}

// --- The request prefix ---------------------------------------------------
// Plain, tile and delta frames share the request rows magic..set_hash
// (wire_layout.h asserts the other two tables repeat them), so one writer
// and one reader+validator serve all three. The hash slot holds a plain or
// tile request's set_hash and a delta's base_hash.

struct Prefix {
  Metric metric = Metric::kLInf;
  uint8_t flags = 0;
  int width = 0;
  int height = 0;
  Rect domain;
  uint64_t hash = 0;
};

void PutPrefix(uint8_t* header, const char magic[4], const Prefix& p) {
  PutMagic(header, RequestRow("magic"), magic);
  Put(header, RequestRow("version"), kWireVersion);
  Put(header, RequestRow("metric"), static_cast<uint8_t>(p.metric));
  Put(header, RequestRow("flags"), p.flags);
  Put(header, RequestRow("width"), static_cast<uint32_t>(p.width));
  Put(header, RequestRow("height"), static_cast<uint32_t>(p.height));
  PutF64(header, RequestRow("domain_lo_x"), p.domain.lo.x);
  PutF64(header, RequestRow("domain_lo_y"), p.domain.lo.y);
  PutF64(header, RequestRow("domain_hi_x"), p.domain.hi.x);
  PutF64(header, RequestRow("domain_hi_y"), p.domain.hi.y);
  Put(header, RequestRow("set_hash"), p.hash);
}

// Checks a `kind` frame's magic, that its `header_bytes`-byte header is
// all there, and the shared prefix: version, metric, reserved bits (any
// flag outside `allowed_flags`), a positive raster within kMaxWirePixels,
// and a finite, non-degenerate domain.
std::optional<Prefix> GetPrefix(std::span<const uint8_t> bytes,
                                const char magic[4], std::string_view kind,
                                size_t header_bytes, uint8_t allowed_flags,
                                std::string* error) {
  if (!HasMagic(bytes, RequestRow("magic"), magic)) {
    return Fail(error, "bad " + std::string(kind) + " magic");
  }
  if (bytes.size() < header_bytes) {
    return Fail(error, std::string(kind) + " header truncated");
  }
  const uint8_t* h = bytes.data();
  if (Get(h, RequestRow("version")) != kWireVersion) {
    return Fail(error, "unsupported wire version");
  }
  const uint64_t metric = Get(h, RequestRow("metric"));
  if (metric > static_cast<uint8_t>(Metric::kL2)) {
    return Fail(error, "unknown metric");
  }
  Prefix p;
  p.metric = static_cast<Metric>(metric);
  p.flags = static_cast<uint8_t>(Get(h, RequestRow("flags")));
  if ((p.flags & ~allowed_flags) != 0 ||
      Get(h, RequestRow("reserved")) != 0) {
    return Fail(error, "reserved " + std::string(kind) + " bits set");
  }
  p.width = GetI32(h, RequestRow("width"));
  p.height = GetI32(h, RequestRow("height"));
  p.domain.lo.x = GetF64(h, RequestRow("domain_lo_x"));
  p.domain.lo.y = GetF64(h, RequestRow("domain_lo_y"));
  p.domain.hi.x = GetF64(h, RequestRow("domain_hi_x"));
  p.domain.hi.y = GetF64(h, RequestRow("domain_hi_y"));
  p.hash = Get(h, RequestRow("set_hash"));
  if (p.width <= 0 || p.height <= 0) {
    return Fail(error, "non-positive raster size");
  }
  if (static_cast<uint64_t>(p.width) * static_cast<uint64_t>(p.height) >
      kMaxWirePixels) {
    return Fail(error, "raster exceeds the pixel ceiling");
  }
  if (!IsFinite(p.domain)) return Fail(error, "non-finite request domain");
  if (!(p.domain.lo.x < p.domain.hi.x) || !(p.domain.lo.y < p.domain.hi.y)) {
    return Fail(error, "degenerate request domain");
  }
  return p;
}

// --- Plain and tile requests ----------------------------------------------
// A tile request is a plain request plus three tile rows: both carry the
// circle count in the same row and the inline circles after their header.

std::vector<uint8_t> EncodeCircleRequest(const WireRequest& request,
                                         const char magic[4],
                                         size_t header_bytes) {
  const size_t count = request.inline_circles ? request.circles.size() : 0;
  std::vector<uint8_t> out(header_bytes + count * wl::kCircleBytes);
  PutPrefix(out.data(), magic,
            {request.metric,
             request.inline_circles ? kFlagInlineCircles : uint8_t{0},
             request.width, request.height, request.domain, request.set_hash});
  Put(out.data(), RequestRow("circle_count"), count);
  for (size_t i = 0; i < count; ++i) {
    PutCircle(out.data() + header_bytes + i * wl::kCircleBytes,
              request.circles[i]);
  }
  return out;
}

// Reads the prefix and the inline payload: `circle_count` records filling
// the rest of the frame exactly, each finite, together hashing to the
// header's set_hash. A by-reference frame carries no payload.
std::optional<WireRequest> DecodeCircleRequest(std::span<const uint8_t> bytes,
                                               const char magic[4],
                                               std::string_view kind,
                                               size_t header_bytes,
                                               std::string* error) {
  const std::optional<Prefix> p = GetPrefix(bytes, magic, kind, header_bytes,
                                            kFlagInlineCircles, error);
  if (!p.has_value()) return std::nullopt;
  WireRequest request;
  request.metric = p->metric;
  request.set_hash = p->hash;
  request.inline_circles = (p->flags & kFlagInlineCircles) != 0;
  request.domain = p->domain;
  request.width = p->width;
  request.height = p->height;
  const uint64_t count = Get(bytes.data(), RequestRow("circle_count"));
  const std::span<const uint8_t> payload = bytes.subspan(header_bytes);
  if (!request.inline_circles) {
    if (count != 0) {
      return Fail(error, "by-reference " + std::string(kind) +
                             " carries circles");
    }
    if (!payload.empty()) {
      return Fail(error, "trailing " + std::string(kind) + " bytes");
    }
    return request;
  }
  if (payload.size() / wl::kCircleBytes < count ||
      payload.size() != count * wl::kCircleBytes) {
    return Fail(error, "circle payload size mismatch");
  }
  request.circles.reserve(count);
  for (size_t at = 0; at < payload.size(); at += wl::kCircleBytes) {
    const NnCircle c = GetCircle(payload.data() + at);
    if (!IsFinite(c)) {
      return Fail(error, "non-finite circle center or radius");
    }
    request.circles.push_back(c);
  }
  if (HashCircleSet(request.circles, request.metric) != request.set_hash) {
    return Fail(error, "circle payload does not match its content hash");
  }
  return request;
}

// --- Responses ------------------------------------------------------------

void PutResponseHeader(std::vector<uint8_t>* out, WireStatus status,
                       bool from_cache, std::string_view message) {
  uint8_t* h = Grow(out, wl::kResponseHeaderBytes);
  PutMagic(h, ResponseRow("magic"), kResponseMagic);
  Put(h, ResponseRow("version"), kWireVersion);
  Put(h, ResponseRow("status"), static_cast<uint8_t>(status));
  Put(h, ResponseRow("from_cache"), from_cache ? 1 : 0);
  Put(h, ResponseRow("error_len"), message.size());
  out->insert(out->end(), message.begin(), message.end());
}

// Calls f(counter) on the 17 stats words of a success response, in wire
// order — the one list the encoder and the decoder share.
template <typename Response, typename F>
void ForEachStatsWord(Response& r, F&& f) {
  f(r.stats.num_circles);
  f(r.stats.num_skipped_circles);
  f(r.stats.num_events);
  f(r.stats.num_labelings);
  f(r.stats.num_merged_intervals);
  f(r.stats.num_elements_walked);
  f(r.l2_stats.num_circles);
  f(r.l2_stats.num_skipped_circles);
  f(r.l2_stats.num_events);
  f(r.l2_stats.num_cross_events);
  f(r.l2_stats.num_labelings);
  f(r.cache.hits);
  f(r.cache.misses);
  f(r.cache.insertions);
  f(r.cache.evictions);
  f(r.cache.entries);
  f(r.cache.bytes);
}

constexpr size_t kStatsWordsBytes = wl::kResponseStatsWords * sizeof(uint64_t);

// The success prefix every response shares: header plus the stats words,
// with room reserved for a grid of `grid_bytes`.
template <typename Response>
std::vector<uint8_t> EncodeResponsePrefix(const Response& response,
                                          size_t grid_bytes) {
  std::vector<uint8_t> out;
  out.reserve(wl::kResponseHeaderBytes + kStatsWordsBytes + grid_bytes);
  PutResponseHeader(&out, WireStatus::kOk, response.from_cache, {});
  uint8_t* word = Grow(&out, kStatsWordsBytes);
  ForEachStatsWord(response, [&](uint64_t v) {
    StoreLe(word, sizeof(uint64_t), v);
    word += sizeof(uint64_t);
  });
  return out;
}

// --- Stats frames ---------------------------------------------------------

// Calls f(row, counter) on every counter of a stats response.
template <typename Reply, typename F>
void ForEachStatsField(Reply& r, F&& f) {
  f(StatsResponseRow("shards"), r.shards);
  f(StatsResponseRow("requests"), r.requests);
  f(StatsResponseRow("ok"), r.ok);
  f(StatsResponseRow("errors"), r.errors);
  f(StatsResponseRow("sets_registered"), r.sets_registered);
  f(StatsResponseRow("deltas"), r.deltas);
  f(StatsResponseRow("delta_splices"), r.delta_splices);
  f(StatsResponseRow("sets_evicted"), r.sets_evicted);
  f(StatsResponseRow("delta_dirty_columns"), r.delta_dirty_columns);
  f(StatsResponseRow("tile_requests"), r.tile_requests);
  f(StatsResponseRow("tile_fragments"), r.tile_fragments);
}

}  // namespace

StatusCode FromWireStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return StatusCode::kOk;
    case WireStatus::kMalformedRequest:
      return StatusCode::kInvalidArgument;
    case WireStatus::kUnknownCircleSet:
      return StatusCode::kNotFound;
    case WireStatus::kServerError:
      break;
  }
  return StatusCode::kInternal;
}

WireStatus ToWireStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kResourceExhausted:
      return WireStatus::kMalformedRequest;
    case StatusCode::kNotFound:
      return WireStatus::kUnknownCircleSet;
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kDataLoss:
    case StatusCode::kDeadlineExceeded:
      break;
  }
  return WireStatus::kServerError;
}

WireRequest MakeWireRequest(const CircleSetSnapshot& set, const Rect& domain,
                            int width, int height, bool include_circles) {
  WireRequest request;
  request.metric = set.metric();
  request.set_hash = set.content_hash();
  request.inline_circles = include_circles;
  if (include_circles) request.circles = set.circles();
  request.domain = domain;
  request.width = width;
  request.height = height;
  return request;
}

std::vector<uint8_t> EncodeRequest(const WireRequest& request) {
  return EncodeCircleRequest(request, kRequestMagic, wl::kRequestHeaderBytes);
}

std::optional<WireRequest> DecodeRequest(std::span<const uint8_t> bytes,
                                         std::string* error) {
  return DecodeCircleRequest(bytes, kRequestMagic, "request",
                             wl::kRequestHeaderBytes, error);
}

std::optional<WireRouteInfo> PeekRouteInfo(std::span<const uint8_t> bytes) {
  // One row serves all three kinds: a delta's base_hash and a tile
  // request's set_hash repeat the request's set_hash row.
  constexpr wl::WireField kHash = RequestRow("set_hash");
  if (!Covers(bytes, kHash)) return std::nullopt;
  WireRouteInfo info;
  info.is_delta = HasMagic(bytes, DeltaRow("magic"), kDeltaRequestMagic);
  info.is_tile = HasMagic(bytes, TileRow("magic"), kTileRequestMagic);
  if (!info.is_delta && !info.is_tile &&
      !HasMagic(bytes, RequestRow("magic"), kRequestMagic)) {
    return std::nullopt;
  }
  const uint8_t* h = bytes.data();
  if (Get(h, RequestRow("version")) != kWireVersion) return std::nullopt;
  info.route_hash = Get(h, kHash);
  if (info.is_delta) {
    constexpr wl::WireField kNewHash = DeltaRow("new_hash");
    if (!Covers(bytes, kNewHash)) return std::nullopt;
    info.derived_hash = Get(h, kNewHash);
  }
  if (info.is_tile) {
    constexpr wl::WireField kTileId = TileRow("tile_id");
    if (!Covers(bytes, kTileId)) return std::nullopt;
    info.tile_id = static_cast<uint32_t>(Get(h, kTileId));
  }
  return info;
}

std::vector<uint8_t> EncodeDeltaRequest(const WireDeltaRequest& request) {
  std::vector<uint8_t> out(wl::kDeltaHeaderBytes);
  out.reserve(wl::kDeltaHeaderBytes +
              request.edits.size() * (1 + kEditIndexBytes + wl::kCircleBytes));
  PutPrefix(out.data(), kDeltaRequestMagic,
            {request.metric, /*flags=*/0, request.width, request.height,
             request.domain, request.base_hash});
  Put(out.data(), DeltaRow("new_hash"), request.new_hash);
  Put(out.data(), DeltaRow("edit_count"), request.edits.size());
  for (const CircleSetEdit& edit : request.edits) {
    out.push_back(static_cast<uint8_t>(edit.kind));
    if (edit.kind != CircleSetEdit::Kind::kAppend) {
      StoreLe(Grow(&out, kEditIndexBytes), kEditIndexBytes, edit.index);
    }
    if (edit.kind != CircleSetEdit::Kind::kSwapRemove) {
      PutCircle(Grow(&out, wl::kCircleBytes), edit.circle);
    }
  }
  return out;
}

bool IsDeltaRequest(std::span<const uint8_t> bytes) {
  return HasMagic(bytes, DeltaRow("magic"), kDeltaRequestMagic);
}

std::optional<WireDeltaRequest> DecodeDeltaRequest(
    std::span<const uint8_t> bytes, std::string* error) {
  const std::optional<Prefix> p =
      GetPrefix(bytes, kDeltaRequestMagic, "delta request",
                wl::kDeltaHeaderBytes, /*allowed_flags=*/0, error);
  if (!p.has_value()) return std::nullopt;
  WireDeltaRequest request;
  request.metric = p->metric;
  request.base_hash = p->hash;
  request.domain = p->domain;
  request.width = p->width;
  request.height = p->height;
  request.new_hash = Get(bytes.data(), DeltaRow("new_hash"));
  const uint64_t count = Get(bytes.data(), DeltaRow("edit_count"));
  const std::span<const uint8_t> edits = bytes.subspan(wl::kDeltaHeaderBytes);
  // Every edit is at least one kind byte, so a count over the remaining
  // payload can never be satisfied — reject before reserving memory.
  if (count > edits.size()) {
    return Fail(error, "delta edit count over the payload size");
  }
  request.edits.reserve(count);
  size_t at = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (at == edits.size()) {
      return Fail(error, "delta edit list truncated");
    }
    const uint8_t kind = edits[at++];
    if (kind > static_cast<uint8_t>(CircleSetEdit::Kind::kSwapRemove)) {
      return Fail(error, "unknown delta edit kind");
    }
    CircleSetEdit edit;
    edit.kind = static_cast<CircleSetEdit::Kind>(kind);
    const bool has_index = edit.kind != CircleSetEdit::Kind::kAppend;
    const bool has_circle = edit.kind != CircleSetEdit::Kind::kSwapRemove;
    if (edits.size() - at < (has_index ? kEditIndexBytes : 0) +
                                (has_circle ? wl::kCircleBytes : 0)) {
      return Fail(error, "delta edit list truncated");
    }
    if (has_index) {
      edit.index = static_cast<uint32_t>(LoadLe(&edits[at], kEditIndexBytes));
      at += kEditIndexBytes;
    }
    if (has_circle) {
      edit.circle = GetCircle(&edits[at]);
      at += wl::kCircleBytes;
      if (!IsFinite(edit.circle)) {
        return Fail(error, "non-finite delta circle center or radius");
      }
    }
    request.edits.push_back(edit);
  }
  if (at != edits.size()) {
    return Fail(error, "trailing delta request bytes");
  }
  return request;
}

WireTileRequest MakeWireTileRequest(const CircleSetSnapshot& set,
                                    const Rect& domain, int width, int height,
                                    bool include_circles, int tile_rows,
                                    int tile_cols, int tile_id) {
  return WireTileRequest{
      MakeWireRequest(set, domain, width, height, include_circles),
      tile_rows, tile_cols, tile_id};
}

std::vector<uint8_t> EncodeTileRequest(const WireTileRequest& request) {
  std::vector<uint8_t> out =
      EncodeCircleRequest(request, kTileRequestMagic, wl::kTileHeaderBytes);
  uint8_t* h = out.data();
  Put(h, TileRow("tile_rows"), static_cast<uint32_t>(request.tile_rows));
  Put(h, TileRow("tile_cols"), static_cast<uint32_t>(request.tile_cols));
  Put(h, TileRow("tile_id"), static_cast<uint32_t>(request.tile_id));
  return out;
}

bool IsTileRequest(std::span<const uint8_t> bytes) {
  return HasMagic(bytes, TileRow("magic"), kTileRequestMagic);
}

std::optional<WireTileRequest> DecodeTileRequest(std::span<const uint8_t> bytes,
                                                 std::string* error) {
  std::optional<WireRequest> base = DecodeCircleRequest(
      bytes, kTileRequestMagic, "tile request", wl::kTileHeaderBytes, error);
  if (!base.has_value()) return std::nullopt;
  WireTileRequest request{std::move(*base),
                          GetI32(bytes.data(), TileRow("tile_rows")),
                          GetI32(bytes.data(), TileRow("tile_cols")),
                          GetI32(bytes.data(), TileRow("tile_id"))};
  if (request.tile_rows < 1 || request.tile_cols < 1 ||
      request.tile_rows > kMaxWireTileGridSide ||
      request.tile_cols > kMaxWireTileGridSide) {
    return Fail(error, "tile grid outside the wire ceiling");
  }
  if (request.tile_id < 0 ||
      request.tile_id >= request.tile_rows * request.tile_cols) {
    return Fail(error, "tile id outside the tile grid");
  }
  return request;
}

std::vector<uint8_t> EncodeResponse(const HeatmapResponse& response) {
  // The encoding is only known once the fused scan has run: EncodeHeatmap
  // sizes the buffer for it, so nothing is reserved for the grid here.
  std::vector<uint8_t> out = EncodeResponsePrefix(response, 0);
  EncodeHeatmap(response.grid, &out);
  return out;
}

std::vector<uint8_t> EncodeResponse(const PackedHeatmapResponse& response) {
  std::vector<uint8_t> out =
      EncodeResponsePrefix(response, SerializedSizeBytes(*response.grid));
  EncodeHeatmap(*response.grid, &out);
  return out;
}

std::vector<uint8_t> EncodeErrorResponse(WireStatus status,
                                         const std::string& message) {
  std::vector<uint8_t> out;
  PutResponseHeader(&out, status, /*from_cache=*/false, message);
  return out;
}

std::optional<WireResponse> DecodeResponse(std::span<const uint8_t> bytes,
                                           std::string* error) {
  if (!HasMagic(bytes, ResponseRow("magic"), kResponseMagic)) {
    return Fail(error, "bad response magic");
  }
  if (bytes.size() < wl::kResponseHeaderBytes) {
    return Fail(error, "response header truncated");
  }
  const uint8_t* h = bytes.data();
  if (Get(h, ResponseRow("version")) != kWireVersion) {
    return Fail(error, "unsupported wire version");
  }
  const uint64_t status = Get(h, ResponseRow("status"));
  const uint64_t from_cache = Get(h, ResponseRow("from_cache"));
  const uint64_t error_len = Get(h, ResponseRow("error_len"));
  if (status > static_cast<uint8_t>(WireStatus::kServerError)) {
    return Fail(error, "unknown response status");
  }
  if (Get(h, ResponseRow("reserved")) != 0 || from_cache > 1) {
    return Fail(error, "reserved response bits set");
  }
  WireResponse response;
  response.status = static_cast<WireStatus>(status);
  std::span<const uint8_t> rest = bytes.subspan(wl::kResponseHeaderBytes);
  if (rest.size() < error_len) {
    return Fail(error, "response error message truncated");
  }
  response.error.assign(reinterpret_cast<const char*>(rest.data()),
                        error_len);
  rest = rest.subspan(error_len);
  if (response.status != WireStatus::kOk) {
    if (!rest.empty()) {
      return Fail(error, "trailing response bytes");
    }
    return response;
  }
  if (error_len != 0) {
    return Fail(error, "ok response carries an error message");
  }
  if (rest.size() < kStatsWordsBytes) {
    return Fail(error, "response counters truncated");
  }
  struct {
    CrestStats stats;
    CrestL2Stats l2_stats;
    SweepCacheStats cache;
  } counters;
  ForEachStatsWord(counters, [&](auto& counter) {
    counter = LoadLe(rest.data(), sizeof(uint64_t));
    rest = rest.subspan(sizeof(uint64_t));
  });
  size_t consumed = 0;
  std::string grid_error;
  std::optional<HeatmapGrid> grid =
      DecodeHeatmap(rest.data(), rest.size(), &consumed, &grid_error);
  if (!grid.has_value()) {
    return Fail(error, "response grid: " + grid_error);
  }
  if (consumed != rest.size()) {
    return Fail(error, "trailing response bytes");
  }
  response.response.emplace(HeatmapResponse{std::move(*grid), counters.stats,
                                            counters.l2_stats, from_cache != 0,
                                            counters.cache});
  return response;
}

std::vector<uint8_t> EncodeStatsRequest() {
  std::vector<uint8_t> out(wl::kStatsRequestBytes);
  PutMagic(out.data(), StatsRequestRow("magic"), kStatsRequestMagic);
  Put(out.data(), StatsRequestRow("version"), kWireVersion);
  return out;
}

bool IsStatsRequest(std::span<const uint8_t> bytes) {
  return HasMagic(bytes, StatsRequestRow("magic"), kStatsRequestMagic);
}

Status DecodeStatsRequest(std::span<const uint8_t> bytes) {
  if (!IsStatsRequest(bytes)) {
    return Status::InvalidArgument("bad stats request magic");
  }
  if (bytes.size() < wl::kStatsRequestBytes) {
    return Status::InvalidArgument("stats request truncated");
  }
  if (Get(bytes.data(), StatsRequestRow("version")) != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  if (Get(bytes.data(), StatsRequestRow("reserved")) != 0) {
    return Status::InvalidArgument("reserved stats request bits set");
  }
  if (bytes.size() != wl::kStatsRequestBytes) {
    return Status::InvalidArgument("trailing stats request bytes");
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeStatsResponse(const WireStatsReply& reply) {
  std::vector<uint8_t> out(wl::kStatsResponseBytes);
  PutMagic(out.data(), StatsResponseRow("magic"), kStatsResponseMagic);
  Put(out.data(), StatsResponseRow("version"), kWireVersion);
  ForEachStatsField(reply, [&](wl::WireField row, uint64_t v) {
    Put(out.data(), row, v);
  });
  return out;
}

std::optional<WireStatsReply> DecodeStatsResponse(
    std::span<const uint8_t> bytes, std::string* error) {
  if (!HasMagic(bytes, StatsResponseRow("magic"), kStatsResponseMagic)) {
    return Fail(error, "bad stats response magic");
  }
  if (bytes.size() < wl::kStatsResponseBytes) {
    return Fail(error, "stats response truncated");
  }
  if (Get(bytes.data(), StatsResponseRow("version")) != kWireVersion) {
    return Fail(error, "unsupported wire version");
  }
  WireStatsReply reply;
  ForEachStatsField(reply, [&](wl::WireField row, auto& counter) {
    counter = static_cast<std::remove_reference_t<decltype(counter)>>(
        Get(bytes.data(), row));
  });
  if (reply.shards == 0) {
    return Fail(error, "stats response with no shards");
  }
  if (bytes.size() != wl::kStatsResponseBytes) {
    return Fail(error, "trailing stats response bytes");
  }
  return reply;
}

bool WriteFrame(std::FILE* out, std::span<const uint8_t> payload) {
  if (payload.size() > kMaxFramePayloadBytes) return false;
  uint8_t prefix[sizeof(uint32_t)];
  StoreLe(prefix, sizeof(prefix), payload.size());
  if (std::fwrite(prefix, 1, sizeof(prefix), out) != sizeof(prefix)) {
    return false;
  }
  return payload.empty() ||
         std::fwrite(payload.data(), 1, payload.size(), out) ==
             payload.size();
}

std::optional<std::vector<uint8_t>> ReadFrame(std::FILE* in,
                                              std::string* error) {
  if (error != nullptr) error->clear();
  uint8_t prefix[sizeof(uint32_t)];
  const size_t got = std::fread(prefix, 1, sizeof(prefix), in);
  if (got == 0) {
    if (std::ferror(in) != 0) {
      Fail(error, "read error on frame stream");
    }
    return std::nullopt;  // clean EOF when no stream error
  }
  if (got != sizeof(prefix)) {
    return Fail(error, "truncated frame length prefix");
  }
  const uint64_t length = LoadLe(prefix, sizeof(prefix));
  if (length > kMaxFramePayloadBytes) {
    return Fail(error, "frame payload over the size ceiling");
  }
  std::vector<uint8_t> payload(length);
  if (length > 0 &&
      std::fread(payload.data(), 1, length, in) != length) {
    return Fail(error, "truncated frame payload");
  }
  return payload;
}

}  // namespace rnnhm
