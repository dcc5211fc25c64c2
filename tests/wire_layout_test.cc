// The runtime half of the wire-layout checks. The codec reads and writes
// every header field at its src/query/wire_layout.h row, so encoding real
// frames and reading them back at the table offsets (the first cases
// below) shows the tables and the codec agree — but a table edit would
// move both together. The frozen-v7 cases pin the layout itself: a
// literal copy of every row, and one golden byte string per frame kind,
// decoded and re-encoded. The static_asserts in wire_layout.h and wire.cc
// check table shape, and tools/check_wire_layout.py checks the tables'
// text, the frame magics, the routing peek and the version history.
#include "query/wire_layout.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "query/wire.h"

namespace rnnhm {
namespace {

namespace wl = wire_layout;

// Little-endian reads at table offsets — deliberately independent of the
// codec's own field access so a codec bug cannot cancel out in this test.
uint64_t ReadLe(std::span<const uint8_t> bytes, size_t offset, size_t size) {
  uint64_t v = 0;
  for (size_t i = 0; i < size; ++i) {
    v |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

double ReadF64(std::span<const uint8_t> bytes, size_t offset) {
  const uint64_t bits = ReadLe(bytes, offset, 8);
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

template <size_t N>
size_t OffsetOf(const wl::WireField (&fields)[N], const std::string& name) {
  for (const wl::WireField& f : fields) {
    if (name == f.name) return f.offset;
  }
  ADD_FAILURE() << "no field named " << name;
  return 0;
}

std::string MagicAt(std::span<const uint8_t> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), 4);
}

NnCircle TestCircle(int client) {
  return NnCircle{{0.25 * client, -0.5 * client}, 0.125 + client, client};
}

// --- Published sizes, all versions ----------------------------------------

TEST(WireLayoutTest, VersionHistoryIsAppendOnlyAndEndsAtLiveVersion) {
  constexpr size_t n = std::size(wl::kWireVersionHistory);
  ASSERT_GE(n, 5u);  // v2..v6 at minimum
  EXPECT_EQ(wl::kWireVersionHistory[0].version, 2u);
  EXPECT_EQ(wl::kWireVersionHistory[n - 1].version, kWireVersion);
  for (size_t i = 1; i < n; ++i) {
    const auto& prev = wl::kWireVersionHistory[i - 1];
    const auto& row = wl::kWireVersionHistory[i];
    EXPECT_EQ(row.version, prev.version + 1) << "history must have no gaps";
    // A frame kind, once published, never shrinks in a later version.
    EXPECT_GE(row.request_header_bytes, prev.request_header_bytes);
    EXPECT_GE(row.response_header_bytes, prev.response_header_bytes);
    EXPECT_GE(row.stats_request_bytes, prev.stats_request_bytes);
    EXPECT_GE(row.stats_response_bytes, prev.stats_response_bytes);
    EXPECT_GE(row.delta_header_bytes, prev.delta_header_bytes);
    EXPECT_GE(row.tile_header_bytes, prev.tile_header_bytes);
  }
}

TEST(WireLayoutTest, PublishedSizesPerVersion) {
  // The exact sizes every deployed version shipped with. These rows are
  // frozen: editing an old row here (or in wire_layout.h) means the
  // protocol history was silently rewritten.
  struct Row {
    uint32_t version;
    size_t request, response, stats_req, stats_resp, delta, tile;
  };
  constexpr Row kExpected[] = {
      {2, 68, 16, 0, 0, 0, 0},    {3, 68, 16, 12, 44, 0, 0},
      {4, 68, 16, 12, 68, 76, 0}, {5, 68, 16, 12, 76, 76, 0},
      {6, 68, 16, 12, 92, 76, 80}, {7, 68, 16, 12, 92, 76, 80},
  };
  ASSERT_EQ(std::size(wl::kWireVersionHistory), std::size(kExpected));
  for (size_t i = 0; i < std::size(kExpected); ++i) {
    const auto& row = wl::kWireVersionHistory[i];
    const Row& want = kExpected[i];
    EXPECT_EQ(row.version, want.version);
    EXPECT_EQ(row.request_header_bytes, want.request);
    EXPECT_EQ(row.response_header_bytes, want.response);
    EXPECT_EQ(row.stats_request_bytes, want.stats_req);
    EXPECT_EQ(row.stats_response_bytes, want.stats_resp);
    EXPECT_EQ(row.delta_header_bytes, want.delta);
    EXPECT_EQ(row.tile_header_bytes, want.tile);
  }
}

// --- Encoded frames vs. the tables ----------------------------------------

TEST(WireLayoutTest, RequestBytesLandAtTableOffsets) {
  WireRequest request;
  request.metric = Metric::kL2;
  request.width = 640;
  request.height = 480;
  request.domain = Rect{{-1.5, -2.5}, {3.5, 4.5}};
  request.set_hash = 0x0123456789abcdefull;
  request.inline_circles = true;
  request.circles = {TestCircle(1), TestCircle(2)};

  const std::vector<uint8_t> bytes = EncodeRequest(request);
  const auto& t = wl::kRequestLayout;
  ASSERT_EQ(bytes.size(),
            wl::kRequestHeaderBytes + 2 * wl::kCircleBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWQ");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "version"), 4), kWireVersion);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "metric"), 1),
            static_cast<uint64_t>(Metric::kL2));
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "flags"), 1), 1u);  // inline
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "reserved"), 2), 0u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "width"), 4), 640u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "height"), 4), 480u);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_lo_x")), -1.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_lo_y")), -2.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_hi_x")), 3.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_hi_y")), 4.5);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "set_hash"), 8),
            0x0123456789abcdefull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "circle_count"), 8), 2u);

  // The first circle record, at the table's field offsets.
  const std::span<const uint8_t> circle =
      std::span(bytes).subspan(wl::kRequestHeaderBytes, wl::kCircleBytes);
  const auto& c = wl::kCircleLayout;
  EXPECT_EQ(ReadF64(circle, OffsetOf(c, "center_x")), 0.25);
  EXPECT_EQ(ReadF64(circle, OffsetOf(c, "center_y")), -0.5);
  EXPECT_EQ(ReadF64(circle, OffsetOf(c, "radius")), 1.125);
  EXPECT_EQ(ReadLe(circle, OffsetOf(c, "client"), 4), 1u);
}

TEST(WireLayoutTest, ResponseBytesLandAtTableOffsets) {
  const std::vector<uint8_t> bytes =
      EncodeErrorResponse(WireStatus::kMalformedRequest, "nope");
  const auto& t = wl::kResponseLayout;
  ASSERT_EQ(bytes.size(), wl::kResponseHeaderBytes + 4);
  EXPECT_EQ(MagicAt(bytes), "RNWS");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "version"), 4), kWireVersion);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "status"), 1),
            static_cast<uint64_t>(WireStatus::kMalformedRequest));
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "from_cache"), 1), 0u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "reserved"), 2), 0u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "error_len"), 4), 4u);
  EXPECT_EQ(std::string(bytes.begin() + wl::kResponseHeaderBytes,
                        bytes.end()),
            "nope");
}

TEST(WireLayoutTest, DeltaBytesLandAtTableOffsetsAndShareRequestPrefix) {
  WireDeltaRequest request;
  request.metric = Metric::kLInf;
  request.width = 32;
  request.height = 16;
  request.domain = Rect{{0.0, 0.0}, {1.0, 1.0}};
  request.base_hash = 0x1111111111111111ull;
  request.new_hash = 0x2222222222222222ull;
  request.edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0, TestCircle(3)}};

  const std::vector<uint8_t> bytes = EncodeDeltaRequest(request);
  const auto& t = wl::kDeltaLayout;
  ASSERT_GE(bytes.size(), wl::kDeltaHeaderBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWD");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "base_hash"), 8),
            0x1111111111111111ull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "new_hash"), 8),
            0x2222222222222222ull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "edit_count"), 8), 1u);

  // Routing contract: base_hash occupies the request set_hash slot, so
  // one peek offset serves both frame kinds.
  EXPECT_EQ(OffsetOf(t, "base_hash"),
            OffsetOf(wl::kRequestLayout, "set_hash"));
  const auto route = PeekRouteInfo(bytes);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->route_hash, request.base_hash);
  EXPECT_EQ(route->derived_hash, request.new_hash);
}

TEST(WireLayoutTest, TileBytesLandAtTableOffsets) {
  WireTileRequest request;
  request.metric = Metric::kL2;
  request.width = 64;
  request.height = 64;
  request.domain = Rect{{0.0, 0.0}, {2.0, 2.0}};
  request.set_hash = 0x3333333333333333ull;
  request.tile_rows = 4;
  request.tile_cols = 8;
  request.tile_id = 17;
  request.inline_circles = true;
  request.circles = {TestCircle(4)};

  const std::vector<uint8_t> bytes = EncodeTileRequest(request);
  const auto& t = wl::kTileLayout;
  ASSERT_EQ(bytes.size(), wl::kTileHeaderBytes + wl::kCircleBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWL");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "set_hash"), 8),
            0x3333333333333333ull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "circle_count"), 8), 1u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_rows"), 4), 4u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_cols"), 4), 8u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_id"), 4), 17u);
  // The whole plain-request header is a prefix of the tile header.
  EXPECT_EQ(OffsetOf(t, "tile_rows"), wl::kRequestHeaderBytes);
  const auto route = PeekRouteInfo(bytes);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->route_hash, request.set_hash);
  EXPECT_EQ(route->tile_id, 17u);
}

TEST(WireLayoutTest, StatsBytesLandAtTableOffsets) {
  const std::vector<uint8_t> req = EncodeStatsRequest();
  ASSERT_EQ(req.size(), wl::kStatsRequestBytes);
  EXPECT_EQ(MagicAt(req), "RNWT");
  EXPECT_EQ(ReadLe(req, OffsetOf(wl::kStatsRequestLayout, "version"), 4),
            kWireVersion);

  WireStatsReply reply;
  reply.shards = 3;
  reply.requests = 101;
  reply.ok = 90;
  reply.errors = 11;
  reply.sets_registered = 7;
  reply.deltas = 6;
  reply.delta_splices = 5;
  reply.sets_evicted = 4;
  reply.delta_dirty_columns = 1234;
  reply.tile_requests = 44;
  reply.tile_fragments = 55;
  const std::vector<uint8_t> bytes = EncodeStatsResponse(reply);
  const auto& t = wl::kStatsResponseLayout;
  ASSERT_EQ(bytes.size(), wl::kStatsResponseBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWU");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "shards"), 4), 3u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "requests"), 8), 101u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "ok"), 8), 90u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "errors"), 8), 11u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "sets_registered"), 8), 7u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "deltas"), 8), 6u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "delta_splices"), 8), 5u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "sets_evicted"), 8), 4u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "delta_dirty_columns"), 8), 1234u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_requests"), 8), 44u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_fragments"), 8), 55u);
}

// --- Frozen v7: rows and golden bytes -------------------------------------
// Everything above reads frames back through the tables, so a table edit
// that moves bytes moves the expectations with it. The cases below are
// literal: a copy of every v7 row and one golden byte string per frame
// kind, written from the protocol description rather than from the tables
// or the codec. Editing a v7 row, or any codec change that moves a byte,
// fails here.

struct FrozenRow {
  const char* name;
  size_t offset;
  size_t size;
};

template <size_t N, size_t M>
void ExpectRows(const wl::WireField (&table)[N], const FrozenRow (&want)[M],
                const char* frame) {
  ASSERT_EQ(N, M) << frame;
  for (size_t i = 0; i < M; ++i) {
    EXPECT_STREQ(table[i].name, want[i].name) << frame << " row " << i;
    EXPECT_EQ(table[i].offset, want[i].offset) << frame << "." << want[i].name;
    EXPECT_EQ(table[i].size, want[i].size) << frame << "." << want[i].name;
  }
}

TEST(WireLayoutTest, FrozenV7RowsMatchTheTables) {
  constexpr FrozenRow kRequest[] = {
      {"magic", 0, 4},        {"version", 4, 4},      {"metric", 8, 1},
      {"flags", 9, 1},        {"reserved", 10, 2},    {"width", 12, 4},
      {"height", 16, 4},      {"domain_lo_x", 20, 8}, {"domain_lo_y", 28, 8},
      {"domain_hi_x", 36, 8}, {"domain_hi_y", 44, 8}, {"set_hash", 52, 8},
      {"circle_count", 60, 8},
  };
  constexpr FrozenRow kResponse[] = {
      {"magic", 0, 4},  {"version", 4, 4},   {"status", 8, 1},
      {"from_cache", 9, 1}, {"reserved", 10, 2}, {"error_len", 12, 4},
  };
  constexpr FrozenRow kDelta[] = {
      {"magic", 0, 4},        {"version", 4, 4},      {"metric", 8, 1},
      {"flags", 9, 1},        {"reserved", 10, 2},    {"width", 12, 4},
      {"height", 16, 4},      {"domain_lo_x", 20, 8}, {"domain_lo_y", 28, 8},
      {"domain_hi_x", 36, 8}, {"domain_hi_y", 44, 8}, {"base_hash", 52, 8},
      {"new_hash", 60, 8},    {"edit_count", 68, 8},
  };
  constexpr FrozenRow kTile[] = {
      {"magic", 0, 4},        {"version", 4, 4},      {"metric", 8, 1},
      {"flags", 9, 1},        {"reserved", 10, 2},    {"width", 12, 4},
      {"height", 16, 4},      {"domain_lo_x", 20, 8}, {"domain_lo_y", 28, 8},
      {"domain_hi_x", 36, 8}, {"domain_hi_y", 44, 8}, {"set_hash", 52, 8},
      {"circle_count", 60, 8}, {"tile_rows", 68, 4},  {"tile_cols", 72, 4},
      {"tile_id", 76, 4},
  };
  constexpr FrozenRow kStatsRequest[] = {
      {"magic", 0, 4}, {"version", 4, 4}, {"reserved", 8, 4}};
  constexpr FrozenRow kStatsResponse[] = {
      {"magic", 0, 4},
      {"version", 4, 4},
      {"shards", 8, 4},
      {"requests", 12, 8},
      {"ok", 20, 8},
      {"errors", 28, 8},
      {"sets_registered", 36, 8},
      {"deltas", 44, 8},
      {"delta_splices", 52, 8},
      {"sets_evicted", 60, 8},
      {"delta_dirty_columns", 68, 8},
      {"tile_requests", 76, 8},
      {"tile_fragments", 84, 8},
  };
  constexpr FrozenRow kCircle[] = {{"center_x", 0, 8},
                                   {"center_y", 8, 8},
                                   {"radius", 16, 8},
                                   {"client", 24, 4}};
  ExpectRows(wl::kRequestLayout, kRequest, "request");
  ExpectRows(wl::kResponseLayout, kResponse, "response");
  ExpectRows(wl::kDeltaLayout, kDelta, "delta");
  ExpectRows(wl::kTileLayout, kTile, "tile");
  ExpectRows(wl::kStatsRequestLayout, kStatsRequest, "stats_request");
  ExpectRows(wl::kStatsResponseLayout, kStatsResponse, "stats_response");
  ExpectRows(wl::kCircleLayout, kCircle, "circle");
}

// Hex digits to bytes (the golden literals below are 32 bytes a line).
std::vector<uint8_t> Hex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// The two circles the golden request frames carry.
constexpr NnCircle kGoldenA{{0.5, -0.25}, 0.125, 7};
constexpr NnCircle kGoldenB{{-1.5, 2.0}, 0.75, 9};

void ExpectSameCircle(const NnCircle& got, const NnCircle& want) {
  EXPECT_EQ(got.center, want.center);
  EXPECT_EQ(got.radius, want.radius);
  EXPECT_EQ(got.client, want.client);
}

TEST(WireLayoutTest, GoldenV7InlineRequest) {
  // L2, 3x2 over [-1,3]x[-2,4.5], two circles inline; the hash is the
  // set's content hash (FNV-1a over metric and circles).
  const std::vector<uint8_t> golden = Hex(
      "524e575107000000020100000300000002000000000000000000f0bf00000000"
      "000000c000000000000008400000000000001240d238f9ccce72bde702000000"
      "00000000000000000000e03f000000000000d0bf000000000000c03f07000000"
      "000000000000f8bf0000000000000040000000000000e83f09000000");
  const auto set = CircleSetSnapshot::Make({kGoldenA, kGoldenB}, Metric::kL2);
  EXPECT_EQ(EncodeRequest(MakeWireRequest(*set, Rect{{-1, -2}, {3, 4.5}}, 3,
                                          2, /*include_circles=*/true)),
            golden);
  std::string error;
  const auto decoded = DecodeRequest(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->metric, Metric::kL2);
  EXPECT_EQ(decoded->set_hash, 0xe7bd72ceccf938d2ull);
  EXPECT_TRUE(decoded->inline_circles);
  EXPECT_EQ(decoded->domain, (Rect{{-1, -2}, {3, 4.5}}));
  EXPECT_EQ(decoded->width, 3);
  EXPECT_EQ(decoded->height, 2);
  ASSERT_EQ(decoded->circles.size(), 2u);
  ExpectSameCircle(decoded->circles[0], kGoldenA);
  ExpectSameCircle(decoded->circles[1], kGoldenB);
}

TEST(WireLayoutTest, GoldenV7ByReferenceRequest) {
  const std::vector<uint8_t> golden = Hex(
      "524e5751070000000100000080020000e0010000000000000000000000000000"
      "00000000000000000000f03f000000000000f03fefcdab896745230100000000"
      "00000000");
  WireRequest request;
  request.metric = Metric::kL1;
  request.set_hash = 0x0123456789abcdefull;
  request.domain = Rect{{0, 0}, {1, 1}};
  request.width = 640;
  request.height = 480;
  EXPECT_EQ(EncodeRequest(request), golden);
  std::string error;
  const auto decoded = DecodeRequest(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->metric, Metric::kL1);
  EXPECT_EQ(decoded->set_hash, 0x0123456789abcdefull);
  EXPECT_FALSE(decoded->inline_circles);
  EXPECT_TRUE(decoded->circles.empty());
  EXPECT_EQ(decoded->domain, (Rect{{0, 0}, {1, 1}}));
  EXPECT_EQ(decoded->width, 640);
  EXPECT_EQ(decoded->height, 480);
}

TEST(WireLayoutTest, GoldenV7TileRequest) {
  // L-inf, 64x32 over [0,2]x[0,1], one circle inline, tile 4 of 2x3.
  const std::vector<uint8_t> golden = Hex(
      "524e574c07000000000100004000000020000000000000000000000000000000"
      "000000000000000000000040000000000000f03fdd854e920c7ee20f01000000"
      "00000000020000000300000004000000000000000000e03f000000000000d0bf"
      "000000000000c03f07000000");
  const auto set = CircleSetSnapshot::Make({kGoldenA}, Metric::kLInf);
  EXPECT_EQ(EncodeTileRequest(MakeWireTileRequest(
                *set, Rect{{0, 0}, {2, 1}}, 64, 32, /*include_circles=*/true,
                /*tile_rows=*/2, /*tile_cols=*/3, /*tile_id=*/4)),
            golden);
  std::string error;
  const auto decoded = DecodeTileRequest(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->metric, Metric::kLInf);
  EXPECT_EQ(decoded->set_hash, 0x0fe27e0c924e85ddull);
  EXPECT_TRUE(decoded->inline_circles);
  EXPECT_EQ(decoded->domain, (Rect{{0, 0}, {2, 1}}));
  EXPECT_EQ(decoded->width, 64);
  EXPECT_EQ(decoded->height, 32);
  EXPECT_EQ(decoded->tile_rows, 2);
  EXPECT_EQ(decoded->tile_cols, 3);
  EXPECT_EQ(decoded->tile_id, 4);
  ASSERT_EQ(decoded->circles.size(), 1u);
  ExpectSameCircle(decoded->circles[0], kGoldenA);
}

TEST(WireLayoutTest, GoldenV7DeltaRequestWithEveryEditKind) {
  // An edit record is a u8 kind, then a u32 index (replace, swap-remove)
  // and a circle record (replace, append).
  const std::vector<uint8_t> golden = Hex(
      "524e574407000000010000001000000008000000000000000000f0bf00000000"
      "0000f0bf000000000000f03f000000000000f03f111111111111111122222222"
      "2222222203000000000000000005000000000000000000e03f000000000000d0"
      "bf000000000000c03f0700000001000000000000f8bf00000000000000400000"
      "00000000e83f090000000202000000");
  WireDeltaRequest request;
  request.metric = Metric::kL1;
  request.base_hash = 0x1111111111111111ull;
  request.new_hash = 0x2222222222222222ull;
  request.domain = Rect{{-1, -1}, {1, 1}};
  request.width = 16;
  request.height = 8;
  request.edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 5, kGoldenA},
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0, kGoldenB},
      CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 2, NnCircle{}},
  };
  EXPECT_EQ(EncodeDeltaRequest(request), golden);
  std::string error;
  const auto decoded = DecodeDeltaRequest(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->metric, Metric::kL1);
  EXPECT_EQ(decoded->base_hash, 0x1111111111111111ull);
  EXPECT_EQ(decoded->new_hash, 0x2222222222222222ull);
  EXPECT_EQ(decoded->domain, (Rect{{-1, -1}, {1, 1}}));
  EXPECT_EQ(decoded->width, 16);
  EXPECT_EQ(decoded->height, 8);
  ASSERT_EQ(decoded->edits.size(), 3u);
  EXPECT_EQ(decoded->edits[0].kind, CircleSetEdit::Kind::kReplace);
  EXPECT_EQ(decoded->edits[0].index, 5u);
  ExpectSameCircle(decoded->edits[0].circle, kGoldenA);
  EXPECT_EQ(decoded->edits[1].kind, CircleSetEdit::Kind::kAppend);
  ExpectSameCircle(decoded->edits[1].circle, kGoldenB);
  EXPECT_EQ(decoded->edits[2].kind, CircleSetEdit::Kind::kSwapRemove);
  EXPECT_EQ(decoded->edits[2].index, 2u);
}

// The 17 stats words of a success response, in wire order.
std::vector<uint64_t> StatsWords(const HeatmapResponse& r) {
  return {r.stats.num_circles,         r.stats.num_skipped_circles,
          r.stats.num_events,          r.stats.num_labelings,
          r.stats.num_merged_intervals, r.stats.num_elements_walked,
          r.l2_stats.num_circles,      r.l2_stats.num_skipped_circles,
          r.l2_stats.num_events,       r.l2_stats.num_cross_events,
          r.l2_stats.num_labelings,    r.cache.hits,
          r.cache.misses,              r.cache.insertions,
          r.cache.evictions,           r.cache.entries,
          r.cache.bytes};
}

TEST(WireLayoutTest, GoldenV7OkResponseWithCountGrid) {
  // from_cache, stats words 1..17, then an RNHM v2 u16-count grid.
  const std::vector<uint8_t> golden = Hex(
      "524e575307000000000100000000000001000000000000000200000000000000"
      "0300000000000000040000000000000005000000000000000600000000000000"
      "0700000000000000080000000000000009000000000000000a00000000000000"
      "0b000000000000000c000000000000000d000000000000000e00000000000000"
      "0f0000000000000010000000000000001100000000000000524e484d02000000"
      "020000000200000000000000000000000000000000000000000000000000f03f"
      "000000000000f03f01000000000000000000010002002c01");
  HeatmapResponse response{
      HeatmapGrid(2, 2, Rect{{0, 0}, {1, 1}}, {0.0, 1.0, 2.0, 300.0}),
      CrestStats{},
      CrestL2Stats{},
      /*from_cache=*/true,
      SweepCacheStats{}};
  response.stats = {1, 2, 3, 4, 5, 6};
  response.l2_stats = {7, 8, 9, 10, 11};
  response.cache.hits = 12;
  response.cache.misses = 13;
  response.cache.insertions = 14;
  response.cache.evictions = 15;
  response.cache.entries = 16;
  response.cache.bytes = 17;
  EXPECT_EQ(EncodeResponse(response), golden);
  PackedHeatmapResponse packed{
      std::make_shared<const PackedGrid>(PackedGrid::Pack(response.grid)),
      response.stats, response.l2_stats, response.from_cache, response.cache};
  EXPECT_EQ(EncodeResponse(packed), golden);

  std::string error;
  const auto decoded = DecodeResponse(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kOk);
  ASSERT_TRUE(decoded->response.has_value());
  EXPECT_TRUE(decoded->response->from_cache);
  std::vector<uint64_t> want(17);
  for (size_t i = 0; i < want.size(); ++i) want[i] = i + 1;
  EXPECT_EQ(StatsWords(*decoded->response), want);
  EXPECT_EQ(decoded->response->grid.values(),
            (std::vector<double>{0.0, 1.0, 2.0, 300.0}));
  EXPECT_EQ(decoded->response->grid.domain(), (Rect{{0, 0}, {1, 1}}));
}

TEST(WireLayoutTest, GoldenV7OkResponseWithF64Grid) {
  const std::vector<uint8_t> golden = Hex(
      "524e575307000000000000000000000000000000000000000000000000000000"
      "0000000000000000020000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000000000524e484d02000000"
      "0200000001000000000000000000f0bf0000000000000000000000000000f03f"
      "000000000000e03f0000000000000000000000000000e03f0000000000000840");
  HeatmapResponse response{
      HeatmapGrid(2, 1, Rect{{-1, 0}, {1, 0.5}}, {0.5, 3.0}), CrestStats{},
      CrestL2Stats{}, /*from_cache=*/false, SweepCacheStats{}};
  response.stats.num_labelings = 2;
  EXPECT_EQ(EncodeResponse(response), golden);

  std::string error;
  const auto decoded = DecodeResponse(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_TRUE(decoded->response.has_value());
  EXPECT_FALSE(decoded->response->from_cache);
  EXPECT_EQ(decoded->response->stats.num_labelings, 2u);
  EXPECT_EQ(decoded->response->grid.values(),
            (std::vector<double>{0.5, 3.0}));
  EXPECT_EQ(decoded->response->grid.domain(), (Rect{{-1, 0}, {1, 0.5}}));
}

TEST(WireLayoutTest, GoldenV7ErrorResponse) {
  const std::vector<uint8_t> golden =
      Hex("524e57530700000002000000040000006e6f7065");
  EXPECT_EQ(EncodeErrorResponse(WireStatus::kUnknownCircleSet, "nope"),
            golden);
  std::string error;
  const auto decoded = DecodeResponse(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);
  EXPECT_EQ(decoded->error, "nope");
  EXPECT_FALSE(decoded->response.has_value());
}

TEST(WireLayoutTest, GoldenV7StatsFrames) {
  const std::vector<uint8_t> request = Hex("524e57540700000000000000");
  EXPECT_EQ(EncodeStatsRequest(), request);
  EXPECT_TRUE(DecodeStatsRequest(request).ok());

  const std::vector<uint8_t> golden = Hex(
      "524e5755070000000300000065000000000000005a000000000000000b000000"
      "0000000007000000000000000600000000000000050000000000000004000000"
      "00000000d2040000000000002c000000000000003700000000000000");
  WireStatsReply reply;
  reply.shards = 3;
  reply.requests = 101;
  reply.ok = 90;
  reply.errors = 11;
  reply.sets_registered = 7;
  reply.deltas = 6;
  reply.delta_splices = 5;
  reply.sets_evicted = 4;
  reply.delta_dirty_columns = 1234;
  reply.tile_requests = 44;
  reply.tile_fragments = 55;
  EXPECT_EQ(EncodeStatsResponse(reply), golden);
  std::string error;
  const auto decoded = DecodeStatsResponse(golden, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->shards, 3u);
  EXPECT_EQ(decoded->requests, 101u);
  EXPECT_EQ(decoded->ok, 90u);
  EXPECT_EQ(decoded->errors, 11u);
  EXPECT_EQ(decoded->sets_registered, 7u);
  EXPECT_EQ(decoded->deltas, 6u);
  EXPECT_EQ(decoded->delta_splices, 5u);
  EXPECT_EQ(decoded->sets_evicted, 4u);
  EXPECT_EQ(decoded->delta_dirty_columns, 1234u);
  EXPECT_EQ(decoded->tile_requests, 44u);
  EXPECT_EQ(decoded->tile_fragments, 55u);
}

TEST(WireLayoutTest, TablesAreContiguousAndSizedAsDeclared) {
  EXPECT_TRUE(wl::Contiguous(wl::kRequestLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kResponseLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kDeltaLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kTileLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kStatsRequestLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kStatsResponseLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kCircleLayout));
  EXPECT_EQ(wl::TotalBytes(wl::kRequestLayout), wl::kRequestHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kResponseLayout),
            wl::kResponseHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kDeltaLayout), wl::kDeltaHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kTileLayout), wl::kTileHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kStatsRequestLayout),
            wl::kStatsRequestBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kStatsResponseLayout),
            wl::kStatsResponseBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kCircleLayout), wl::kCircleBytes);
}

}  // namespace
}  // namespace rnnhm
