#include "query/wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/wire_layout.h"
#include "serve/byte_stream.h"
#include "serve/frame_buffer.h"
#include "serve/wire_server.h"
#include "tile/tile_plan.h"

namespace rnnhm {
namespace {

std::vector<NnCircle> MakeCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

const Rect kDomain{{-0.1, -0.1}, {1.1, 1.1}};

WireRequest InlineRequest(uint64_t seed, int n, Metric metric,
                          int size = 32) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(seed, n), metric);
  return MakeWireRequest(*set, kDomain, size, size,
                         /*include_circles=*/true);
}

void ExpectSameRequest(const WireRequest& got, const WireRequest& want) {
  EXPECT_EQ(got.metric, want.metric);
  EXPECT_EQ(got.set_hash, want.set_hash);
  EXPECT_EQ(got.inline_circles, want.inline_circles);
  EXPECT_EQ(got.domain, want.domain);
  EXPECT_EQ(got.width, want.width);
  EXPECT_EQ(got.height, want.height);
  ASSERT_EQ(got.circles.size(), want.circles.size());
  for (size_t i = 0; i < got.circles.size(); ++i) {
    EXPECT_EQ(got.circles[i].center, want.circles[i].center);
    EXPECT_EQ(got.circles[i].radius, want.circles[i].radius);
    EXPECT_EQ(got.circles[i].client, want.circles[i].client);
  }
}

TEST(WireRequestTest, InlineRoundTripPreservesEveryField) {
  const WireRequest request = InlineRequest(1, 40, Metric::kL2);
  std::string error;
  const auto decoded = DecodeRequest(EncodeRequest(request), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ExpectSameRequest(*decoded, request);
}

TEST(WireRequestTest, ByReferenceRoundTripCarriesOnlyTheHash) {
  const auto set =
      CircleSetSnapshot::Make(MakeCircles(2, 30), Metric::kLInf);
  const WireRequest request =
      MakeWireRequest(*set, kDomain, 48, 24, /*include_circles=*/false);
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  EXPECT_EQ(bytes.size(), 68u);  // header only, no circle payload
  std::string error;
  const auto decoded = DecodeRequest(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_FALSE(decoded->inline_circles);
  EXPECT_TRUE(decoded->circles.empty());
  EXPECT_EQ(decoded->set_hash, set->content_hash());
}

TEST(WireRequestTest, ZeroCircleInlineSetRoundTrips) {
  const auto set = CircleSetSnapshot::Make({}, Metric::kL1);
  const WireRequest request =
      MakeWireRequest(*set, kDomain, 8, 8, /*include_circles=*/true);
  std::string error;
  const auto decoded = DecodeRequest(EncodeRequest(request), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_TRUE(decoded->inline_circles);
  EXPECT_TRUE(decoded->circles.empty());
}

TEST(WireRequestTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const std::vector<uint8_t> bytes =
      EncodeRequest(InlineRequest(3, 10, Metric::kL2));
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(
        DecodeRequest(std::span(bytes.data(), len), &error).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(WireRequestTest, CorruptedHeaderFieldsAreRejected) {
  const std::vector<uint8_t> good =
      EncodeRequest(InlineRequest(4, 12, Metric::kLInf));
  std::string error;
  ASSERT_TRUE(DecodeRequest(good, &error).has_value());

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeRequest(bad_magic, &error).has_value());

  auto bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_FALSE(DecodeRequest(bad_version, &error).has_value());

  auto bad_metric = good;
  bad_metric[8] = 7;
  EXPECT_FALSE(DecodeRequest(bad_metric, &error).has_value());

  auto bad_flags = good;
  bad_flags[9] |= 0x80;  // undefined flag bit
  EXPECT_FALSE(DecodeRequest(bad_flags, &error).has_value());

  auto bad_reserved = good;
  bad_reserved[10] = 1;
  EXPECT_FALSE(DecodeRequest(bad_reserved, &error).has_value());

  auto bad_width = good;
  bad_width[12] = 0;
  bad_width[13] = 0;
  bad_width[14] = 0;
  bad_width[15] = 0;
  EXPECT_FALSE(DecodeRequest(bad_width, &error).has_value());
}

TEST(WireRequestTest, CorruptedCirclePayloadFailsTheContentHash) {
  const std::vector<uint8_t> good =
      EncodeRequest(InlineRequest(5, 12, Metric::kL2));
  // Flip one byte in the middle of the circle payload: the embedded
  // content hash no longer matches, so the decoder must reject it.
  auto corrupted = good;
  corrupted[68 + 40] ^= 0x01;
  std::string error;
  EXPECT_FALSE(DecodeRequest(corrupted, &error).has_value());
  EXPECT_NE(error.find("content hash"), std::string::npos);
}

TEST(WireRequestTest, TrailingBytesAreRejected) {
  auto bytes = EncodeRequest(InlineRequest(6, 8, Metric::kLInf));
  bytes.push_back(0);
  std::string error;
  EXPECT_FALSE(DecodeRequest(bytes, &error).has_value());
}

// --- Responses ------------------------------------------------------------

HeatmapResponse ComputeResponse(uint64_t seed, int n, Metric metric,
                                int size = 24) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8 << 20;  // exercise nonzero cache counters
  HeatmapEngine engine(measure, options);
  return engine.Execute(
      HeatmapRequest{MakeCircles(seed, n), kDomain, size, size, metric});
}

TEST(WireResponseTest, OkRoundTripPreservesGridStatsAndCacheCounters) {
  const HeatmapResponse response = ComputeResponse(7, 30, Metric::kL2);
  std::string error;
  const auto decoded = DecodeResponse(EncodeResponse(response), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kOk);
  ASSERT_TRUE(decoded->response.has_value());
  const HeatmapResponse& got = *decoded->response;
  EXPECT_EQ(got.grid.values(), response.grid.values());
  EXPECT_EQ(got.grid.domain(), response.grid.domain());
  EXPECT_EQ(got.l2_stats.num_labelings, response.l2_stats.num_labelings);
  EXPECT_EQ(got.l2_stats.num_cross_events,
            response.l2_stats.num_cross_events);
  EXPECT_EQ(got.from_cache, response.from_cache);
  EXPECT_EQ(got.cache.misses, response.cache.misses);
  EXPECT_EQ(got.cache.bytes, response.cache.bytes);
}

TEST(WireResponseTest, DegenerateOnePixelGridRoundTrips) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  const HeatmapResponse response = engine.Execute(
      HeatmapRequest{{}, Rect{{0, 0}, {1, 1}}, 1, 1, Metric::kLInf});
  std::string error;
  const auto decoded = DecodeResponse(EncodeResponse(response), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->response->grid.width(), 1);
  EXPECT_EQ(decoded->response->grid.height(), 1);
  EXPECT_EQ(decoded->response->grid.values(), response.grid.values());
}

TEST(WireResponseTest, ErrorResponseRoundTripsItsMessage) {
  const std::vector<uint8_t> bytes =
      EncodeErrorResponse(WireStatus::kUnknownCircleSet, "no such set");
  std::string error;
  const auto decoded = DecodeResponse(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);
  EXPECT_EQ(decoded->error, "no such set");
  EXPECT_FALSE(decoded->response.has_value());
}

TEST(WireResponseTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const std::vector<uint8_t> bytes =
      EncodeResponse(ComputeResponse(8, 10, Metric::kLInf, 6));
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(
        DecodeResponse(std::span(bytes.data(), len), &error).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

// The grid payload of a v7 response is RNHM version 2. A Size map packs
// as 16-bit counts; every way of corrupting that payload must come back as
// a decode error, never a CHECK.
class WireCountPayloadTest : public ::testing::Test {
 protected:
  static constexpr size_t kGridAt =
      wire_layout::kResponseHeaderBytes +
      wire_layout::kResponseStatsWords * sizeof(uint64_t);
  // RNHM v2 header: magic, version, width, height, 4 domain doubles, then
  // the encoding and reserved words.
  static constexpr size_t kWidthAt = kGridAt + 8;
  static constexpr size_t kHeightAt = kGridAt + 12;
  static constexpr size_t kEncodingAt = kGridAt + 48;
  static constexpr size_t kReservedAt = kGridAt + 52;
  static constexpr size_t kPayloadAt = kGridAt + 56;

  void SetUp() override {
    const HeatmapResponse response = ComputeResponse(9, 25, Metric::kLInf, 12);
    want_ = response.grid.values();
    bytes_ = EncodeResponse(response);
  }

  static void Poke32(std::vector<uint8_t>* bytes, size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      (*bytes)[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  void ExpectRejected(const std::vector<uint8_t>& bytes,
                      const std::string& reason) const {
    std::string error;
    EXPECT_FALSE(DecodeResponse(bytes, &error).has_value()) << reason;
    EXPECT_NE(error.find(reason), std::string::npos) << error;
  }

  std::vector<double> want_;
  std::vector<uint8_t> bytes_;
};

TEST_F(WireCountPayloadTest, SizeMapsTravelAsCountsAndDecodeBitExactly) {
  ASSERT_EQ(bytes_.size(), kPayloadAt + 2 * 12 * 12);
  EXPECT_EQ(bytes_[kEncodingAt], 1);
  std::string error;
  const auto decoded = DecodeResponse(bytes_, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  const std::vector<double>& got = decoded->response->grid.values();
  ASSERT_EQ(got.size(), want_.size());
  EXPECT_EQ(
      std::memcmp(got.data(), want_.data(), got.size() * sizeof(double)), 0);
}

TEST_F(WireCountPayloadTest, UnknownEncodingIsAnError) {
  std::vector<uint8_t> bytes = bytes_;
  Poke32(&bytes, kEncodingAt, 2);
  ExpectRejected(bytes, "unknown heatmap encoding");
}

TEST_F(WireCountPayloadTest, NonzeroReservedWordIsAnError) {
  std::vector<uint8_t> bytes = bytes_;
  Poke32(&bytes, kReservedAt, 1);
  ExpectRejected(bytes, "reserved heatmap header bits set");
}

TEST_F(WireCountPayloadTest, TruncatedCountPayloadIsAnError) {
  for (const size_t cut : {size_t{1}, size_t{2}, bytes_.size() - kPayloadAt}) {
    const std::vector<uint8_t> bytes(bytes_.begin(), bytes_.end() - cut);
    ExpectRejected(bytes, "truncated heatmap payload");
  }
}

TEST_F(WireCountPayloadTest, DimensionsPastTheRemainingBytesAreAnError) {
  // 2 * width * height overshoots what follows the header, up to the
  // int32 extremes (whose product would overflow a 32-bit size).
  for (const uint32_t side : {13u, 1u << 16, 0x7FFFFFFFu}) {
    std::vector<uint8_t> bytes = bytes_;
    Poke32(&bytes, kWidthAt, side);
    Poke32(&bytes, kHeightAt, side);
    ExpectRejected(bytes, "truncated heatmap payload");
  }
}

TEST_F(WireCountPayloadTest, TrailingBytesAfterACountGridAreAnError) {
  std::vector<uint8_t> bytes = bytes_;
  bytes.push_back(0);
  ExpectRejected(bytes, "trailing response bytes");
}

// --- Framing --------------------------------------------------------------

TEST(WireFrameTest, FramesRoundTripThroughAFile) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const std::vector<uint8_t> a = {1, 2, 3};
  const std::vector<uint8_t> empty;
  ASSERT_TRUE(WriteFrame(f, a));
  ASSERT_TRUE(WriteFrame(f, empty));
  std::rewind(f);
  std::string error;
  EXPECT_EQ(ReadFrame(f, &error), a);
  EXPECT_EQ(ReadFrame(f, &error), empty);
  EXPECT_FALSE(ReadFrame(f, &error).has_value());  // clean EOF
  EXPECT_TRUE(error.empty());
  std::fclose(f);
}

TEST(WireFrameTest, TruncatedFrameReportsAnError) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(WriteFrame(f, std::vector<uint8_t>{1, 2, 3, 4, 5}));
  // Drop the last byte of the payload.
  ASSERT_EQ(std::fflush(f), 0);
  std::rewind(f);
  uint8_t buffer[8];
  ASSERT_EQ(std::fread(buffer, 1, 8, f), 8u);
  std::FILE* cut = std::tmpfile();
  ASSERT_NE(cut, nullptr);
  ASSERT_EQ(std::fwrite(buffer, 1, 8, cut), 8u);
  std::rewind(cut);
  std::string error;
  EXPECT_FALSE(ReadFrame(cut, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::fclose(f);
  std::fclose(cut);
}

TEST(WireFrameTest, OversizedLengthPrefixIsRejected) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB
  ASSERT_EQ(std::fwrite(huge, 1, 4, f), 4u);
  std::rewind(f);
  std::string error;
  EXPECT_FALSE(ReadFrame(f, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::fclose(f);
}

// --- The serve loop -------------------------------------------------------

// Serves `requests` through WireServer::ServeStream over in-memory streams
// (the loop behind `rnnhm_cli serve`) and returns the response payloads in
// order; `*stats` receives the server's counters.
std::vector<std::vector<uint8_t>> ServeFrames(
    HeatmapEngine& engine, const std::vector<std::vector<uint8_t>>& requests,
    WireServeStats* stats = nullptr) {
  std::vector<uint8_t> input;
  for (const std::vector<uint8_t>& payload : requests) {
    const uint32_t length = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      input.push_back(static_cast<uint8_t>(length >> (8 * i)));
    }
    input.insert(input.end(), payload.begin(), payload.end());
  }
  WireServer server(engine);
  MemoryByteSource source(std::move(input));
  MemoryByteSink sink;
  const Status status = server.ServeStream(source, sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (stats != nullptr) *stats = server.stats();
  FrameAssembler assembler(kMaxFramePayloadBytes);
  assembler.Feed(sink.bytes());
  std::vector<std::vector<uint8_t>> replies;
  while (std::optional<std::vector<uint8_t>> frame = assembler.Next()) {
    replies.push_back(std::move(*frame));
  }
  EXPECT_FALSE(assembler.mid_frame());
  return replies;
}

TEST(ServeStreamTest, ServesInlineAndByReferenceBitIdentically) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(9, 35), Metric::kL2);
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8 << 20;
  HeatmapEngine engine(measure, options);
  WireServeStats stats;
  // Frame 1 ships the set inline; frames 2-3 reference it by hash at
  // other resolutions.
  const auto replies = ServeFrames(
      engine,
      {EncodeRequest(MakeWireRequest(*set, kDomain, 20, 20, true)),
       EncodeRequest(MakeWireRequest(*set, kDomain, 28, 28, false)),
       EncodeRequest(MakeWireRequest(*set, kDomain, 20, 20, false))},
      &stats);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sets_registered, 1u);

  // Reference responses from an identical, separately configured engine.
  SizeInfluence reference_measure;
  HeatmapEngine reference(reference_measure, options);
  const CircleSetHandle handle =
      reference.registry().Register(set->circles(), set->metric());
  const int sizes[3] = {20, 28, 20};
  // The third request repeats the first: it must have come from the
  // serve engine's cache, still bit-identical.
  ASSERT_EQ(replies.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    std::string error;
    const auto decoded = DecodeResponse(replies[i], &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    const HeatmapResponse direct = reference.Execute(
        HeatmapRequestV2{handle, kDomain, sizes[i], sizes[i]});
    EXPECT_EQ(decoded->response->grid.values(), direct.grid.values())
        << "request " << i;
  }
}

TEST(ServeStreamTest, MalformedAndUnknownRequestsGetErrorResponses) {
  const auto set =
      CircleSetSnapshot::Make(MakeCircles(10, 12), Metric::kLInf);
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServeStats stats;
  // Frame 1: garbage payload. Frame 2: well-formed by-reference request
  // whose hash was never shipped. Frame 3: a valid request — the stream
  // must keep serving after errors.
  const auto replies = ServeFrames(
      engine,
      {std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF},
       EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16, false)),
       EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16, true))},
      &stats);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 2u);

  const WireStatus expected[3] = {WireStatus::kMalformedRequest,
                                  WireStatus::kUnknownCircleSet,
                                  WireStatus::kOk};
  ASSERT_EQ(replies.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    std::string error;
    const auto decoded = DecodeResponse(replies[i], &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->status, expected[i]) << "frame " << i;
  }
}

TEST(ServeStreamTest, OversizedRasterIsRefusedPolitely) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(11, 5), Metric::kL2);
  WireRequest request = MakeWireRequest(*set, kDomain, 1, 1, true);
  request.width = 1 << 15;
  request.height = 1 << 15;  // 2^30 pixels > kMaxWirePixels
  std::string error;
  EXPECT_FALSE(DecodeRequest(EncodeRequest(request), &error).has_value());
  EXPECT_EQ(error, "raster exceeds the pixel ceiling");
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  const auto replies = ServeFrames(engine, {EncodeRequest(request)});
  ASSERT_EQ(replies.size(), 1u);
  const auto decoded = DecodeResponse(replies[0], &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kMalformedRequest);
}

// --- v3 additions: stats op, status mapping, routing peek -----------------

TEST(WireStatsTest, RequestRoundTripsAndIsRecognized) {
  const std::vector<uint8_t> bytes = EncodeStatsRequest();
  EXPECT_TRUE(IsStatsRequest(bytes));
  EXPECT_TRUE(DecodeStatsRequest(bytes).ok());
  // A heat-map request is not a stats request.
  const WireRequest request = InlineRequest(21, 8, Metric::kLInf);
  EXPECT_FALSE(IsStatsRequest(EncodeRequest(request)));
}

TEST(WireStatsTest, RequestValidationIsStrict) {
  std::vector<uint8_t> bytes = EncodeStatsRequest();
  bytes[4] ^= 0xFF;  // version
  EXPECT_FALSE(DecodeStatsRequest(bytes).ok());
  bytes = EncodeStatsRequest();
  bytes.push_back(0);  // trailing byte
  EXPECT_FALSE(DecodeStatsRequest(bytes).ok());
  bytes = EncodeStatsRequest();
  bytes.pop_back();  // short
  EXPECT_FALSE(DecodeStatsRequest(bytes).ok());
}

TEST(WireStatsTest, ResponseRoundTripsEveryCounter) {
  WireStatsReply reply;
  reply.shards = 4;
  reply.requests = 1000;
  reply.ok = 990;
  reply.errors = 10;
  reply.sets_registered = 7;
  reply.deltas = 42;
  reply.delta_splices = 40;
  reply.sets_evicted = 13;
  reply.delta_dirty_columns = 512;
  reply.tile_requests = 81;
  reply.tile_fragments = 79;
  std::string error;
  const auto decoded = DecodeStatsResponse(EncodeStatsResponse(reply), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->shards, 4u);
  EXPECT_EQ(decoded->requests, 1000u);
  EXPECT_EQ(decoded->ok, 990u);
  EXPECT_EQ(decoded->errors, 10u);
  EXPECT_EQ(decoded->sets_registered, 7u);
  EXPECT_EQ(decoded->deltas, 42u);
  EXPECT_EQ(decoded->delta_splices, 40u);
  EXPECT_EQ(decoded->sets_evicted, 13u);
  EXPECT_EQ(decoded->delta_dirty_columns, 512u);
  EXPECT_EQ(decoded->tile_requests, 81u);
  EXPECT_EQ(decoded->tile_fragments, 79u);
}

TEST(WireStatsTest, ResponseValidationIsStrict) {
  WireStatsReply reply;
  reply.shards = 1;
  std::string error;
  std::vector<uint8_t> bytes = EncodeStatsResponse(reply);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeStatsResponse(bytes, &error).has_value());
  bytes = EncodeStatsResponse(reply);
  bytes[0] ^= 1;  // magic
  EXPECT_FALSE(DecodeStatsResponse(bytes, &error).has_value());
  // shards == 0 cannot describe any server.
  reply.shards = 0;
  EXPECT_FALSE(
      DecodeStatsResponse(EncodeStatsResponse(reply), &error).has_value());
}

TEST(WireStatusMappingTest, ErrorCodesRoundTrip) {
  for (const WireStatus status :
       {WireStatus::kMalformedRequest, WireStatus::kUnknownCircleSet,
        WireStatus::kServerError}) {
    EXPECT_EQ(ToWireStatus(FromWireStatus(status)), status);
  }
  EXPECT_EQ(FromWireStatus(WireStatus::kOk), StatusCode::kOk);
}

TEST(WireStatusMappingTest, TransportCodesCollapseToServerError) {
  for (const StatusCode code :
       {StatusCode::kUnavailable, StatusCode::kDataLoss,
        StatusCode::kInternal, StatusCode::kDeadlineExceeded}) {
    EXPECT_EQ(ToWireStatus(code), WireStatus::kServerError);
  }
  // Oversized frames surface as a malformed request to the peer.
  EXPECT_EQ(ToWireStatus(StatusCode::kResourceExhausted),
            WireStatus::kMalformedRequest);
}

TEST(WireStatusMappingTest, ExitCodesAreDistinctPerStatusCode) {
  EXPECT_EQ(ExitCodeFor(Status::Ok()), 0);
  std::vector<int> codes;
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kInternal, StatusCode::kUnavailable, StatusCode::kDataLoss,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded}) {
    const int exit_code = ExitCodeFor(Status::Error(code, "x"));
    EXPECT_GT(exit_code, 2);  // 1 and 2 stay reserved for usage/generic
    for (const int seen : codes) EXPECT_NE(exit_code, seen);
    codes.push_back(exit_code);
  }
}

// --- v4 additions: delta op, routing peek, scoped registration ------------

/// Mirrors CircleSetRegistry::ApplyDelta's edit semantics on a plain
/// vector, so tests can derive the expected content independently.
void ApplyEditsLocally(std::vector<NnCircle>& circles,
                       std::span<const CircleSetEdit> edits) {
  for (const CircleSetEdit& edit : edits) {
    switch (edit.kind) {
      case CircleSetEdit::Kind::kReplace:
        circles[edit.index] = edit.circle;
        break;
      case CircleSetEdit::Kind::kAppend:
        circles.push_back(edit.circle);
        break;
      case CircleSetEdit::Kind::kSwapRemove:
        circles[edit.index] = circles.back();
        circles.pop_back();
        break;
    }
  }
}

WireDeltaRequest MakeDelta(const std::vector<NnCircle>& base,
                           std::span<const CircleSetEdit> edits,
                           Metric metric, int size) {
  std::vector<NnCircle> derived = base;
  ApplyEditsLocally(derived, edits);
  WireDeltaRequest delta;
  delta.metric = metric;
  delta.base_hash = HashCircleSet(base, metric);
  delta.new_hash = HashCircleSet(derived, metric);
  delta.edits.assign(edits.begin(), edits.end());
  delta.domain = kDomain;
  delta.width = size;
  delta.height = size;
  return delta;
}

TEST(WireDeltaTest, RoundTripPreservesEveryEditKind) {
  WireDeltaRequest request;
  request.metric = Metric::kL2;
  request.base_hash = 0x0123456789ABCDEFull;
  request.new_hash = 0xFEDCBA9876543210ull;
  request.domain = kDomain;
  request.width = 40;
  request.height = 24;
  request.edits.push_back(CircleSetEdit{CircleSetEdit::Kind::kReplace, 3,
                                        NnCircle{{0.25, 0.75}, 0.125, 9}});
  request.edits.push_back(CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                                        NnCircle{{0.5, 0.5}, 0.0625, 10}});
  request.edits.push_back(
      CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 1, NnCircle{}});

  std::string error;
  const auto decoded = DecodeDeltaRequest(EncodeDeltaRequest(request), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->metric, request.metric);
  EXPECT_EQ(decoded->base_hash, request.base_hash);
  EXPECT_EQ(decoded->new_hash, request.new_hash);
  EXPECT_EQ(decoded->domain, request.domain);
  EXPECT_EQ(decoded->width, request.width);
  EXPECT_EQ(decoded->height, request.height);
  ASSERT_EQ(decoded->edits.size(), 3u);
  EXPECT_EQ(decoded->edits[0].kind, CircleSetEdit::Kind::kReplace);
  EXPECT_EQ(decoded->edits[0].index, 3u);
  EXPECT_EQ(decoded->edits[0].circle.center, request.edits[0].circle.center);
  EXPECT_EQ(decoded->edits[0].circle.radius, request.edits[0].circle.radius);
  EXPECT_EQ(decoded->edits[0].circle.client, request.edits[0].circle.client);
  EXPECT_EQ(decoded->edits[1].kind, CircleSetEdit::Kind::kAppend);
  EXPECT_EQ(decoded->edits[1].circle.center, request.edits[1].circle.center);
  EXPECT_EQ(decoded->edits[1].circle.radius, request.edits[1].circle.radius);
  EXPECT_EQ(decoded->edits[1].circle.client, request.edits[1].circle.client);
  EXPECT_EQ(decoded->edits[2].kind, CircleSetEdit::Kind::kSwapRemove);
  EXPECT_EQ(decoded->edits[2].index, 1u);
}

TEST(WireDeltaTest, IsDeltaRequestDistinguishesFrameKinds) {
  const std::vector<NnCircle> base = MakeCircles(40, 6);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.3, 0.3}, 0.05, 6}}};
  const auto delta = MakeDelta(base, edits, Metric::kLInf, 8);
  EXPECT_TRUE(IsDeltaRequest(EncodeDeltaRequest(delta)));
  EXPECT_FALSE(IsDeltaRequest(EncodeRequest(InlineRequest(40, 6,
                                                          Metric::kLInf))));
  EXPECT_FALSE(IsDeltaRequest(EncodeStatsRequest()));
  EXPECT_FALSE(IsDeltaRequest({}));
}

TEST(WireDeltaTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const std::vector<NnCircle> base = MakeCircles(41, 5);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 2,
                    NnCircle{{0.6, 0.4}, 0.07, 2}},
      CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 0, NnCircle{}},
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.2, 0.8}, 0.09, 7}}};
  const std::vector<uint8_t> bytes =
      EncodeDeltaRequest(MakeDelta(base, edits, Metric::kL2, 16));
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(
        DecodeDeltaRequest(std::span(bytes.data(), len), &error).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(WireDeltaTest, CorruptedHeaderFieldsAreRejected) {
  const std::vector<NnCircle> base = MakeCircles(42, 4);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.1, 0.9}, 0.04, 4}}};
  const std::vector<uint8_t> good =
      EncodeDeltaRequest(MakeDelta(base, edits, Metric::kLInf, 12));
  std::string error;
  ASSERT_TRUE(DecodeDeltaRequest(good, &error).has_value()) << error;

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeDeltaRequest(bad_magic, &error).has_value());

  auto bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_FALSE(DecodeDeltaRequest(bad_version, &error).has_value());

  auto bad_metric = good;
  bad_metric[8] = 7;
  EXPECT_FALSE(DecodeDeltaRequest(bad_metric, &error).has_value());

  auto bad_flags = good;
  bad_flags[9] |= 0x80;
  EXPECT_FALSE(DecodeDeltaRequest(bad_flags, &error).has_value());

  auto bad_reserved = good;
  bad_reserved[10] = 1;
  EXPECT_FALSE(DecodeDeltaRequest(bad_reserved, &error).has_value());

  auto bad_width = good;
  bad_width[12] = 0;
  bad_width[13] = 0;
  bad_width[14] = 0;
  bad_width[15] = 0;
  EXPECT_FALSE(DecodeDeltaRequest(bad_width, &error).has_value());

  // First edit's op byte sits right after the fixed header.
  auto bad_edit_kind = good;
  bad_edit_kind[76] = 7;
  EXPECT_FALSE(DecodeDeltaRequest(bad_edit_kind, &error).has_value());

  auto trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeDeltaRequest(trailing, &error).has_value());
}

TEST(PeekRouteInfoTest, PlainRequestRoutesBySetHash) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(43, 9), Metric::kL2);
  for (const bool inline_circles : {true, false}) {
    const auto route = PeekRouteInfo(
        EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16, inline_circles)));
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->route_hash, set->content_hash());
    EXPECT_FALSE(route->is_delta);
  }
}

TEST(PeekRouteInfoTest, DeltaRoutesByBaseHashAndExposesDerived) {
  const std::vector<NnCircle> base = MakeCircles(44, 7);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 1,
                    NnCircle{{0.45, 0.55}, 0.06, 1}}};
  const auto delta = MakeDelta(base, edits, Metric::kLInf, 10);
  const auto route = PeekRouteInfo(EncodeDeltaRequest(delta));
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->is_delta);
  EXPECT_EQ(route->route_hash, delta.base_hash);
  EXPECT_EQ(route->derived_hash, delta.new_hash);
  EXPECT_NE(route->route_hash, route->derived_hash);
}

TEST(PeekRouteInfoTest, RejectsNonRequestPayloads) {
  EXPECT_FALSE(PeekRouteInfo(EncodeStatsRequest()).has_value());
  EXPECT_FALSE(PeekRouteInfo({}).has_value());
  const std::vector<uint8_t> garbage(80, 0xAB);
  EXPECT_FALSE(PeekRouteInfo(garbage).has_value());
}

// --- v6 additions: tile fragment op ---------------------------------------

WireTileRequest TileRequest(const CircleSetSnapshot& set, bool inline_circles,
                            int rows, int cols, int tile_id, int size = 24) {
  return MakeWireTileRequest(set, kDomain, size, size, inline_circles, rows,
                             cols, tile_id);
}

TEST(WireTileRequestTest, InlineRoundTripPreservesEveryField) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(81, 25), Metric::kL2);
  const WireTileRequest request =
      TileRequest(*set, /*inline_circles=*/true, 3, 4, 7);
  const std::vector<uint8_t> bytes = EncodeTileRequest(request);
  EXPECT_TRUE(IsTileRequest(bytes));
  EXPECT_FALSE(IsTileRequest(EncodeRequest(InlineRequest(81, 5, Metric::kL2))));
  std::string error;
  const auto decoded = DecodeTileRequest(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->metric, request.metric);
  EXPECT_EQ(decoded->set_hash, request.set_hash);
  EXPECT_TRUE(decoded->inline_circles);
  EXPECT_EQ(decoded->circles.size(), request.circles.size());
  EXPECT_EQ(decoded->domain, request.domain);
  EXPECT_EQ(decoded->width, request.width);
  EXPECT_EQ(decoded->height, request.height);
  EXPECT_EQ(decoded->tile_rows, 3);
  EXPECT_EQ(decoded->tile_cols, 4);
  EXPECT_EQ(decoded->tile_id, 7);
}

TEST(WireTileRequestTest, ByReferenceCarriesHeaderOnly) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(82, 10), Metric::kL1);
  const std::vector<uint8_t> bytes =
      EncodeTileRequest(TileRequest(*set, /*inline_circles=*/false, 2, 2, 3));
  EXPECT_EQ(bytes.size(), 80u);  // plain 68-byte header + three i32s
  std::string error;
  const auto decoded = DecodeTileRequest(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_FALSE(decoded->inline_circles);
  EXPECT_TRUE(decoded->circles.empty());
  EXPECT_EQ(decoded->set_hash, set->content_hash());
}

TEST(WireTileRequestTest, TileGridValidationIsStrict) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(83, 6), Metric::kLInf);
  const WireTileRequest good = TileRequest(*set, /*inline_circles=*/true, 2,
                                           3, 5);
  std::string error;
  ASSERT_TRUE(DecodeTileRequest(EncodeTileRequest(good), &error).has_value());

  // Degenerate and oversized grids, and ids outside the grid, are all
  // refused even when the rest of the frame is pristine.
  WireTileRequest bad = good;
  bad.tile_rows = 0;
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &error).has_value());
  bad = good;
  bad.tile_cols = kMaxWireTileGridSide + 1;
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &error).has_value());
  bad = good;
  bad.tile_id = 6;  // == rows * cols, one past the last tile
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &error).has_value());
  bad = good;
  bad.tile_id = -1;
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(bad), &error).has_value());
}

TEST(WireTileRequestTest, EveryTruncationDecodesToAnErrorNotACrash) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(84, 8), Metric::kL2);
  const std::vector<uint8_t> bytes =
      EncodeTileRequest(TileRequest(*set, /*inline_circles=*/true, 2, 2, 1));
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(
        DecodeTileRequest(std::span(bytes.data(), len), &error).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
  auto trailing = bytes;
  trailing.push_back(0);
  std::string error;
  EXPECT_FALSE(DecodeTileRequest(trailing, &error).has_value());
}

TEST(PeekRouteInfoTest, TileRequestRoutesBySetHashAndExposesTheTile) {
  const auto set = CircleSetSnapshot::Make(MakeCircles(85, 9), Metric::kL2);
  for (const bool inline_circles : {true, false}) {
    const auto route = PeekRouteInfo(
        EncodeTileRequest(TileRequest(*set, inline_circles, 3, 3, 5)));
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->route_hash, set->content_hash());
    EXPECT_TRUE(route->is_tile);
    EXPECT_FALSE(route->is_delta);
    EXPECT_EQ(route->tile_id, 5u);
  }
}

TEST(ServeStreamTest, TileFragmentsStitchBitIdenticallyThroughTheServer) {
  // All six tiles of a 2x3 decomposition served as wire frames, stitched
  // client-side — the reassembled raster must equal a direct Execute, and
  // the serve counters must attribute every frame to the tile op.
  const auto set = CircleSetSnapshot::Make(MakeCircles(86, 30), Metric::kL2);
  const int size = 27;
  constexpr int kRows = 2;
  constexpr int kCols = 3;
  std::vector<std::vector<uint8_t>> requests;
  for (int t = 0; t < kRows * kCols; ++t) {
    requests.push_back(EncodeTileRequest(MakeWireTileRequest(
        *set, kDomain, size, size, /*include_circles=*/t == 0, kRows, kCols,
        t)));
  }

  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServeStats stats;
  const auto replies = ServeFrames(engine, requests, &stats);
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.tile_requests, 6u);
  EXPECT_EQ(stats.tile_fragments, 6u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sets_registered, 1u);

  const std::vector<TileWindow> windows =
      TileWindows(kDomain, size, size, kRows, kCols);
  HeatmapGrid stitched(size, size, kDomain, 0.0);
  ASSERT_EQ(replies.size(), windows.size());
  for (int t = 0; t < kRows * kCols; ++t) {
    std::string error;
    const auto decoded = DecodeResponse(replies[t], &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    ASSERT_EQ(decoded->response->grid.width(), windows[t].width());
    ASSERT_EQ(decoded->response->grid.height(), windows[t].height());
    StitchFragment(windows[t], decoded->response->grid, &stitched);
  }
  SizeInfluence reference_measure;
  HeatmapEngine reference(reference_measure, options);
  const CircleSetHandle handle =
      reference.registry().Register(set->circles(), set->metric());
  const HeatmapResponse direct =
      reference.Execute(HeatmapRequestV2{handle, kDomain, size, size});
  EXPECT_EQ(stitched.values(), direct.grid.values());
}

TEST(ServeStreamTest, ChainedDeltasSpliceAndMatchFromScratch) {
  const Metric metric = Metric::kLInf;
  const int size = 20;
  const std::vector<NnCircle> base = MakeCircles(45, 24);

  const std::vector<CircleSetEdit> edits1 = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 5,
                    NnCircle{{0.35, 0.65}, 0.09, 5}},
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.85, 0.15}, 0.05, 24}}};
  std::vector<NnCircle> tick1 = base;
  ApplyEditsLocally(tick1, edits1);
  const std::vector<CircleSetEdit> edits2 = {
      CircleSetEdit{CircleSetEdit::Kind::kSwapRemove, 2, NnCircle{}},
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 0,
                    NnCircle{{0.15, 0.85}, 0.11, 0}}};
  std::vector<NnCircle> tick2 = tick1;
  ApplyEditsLocally(tick2, edits2);

  const auto base_set = CircleSetSnapshot::Make(base, metric);
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8 << 20;  // the base raster must be spliceable
  HeatmapEngine engine(measure, options);
  WireServeStats stats;
  const auto replies = ServeFrames(
      engine,
      {EncodeRequest(MakeWireRequest(*base_set, kDomain, size, size,
                                     /*include_circles=*/true)),
       EncodeDeltaRequest(MakeDelta(base, edits1, metric, size)),
       EncodeDeltaRequest(MakeDelta(tick1, edits2, metric, size)),
       EncodeStatsRequest()},
      &stats);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.ok, 4u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sets_registered, 1u);
  EXPECT_EQ(stats.deltas, 2u);
  EXPECT_EQ(stats.delta_splices, 2u);
  // Each splice recomputed a nonempty strict subset of the columns.
  EXPECT_GT(stats.delta_dirty_columns, 0u);
  EXPECT_LT(stats.delta_dirty_columns,
            static_cast<uint64_t>(size) * stats.delta_splices);

  SizeInfluence reference_measure;
  HeatmapEngine reference(reference_measure, options);
  const std::vector<NnCircle>* ticks[3] = {&base, &tick1, &tick2};
  ASSERT_EQ(replies.size(), 4u);
  std::string error;
  for (int i = 0; i < 3; ++i) {
    const auto decoded = DecodeResponse(replies[i], &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    // The from-scratch reference: a cold Execute over the tick's circles.
    const HeatmapResponse direct = reference.Execute(
        HeatmapRequest{*ticks[i], kDomain, size, size, metric});
    EXPECT_EQ(decoded->response->grid.values(), direct.grid.values())
        << "tick " << i;
  }
  const auto stats_reply = DecodeStatsResponse(replies[3], &error);
  ASSERT_TRUE(stats_reply.has_value()) << error;
  EXPECT_EQ(stats_reply->shards, 1u);
  EXPECT_EQ(stats_reply->deltas, 2u);
  EXPECT_EQ(stats_reply->delta_splices, 2u);
  EXPECT_EQ(stats_reply->sets_evicted, 0u);
  EXPECT_EQ(stats_reply->delta_dirty_columns, stats.delta_dirty_columns);
}

TEST(WireServerTest, DeltaFromUnknownBaseIsRefused) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  const std::vector<NnCircle> base = MakeCircles(46, 5);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                    NnCircle{{0.5, 0.5}, 0.05, 5}}};
  const auto reply = server.HandleFrame(
      EncodeDeltaRequest(MakeDelta(base, edits, Metric::kL2, 8)));
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);
  EXPECT_EQ(server.stats().errors, 1u);
  EXPECT_EQ(server.stats().deltas, 0u);
}

TEST(WireServerTest, CollidedHashIsRefusedOnTheWire) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  // File unrelated content under set_b's hash: the bucket matches, the
  // content does not — exactly what a 64-bit collision looks like.
  const auto set_b = CircleSetSnapshot::Make(MakeCircles(48, 6), Metric::kL2);
  engine.registry().RegisterWithHashForTesting(MakeCircles(47, 6), Metric::kL2,
                                               set_b->content_hash());
  std::string error;

  const auto by_ref_reply = server.HandleFrame(EncodeRequest(
      MakeWireRequest(*set_b, kDomain, 8, 8, /*include_circles=*/false)));
  const auto by_ref = DecodeResponse(by_ref_reply, &error);
  ASSERT_TRUE(by_ref.has_value()) << error;
  EXPECT_EQ(by_ref->status, WireStatus::kUnknownCircleSet);
  EXPECT_NE(by_ref->error.find("collision"), std::string::npos);

  WireDeltaRequest delta;
  delta.metric = Metric::kL2;
  delta.base_hash = set_b->content_hash();
  delta.new_hash = 1;
  delta.edits.push_back(CircleSetEdit{CircleSetEdit::Kind::kAppend, 0,
                                      NnCircle{{0.4, 0.6}, 0.03, 6}});
  delta.domain = kDomain;
  delta.width = 8;
  delta.height = 8;
  const auto delta_reply = server.HandleFrame(EncodeDeltaRequest(delta));
  const auto decoded = DecodeResponse(delta_reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);
}

TEST(WireServerTest, ScopedRegistrationsReleaseWhenTheScopeDies) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  const std::vector<NnCircle> base = MakeCircles(49, 8);
  const auto base_set = CircleSetSnapshot::Make(base, Metric::kLInf);
  const std::vector<CircleSetEdit> edits = {
      CircleSetEdit{CircleSetEdit::Kind::kReplace, 4,
                    NnCircle{{0.7, 0.3}, 0.08, 4}}};
  std::string error;
  {
    RegistrationScope scope(&engine.registry());
    const auto inline_reply = server.HandleFrame(
        EncodeRequest(MakeWireRequest(*base_set, kDomain, 8, 8, true)),
        &scope);
    ASSERT_EQ(DecodeResponse(inline_reply, &error)->status, WireStatus::kOk);
    const auto delta_reply = server.HandleFrame(
        EncodeDeltaRequest(MakeDelta(base, edits, Metric::kLInf, 8)), &scope);
    ASSERT_EQ(DecodeResponse(delta_reply, &error)->status, WireStatus::kOk);
    EXPECT_EQ(engine.registry().size(), 2u);  // base + derived, both tracked
  }
  // No retention budget on this registry: releasing the scope's handles
  // erases the entries outright, as a disconnect would.
  EXPECT_EQ(engine.registry().size(), 0u);
  const auto by_ref_reply = server.HandleFrame(EncodeRequest(
      MakeWireRequest(*base_set, kDomain, 8, 8, /*include_circles=*/false)));
  EXPECT_EQ(DecodeResponse(by_ref_reply, &error)->status,
            WireStatus::kUnknownCircleSet);
}

TEST(WireServerTest, EvictedHandleKeepsPinnedSnapshotAlive) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  CircleSetRegistryOptions registry_options;
  registry_options.max_unpinned_entries = 1;
  options.registry = std::make_shared<CircleSetRegistry>(registry_options);
  HeatmapEngine engine(measure, options);
  WireServer server(engine);
  const auto set = CircleSetSnapshot::Make(MakeCircles(50, 10), Metric::kLInf);
  std::string error;

  std::shared_ptr<const CircleSetSnapshot> pinned;
  {
    RegistrationScope scope(&engine.registry());
    const auto reply = server.HandleFrame(
        EncodeRequest(MakeWireRequest(*set, kDomain, 12, 12, true)), &scope);
    ASSERT_EQ(DecodeResponse(reply, &error)->status, WireStatus::kOk);
    // A request mid-flight holds the snapshot, not the registry entry.
    pinned = engine.registry().Resolve(
        engine.registry().FindByHash(set->content_hash()));
    ASSERT_NE(pinned, nullptr);
  }
  // Unpinned but retained (budget 1): still servable by hash.
  const auto retained_reply = server.HandleFrame(EncodeRequest(
      MakeWireRequest(*set, kDomain, 12, 12, /*include_circles=*/false)));
  EXPECT_EQ(DecodeResponse(retained_reply, &error)->status, WireStatus::kOk);

  // A second unpinned set overflows the budget and evicts the LRU entry.
  const CircleSetHandle filler = engine.registry().Register(
      MakeCircles(51, 3), Metric::kLInf);
  ASSERT_TRUE(engine.registry().Release(filler));
  EXPECT_GE(engine.registry().total_evicted(), 1u);

  // The wire now answers kUnknownCircleSet — while the pinned snapshot
  // (our in-flight request) is still fully intact.
  const auto evicted_reply = server.HandleFrame(EncodeRequest(
      MakeWireRequest(*set, kDomain, 12, 12, /*include_circles=*/false)));
  EXPECT_EQ(DecodeResponse(evicted_reply, &error)->status,
            WireStatus::kUnknownCircleSet);
  EXPECT_EQ(pinned->circles().size(), 10u);
  EXPECT_EQ(pinned->content_hash(), set->content_hash());
}

// --- Ingress validation: non-finite input never reaches a raster --------

constexpr Metric kAllMetrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};

// Decodes a server reply and expects a kMalformedRequest refusal whose
// message names the non-finite input.
void ExpectRefusedAsNonFinite(const std::vector<uint8_t>& reply,
                              const std::string& label) {
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << label << ": " << error;
  EXPECT_EQ(decoded->status, WireStatus::kMalformedRequest) << label;
  EXPECT_NE(decoded->error.find("non-finite"), std::string::npos)
      << label << ": " << decoded->error;
}

// Ordinary circles plus `bad` as the last one, inline in a request.
WireRequest RequestWithBadCircle(const NnCircle& bad, Metric metric,
                                 int size) {
  std::vector<NnCircle> circles = MakeCircles(61, 6);
  circles.push_back(bad);
  const auto set = CircleSetSnapshot::Make(std::move(circles), metric);
  return MakeWireRequest(*set, kDomain, size, size, /*include_circles=*/true);
}

TEST(WireIngressTest, InfiniteRadiusIsRefusedForEveryMetric) {
  // Regression: an 8x8 L2 map over a set holding a +inf-radius disk once
  // never finished. Every op that carries circles now refuses the set at
  // decode, before anything is registered or painted.
  const double inf = std::numeric_limits<double>::infinity();
  const NnCircle bad{{0.5, 0.5}, inf, 6};
  for (const Metric metric : kAllMetrics) {
    SizeInfluence measure;
    HeatmapEngineOptions options;
    options.num_threads = 1;
    HeatmapEngine engine(measure, options);
    WireServer server(engine);
    const std::string label = MetricName(metric);
    const WireRequest plain = RequestWithBadCircle(bad, metric, 8);
    ExpectRefusedAsNonFinite(server.HandleFrame(EncodeRequest(plain)),
                             label + " plain");
    WireTileRequest tile;
    tile.metric = metric;
    tile.set_hash = plain.set_hash;
    tile.inline_circles = true;
    tile.circles = plain.circles;
    tile.domain = kDomain;
    tile.width = tile.height = 8;
    tile.tile_rows = tile.tile_cols = 2;
    tile.tile_id = 0;
    ExpectRefusedAsNonFinite(server.HandleFrame(EncodeTileRequest(tile)),
                             label + " tile");
    const std::vector<NnCircle> base = MakeCircles(62, 4);
    const CircleSetEdit append{CircleSetEdit::Kind::kAppend, 0, bad};
    ExpectRefusedAsNonFinite(
        server.HandleFrame(EncodeDeltaRequest(MakeDelta(
            base, std::span<const CircleSetEdit>(&append, 1), metric, 8))),
        label + " delta");
    EXPECT_EQ(engine.registry().size(), 0u) << label;
    EXPECT_EQ(server.stats().errors, 3u) << label;
  }
}

TEST(WireIngressTest, NanCircleIsRefusedInsteadOfBlankingAnother) {
  // Regression: under L2 a circle with a NaN center or radius once blanked
  // a *different*, valid circle's pixels (12 of 64 wrong). The wire now
  // refuses such a set outright; the valid circles alone are served exact.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const NnCircle bad_circles[] = {{{nan, 0.5}, 0.2, 6},
                                  {{0.5, nan}, 0.2, 6},
                                  {{0.5, 0.5}, nan, 6}};
  for (const Metric metric : kAllMetrics) {
    SizeInfluence measure;
    HeatmapEngineOptions options;
    options.num_threads = 1;
    HeatmapEngine engine(measure, options);
    WireServer server(engine);
    for (const NnCircle& bad : bad_circles) {
      ExpectRefusedAsNonFinite(
          server.HandleFrame(EncodeRequest(RequestWithBadCircle(bad, metric,
                                                                8))),
          MetricName(metric));
    }
    const auto valid = CircleSetSnapshot::Make(MakeCircles(61, 6), metric);
    std::string error;
    const auto served = DecodeResponse(
        server.HandleFrame(EncodeRequest(MakeWireRequest(
            *valid, kDomain, 8, 8, /*include_circles=*/true))),
        &error);
    ASSERT_TRUE(served.has_value()) << error;
    ASSERT_EQ(served->status, WireStatus::kOk) << served->error;
    EXPECT_EQ(served->response->grid.values(),
              BuildHeatmapBruteForce(valid->circles(), metric, measure,
                                     kDomain, 8, 8)
                  .values())
        << MetricName(metric);
  }
}

TEST(WireIngressTest, NonFiniteDomainIsRefused) {
  const double inf = std::numeric_limits<double>::infinity();
  const Rect bad_domains[] = {{{-inf, 0.0}, {1.0, 1.0}},
                              {{0.0, 0.0}, {1.0, inf}},
                              {{-1e308, 0.0}, {1e308, 1.0}}};  // extent
  for (const Rect& domain : bad_domains) {
    WireRequest request = InlineRequest(63, 4, Metric::kLInf, 8);
    request.domain = domain;
    std::string error;
    EXPECT_FALSE(DecodeRequest(EncodeRequest(request), &error).has_value());
    EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  }
}

TEST(WireIngressTest, EveryRequestDecoderEnforcesThePixelCeiling) {
  // The ceiling lives in the shared prefix validator, so plain, tile and
  // delta frames all refuse a raster over kMaxWirePixels at decode.
  const int side = std::numeric_limits<int32_t>::max();
  const auto set = CircleSetSnapshot::Make(MakeCircles(64, 4), Metric::kL1);
  std::string error;
  const WireRequest plain = MakeWireRequest(*set, kDomain, side, side, true);
  EXPECT_FALSE(DecodeRequest(EncodeRequest(plain), &error).has_value());
  EXPECT_EQ(error, "raster exceeds the pixel ceiling");
  error.clear();
  const WireTileRequest tile =
      MakeWireTileRequest(*set, kDomain, side, side, false, 2, 2, 1);
  EXPECT_FALSE(DecodeTileRequest(EncodeTileRequest(tile), &error).has_value());
  EXPECT_EQ(error, "raster exceeds the pixel ceiling");
  error.clear();
  const WireDeltaRequest delta = MakeDelta(set->circles(), {}, Metric::kL1,
                                           /*size=*/1 << 14);
  EXPECT_FALSE(
      DecodeDeltaRequest(EncodeDeltaRequest(delta), &error).has_value());
  EXPECT_EQ(error, "raster exceeds the pixel ceiling");
  // The ceiling itself is accepted: 2^13 x 2^13 = kMaxWirePixels.
  EXPECT_TRUE(
      DecodeDeltaRequest(EncodeDeltaRequest(MakeDelta(
                             set->circles(), {}, Metric::kL1, 1 << 13)),
                         &error)
          .has_value())
      << error;
}

}  // namespace
}  // namespace rnnhm
