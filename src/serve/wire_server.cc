#include "serve/wire_server.h"

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "serve/frame_buffer.h"

namespace rnnhm {

namespace {

// One frame's worth of raster-size sanity, shared by the plain and delta
// request paths.
bool OverPixelCeiling(int width, int height) {
  return static_cast<uint64_t>(width) * static_cast<uint64_t>(height) >
         kMaxWirePixels;
}

}  // namespace

std::vector<uint8_t> WireServer::HandleFrame(std::span<const uint8_t> frame,
                                             RegistrationScope* scope) {
  ++stats_.requests;
  std::vector<uint8_t> reply;
  WireStatus wire_status = WireStatus::kOk;
  if (IsStatsRequest(frame)) {
    const Status status = DecodeStatsRequest(frame);
    if (status.ok()) {
      WireStatsReply stats_reply;
      stats_reply.shards = 1;
      stats_reply.requests = stats_.requests;
      stats_reply.ok = stats_.ok + 1;  // count this very request as served
      stats_reply.errors = stats_.errors;
      stats_reply.sets_registered = stats_.sets_registered;
      stats_reply.deltas = stats_.deltas;
      stats_reply.delta_splices = stats_.delta_splices;
      stats_reply.sets_evicted = engine_.registry().total_evicted();
      stats_reply.delta_dirty_columns = stats_.delta_dirty_columns;
      stats_reply.tile_requests = stats_.tile_requests;
      stats_reply.tile_fragments = stats_.tile_fragments;
      reply = EncodeStatsResponse(stats_reply);
    } else {
      wire_status = ToWireStatus(status.code);
      reply = EncodeErrorResponse(wire_status, status.message);
    }
  } else if (IsDeltaRequest(frame)) {
    std::string decode_error;
    std::optional<WireDeltaRequest> request =
        DecodeDeltaRequest(frame, &decode_error);
    if (!request.has_value()) {
      wire_status = WireStatus::kMalformedRequest;
      reply = EncodeErrorResponse(wire_status, decode_error);
    } else if (OverPixelCeiling(request->width, request->height)) {
      wire_status = WireStatus::kMalformedRequest;
      reply = EncodeErrorResponse(wire_status,
                                  "raster exceeds the pixel ceiling");
    } else {
      CircleSetRegistry& registry = engine_.registry();
      const CircleSetHandle base = registry.FindByHash(request->base_hash);
      std::shared_ptr<const CircleSetSnapshot> base_set =
          base.valid() ? registry.Resolve(base) : nullptr;
      // Verify the resolved content actually hashes to the requested base
      // hash: under a 64-bit collision the bucket can resolve a set the
      // client never meant, and deriving from it would serve a wrong map.
      if (base_set == nullptr ||
          base_set->content_hash() != request->base_hash) {
        wire_status = WireStatus::kUnknownCircleSet;
        reply = EncodeErrorResponse(
            wire_status,
            "delta base circle set is not registered on this shard "
            "(released, evicted, or never seen here)");
      } else if (base_set->metric() != request->metric) {
        wire_status = WireStatus::kMalformedRequest;
        reply = EncodeErrorResponse(
            wire_status, "delta metric disagrees with the registered base");
      } else {
        CircleSetHandle derived;
        std::optional<PackedHeatmapResponse> response;
        bool spliced = false;
        IncrementalRasterStats splice_stats;
        const Status status = engine_.ExecuteDeltaChecked(
            base, request->edits, request->new_hash, request->domain,
            request->width, request->height, &derived, &response, &spliced,
            &splice_stats);
        if (status.ok()) {
          if (scope != nullptr) scope->Track(derived);
          ++stats_.deltas;
          if (spliced) {
            ++stats_.delta_splices;
            stats_.delta_dirty_columns +=
                static_cast<uint64_t>(splice_stats.dirty_columns);
          }
          reply = EncodeResponse(*response);
        } else {
          wire_status = ToWireStatus(status.code);
          reply = EncodeErrorResponse(wire_status, status.message);
        }
      }
    }
  } else if (IsTileRequest(frame)) {
    ++stats_.tile_requests;
    std::string decode_error;
    std::optional<WireTileRequest> request =
        DecodeTileRequest(frame, &decode_error);
    if (!request.has_value()) {
      wire_status = WireStatus::kMalformedRequest;
      reply = EncodeErrorResponse(wire_status, decode_error);
    } else if (OverPixelCeiling(request->width, request->height)) {
      wire_status = WireStatus::kMalformedRequest;
      reply = EncodeErrorResponse(wire_status,
                                  "raster exceeds the pixel ceiling");
    } else {
      CircleSetRegistry& registry = engine_.registry();
      CircleSetHandle handle;
      if (request->inline_circles) {
        const size_t before = registry.size();
        handle =
            registry.Register(std::move(request->circles), request->metric);
        if (registry.size() > before) ++stats_.sets_registered;
        if (scope != nullptr) scope->Track(handle);
      } else {
        handle = registry.FindByHash(request->set_hash);
      }
      std::shared_ptr<const CircleSetSnapshot> set =
          handle.valid() ? registry.Resolve(handle) : nullptr;
      if (set == nullptr) {
        wire_status = WireStatus::kUnknownCircleSet;
        reply = EncodeErrorResponse(
            wire_status,
            "circle set is not registered on this shard (never carried "
            "inline, released, or evicted)");
      } else if (!request->inline_circles &&
                 set->content_hash() != request->set_hash) {
        wire_status = WireStatus::kUnknownCircleSet;
        reply = EncodeErrorResponse(
            wire_status,
            "registered set under this hash has different content "
            "(64-bit hash collision)");
      } else if (set->metric() != request->metric) {
        wire_status = WireStatus::kMalformedRequest;
        reply = EncodeErrorResponse(
            wire_status, "request metric disagrees with the registered set");
      } else {
        std::optional<PackedHeatmapResponse> response;
        const Status status = engine_.ExecuteTileFragmentChecked(
            HeatmapRequestV2{handle, request->domain, request->width,
                             request->height},
            request->tile_rows, request->tile_cols, request->tile_id,
            &response);
        if (status.ok()) {
          ++stats_.tile_fragments;
          reply = EncodeResponse(*response);
        } else {
          wire_status = ToWireStatus(status.code);
          reply = EncodeErrorResponse(wire_status, status.message);
        }
      }
    }
  } else {
    std::string decode_error;
    std::optional<WireRequest> request = DecodeRequest(frame, &decode_error);
    if (!request.has_value()) {
      wire_status = WireStatus::kMalformedRequest;
      reply = EncodeErrorResponse(wire_status, decode_error);
    } else if (OverPixelCeiling(request->width, request->height)) {
      wire_status = WireStatus::kMalformedRequest;
      reply = EncodeErrorResponse(wire_status,
                                  "raster exceeds the pixel ceiling");
    } else {
      CircleSetRegistry& registry = engine_.registry();
      CircleSetHandle handle;
      if (request->inline_circles) {
        const size_t before = registry.size();
        handle =
            registry.Register(std::move(request->circles), request->metric);
        if (registry.size() > before) ++stats_.sets_registered;
        if (scope != nullptr) scope->Track(handle);
      } else {
        handle = registry.FindByHash(request->set_hash);
      }
      std::shared_ptr<const CircleSetSnapshot> set =
          handle.valid() ? registry.Resolve(handle) : nullptr;
      if (set == nullptr) {
        wire_status = WireStatus::kUnknownCircleSet;
        reply = EncodeErrorResponse(
            wire_status,
            "circle set is not registered on this shard (never carried "
            "inline, released, or evicted)");
      } else if (!request->inline_circles &&
                 set->content_hash() != request->set_hash) {
        // The bucket matched but the content does not hash to the asked-for
        // value: a 64-bit collision resolved a different set. Refusing is
        // the only correct answer — serving it would be silently wrong.
        wire_status = WireStatus::kUnknownCircleSet;
        reply = EncodeErrorResponse(
            wire_status,
            "registered set under this hash has different content "
            "(64-bit hash collision)");
      } else if (set->metric() != request->metric) {
        wire_status = WireStatus::kMalformedRequest;
        reply = EncodeErrorResponse(
            wire_status, "request metric disagrees with the registered set");
      } else {
        std::optional<PackedHeatmapResponse> response;
        const Status status = engine_.ExecuteChecked(
            HeatmapRequestV2{handle, request->domain, request->width,
                             request->height},
            &response);
        if (status.ok()) {
          reply = EncodeResponse(*response);
        } else {
          wire_status = ToWireStatus(status.code);
          reply = EncodeErrorResponse(wire_status, status.message);
        }
      }
    }
  }
  if (wire_status == WireStatus::kOk) {
    ++stats_.ok;
  } else {
    ++stats_.errors;
  }
  return reply;
}

Status WireServer::ServeStream(ByteSource& in, ByteSink& out) {
  FrameAssembler assembler(kMaxFramePayloadBytes);
  uint8_t chunk[64 * 1024];
  for (;;) {
    while (std::optional<std::vector<uint8_t>> frame = assembler.Next()) {
      const std::vector<uint8_t> reply = HandleFrame(*frame);
      const uint32_t length = static_cast<uint32_t>(reply.size());
      uint8_t prefix[4];
      for (int i = 0; i < 4; ++i) {
        prefix[i] = static_cast<uint8_t>(length >> (8 * i));
      }
      if (!out.Write(std::span<const uint8_t>(prefix, 4)) ||
          !out.Write(reply) || !out.Flush()) {
        return Status::Unavailable("failed to write response frame");
      }
    }
    if (assembler.poisoned()) return assembler.status();
    const std::ptrdiff_t n = in.Read(chunk, sizeof(chunk));
    if (n < 0) return Status::DataLoss("read error on frame stream");
    if (n == 0) {
      if (assembler.mid_frame()) {
        return Status::DataLoss("stream truncated mid-frame");
      }
      return Status::Ok();
    }
    assembler.Feed(std::span<const uint8_t>(chunk, static_cast<size_t>(n)));
  }
}

// The legacy FILE* entry point (declared in query/wire.h): wraps the
// streams and reports the WireServer counters/error the way the old loop
// did.
bool ServeWireStream(std::FILE* in, std::FILE* out, HeatmapEngine& engine,
                     WireServeStats* stats, std::string* error) {
  WireServer server(engine);
  FileByteSource source(in);
  FileByteSink sink(out);
  const Status status = server.ServeStream(source, sink);
  if (stats != nullptr) *stats = server.stats();
  if (!status.ok() && error != nullptr) *error = status.message;
  return status.ok();
}

}  // namespace rnnhm
