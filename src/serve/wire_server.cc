#include "serve/wire_server.h"

#include <optional>
#include <string>
#include <utility>

#include "serve/frame_buffer.h"

namespace rnnhm {

std::vector<uint8_t> WireServer::HandleFrame(std::span<const uint8_t> frame,
                                             RegistrationScope* scope) {
  ++stats_.requests;
  std::vector<uint8_t> reply;
  Status status;
  std::string decode_error;
  std::optional<PackedHeatmapResponse> response;
  if (IsStatsRequest(frame)) {
    status = DecodeStatsRequest(frame);
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
    }
  } else if (IsDeltaRequest(frame)) {
    const std::optional<WireDeltaRequest> request =
        DecodeDeltaRequest(frame, &decode_error);
    status = request.has_value() ? ServeDelta(*request, scope, &response)
                                 : Status::InvalidArgument(decode_error);
  } else if (IsTileRequest(frame)) {
    ++stats_.tile_requests;
    std::optional<WireTileRequest> request =
        DecodeTileRequest(frame, &decode_error);
    CircleSetHandle handle;
    status = request.has_value() ? ResolveSet(*request, scope, &handle)
                                 : Status::InvalidArgument(decode_error);
    if (status.ok()) {
      status = engine_.ExecuteTileFragmentChecked(
          HeatmapRequestV2{handle, request->domain, request->width,
                           request->height},
          request->tile_rows, request->tile_cols, request->tile_id,
          &response);
    }
    if (status.ok()) ++stats_.tile_fragments;
  } else {
    std::optional<WireRequest> request = DecodeRequest(frame, &decode_error);
    CircleSetHandle handle;
    status = request.has_value() ? ResolveSet(*request, scope, &handle)
                                 : Status::InvalidArgument(decode_error);
    if (status.ok()) {
      status = engine_.ExecuteChecked(
          HeatmapRequestV2{handle, request->domain, request->width,
                           request->height},
          &response);
    }
  }
  if (!status.ok()) {
    ++stats_.errors;
    return EncodeErrorResponse(ToWireStatus(status.code), status.message);
  }
  ++stats_.ok;
  return response.has_value() ? EncodeResponse(*response) : reply;
}

Status WireServer::ResolveSet(WireRequest& request, RegistrationScope* scope,
                              CircleSetHandle* handle) {
  CircleSetRegistry& registry = engine_.registry();
  if (request.inline_circles) {
    const size_t before = registry.size();
    *handle = registry.Register(std::move(request.circles), request.metric);
    if (registry.size() > before) ++stats_.sets_registered;
    if (scope != nullptr) scope->Track(*handle);
  } else {
    *handle = registry.FindByHash(request.set_hash);
  }
  std::shared_ptr<const CircleSetSnapshot> set =
      handle->valid() ? registry.Resolve(*handle) : nullptr;
  if (set == nullptr) {
    return Status::NotFound(
        "circle set is not registered on this shard (never carried "
        "inline, released, or evicted)");
  }
  if (!request.inline_circles && set->content_hash() != request.set_hash) {
    // The bucket matched but the content does not hash to the asked-for
    // value: a 64-bit collision resolved a different set. Refusing is the
    // only correct answer — serving it would be silently wrong.
    return Status::NotFound(
        "registered set under this hash has different content "
        "(64-bit hash collision)");
  }
  if (set->metric() != request.metric) {
    return Status::InvalidArgument(
        "request metric disagrees with the registered set");
  }
  return Status::Ok();
}

Status WireServer::ServeDelta(const WireDeltaRequest& request,
                              RegistrationScope* scope,
                              std::optional<PackedHeatmapResponse>* response) {
  CircleSetRegistry& registry = engine_.registry();
  const CircleSetHandle base = registry.FindByHash(request.base_hash);
  std::shared_ptr<const CircleSetSnapshot> base_set =
      base.valid() ? registry.Resolve(base) : nullptr;
  // Verify the resolved content actually hashes to the requested base
  // hash: under a 64-bit collision the bucket can resolve a set the
  // client never meant, and deriving from it would serve a wrong map.
  if (base_set == nullptr || base_set->content_hash() != request.base_hash) {
    return Status::NotFound(
        "delta base circle set is not registered on this shard "
        "(released, evicted, or never seen here)");
  }
  if (base_set->metric() != request.metric) {
    return Status::InvalidArgument(
        "delta metric disagrees with the registered base");
  }
  CircleSetHandle derived;
  bool spliced = false;
  IncrementalRasterStats splice_stats;
  const Status status = engine_.ExecuteDeltaChecked(
      base, request.edits, request.new_hash, request.domain, request.width,
      request.height, &derived, response, &spliced, &splice_stats);
  if (!status.ok()) return status;
  if (scope != nullptr) scope->Track(derived);
  ++stats_.deltas;
  if (spliced) {
    ++stats_.delta_splices;
    stats_.delta_dirty_columns +=
        static_cast<uint64_t>(splice_stats.dirty_columns);
  }
  return Status::Ok();
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

}  // namespace rnnhm
