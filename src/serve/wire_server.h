// The transport-agnostic serving surface: one frame in, one frame out.
//
// WireServer owns the request semantics of the wire protocol — decode,
// registry interaction, engine execution, stats — with zero knowledge of
// where bytes come from. Two transports drive it:
//   * ServeStream(ByteSource, ByteSink) — the blocking loop (stdio,
//     files, in-memory tests);
//   * EventLoopServer (serve/event_loop.h) — the nonblocking socket
//     server, which reassembles frames itself (serve/frame_buffer.h) and
//     calls HandleFrame per complete frame.
//
// HandleFrame never fails: every input byte string maps to exactly one
// response payload (ok, error-status, or stats), so transports need no
// error protocol of their own — transport-level failures (truncated
// stream, dead peer) are the only thing they report, as Status.
#ifndef RNNHM_SERVE_WIRE_SERVER_H_
#define RNNHM_SERVE_WIRE_SERVER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "query/wire.h"
#include "serve/byte_stream.h"

namespace rnnhm {

/// Executes wire frames against a HeatmapEngine. Single-threaded: one
/// WireServer per serving loop (the engine behind it may be shared).
class WireServer {
 public:
  explicit WireServer(HeatmapEngine& engine) : engine_(engine) {}

  /// Serves one request frame payload, returning the response payload.
  /// Heat-map requests run through HeatmapEngine::ExecuteChecked (inline
  /// sets register into the engine's registry first); delta requests
  /// derive a new set from a registered base and run through
  /// ExecuteDeltaChecked; tile requests compute one fragment of the tiled
  /// decomposition through ExecuteTileFragmentChecked; stats requests
  /// return this server's counters; anything malformed returns an
  /// error-status response. Total: every input produces one response.
  /// The three heat-map ops take the engine's packed response, so a
  /// cache hit is encoded from the cached counts without widening.
  ///
  /// `scope`, when non-null, takes ownership of the registration bumps
  /// this frame performs (inline registers and delta derivations), so a
  /// transport that owns the scope — EventLoopServer keeps one per
  /// connection — releases them on disconnect. With a null scope the
  /// registrations persist for the engine's lifetime (what ServeStream
  /// does: later by-reference requests on the stream depend on them).
  std::vector<uint8_t> HandleFrame(std::span<const uint8_t> frame,
                                   RegistrationScope* scope = nullptr);

  /// The blocking serve loop: drains frames from `in` until end of
  /// stream, answering each on `out` in order. Returns kOk on clean EOF;
  /// kDataLoss on a stream truncated mid-frame; kResourceExhausted on an
  /// oversized frame prefix; kUnavailable when the sink fails.
  Status ServeStream(ByteSource& in, ByteSink& out);

  /// Counters since construction (served by the stats op).
  const WireServeStats& stats() const { return stats_; }

 private:
  // Finds the circle set a plain or tile request names — registering an
  // inline payload (tracked by `scope`) or looking up a by-reference hash —
  // and refuses an unknown set, a 64-bit hash collision, or a metric that
  // disagrees with the registered set.
  Status ResolveSet(WireRequest& request, RegistrationScope* scope,
                    CircleSetHandle* handle);

  // Derives the delta's set from its registered base and serves its map.
  Status ServeDelta(const WireDeltaRequest& request, RegistrationScope* scope,
                    std::optional<PackedHeatmapResponse>* response);

  HeatmapEngine& engine_;
  WireServeStats stats_;
};

}  // namespace rnnhm

#endif  // RNNHM_SERVE_WIRE_SERVER_H_
