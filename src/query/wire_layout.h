// The wire protocol's layout, as data.
//
// Every frame the v2–v7 codecs exchange is a hand-packed little-endian
// byte layout whose encoder, decoder, and routing peeks (PeekRouteInfo
// reads `set_hash` at a fixed offset without decoding) must agree on the
// same offsets. This header is the single declarative source of truth:
// one WireField table per frame header, plus the per-version size
// history. Three independent checkers consume it:
//
//   1. static_asserts (in src/query/wire.cc): each table is contiguous,
//      starts at offset 0, sums to the declared header size, and its
//      named offsets match the constants the codec actually reads;
//   2. tests/wire_layout_test.cc: encoders produce frames whose bytes
//      land where the tables say, for every version in the history;
//   3. tools/check_wire_layout.py: parses these tables *textually* and
//      cross-checks them against the Put* call sequences in wire.cc —
//      catching the case where code and tables are edited together but
//      wrongly.
//
// The `// wire-layout:` marker lines are load-bearing: the Python linter
// keys on them. Keep each table row in the `{"name", offset, size},`
// one-row-per-line form.
#ifndef RNNHM_QUERY_WIRE_LAYOUT_H_
#define RNNHM_QUERY_WIRE_LAYOUT_H_

#include <cstddef>
#include <cstdint>

namespace rnnhm::wire_layout {

/// One fixed-offset field of a frame header.
struct WireField {
  const char* name;
  std::size_t offset;
  std::size_t size;
};

// --- Declared sizes (bytes) -----------------------------------------------

inline constexpr std::size_t kCircleBytes = 28;
inline constexpr std::size_t kRequestHeaderBytes = 68;
inline constexpr std::size_t kResponseHeaderBytes = 16;
inline constexpr std::size_t kRequestSetHashOffset = 52;
inline constexpr std::size_t kDeltaNewHashOffset = 60;
inline constexpr std::size_t kDeltaHeaderBytes = 76;
inline constexpr std::size_t kTileIdOffset = 76;
inline constexpr std::size_t kTileHeaderBytes = 80;
inline constexpr std::size_t kStatsRequestBytes = 12;
inline constexpr std::size_t kStatsResponseBytes = 92;
/// Trailing per-request stats in a success response: 6 CrestStats +
/// 5 CrestL2Stats + 6 SweepCacheStats counters, u64 each.
inline constexpr std::size_t kResponseStatsWords = 17;

// --- Frame header layouts -------------------------------------------------
// A request's circle payload (count * kCircleBytes) follows its header; a
// delta's edit records follow kDeltaHeaderBytes; a success response's
// stats words and serialized grid follow kResponseHeaderBytes (an error
// response instead carries error_len message bytes).

// wire-layout: request bytes=68 magic=RNWQ
inline constexpr WireField kRequestLayout[] = {
    {"magic", 0, 4},
    {"version", 4, 4},
    {"metric", 8, 1},
    {"flags", 9, 1},
    {"reserved", 10, 2},
    {"width", 12, 4},
    {"height", 16, 4},
    {"domain_lo_x", 20, 8},
    {"domain_lo_y", 28, 8},
    {"domain_hi_x", 36, 8},
    {"domain_hi_y", 44, 8},
    {"set_hash", 52, 8},
    {"circle_count", 60, 8},
};

// wire-layout: response bytes=16 magic=RNWS
inline constexpr WireField kResponseLayout[] = {
    {"magic", 0, 4},
    {"version", 4, 4},
    {"status", 8, 1},
    {"from_cache", 9, 1},
    {"reserved", 10, 2},
    {"error_len", 12, 4},
};

// A delta shares the request prefix byte-for-byte with base_hash in the
// set_hash slot — PeekRouteInfo reads one offset for both frame kinds.
// wire-layout: delta bytes=76 magic=RNWD
inline constexpr WireField kDeltaLayout[] = {
    {"magic", 0, 4},
    {"version", 4, 4},
    {"metric", 8, 1},
    {"flags", 9, 1},
    {"reserved", 10, 2},
    {"width", 12, 4},
    {"height", 16, 4},
    {"domain_lo_x", 20, 8},
    {"domain_lo_y", 28, 8},
    {"domain_hi_x", 36, 8},
    {"domain_hi_y", 44, 8},
    {"base_hash", 52, 8},
    {"new_hash", 60, 8},
    {"edit_count", 68, 8},
};

// A tile request is the plain request header plus the tile grid + id.
// wire-layout: tile bytes=80 magic=RNWL
inline constexpr WireField kTileLayout[] = {
    {"magic", 0, 4},
    {"version", 4, 4},
    {"metric", 8, 1},
    {"flags", 9, 1},
    {"reserved", 10, 2},
    {"width", 12, 4},
    {"height", 16, 4},
    {"domain_lo_x", 20, 8},
    {"domain_lo_y", 28, 8},
    {"domain_hi_x", 36, 8},
    {"domain_hi_y", 44, 8},
    {"set_hash", 52, 8},
    {"circle_count", 60, 8},
    {"tile_rows", 68, 4},
    {"tile_cols", 72, 4},
    {"tile_id", 76, 4},
};

// wire-layout: stats_request bytes=12 magic=RNWT
inline constexpr WireField kStatsRequestLayout[] = {
    {"magic", 0, 4},
    {"version", 4, 4},
    {"reserved", 8, 4},
};

// wire-layout: stats_response bytes=92 magic=RNWU
inline constexpr WireField kStatsResponseLayout[] = {
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

// One encoded circle record (the payload unit of request/tile frames).
// wire-layout: circle bytes=28 magic=none
inline constexpr WireField kCircleLayout[] = {
    {"center_x", 0, 8},
    {"center_y", 8, 8},
    {"radius", 16, 8},
    {"client", 24, 4},
};

// --- Version history ------------------------------------------------------

/// Frame sizes as published by each wire version; 0 = the frame kind did
/// not exist yet. History is append-only: a released version's row never
/// changes (that would be a silent protocol break), a layout change adds
/// a row and bumps kWireVersion.
struct WireVersionInfo {
  std::uint32_t version;
  std::size_t request_header_bytes;
  std::size_t response_header_bytes;
  std::size_t stats_request_bytes;
  std::size_t stats_response_bytes;
  std::size_t delta_header_bytes;
  std::size_t tile_header_bytes;
};

// wire-layout-history: columns=request,response,stats_request,stats_response,delta,tile
inline constexpr WireVersionInfo kWireVersionHistory[] = {
    {2, 68, 16, 0, 0, 0, 0},      // first framed protocol
    {3, 68, 16, 12, 44, 0, 0},    // + stats round-trip (4 counters)
    {4, 68, 16, 12, 68, 76, 0},   // + delta frames, stats grows to 7
    {5, 68, 16, 12, 76, 76, 0},   // + eviction/dirty-column counters (8)
    {6, 68, 16, 12, 92, 76, 80},  // + tile fan-out, routing counters (10)
    {7, 68, 16, 12, 92, 76, 80},  // grid payload RNHM v2 (u16 counts)
};

// --- Compile-time checkers ------------------------------------------------

/// True when the table starts at offset 0 and every field begins exactly
/// where the previous one ends — no gap, no overlap, no reordering.
template <std::size_t N>
constexpr bool Contiguous(const WireField (&fields)[N]) {
  std::size_t expected = 0;
  for (const WireField& f : fields) {
    if (f.offset != expected) return false;
    expected = f.offset + f.size;
  }
  return true;
}

/// One past the last byte the table describes.
template <std::size_t N>
constexpr std::size_t TotalBytes(const WireField (&fields)[N]) {
  return fields[N - 1].offset + fields[N - 1].size;
}

/// Offset of the named field; compile error (via out-of-range) when the
/// name is absent, so a renamed field breaks the asserts that peek it.
template <std::size_t N>
constexpr std::size_t OffsetOf(const WireField (&fields)[N],
                               const char* name) {
  for (const WireField& f : fields) {
    // constexpr strcmp: <cstring> is not constexpr-guaranteed.
    const char* a = f.name;
    const char* b = name;
    while (*a != '\0' && *a == *b) {
      ++a;
      ++b;
    }
    if (*a == *b) return f.offset;
  }
  return static_cast<std::size_t>(-1);  // poison: trips the caller's assert
}

}  // namespace rnnhm::wire_layout

#endif  // RNNHM_QUERY_WIRE_LAYOUT_H_
