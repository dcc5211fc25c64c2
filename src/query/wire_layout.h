// The wire protocol's layout, as data.
//
// Every frame the codec exchanges is a hand-packed little-endian byte
// layout. This header is its single source: one WireField table per frame
// header plus the circle record, and the per-version size history. The
// codec (src/query/wire.cc) reads and writes every header field at the
// offset and size of its row, looked up by name at compile time
// (FieldOf), so the codec and the tables agree by construction; the
// routing peek (PeekRouteInfo) reads its hash and tile rows the same way.
//
// What checks the tables themselves:
//   1. static_asserts below: each table is gap-free from offset 0, and
//      the tile and delta tables repeat the request prefix row for row
//      (wire.cc adds: the last history row is the live version's sizes);
//   2. tests/wire_layout_test.cc: a literal copy of every current row and
//      one golden byte string per frame kind. The codec follows the
//      tables, so only a literal copy catches a swapped or resized row;
//   3. tools/check_wire_layout.py: parses these tables *textually* and
//      checks their shape, the frame magics in wire.cc, that the peek
//      reads its fields by name, and that the history is append-only.
//
// The `// wire-layout:` marker lines are load-bearing: the Python linter
// keys on them. Keep each table row in the `{"name", offset, size},`
// one-row-per-line form.
#ifndef RNNHM_QUERY_WIRE_LAYOUT_H_
#define RNNHM_QUERY_WIRE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace rnnhm::wire_layout {

/// One fixed-offset field of a frame header.
struct WireField {
  const char* name;
  std::size_t offset;
  std::size_t size;
};

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

constexpr bool SameName(const char* a, const char* b) {
  // constexpr strcmp: <cstring> is not constexpr-guaranteed.
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return *a == *b;
}

/// The row named `name`. An absent name throws, which is a compile error
/// wherever the lookup is a constant expression — so a renamed field
/// breaks the build of every codec line that names it.
template <std::size_t N>
constexpr WireField FieldOf(const WireField (&fields)[N], const char* name) {
  for (const WireField& f : fields) {
    if (SameName(f.name, name)) return f;
  }
  throw "no such wire field";
}

/// True when `fields` repeats the first `count` rows of `prefix` exactly,
/// except that `renamed` (if any) may carry another name.
template <std::size_t N, std::size_t M>
constexpr bool RepeatsRows(const WireField (&fields)[N],
                           const WireField (&prefix)[M], std::size_t count,
                           const char* renamed = "") {
  if (count > N || count > M) return false;
  for (std::size_t i = 0; i < count; ++i) {
    const WireField& a = fields[i];
    const WireField& b = prefix[i];
    if (a.offset != b.offset || a.size != b.size) return false;
    if (!SameName(a.name, b.name) && !SameName(b.name, renamed)) {
      return false;
    }
  }
  return true;
}

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

static_assert(Contiguous(kRequestLayout) && Contiguous(kResponseLayout) &&
              Contiguous(kDeltaLayout) && Contiguous(kTileLayout) &&
              Contiguous(kStatsRequestLayout) &&
              Contiguous(kStatsResponseLayout) && Contiguous(kCircleLayout));
// The request prefix (magic through the set_hash slot) is shared: the
// codec reads and writes it once, from the request rows, for all three
// frame kinds, and a tile header holds the whole request header.
static_assert(RepeatsRows(kDeltaLayout, kRequestLayout,
                          std::size(kRequestLayout) - 1, "set_hash"));
static_assert(RepeatsRows(kTileLayout, kRequestLayout,
                          std::size(kRequestLayout)));

// --- Sizes (bytes) --------------------------------------------------------

inline constexpr std::size_t kCircleBytes = TotalBytes(kCircleLayout);
inline constexpr std::size_t kRequestHeaderBytes = TotalBytes(kRequestLayout);
inline constexpr std::size_t kResponseHeaderBytes =
    TotalBytes(kResponseLayout);
inline constexpr std::size_t kDeltaHeaderBytes = TotalBytes(kDeltaLayout);
inline constexpr std::size_t kTileHeaderBytes = TotalBytes(kTileLayout);
inline constexpr std::size_t kStatsRequestBytes =
    TotalBytes(kStatsRequestLayout);
inline constexpr std::size_t kStatsResponseBytes =
    TotalBytes(kStatsResponseLayout);
/// Trailing per-request stats in a success response: 6 CrestStats +
/// 5 CrestL2Stats + 6 SweepCacheStats counters, u64 each.
inline constexpr std::size_t kResponseStatsWords = 17;

// --- Version history ------------------------------------------------------

/// Frame sizes as published by each wire version; 0 = the frame kind did
/// not exist yet. History is append-only: a released version's row never
/// changes (that would be a silent protocol break), a layout change adds
/// a row and bumps kWireVersion.
///
/// The rows before the last are documentation only: decoders accept
/// exactly kWireVersion (a fleet is deployed in lockstep), so no build
/// decodes a v2–v6 frame. The one older format still read is the grid
/// blob inside a response: DecodeHeatmap accepts RNHM version 1 as well as
/// the version 2 that v7 carries.
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

}  // namespace rnnhm::wire_layout

#endif  // RNNHM_QUERY_WIRE_LAYOUT_H_
