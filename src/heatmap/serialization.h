// Binary serialization of heat-map grids.
//
// Simple versioned little-endian format ("RNHM"). Lets expensive
// city-scale maps be computed once and re-rendered / re-queried later (see
// the CLI's `render` subcommand), and doubles as the grid payload of the
// serving wire protocol (query/wire.h): EncodeHeatmap/DecodeHeatmap are
// the buffer-level primitives, SaveHeatmap/LoadHeatmap the file wrappers.
//
// Layout (offsets in bytes):
//   0  magic "RNHM"      4  version u32     8  width i32    12  height i32
//   16 domain lo.x, lo.y, hi.x, hi.y (f64 each)
//   version 1: payload at 48, row-major f64 — the only encoding.
//   version 2: 48 encoding u32, 52 reserved u32 (zero), payload at 56:
//     encoding 0 = row-major f64 (8 bytes per pixel);
//     encoding 1 = row-major u16 counts (2 bytes per pixel).
// Encoders always write version 2, and the encoding is a pure function of
// the grid's content: counts iff every value is an exact count (the
// PackedGrid rule, heatmap/packed_grid.h), f64 otherwise. A grid therefore
// serializes to the same bytes whether it was encoded from doubles or from
// its packed form. Decoders read both versions and widen counts exactly.
#ifndef RNNHM_HEATMAP_SERIALIZATION_H_
#define RNNHM_HEATMAP_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "heatmap/heatmap.h"
#include "heatmap/packed_grid.h"

namespace rnnhm {

/// Appends the grid's serialized bytes (the exact byte stream SaveHeatmap
/// writes) to `*out`. Packs and writes in one fused scan, falling back to
/// f64 at the first value that is not an exact count.
void EncodeHeatmap(const HeatmapGrid& grid, std::vector<uint8_t>* out);

/// As above from the packed form: writes the stored counts or doubles as
/// they are. Produces the same bytes as encoding grid.Unpack().
void EncodeHeatmap(const PackedGrid& grid, std::vector<uint8_t>* out);

/// Decodes one grid from the front of [data, data + size). On success
/// advances `*consumed` by the number of bytes read (trailing bytes are
/// left for the caller). On any malformed input — short buffer, bad
/// magic/version, unknown encoding, nonzero reserved bytes, non-positive
/// dimensions, degenerate domain, truncated payload — returns nullopt and,
/// when `error` is non-null, describes the failure; never CHECK-fails, so
/// it is safe on untrusted bytes.
std::optional<HeatmapGrid> DecodeHeatmap(const uint8_t* data, size_t size,
                                         size_t* consumed,
                                         std::string* error = nullptr);

/// Writes the grid to `path`. Returns false on I/O failure.
bool SaveHeatmap(const HeatmapGrid& grid, const std::string& path);

/// Loads a grid written by SaveHeatmap (either version). Returns nullopt
/// on I/O failure, bad magic/version, or a truncated payload.
std::optional<HeatmapGrid> LoadHeatmap(const std::string& path);

/// Exact size in bytes of the serialized form of `grid` (header + payload
/// in the encoding its content selects).
size_t SerializedSizeBytes(const HeatmapGrid& grid);
size_t SerializedSizeBytes(const PackedGrid& grid);

/// Size of a `width` x `height` grid as unpacked doubles: 48 header bytes
/// plus 8 bytes per pixel (the RNHM version 1 size). The engine's
/// SweepCache charges this per memoized grid whatever the grid's stored
/// form, so admission and eviction do not move with the encoding.
size_t UnpackedSizeBytes(int width, int height);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_SERIALIZATION_H_
