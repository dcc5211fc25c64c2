// CREST under the L2 metric (Section VII-C).
//
// NN-circles are disks; the arrangement has curved edges. The sweep keeps
// the same machinery as the square case with these changes:
//   * line elements are the lower/upper semicircle arcs of the disks cut by
//     the line (a lower arc adds its client to the base set, an upper arc
//     removes it — exactly like lower/upper square sides);
//   * event points are the x-extremes of every disk, disk centers (keeping
//     arcs y-monotone per strip), and all pairwise boundary intersection
//     points (arcs switch positions there).
// Because arcs cannot cross strictly inside a strip (crossings are events),
// the status order is maintained positionally: insertions locate their slot
// by evaluating arc ordinates at the strip midpoint, intersections swap the
// two incident arcs. Changed intervals are positional index ranges; base
// sets are cached per arc under the same 2i / 2i+1 keying as the square
// sweep.
#ifndef RNNHM_CORE_CREST_L2_H_
#define RNNHM_CORE_CREST_L2_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/influence_measure.h"
#include "core/label_sink.h"
#include "geom/geometry.h"

namespace rnnhm {

/// Counters reported by an L2 sweep run.
struct CrestL2Stats {
  size_t num_circles = 0;
  size_t num_skipped_circles = 0;   ///< zero-radius circles ignored
  size_t num_events = 0;            ///< total events processed
  size_t num_cross_events = 0;      ///< intersection events
  size_t num_labelings = 0;         ///< k: labelings = influence evals
};

/// Tuning knobs for an L2 sweep run.
struct CrestL2Options {
  /// Sweep only the vertical slab [clip_lo, clip_hi): disks are clipped to
  /// the slab (arcs entering it behave like a sweep starting mid-way), and
  /// events outside it are dropped. Defaults sweep the whole plane. Used by
  /// RunCrestL2Parallel; labels of a clipped run are correct region labels
  /// whose representative boxes are clipped to the slab.
  double clip_lo = -std::numeric_limits<double>::infinity();
  double clip_hi = std::numeric_limits<double>::infinity();
  /// Override for the coordinate span that scales the simultaneous-event
  /// grouping epsilon. Negative derives it from the swept disks; the
  /// parallel driver passes the whole input's span so every shard groups
  /// events exactly like the sequential sweep.
  double event_group_span = -1.0;
};

/// Runs the L2 CREST sweep over disks built with Metric::kL2. Labeled
/// "rectangles" are per-strip bounding boxes of the curved subregions.
/// Requires the input to be in general position (no two identical disks);
/// exact duplicates are deduplicated defensively by keeping one disk per
/// (center, radius) — the duplicate clients still appear in RNN sets.
/// `stats.num_circles` / `num_skipped_circles` always count the full input,
/// even when `options` clips the sweep to a slab.
CrestL2Stats RunCrestL2(const std::vector<NnCircle>& circles,
                        const InfluenceMeasure& measure,
                        RegionLabelSink* sink,
                        const CrestL2Options& options = {});

/// Slab-parallel L2 sweep: decomposes the x-axis into one vertical slab per
/// sink in `shard_sinks`, cut at crossing-event-density quantiles
/// (SlabBoundariesL2), and sweeps the slabs on independent threads. Disks are clipped
/// to each slab they overlap — x-extremes, centers and pairwise boundary
/// intersections inside a slab stay events there, so per-slab labels are
/// correct region labels; a region spanning a boundary is labeled once per
/// slab it touches (same RNN set).
/// `options.clip_lo`/`clip_hi` must be left at their defaults — the driver
/// owns the slab decomposition. Returns the per-shard sums; num_circles and
/// num_skipped_circles are global counts matching the sequential sweep.
CrestL2Stats RunCrestL2Parallel(const std::vector<NnCircle>& circles,
                                const InfluenceMeasure& measure,
                                std::span<RegionLabelSink* const> shard_sinks,
                                const CrestL2Options& options = {});

/// As above with one measure instance per shard (for measures with
/// per-instance scratch, e.g. CapacityInfluence). `shard_measures` must
/// have the same length as `shard_sinks`.
CrestL2Stats RunCrestL2Parallel(
    const std::vector<NnCircle>& circles,
    std::span<const InfluenceMeasure* const> shard_measures,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestL2Options& options = {});

/// Slab cuts for the parallel L2 sweep: `shards` + 1 ascending boundaries
/// (outer two infinite) at weighted quantiles of the estimated *event
/// density*. Per-disk events (x-extremes, centers) weigh 1 each; pairwise
/// crossing events — the sweep's dominant cost on intersection-heavy
/// inputs — are estimated from a deterministic stride sample of at most
/// `crossing_sample_cap` disks (R-tree probed exactly like the event
/// builder), each observation weighted by the inverse sampling rate. A hot
/// intersection cluster thus splits across slabs instead of serializing
/// one, where plain x-extreme quantiles would underweight it. Boundaries
/// affect load balance only, never the set of distinct region labels. No
/// RNG — identical inputs always cut identically.
std::vector<double> SlabBoundariesL2(const std::vector<NnCircle>& circles,
                                     size_t shards,
                                     size_t crossing_sample_cap = 256);

}  // namespace rnnhm

#endif  // RNNHM_CORE_CREST_L2_H_
