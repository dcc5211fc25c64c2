// Parallel CREST: slab decomposition of the sweep.
//
// The paper motivates efficiency by workloads that "need to be recomputed
// frequently" (taxi sharing). The sweep parallelizes naturally: split the
// x-axis into vertical slabs at event quantiles, clip every rectangle to
// each slab it overlaps, and sweep the slabs independently — a rectangle
// clipped at a slab edge behaves exactly like a sweep entering mid-way, so
// per-slab labelings are correct region labels. A region spanning a slab
// boundary is labeled once per slab it touches (bounded duplication, same
// RNN set), which distinct-set, top-k and threshold sinks all absorb by
// construction.
//
// Thread-safety contract: each shard writes only to its own sink; the
// InfluenceMeasure is shared and must be safe for concurrent Evaluate
// (SizeInfluence / WeightedInfluence / ConnectivityInfluence are;
// CapacityInfluence keeps per-instance scratch and is not — give each
// shard its own instance via `shard_measures`).
#ifndef RNNHM_CORE_CREST_PARALLEL_H_
#define RNNHM_CORE_CREST_PARALLEL_H_

#include <span>
#include <vector>

#include "core/crest.h"
#include "core/crest_l2.h"

namespace rnnhm {

// Concurrency model: the parallel sweeps are shared-nothing by
// construction, so there is no lock (and hence no thread-safety
// annotation) anywhere in this module. Each worker thread owns shard s
// exclusively — its sink `shard_sinks[s]`, its stats slot, and (in the
// per-shard-measure overload) its measure instance — and the slab
// partition hands every worker a disjoint x-range of the arrangement.
// The TSan CI job (RNNHM_TSAN)
// is the checker for this path: a worker reaching outside its shard is a
// data race it reports, where a mutex-based design would rely on the
// annotations in common/mutex.h instead.

/// Sweeps the L-infinity NN-circles with one thread per sink in
/// `shard_sinks`; shard i labels the regions of slab i through sink i.
/// Returns the summed per-shard statistics.
CrestStats RunCrestParallel(const std::vector<NnCircle>& circles,
                            const InfluenceMeasure& measure,
                            std::span<RegionLabelSink* const> shard_sinks,
                            const CrestOptions& options = {});

/// As above with one measure instance per shard (for measures with
/// per-instance scratch, e.g. CapacityInfluence). `shard_measures` must
/// have the same length as `shard_sinks`.
CrestStats RunCrestParallel(
    const std::vector<NnCircle>& circles,
    std::span<const InfluenceMeasure* const> shard_measures,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestOptions& options = {});

/// Counters of a metric-dispatched parallel sweep: exactly one of the two
/// members is populated, depending on which sweep ran.
struct MetricSweepStats {
  CrestStats crest;  ///< rectilinear sweeps (kLInf, and kL1 via rotation)
  CrestL2Stats l2;   ///< the arc sweep (kL2)

  size_t num_labelings() const {
    return crest.num_labelings + l2.num_labelings;
  }
  size_t num_events() const { return crest.num_events + l2.num_events; }
};

/// The single dispatching entry point over all three metrics: slab-sweeps
/// `circles` (which must have been built under `metric`) with one thread
/// per shard sink. kLInf runs RunCrestParallel directly, kL1 rotates into
/// the L-infinity frame first (labels are in the rotated frame), and kL2
/// runs the arc sweep via RunCrestL2Parallel. `crest_options` applies to
/// the rectilinear sweeps only, `l2_options` to the arc sweep only.
MetricSweepStats RunCrestParallelMetric(
    Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestOptions& crest_options = {},
    const CrestL2Options& l2_options = {});

}  // namespace rnnhm

#endif  // RNNHM_CORE_CREST_PARALLEL_H_
