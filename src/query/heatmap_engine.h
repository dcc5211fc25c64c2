// Batched, multi-threaded heat-map serving facade.
//
// The paper's motivating workloads (taxi sharing, location planning) issue
// many independent RNNHM computations: one per city tile, per time tick, or
// per what-if facility placement. HeatmapEngine turns those into a service:
// requests are submitted from any thread, queued, and dispatched across a
// worker pool; each request paints its heat map with the column kernel
// (heatmap/column_raster.h) exactly as BuildHeatmapForMetric does, so
// batched output is bit-identical to a sequential run over the same inputs.
//
// Two request forms share one execution path:
//   * HeatmapRequestV2 (preferred) references a circle set registered in
//     the engine's CircleSetRegistry by CircleSetHandle — submits never
//     copy circle data, and cache probes key off the handle's precomputed
//     content hash (O(1) in the circle count);
//   * the legacy HeatmapRequest inlines its circle vector and is adapted
//     internally (an immutable snapshot is made of the moved-in vector; the
//     const-ref Execute overload hashes in place and copies only on a cache
//     miss, so hits are copy-free).
//
// Two parallelism axes compose:
//   * across requests — `num_threads` workers drain the shared queue;
//   * within a request — `slabs_per_request > 1` paints each request's
//     grid as that many contiguous column blocks on their own threads
//     (blocks never overlap, and the kernel's output does not depend on
//     the block count, so the raster is still exact and deterministic).
// A third axis avoids the raster altogether: `cache_bytes > 0` enables the
// content-addressed SweepCache (query/sweep_cache.h), which memoizes whole
// responses across Submit/RunBatch/Execute — repeated workloads are served
// bit-identically without recomputation, and every response reports
// whether it was a hit (`from_cache`) plus the cache counters (`cache`).
//
// Determinism contract: a request's grid depends only on the request and
// the measure, never on scheduling. `HeatmapEngineOptions{.num_threads = 1}`
// additionally serializes execution in submission order — the mode tests
// use as the reference.
//
// The engine holds a reference to one shared InfluenceMeasure; it must be
// safe for concurrent Evaluate (SizeInfluence, WeightedInfluence and
// ConnectivityInfluence are; CapacityInfluence keeps per-instance scratch
// and is not).
#ifndef RNNHM_QUERY_HEATMAP_ENGINE_H_
#define RNNHM_QUERY_HEATMAP_ENGINE_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/influence_measure.h"
#include "geom/geometry.h"
#include "heatmap/heatmap.h"
#include "heatmap/incremental.h"
#include "heatmap/packed_grid.h"
#include "query/circle_set_registry.h"

namespace rnnhm {

class SweepCache;
struct SweepCacheKey;

/// One heat-map computation: rasterize the influence field of `circles`
/// (NN-circles built under `metric`) over `domain` at `width` x `height`,
/// exact at pixel centers for every metric.
/// This is the legacy inline form; HeatmapRequestV2 shares the circle
/// data instead of embedding it.
struct HeatmapRequest {
  /// NN-circles to rasterize; must have been built under `metric`.
  std::vector<NnCircle> circles;
  /// Rectangular raster window (need not cover every circle).
  Rect domain;
  /// Raster resolution in pixels; both must be positive.
  int width = 0;
  int height = 0;
  /// Metric the circles were built under.
  Metric metric = Metric::kLInf;
};

/// The v2 request: the circle set travels as a handle into the engine's
/// CircleSetRegistry (register via `engine.registry().Register(...)`), so
/// a population shared by many requests is stored once and cache probes
/// reuse the handle's precomputed content hash. The metric is a property
/// of the registered set, not of the request.
struct HeatmapRequestV2 {
  /// Handle of a set registered in the serving engine's registry.
  CircleSetHandle circles;
  /// Rectangular raster window (need not cover every circle).
  Rect domain;
  /// Raster resolution in pixels; both must be positive.
  int width = 0;
  int height = 0;
};

/// Aggregate counters of a SweepCache (also snapshotted onto every
/// response served by a cache-enabled engine). Hits/misses/insertions/
/// evictions are cumulative; entries/bytes describe the current contents.
struct SweepCacheStats {
  uint64_t hits = 0;        ///< lookups answered from the cache
  uint64_t misses = 0;      ///< lookups that fell through to a sweep
  uint64_t insertions = 0;  ///< responses admitted
  uint64_t evictions = 0;   ///< entries dropped by the LRU/byte budget
  size_t entries = 0;       ///< resident entries
  size_t bytes = 0;         ///< resident bytes (grids + keys)
};

/// The finished raster plus the kernel's counters: `stats` for kLInf and
/// kL1, `l2_stats` for kL2 (the other stays zero). The column kernel fills
/// num_circles, num_skipped_circles, num_events (chords painted) and
/// num_labelings (Evaluate calls: 0 for SizeInfluence, which the kernel
/// counts); the sweep-only counters stay zero.
struct HeatmapResponse {
  HeatmapGrid grid;
  CrestStats stats;
  CrestL2Stats l2_stats;
  /// True iff this response was served from the engine's SweepCache
  /// without running a sweep (always false on cache-disabled engines).
  bool from_cache = false;
  /// Snapshot of the engine's cache counters taken when this response was
  /// served (all zero on cache-disabled engines).
  SweepCacheStats cache;
};

/// A response whose grid stays packed (heatmap/packed_grid.h): the form
/// the SweepCache stores and the wire encodes, so a cache hit travels from
/// the cache to the socket without widening. The grid is immutable and is
/// shared with the cache entry it came from or went into.
struct PackedHeatmapResponse {
  std::shared_ptr<const PackedGrid> grid;
  CrestStats stats;
  CrestL2Stats l2_stats;
  bool from_cache = false;
  SweepCacheStats cache;

  /// The same response with its grid widened to doubles.
  HeatmapResponse Unpack() const;
};

struct HeatmapEngineOptions {
  /// Worker threads draining the request queue. 0 picks the hardware
  /// concurrency; 1 gives the deterministic single-worker mode (requests
  /// execute one at a time in submission order).
  int num_threads = 0;
  /// Contiguous column blocks per request, each painted on its own
  /// thread; 1 paints on the serving thread. Any value yields the same
  /// bits.
  int slabs_per_request = 1;
  /// Byte budget of the engine's result cache (SweepCache): 0 disables
  /// caching, any positive value memoizes whole responses keyed by the
  /// request content. Repeated workloads (sessions re-submitting
  /// near-identical circle sets every tick, what-if replays) then skip the
  /// sweep entirely; cached responses are bit-identical to freshly
  /// computed ones.
  size_t cache_bytes = 0;
  /// Entry-count ceiling of the result cache (LRU evicts beyond either
  /// budget). Ignored when `cache_bytes` is 0.
  size_t cache_entries = 256;
  /// Circle-set registry v2 requests resolve against. Null makes the
  /// engine create a private one (reachable via `registry()`); pass a
  /// shared registry to let several engines or sessions publish into the
  /// same handle space.
  std::shared_ptr<CircleSetRegistry> registry;
};

/// Thread-safe batched facade over heat-map construction.
class HeatmapEngine {
 public:
  explicit HeatmapEngine(const InfluenceMeasure& measure,
                         HeatmapEngineOptions options = {});
  ~HeatmapEngine();

  HeatmapEngine(const HeatmapEngine&) = delete;
  HeatmapEngine& operator=(const HeatmapEngine&) = delete;

  /// Enqueues one request; callable concurrently from any thread. Invalid
  /// requests (non-positive raster size, degenerate domain) CHECK-fail
  /// here, at the call site; the future carries the response or any
  /// exception thrown while serving. The circle vector is moved into an
  /// immutable snapshot, never copied.
  std::future<HeatmapResponse> Submit(HeatmapRequest request);

  /// Enqueues one v2 request. The handle must name a live set in
  /// `registry()` (CHECK-fails here otherwise — resolve untrusted handles
  /// yourself first); the snapshot is pinned for the request's lifetime,
  /// so a concurrent Release cannot unmap it mid-sweep.
  std::future<HeatmapResponse> Submit(const HeatmapRequestV2& request);

  /// Submits a whole batch and waits; responses are returned in request
  /// order regardless of completion order.
  std::vector<HeatmapResponse> RunBatch(std::vector<HeatmapRequest> requests);
  std::vector<HeatmapResponse> RunBatch(
      const std::vector<HeatmapRequestV2>& requests);

  /// Computes one request synchronously on the calling thread, bypassing
  /// the queue (but not the result cache). This is exactly the code path
  /// workers run: consult the cache when enabled, sweep on a miss, admit
  /// the response. Cache hits never copy the request's circles; the
  /// const-ref overload copies them only into a cache entry on a miss,
  /// and the rvalue overload moves them instead (workers use it).
  HeatmapResponse Execute(const HeatmapRequest& request) const;
  HeatmapResponse Execute(HeatmapRequest&& request) const;

  /// Computes one v2 request synchronously. Copy-free on every path: the
  /// cache is probed with the handle's precomputed hash, and hit or miss,
  /// the circle data is only ever shared, never duplicated.
  HeatmapResponse Execute(const HeatmapRequestV2& request) const;

  /// The serving-stack by-tile shard path: paints the single tile
  /// `tile_id` (row-major, in [0, tile_rows * tile_cols)) of the tiled
  /// decomposition of `request` (tile/tile_plan.h) and returns its
  /// *fragment* — a grid of the window TileWindows(...)[tile_id] whose
  /// cell (i, j) is global pixel (window.col_lo + i, window.row_lo + j),
  /// painted over the whole resolved set, so stitched fragments are
  /// bit-identical to Execute. Fragments are never cached: the response
  /// carries the cache counters unchanged. Every failure is a Status:
  /// kInvalidArgument for bad geometry, a bad tile grid (bounds are
  /// wire-facing: at most 1024 x 1024 tiles), a tile id outside the grid,
  /// or an empty tile window (route only non-empty windows); kNotFound
  /// for an unresolved handle; kInternal for a sweep that threw.
  Status ExecuteTileFragmentChecked(
      const HeatmapRequestV2& request, int tile_rows, int tile_cols,
      int tile_id, std::optional<HeatmapResponse>* response) const;
  /// As above with the fragment left packed (what the wire server sends).
  Status ExecuteTileFragmentChecked(
      const HeatmapRequestV2& request, int tile_rows, int tile_cols,
      int tile_id, std::optional<PackedHeatmapResponse>* response) const;

  /// The serving-stack submit path: like Execute(HeatmapRequestV2) but
  /// every failure comes back as a Status instead of a CHECK or an
  /// exception — kInvalidArgument for bad geometry, kNotFound for a
  /// handle this registry does not resolve, kInternal for a sweep that
  /// threw. `*response` is engaged only on ok (an optional because a
  /// HeatmapResponse has no empty state — its grid carries dimensions).
  /// This is what a server facing untrusted requests calls (see
  /// serve/wire_server.h).
  Status ExecuteChecked(const HeatmapRequestV2& request,
                        std::optional<HeatmapResponse>* response) const;
  /// As above with the grid left packed: a cache hit shares the cached
  /// grid and a miss shares the grid it just packed for the cache, so no
  /// path widens a grid only to encode it.
  Status ExecuteChecked(const HeatmapRequestV2& request,
                        std::optional<PackedHeatmapResponse>* response) const;

  /// The serving-stack delta path (wire v4): derives a new registered set
  /// from `base` + `edits` via registry().ApplyDelta (the caller owns the
  /// derived registration bump reported through `*derived`), then serves
  /// the derived set's heat map over `domain` at `width` x `height`.
  /// When the engine's cache still holds the base raster for the same
  /// geometry, the response is *spliced* — only the pixels inside the
  /// dirty rects the edits touched are recomputed — and is bit-identical
  /// to a from-scratch raster by the incremental-raster contract
  /// (heatmap/incremental.h); otherwise it falls back to the normal cold
  /// path. `*spliced`, when non-null, reports which path served the
  /// response; `*splice_stats`, when non-null, receives the splice pass
  /// counters (zeroed when the response was not spliced). Status mirrors
  /// ExecuteChecked plus ApplyDelta's kNotFound (base gone/evicted) and
  /// kInvalidArgument (bad edit index, derived-hash mismatch); nothing is
  /// registered on failure.
  Status ExecuteDeltaChecked(const CircleSetHandle& base,
                             std::span<const CircleSetEdit> edits,
                             std::optional<uint64_t> expected_hash,
                             const Rect& domain, int width, int height,
                             CircleSetHandle* derived,
                             std::optional<HeatmapResponse>* response,
                             bool* spliced = nullptr,
                             IncrementalRasterStats* splice_stats =
                                 nullptr) const;
  /// As above with the grid left packed.
  Status ExecuteDeltaChecked(const CircleSetHandle& base,
                             std::span<const CircleSetEdit> edits,
                             std::optional<uint64_t> expected_hash,
                             const Rect& domain, int width, int height,
                             CircleSetHandle* derived,
                             std::optional<PackedHeatmapResponse>* response,
                             bool* spliced = nullptr,
                             IncrementalRasterStats* splice_stats =
                                 nullptr) const;

  /// The registry v2 handles resolve against (engine-private unless one
  /// was passed in via options).
  CircleSetRegistry& registry() const { return *registry_; }

  /// Resolved worker count.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Requests accepted but not yet finished.
  size_t pending() const RNNHM_EXCLUDES(mu_);

  /// Current result-cache counters; all-zero when caching is disabled.
  SweepCacheStats cache_stats() const;

 private:
  // The canonical in-flight form both request structs reduce to: a pinned
  // immutable circle-set snapshot plus the raster geometry.
  struct ResolvedRequest {
    std::shared_ptr<const CircleSetSnapshot> set;
    Rect domain;
    int width = 0;
    int height = 0;
  };

  void WorkerLoop() RNNHM_EXCLUDES(mu_);
  std::future<HeatmapResponse> Enqueue(ResolvedRequest request)
      RNNHM_EXCLUDES(mu_);
  ResolvedRequest Resolve(const HeatmapRequestV2& request) const;
  // One served map in the forms its path produced (defined in the .cc).
  struct Served;
  // The shared serve path: cache probe keyed by the snapshot's content
  // hash, sweep on a miss, admit sharing the snapshot.
  Served Serve(const ResolvedRequest& request) const;
  // The uncached sweep (cache miss path).
  Served Sweep(const std::vector<NnCircle>& circles, Metric metric,
               const Rect& domain, int width, int height) const;
  // Packs a freshly painted map once and admits it under `key`; the cache
  // entry and `*served` share the packed grid.
  void Admit(const SweepCacheKey& key,
             std::shared_ptr<const CircleSetSnapshot> set,
             Served* served) const;
  // The checked serving paths behind both overloads of each public
  // Execute*Checked; `*response` receives the form `Response` names.
  template <typename Response>
  Status ServeChecked(const HeatmapRequestV2& request,
                      std::optional<Response>* response) const;
  template <typename Response>
  Status ServeTileFragmentChecked(const HeatmapRequestV2& request,
                                  int tile_rows, int tile_cols, int tile_id,
                                  std::optional<Response>* response) const;
  template <typename Response>
  Status ServeDeltaChecked(const CircleSetHandle& base,
                           std::span<const CircleSetEdit> edits,
                           std::optional<uint64_t> expected_hash,
                           const Rect& domain, int width, int height,
                           CircleSetHandle* derived,
                           std::optional<Response>* response, bool* spliced,
                           IncrementalRasterStats* splice_stats) const;

  const InfluenceMeasure& measure_;
  const HeatmapEngineOptions options_;
  const std::shared_ptr<CircleSetRegistry> registry_;
  // Result cache shared by all workers (internally synchronized); null
  // when options_.cache_bytes == 0. Const pointer, mutable pointee: the
  // cache may be consulted from the const Execute path.
  const std::unique_ptr<SweepCache> cache_;

  struct PendingRequest {
    ResolvedRequest request;
    std::promise<HeatmapResponse> promise;
  };

  mutable Mutex mu_;
  CondVar work_available_;
  std::deque<PendingRequest> queue_ RNNHM_GUARDED_BY(mu_);
  // Queued + currently executing.
  size_t in_flight_ RNNHM_GUARDED_BY(mu_) = 0;
  bool stopping_ RNNHM_GUARDED_BY(mu_) = false;
  // Written only by the constructor, before any worker runs; read-only
  // afterwards (num_threads, the destructor's join).
  std::vector<std::thread> workers_;
};

}  // namespace rnnhm

#endif  // RNNHM_QUERY_HEATMAP_ENGINE_H_
