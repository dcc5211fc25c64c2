#include "query/heatmap_engine.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "common/check.h"
#include "heatmap/column_raster.h"
#include "heatmap/incremental.h"
#include "query/sweep_cache.h"
#include "tile/tile_plan.h"

namespace rnnhm {

namespace {

// The raster geometry every request must have; the checked serving paths
// return the failure, the others CHECK it (ValidateGeometry).
Status CheckGeometry(const Rect& domain, int width, int height) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument("non-positive raster size");
  }
  if (!IsFinite(domain)) {
    return Status::InvalidArgument("non-finite request domain");
  }
  if (!(domain.lo.x < domain.hi.x) || !(domain.lo.y < domain.hi.y)) {
    return Status::InvalidArgument("degenerate request domain");
  }
  return Status::Ok();
}

// Contract checks fire at the submitting call site, not on a worker thread.
void ValidateGeometry(const Rect& domain, int width, int height) {
  const Status status = CheckGeometry(domain, width, height);
  RNNHM_CHECK_MSG(status.ok(), status.message.c_str());
}

std::unique_ptr<SweepCache> MakeCache(const HeatmapEngineOptions& options) {
  if (options.cache_bytes == 0) return nullptr;
  SweepCacheOptions cache_options;
  cache_options.max_bytes = options.cache_bytes;
  cache_options.max_entries = options.cache_entries;
  return std::make_unique<SweepCache>(cache_options);
}

std::shared_ptr<CircleSetRegistry> MakeRegistry(
    const HeatmapEngineOptions& options) {
  if (options.registry != nullptr) return options.registry;
  return std::make_shared<CircleSetRegistry>();
}

// Wire-facing ceiling on the tile grid a single request may ask for; keeps
// a hostile by-tile request from allocating millions of tile windows.
constexpr int kMaxTileGridSide = 1024;

// The response counters of a kernel run (the mapping query/wire.h
// documents): the fields every metric shares; sweep-only counters stay 0.
void AddKernelStats(Metric metric, const ColumnRasterStats& s,
                    PackedHeatmapResponse* response) {
  if (metric == Metric::kL2) {
    CrestL2Stats& l2 = response->l2_stats;
    l2.num_circles += s.num_circles;
    l2.num_skipped_circles += s.num_skipped_circles;
    l2.num_events += s.num_chords;
    l2.num_labelings += s.num_evaluations;
  } else {
    CrestStats& crest = response->stats;
    crest.num_circles += s.num_circles;
    crest.num_skipped_circles += s.num_skipped_circles;
    crest.num_events += s.num_chords;
    crest.num_labelings += s.num_evaluations;
  }
}

}  // namespace

// One served map in the forms its path produced: `wide` when the grid was
// just painted, `packed.grid` when it came from or went into the cache
// (both on an admitted miss). `packed` always carries the counters. Each
// public entry point takes the form it returns, so a missing form is
// converted at most once, at that boundary, and a cache hit taken packed
// is never widened.
struct HeatmapEngine::Served {
  std::optional<HeatmapGrid> wide;
  PackedHeatmapResponse packed;

  // Packs the painted grid, unless this map is already packed.
  void EnsurePacked() {
    if (packed.grid == nullptr) {
      packed.grid = std::make_shared<const PackedGrid>(PackedGrid::Pack(*wide));
    }
  }

  HeatmapResponse TakeWide() && {
    if (!wide.has_value()) return packed.Unpack();
    return HeatmapResponse{std::move(*wide), packed.stats, packed.l2_stats,
                           packed.from_cache, packed.cache};
  }

  // The checked entry points' delivery, one per response form.
  void MoveInto(std::optional<HeatmapResponse>* out) && {
    *out = std::move(*this).TakeWide();
  }
  void MoveInto(std::optional<PackedHeatmapResponse>* out) && {
    EnsurePacked();
    *out = std::move(packed);
  }
};

HeatmapResponse PackedHeatmapResponse::Unpack() const {
  return HeatmapResponse{grid->Unpack(), stats, l2_stats, from_cache, cache};
}

HeatmapEngine::HeatmapEngine(const InfluenceMeasure& measure,
                             HeatmapEngineOptions options)
    : measure_(measure),
      options_(std::move(options)),
      registry_(MakeRegistry(options_)),
      cache_(MakeCache(options_)) {
  RNNHM_CHECK(options_.num_threads >= 0);
  RNNHM_CHECK(options_.slabs_per_request >= 1);
  int n = options_.num_threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

HeatmapEngine::~HeatmapEngine() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

HeatmapEngine::ResolvedRequest HeatmapEngine::Resolve(
    const HeatmapRequestV2& request) const {
  ValidateGeometry(request.domain, request.width, request.height);
  std::shared_ptr<const CircleSetSnapshot> set =
      registry_->Resolve(request.circles);
  RNNHM_CHECK_MSG(set != nullptr,
                  "HeatmapRequestV2 handle is not registered with this "
                  "engine's registry");
  return ResolvedRequest{std::move(set), request.domain, request.width,
                         request.height};
}

std::future<HeatmapResponse> HeatmapEngine::Enqueue(ResolvedRequest request) {
  PendingRequest pending{std::move(request), {}};
  std::future<HeatmapResponse> future = pending.promise.get_future();
  {
    MutexLock lock(&mu_);
    RNNHM_CHECK_MSG(!stopping_, "Submit on a stopping HeatmapEngine");
    queue_.push_back(std::move(pending));
    ++in_flight_;
  }
  work_available_.NotifyOne();
  return future;
}

std::future<HeatmapResponse> HeatmapEngine::Submit(HeatmapRequest request) {
  ValidateGeometry(request.domain, request.width, request.height);
  // The legacy shim: the inline vector moves into an immutable snapshot
  // (hashed once here, on the submitting thread), then flows through the
  // same handle path v2 requests take.
  return Enqueue(ResolvedRequest{
      CircleSetSnapshot::Make(std::move(request.circles), request.metric),
      request.domain, request.width, request.height});
}

std::future<HeatmapResponse> HeatmapEngine::Submit(
    const HeatmapRequestV2& request) {
  return Enqueue(Resolve(request));
}

std::vector<HeatmapResponse> HeatmapEngine::RunBatch(
    std::vector<HeatmapRequest> requests) {
  std::vector<std::future<HeatmapResponse>> futures;
  futures.reserve(requests.size());
  for (HeatmapRequest& r : requests) futures.push_back(Submit(std::move(r)));
  std::vector<HeatmapResponse> out;
  out.reserve(futures.size());
  for (std::future<HeatmapResponse>& f : futures) out.push_back(f.get());
  return out;
}

std::vector<HeatmapResponse> HeatmapEngine::RunBatch(
    const std::vector<HeatmapRequestV2>& requests) {
  std::vector<std::future<HeatmapResponse>> futures;
  futures.reserve(requests.size());
  for (const HeatmapRequestV2& r : requests) futures.push_back(Submit(r));
  std::vector<HeatmapResponse> out;
  out.reserve(futures.size());
  for (std::future<HeatmapResponse>& f : futures) out.push_back(f.get());
  return out;
}

HeatmapResponse HeatmapEngine::Execute(const HeatmapRequest& request) const {
  ValidateGeometry(request.domain, request.width, request.height);
  if (cache_ == nullptr) {
    Served served = Sweep(request.circles, request.metric, request.domain,
                          request.width, request.height);
    return std::move(served).TakeWide();
  }
  // Hash in place (no snapshot yet): a hit is served without touching the
  // caller's circle vector, a miss copies it once into the cache entry.
  const SweepCacheKey key = SweepCache::KeyOf(request);
  std::optional<PackedHeatmapResponse> hit =
      cache_->Lookup(key, request.circles, request.metric);
  if (hit.has_value()) return hit->Unpack();
  Served served = Sweep(request.circles, request.metric, request.domain,
                        request.width, request.height);
  Admit(key, CircleSetSnapshot::Make(request.circles, request.metric),
        &served);
  return std::move(served).TakeWide();
}

HeatmapResponse HeatmapEngine::Execute(HeatmapRequest&& request) const {
  ValidateGeometry(request.domain, request.width, request.height);
  Served served = Serve(ResolvedRequest{
      CircleSetSnapshot::Make(std::move(request.circles), request.metric),
      request.domain, request.width, request.height});
  return std::move(served).TakeWide();
}

HeatmapResponse HeatmapEngine::Execute(const HeatmapRequestV2& request) const {
  return Serve(Resolve(request)).TakeWide();
}

Status HeatmapEngine::ExecuteChecked(
    const HeatmapRequestV2& request,
    std::optional<HeatmapResponse>* response) const {
  return ServeChecked(request, response);
}

Status HeatmapEngine::ExecuteChecked(
    const HeatmapRequestV2& request,
    std::optional<PackedHeatmapResponse>* response) const {
  return ServeChecked(request, response);
}

template <typename Response>
Status HeatmapEngine::ServeChecked(const HeatmapRequestV2& request,
                                   std::optional<Response>* response) const {
  if (const Status status =
          CheckGeometry(request.domain, request.width, request.height);
      !status.ok()) {
    return status;
  }
  std::shared_ptr<const CircleSetSnapshot> set =
      registry_->Resolve(request.circles);
  if (set == nullptr) {
    return Status::NotFound("handle is not registered with this engine");
  }
  try {
    Served served = Serve(ResolvedRequest{std::move(set), request.domain,
                                          request.width, request.height});
    std::move(served).MoveInto(response);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  } catch (...) {
    return Status::Internal("sweep failed");
  }
  return Status::Ok();
}

Status HeatmapEngine::ExecuteTileFragmentChecked(
    const HeatmapRequestV2& request, int tile_rows, int tile_cols,
    int tile_id, std::optional<HeatmapResponse>* response) const {
  return ServeTileFragmentChecked(request, tile_rows, tile_cols, tile_id,
                                  response);
}

Status HeatmapEngine::ExecuteTileFragmentChecked(
    const HeatmapRequestV2& request, int tile_rows, int tile_cols,
    int tile_id, std::optional<PackedHeatmapResponse>* response) const {
  return ServeTileFragmentChecked(request, tile_rows, tile_cols, tile_id,
                                  response);
}

template <typename Response>
Status HeatmapEngine::ServeTileFragmentChecked(
    const HeatmapRequestV2& request, int tile_rows, int tile_cols,
    int tile_id, std::optional<Response>* response) const {
  if (const Status status =
          CheckGeometry(request.domain, request.width, request.height);
      !status.ok()) {
    return status;
  }
  if (tile_rows < 1 || tile_cols < 1 || tile_rows > kMaxTileGridSide ||
      tile_cols > kMaxTileGridSide) {
    return Status::InvalidArgument("tile grid outside [1, 1024] x [1, 1024]");
  }
  if (tile_id < 0 || tile_id >= tile_rows * tile_cols) {
    return Status::InvalidArgument("tile id outside the tile grid");
  }
  std::shared_ptr<const CircleSetSnapshot> set =
      registry_->Resolve(request.circles);
  if (set == nullptr) {
    return Status::NotFound("handle is not registered with this engine");
  }
  try {
    const std::vector<TileWindow> windows = TileWindows(
        request.domain, request.width, request.height, tile_rows, tile_cols);
    const TileWindow& window = windows[tile_id];
    if (window.empty()) {
      return Status::InvalidArgument(
          "tile window is empty at this resolution");
    }
    // Painted, never cached: a fragment entry only pays if its key
    // survives edits outside the tile, and such a key (a hash of the
    // tile's circle subset) costs more to build than the window paint.
    ColumnRasterStats stats;
    HeatmapGrid fragment = PaintTileFragment(
        set->metric(), set->circles(), measure_, options_.slabs_per_request,
        request.domain, request.width, request.height, window, &stats);
    Served served{std::move(fragment), {}};
    AddKernelStats(set->metric(), stats, &served.packed);
    served.packed.cache = cache_stats();
    std::move(served).MoveInto(response);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  } catch (...) {
    return Status::Internal("tile sweep failed");
  }
  return Status::Ok();
}

Status HeatmapEngine::ExecuteDeltaChecked(
    const CircleSetHandle& base, std::span<const CircleSetEdit> edits,
    std::optional<uint64_t> expected_hash, const Rect& domain, int width,
    int height, CircleSetHandle* derived,
    std::optional<HeatmapResponse>* response, bool* spliced,
    IncrementalRasterStats* splice_stats) const {
  return ServeDeltaChecked(base, edits, expected_hash, domain, width, height,
                           derived, response, spliced, splice_stats);
}

Status HeatmapEngine::ExecuteDeltaChecked(
    const CircleSetHandle& base, std::span<const CircleSetEdit> edits,
    std::optional<uint64_t> expected_hash, const Rect& domain, int width,
    int height, CircleSetHandle* derived,
    std::optional<PackedHeatmapResponse>* response, bool* spliced,
    IncrementalRasterStats* splice_stats) const {
  return ServeDeltaChecked(base, edits, expected_hash, domain, width, height,
                           derived, response, spliced, splice_stats);
}

template <typename Response>
Status HeatmapEngine::ServeDeltaChecked(
    const CircleSetHandle& base, std::span<const CircleSetEdit> edits,
    std::optional<uint64_t> expected_hash, const Rect& domain, int width,
    int height, CircleSetHandle* derived, std::optional<Response>* response,
    bool* spliced, IncrementalRasterStats* splice_stats) const {
  if (spliced != nullptr) *spliced = false;
  if (splice_stats != nullptr) *splice_stats = IncrementalRasterStats{};
  if (const Status status = CheckGeometry(domain, width, height);
      !status.ok()) {
    return status;
  }
  DirtyRegionSet dirty;
  std::shared_ptr<const CircleSetSnapshot> base_set;
  CircleSetHandle derived_handle;
  if (const Status status = registry_->ApplyDelta(
          base, edits, expected_hash, &derived_handle, &dirty, &base_set);
      !status.ok()) {
    return status;
  }
  *derived = derived_handle;
  // The derived registration we just made pins the entry, so this resolve
  // can only fail on a concurrent out-of-band Release.
  std::shared_ptr<const CircleSetSnapshot> set =
      registry_->Resolve(derived_handle);
  if (set == nullptr) {
    return Status::NotFound("derived set released before it could be served");
  }
  try {
    if (cache_ != nullptr) {
      const SweepCacheKey derived_key{set->content_hash(), domain, width,
                                      height};
      std::optional<PackedHeatmapResponse> hit =
          cache_->Lookup(derived_key, set);
      if (hit.has_value()) {
        Served{std::nullopt, std::move(*hit)}.MoveInto(response);
        return Status::Ok();
      }
      // Splice: reuse the base raster when the cache still holds it.
      const SweepCacheKey base_key{base_set->content_hash(), domain, width,
                                   height};
      std::optional<PackedHeatmapResponse> base_hit =
          cache_->Lookup(base_key, base_set);
      if (base_hit.has_value()) {
        Served splice{base_hit->grid->Unpack(), {}};
        const IncrementalRasterStats inc = RecomputeDirtyColumns(
            &*splice.wide, set->metric(), set->circles(), measure_, dirty);
        AddKernelStats(set->metric(), inc.kernel, &splice.packed);
        Admit(derived_key, set, &splice);
        if (spliced != nullptr) *spliced = true;
        if (splice_stats != nullptr) *splice_stats = inc;
        std::move(splice).MoveInto(response);
        return Status::Ok();
      }
    }
    const ResolvedRequest resolved{std::move(set), domain, width, height};
    Serve(resolved).MoveInto(response);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  } catch (...) {
    return Status::Internal("sweep failed");
  }
  return Status::Ok();
}

HeatmapEngine::Served HeatmapEngine::Serve(
    const ResolvedRequest& request) const {
  const CircleSetSnapshot& set = *request.set;
  if (cache_ != nullptr) {
    const SweepCacheKey key{set.content_hash(), request.domain, request.width,
                            request.height};
    std::optional<PackedHeatmapResponse> hit = cache_->Lookup(key, request.set);
    if (hit.has_value()) return Served{std::nullopt, std::move(*hit)};
    Served served = Sweep(set.circles(), set.metric(), request.domain,
                          request.width, request.height);
    Admit(key, request.set, &served);
    return served;
  }
  return Sweep(set.circles(), set.metric(), request.domain, request.width,
               request.height);
}

HeatmapEngine::Served HeatmapEngine::Sweep(
    const std::vector<NnCircle>& circles, Metric metric, const Rect& domain,
    int width, int height) const {
  Served served{HeatmapGrid(width, height, domain, measure_.Evaluate({})), {}};
  AddKernelStats(metric,
                 RasterizeGrid(metric, circles, measure_,
                               options_.slabs_per_request, &*served.wide),
                 &served.packed);
  return served;
}

void HeatmapEngine::Admit(const SweepCacheKey& key,
                          std::shared_ptr<const CircleSetSnapshot> set,
                          Served* served) const {
  served->EnsurePacked();
  cache_->Insert(key, std::move(set), served->packed);
  served->packed.cache = cache_->stats();
}

size_t HeatmapEngine::pending() const {
  MutexLock lock(&mu_);
  return in_flight_;
}

SweepCacheStats HeatmapEngine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : SweepCacheStats{};
}

void HeatmapEngine::WorkerLoop() {
  for (;;) {
    std::optional<PendingRequest> work;
    {
      MutexLock lock(&mu_);
      // An explicit predicate loop (rather than the predicate overload of
      // wait) keeps the guarded reads inside this analyzed scope.
      while (!stopping_ && queue_.empty()) work_available_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ with a drained queue
      work.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    std::optional<HeatmapResponse> response;
    std::exception_ptr error;
    try {
      response.emplace(Serve(work->request).TakeWide());
    } catch (...) {
      error = std::current_exception();
    }
    // Leave the pending count before fulfilling the future, so a caller
    // that has observed every future resolve also observes pending() == 0.
    {
      MutexLock lock(&mu_);
      --in_flight_;
    }
    if (error) {
      work->promise.set_exception(error);
    } else {
      work->promise.set_value(std::move(*response));
    }
  }
}

}  // namespace rnnhm
