#include "query/sweep_cache.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "common/mutex.h"

#include "heatmap/serialization.h"

namespace rnnhm {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t* h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashDouble(uint64_t* h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  HashBytes(h, &bits, sizeof(bits));
}

// Resident footprint charged for one entry: the grid at its unpacked size,
// whatever it packs to, plus the key's circle payload (what dominates in
// practice). Deliberately conservative for v2 entries: several entries
// sharing one snapshot each charge the full circle payload, so the budget
// over- (never under-) estimates residency and hit/miss behavior matches
// the legacy per-request accounting exactly.
size_t ChargedBytes(size_t num_circles, const PackedGrid& grid) {
  return UnpackedSizeBytes(grid.width(), grid.height()) +
         num_circles * sizeof(NnCircle) + sizeof(HeatmapRequest);
}

}  // namespace

SweepCache::SweepCache(SweepCacheOptions options) : options_(options) {}

SweepCacheKey SweepCache::KeyOf(const HeatmapRequest& request) {
  return SweepCacheKey{HashCircleSet(request.circles, request.metric),
                       request.domain, request.width, request.height};
}

uint64_t SweepCache::Fingerprint(const SweepCacheKey& key) {
  uint64_t h = kFnvOffset;
  HashBytes(&h, &key.set_hash, sizeof(key.set_hash));
  HashDouble(&h, key.domain.lo.x);
  HashDouble(&h, key.domain.lo.y);
  HashDouble(&h, key.domain.hi.x);
  HashDouble(&h, key.domain.hi.y);
  HashBytes(&h, &key.width, sizeof(key.width));
  HashBytes(&h, &key.height, sizeof(key.height));
  return h;
}

uint64_t SweepCache::Fingerprint(const HeatmapRequest& request) {
  return Fingerprint(KeyOf(request));
}

template <typename SameSet>
std::optional<PackedHeatmapResponse> SweepCache::LookupImpl(
    const SweepCacheKey& key, const SameSet& same_set) {
  const uint64_t fingerprint = Fingerprint(key);
  MutexLock lock(&mu_);
  const auto it = index_.find(fingerprint);
  if (it == index_.end() || !(it->second->key == key) ||
      !same_set(*it->second->set)) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // mark most-recently used
  ++stats_.hits;
  // The grid is immutable and shared: eviction in another thread only
  // drops the entry's reference, never the pixels a hit is encoding.
  PackedHeatmapResponse out = it->second->response;
  out.from_cache = true;
  out.cache = stats_;
  return out;
}

std::optional<PackedHeatmapResponse> SweepCache::Lookup(
    const SweepCacheKey& key,
    const std::shared_ptr<const CircleSetSnapshot>& set) {
  return LookupImpl(key, [&](const CircleSetSnapshot& entry_set) {
    return &entry_set == set.get() ||
           entry_set.SameContent(set->circles(), set->metric());
  });
}

std::optional<PackedHeatmapResponse> SweepCache::Lookup(
    const SweepCacheKey& key, std::span<const NnCircle> circles,
    Metric metric) {
  return LookupImpl(key, [&](const CircleSetSnapshot& entry_set) {
    return entry_set.SameContent(circles, metric);
  });
}

std::optional<HeatmapResponse> SweepCache::Lookup(
    const HeatmapRequest& request) {
  std::optional<PackedHeatmapResponse> hit =
      Lookup(KeyOf(request), request.circles, request.metric);
  if (!hit.has_value()) return std::nullopt;
  return hit->Unpack();
}

void SweepCache::Insert(const SweepCacheKey& key,
                        std::shared_ptr<const CircleSetSnapshot> set,
                        const PackedHeatmapResponse& response) {
  const uint64_t fingerprint = Fingerprint(key);
  const size_t bytes = ChargedBytes(set->circles().size(), *response.grid);
  if (bytes > options_.max_bytes) return;  // would evict everything for one
  // Stored copies are pristine: no hit flag, no stale stats snapshot.
  PackedHeatmapResponse stored = response;
  stored.from_cache = false;
  stored.cache = {};
  MutexLock lock(&mu_);
  const auto it = index_.find(fingerprint);
  if (it != index_.end()) {  // replace (also heals a fingerprint collision)
    stats_.bytes -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    --stats_.entries;
  }
  lru_.push_front(
      Entry{fingerprint, key, std::move(set), std::move(stored), bytes});
  index_[fingerprint] = lru_.begin();
  stats_.bytes += bytes;
  ++stats_.entries;
  ++stats_.insertions;
  EvictToFitLocked();
}

void SweepCache::Insert(HeatmapRequest request,
                        const HeatmapResponse& response) {
  const Metric metric = request.metric;
  const SweepCacheKey key{HashCircleSet(request.circles, metric),
                          request.domain, request.width, request.height};
  const HeatmapGrid& grid = response.grid;
  PackedHeatmapResponse packed;
  packed.grid = std::make_shared<const PackedGrid>(PackedGrid::Pack(grid));
  packed.stats = response.stats;
  packed.l2_stats = response.l2_stats;
  Insert(key, CircleSetSnapshot::Make(std::move(request.circles), metric),
         packed);
}

void SweepCache::EvictToFitLocked() {
  while (!lru_.empty() && (stats_.bytes > options_.max_bytes ||
                           stats_.entries > options_.max_entries)) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    --stats_.entries;
    ++stats_.evictions;
    index_.erase(victim.fingerprint);
    lru_.pop_back();
  }
}

SweepCacheStats SweepCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void SweepCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  stats_.bytes = 0;
}

}  // namespace rnnhm
