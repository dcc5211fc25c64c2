#include "query/circle_set_registry.h"

#include <cstring>
#include <utility>

#include "common/mutex.h"

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

// The bit pattern hashing and equality agree on: -0.0 collapses to +0.0
// (they compare == but differ bitwise), NaNs keep their payload bits (two
// copies of the same NaN are the same content; == would call them
// different and split what the hash unifies).
uint64_t CanonicalBits(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void HashDouble(uint64_t* h, double v) {
  const uint64_t bits = CanonicalBits(v);
  HashBytes(h, &bits, sizeof(bits));
}

bool SameDouble(double a, double b) {
  return CanonicalBits(a) == CanonicalBits(b);
}

void AddDirtyExtent(DirtyRegionSet* dirty, const NnCircle& circle) {
  if (dirty == nullptr) return;
  dirty->AddRect(circle.Bounds());
}

}  // namespace

uint64_t HashCircleSet(std::span<const NnCircle> circles, Metric metric) {
  uint64_t h = kFnvOffset;
  const int32_t m = static_cast<int32_t>(metric);
  HashBytes(&h, &m, sizeof(m));
  for (const NnCircle& c : circles) {
    HashDouble(&h, c.center.x);
    HashDouble(&h, c.center.y);
    HashDouble(&h, c.radius);
    HashBytes(&h, &c.client, sizeof(c.client));
  }
  return h;
}

CircleSetSnapshot::CircleSetSnapshot(std::vector<NnCircle> circles,
                                     Metric metric)
    : circles_(std::move(circles)),
      metric_(metric),
      content_hash_(HashCircleSet(circles_, metric_)) {}

std::shared_ptr<const CircleSetSnapshot> CircleSetSnapshot::Make(
    std::vector<NnCircle> circles, Metric metric) {
  // make_shared needs a public constructor; new keeps it private.
  return std::shared_ptr<const CircleSetSnapshot>(
      new CircleSetSnapshot(std::move(circles), metric));
}

bool CircleSetSnapshot::SameContent(std::span<const NnCircle> circles,
                                    Metric metric) const {
  if (metric != metric_ || circles.size() != circles_.size()) return false;
  for (size_t i = 0; i < circles.size(); ++i) {
    if (!SameDouble(circles[i].center.x, circles_[i].center.x) ||
        !SameDouble(circles[i].center.y, circles_[i].center.y) ||
        !SameDouble(circles[i].radius, circles_[i].radius) ||
        circles[i].client != circles_[i].client) {
      return false;
    }
  }
  return true;
}

CircleSetHandle CircleSetRegistry::Register(std::vector<NnCircle> circles,
                                            Metric metric) {
  return RegisterImpl(circles, metric, &circles);
}

CircleSetHandle CircleSetRegistry::Register(std::span<const NnCircle> circles,
                                            Metric metric) {
  return RegisterImpl(circles, metric, nullptr);
}

Status CircleSetRegistry::Register(std::vector<NnCircle> circles,
                                   Metric metric, CircleSetHandle* handle) {
  for (size_t i = 0; i < circles.size(); ++i) {
    if (!IsFinite(circles[i])) {
      return Status::InvalidArgument("circle " + std::to_string(i) +
                                     " has a non-finite center or radius");
    }
  }
  *handle = Register(std::move(circles), metric);
  return Status::Ok();
}

CircleSetHandle CircleSetRegistry::RegisterImpl(
    std::span<const NnCircle> circles, Metric metric,
    std::vector<NnCircle>* owned) {
  const uint64_t hash = HashCircleSet(circles, metric);
  WriterMutexLock lock(&mu_);
  const auto [lo, hi] = by_hash_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    Entry& entry = by_id_.at(it->second);
    if (entry.set->SameContent(circles, metric)) {
      if (entry.registrations == 0) RepinLocked(entry);
      ++entry.registrations;
      return CircleSetHandle{it->second, hash};
    }
  }
  const uint64_t id = next_id_++;
  std::shared_ptr<const CircleSetSnapshot> set = CircleSetSnapshot::Make(
      owned != nullptr ? std::move(*owned)
                       : std::vector<NnCircle>(circles.begin(), circles.end()),
      metric);
  resident_bytes_ += PayloadBytes(*set);
  by_id_.emplace(id, Entry{std::move(set), 1, hash, unpinned_lru_.end()});
  by_hash_.emplace(hash, id);
  return CircleSetHandle{id, hash};
}

CircleSetHandle CircleSetRegistry::RegisterWithHashForTesting(
    std::vector<NnCircle> circles, Metric metric, uint64_t forced_hash) {
  std::shared_ptr<const CircleSetSnapshot> set =
      CircleSetSnapshot::Make(std::move(circles), metric);
  WriterMutexLock lock(&mu_);
  const uint64_t id = next_id_++;
  resident_bytes_ += PayloadBytes(*set);
  by_id_.emplace(id,
                 Entry{std::move(set), 1, forced_hash, unpinned_lru_.end()});
  by_hash_.emplace(forced_hash, id);
  return CircleSetHandle{id, forced_hash};
}

Status CircleSetRegistry::ApplyDelta(
    const CircleSetHandle& base, std::span<const CircleSetEdit> edits,
    std::optional<uint64_t> expected_hash, CircleSetHandle* derived,
    DirtyRegionSet* dirty,
    std::shared_ptr<const CircleSetSnapshot>* base_out) {
  std::shared_ptr<const CircleSetSnapshot> base_set = Resolve(base);
  if (base_set == nullptr) {
    return Status::NotFound(
        "delta base circle set is not registered (released or evicted)");
  }
  std::vector<NnCircle> circles = base_set->circles();
  // Dirty extents accumulate locally so a failed edit list leaves the
  // caller's set untouched.
  DirtyRegionSet touched;
  DirtyRegionSet* touched_out = dirty != nullptr ? &touched : nullptr;
  for (size_t e = 0; e < edits.size(); ++e) {
    const CircleSetEdit& edit = edits[e];
    if (edit.kind != CircleSetEdit::Kind::kSwapRemove &&
        !IsFinite(edit.circle)) {
      return Status::InvalidArgument("delta edit " + std::to_string(e) +
                                     " has a non-finite center or radius");
    }
    switch (edit.kind) {
      case CircleSetEdit::Kind::kReplace:
        if (edit.index >= circles.size()) {
          return Status::InvalidArgument("delta edit " + std::to_string(e) +
                                         " replaces out-of-range index " +
                                         std::to_string(edit.index));
        }
        AddDirtyExtent(touched_out, circles[edit.index]);
        AddDirtyExtent(touched_out, edit.circle);
        circles[edit.index] = edit.circle;
        break;
      case CircleSetEdit::Kind::kAppend:
        AddDirtyExtent(touched_out, edit.circle);
        circles.push_back(edit.circle);
        break;
      case CircleSetEdit::Kind::kSwapRemove:
        if (edit.index >= circles.size()) {
          return Status::InvalidArgument("delta edit " + std::to_string(e) +
                                         " removes out-of-range index " +
                                         std::to_string(edit.index));
        }
        // The survivor moved from the back keeps its content, so only the
        // removed circle's footprint goes dirty.
        AddDirtyExtent(touched_out, circles[edit.index]);
        circles[edit.index] = circles.back();
        circles.pop_back();
        break;
      default:
        return Status::InvalidArgument("delta edit " + std::to_string(e) +
                                       " has an unknown kind");
    }
  }
  if (expected_hash.has_value()) {
    const uint64_t new_hash = HashCircleSet(circles, base_set->metric());
    if (new_hash != *expected_hash) {
      return Status::InvalidArgument(
          "derived content hash mismatch: client and server applied "
          "different edit semantics");
    }
  }
  *derived = Register(std::move(circles), base_set->metric());
  if (dirty != nullptr) {
    for (const DirtyRect& rect : touched.Merged()) {
      dirty->Add(rect.x.lo, rect.x.hi, rect.y.lo, rect.y.hi);
    }
  }
  if (base_out != nullptr) *base_out = std::move(base_set);
  return Status::Ok();
}

std::shared_ptr<const CircleSetSnapshot> CircleSetRegistry::Resolve(
    const CircleSetHandle& handle) const {
  if (!handle.valid()) return nullptr;
  ReaderMutexLock lock(&mu_);
  const auto it = by_id_.find(handle.id);
  if (it == by_id_.end() || it->second.hash != handle.content_hash) {
    return nullptr;
  }
  TouchLocked(it->second);
  return it->second.set;
}

CircleSetHandle CircleSetRegistry::FindByHash(uint64_t content_hash) const {
  ReaderMutexLock lock(&mu_);
  const auto [lo, hi] = by_hash_.equal_range(content_hash);
  if (lo == hi) return CircleSetHandle{};
  // Two resident entries under one hash is a true 64-bit collision: the
  // hash no longer names a unique set, and guessing would serve the wrong
  // heat map. Report not-found; the colliding sets stay reachable through
  // their full handles.
  if (std::next(lo) != hi) return CircleSetHandle{};
  TouchLocked(by_id_.at(lo->second));
  return CircleSetHandle{lo->second, content_hash};
}

bool CircleSetRegistry::Release(const CircleSetHandle& handle) {
  if (!handle.valid()) return false;
  WriterMutexLock lock(&mu_);
  const auto it = by_id_.find(handle.id);
  if (it == by_id_.end() || it->second.hash != handle.content_hash) {
    return false;
  }
  Entry& entry = it->second;
  // A resident entry with zero registrations is unpinned (retained only
  // by the retention budget): another Release is a double release and
  // must not wrap the count around.
  if (entry.registrations == 0) return false;
  if (--entry.registrations > 0) return true;
  if (options_.retention_enabled()) {
    UnpinLocked(it->first, entry);
    EvictOverBudgetLocked();
  } else {
    EraseLocked(it->first);
  }
  return true;
}

size_t CircleSetRegistry::size() const {
  ReaderMutexLock lock(&mu_);
  return by_id_.size();
}

size_t CircleSetRegistry::resident_bytes() const {
  ReaderMutexLock lock(&mu_);
  return resident_bytes_;
}

size_t CircleSetRegistry::unpinned_entries() const {
  ReaderMutexLock lock(&mu_);
  // Sibling readers may be splicing recency under lru_mu_.
  MutexLock lru_lock(&lru_mu_);
  return unpinned_lru_.size();
}

size_t CircleSetRegistry::total_evicted() const {
  ReaderMutexLock lock(&mu_);
  return total_evicted_;
}

void CircleSetRegistry::UnpinLocked(uint64_t id, Entry& entry) {
  // Exclusive mu_ already excludes every reader, so this acquisition is
  // uncontended; it exists so unpinned_lru_/unpinned_bytes_ have exactly
  // one guarding mutex the thread-safety analysis can verify.
  MutexLock lru_lock(&lru_mu_);
  unpinned_lru_.push_front(id);
  entry.lru = unpinned_lru_.begin();
  unpinned_bytes_ += PayloadBytes(*entry.set);
}

void CircleSetRegistry::RepinLocked(Entry& entry) {
  MutexLock lru_lock(&lru_mu_);
  unpinned_bytes_ -= PayloadBytes(*entry.set);
  unpinned_lru_.erase(entry.lru);
  entry.lru = unpinned_lru_.end();
}

void CircleSetRegistry::TouchLocked(const Entry& entry) const {
  if (entry.registrations != 0) return;
  // Shared-lock holders race only with each other here; a same-list
  // splice never invalidates iterators, so every entry's lru position
  // stays valid across concurrent touches.
  MutexLock lru_lock(&lru_mu_);
  unpinned_lru_.splice(unpinned_lru_.begin(), unpinned_lru_, entry.lru);
}

void CircleSetRegistry::EraseLocked(uint64_t id) {
  const auto it = by_id_.find(id);
  const auto [lo, hi] = by_hash_.equal_range(it->second.hash);
  for (auto h = lo; h != hi; ++h) {
    if (h->second == id) {
      by_hash_.erase(h);
      break;
    }
  }
  resident_bytes_ -= PayloadBytes(*it->second.set);
  by_id_.erase(it);
}

bool CircleSetRegistry::OverBudgetLocked() const {
  if (options_.max_unpinned_entries > 0 &&
      unpinned_lru_.size() > options_.max_unpinned_entries) {
    return true;
  }
  return options_.max_unpinned_bytes > 0 &&
         unpinned_bytes_ > options_.max_unpinned_bytes;
}

void CircleSetRegistry::EvictOverBudgetLocked() {
  // lru_mu_ is a leaf (EraseLocked takes no locks), so holding it across
  // the loop is order-safe and, under exclusive mu_, uncontended.
  MutexLock lru_lock(&lru_mu_);
  while (!unpinned_lru_.empty() && OverBudgetLocked()) {
    const uint64_t victim = unpinned_lru_.back();
    unpinned_lru_.pop_back();
    unpinned_bytes_ -= PayloadBytes(*by_id_.at(victim).set);
    EraseLocked(victim);
    ++total_evicted_;
  }
}

void RegistrationScope::Track(const CircleSetHandle& handle) {
  if (registry_ == nullptr || !handle.valid()) return;
  handles_.push_back(handle);
  while (max_tracked_ > 0 && handles_.size() > max_tracked_) {
    registry_->Release(handles_.front());
    handles_.pop_front();
  }
}

void RegistrationScope::ReleaseAll() {
  if (registry_ != nullptr) {
    for (const CircleSetHandle& handle : handles_) registry_->Release(handle);
  }
  handles_.clear();
}

}  // namespace rnnhm
