// Registered, immutable, content-addressed circle sets — the shared
// currency of the serving API v2.
//
// The paper's motivating workloads (taxi sharing, what-if facility
// planning) issue many heat-map requests over the *same* client/facility
// population: a session renders its circles at several resolutions, a
// what-if exploration toggles between a handful of placements, a tile
// server fans one city-wide set out across tiles. Inlining the circle
// vector into every request copies the dataset per submit and re-hashes
// it per cache probe. The registry replaces the inline vector with a
// CircleSetHandle: a small, trivially copyable, wire-transferable
// identity (registry id + 64-bit content hash) backed by a ref-counted
// immutable CircleSetSnapshot.
//
// Content addressing: two registrations of byte-identical (circles,
// metric) content deduplicate to the same handle — the registry compares
// full content on hash-bucket candidates, so a 64-bit collision yields
// two distinct handles rather than aliasing two different sets. The
// content hash doubles as the engine's SweepCache key component, which is
// what makes cache lookups O(1) in the circle count for handle requests.
// Hashing and equality agree bit-for-bit: coordinates are compared by
// their IEEE-754 bit patterns with -0.0 canonicalized to +0.0 first, so
// sets differing only in the sign of a zero deduplicate (and hash alike),
// and a NaN coordinate equals itself instead of spawning a duplicate
// entry per registration.
//
// Lifetime: the registry holds one reference per net Register of a given
// content (Register of already-registered content bumps a registration
// count; Release decrements it). What happens at zero is governed by
// CircleSetRegistryOptions: by default the entry is erased immediately
// (the legacy behavior); with a retention budget the entry moves to an
// *unpinned* LRU list instead — still resolvable by handle or hash, but
// evictable when the budget overflows. Snapshots are shared_ptr-backed,
// so resolved snapshots outlive a Release or an eviction — in-flight
// requests keep the data alive. All CircleSetRegistry methods are
// thread-safe.
//
// Deltas: ticking workloads move a few circles per update. ApplyDelta
// derives a new registered snapshot from a base handle plus an edit list
// without the caller re-shipping the set, and reports the dirty
// x-intervals the edits perturb so the server can splice-recompute only
// the affected pixel columns (heatmap/incremental.h).
#ifndef RNNHM_QUERY_CIRCLE_SET_REGISTRY_H_
#define RNNHM_QUERY_CIRCLE_SET_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dirty_interval.h"
#include "geom/geometry.h"

namespace rnnhm {

/// The identity of a registered circle set: `id` names the registry entry
/// (unique per distinct content within one registry, never reused),
/// `content_hash` fingerprints the (circles, metric) content. The hash is
/// what crosses process boundaries — a peer that registered the same
/// content computes the same hash — while the id is local to one
/// registry. A default-constructed handle is invalid.
struct CircleSetHandle {
  uint64_t id = 0;
  uint64_t content_hash = 0;

  bool valid() const { return id != 0; }

  friend bool operator==(const CircleSetHandle&,
                         const CircleSetHandle&) = default;
};

/// 64-bit FNV-1a fingerprint of a circle set's content: the metric, then
/// every circle's center/radius/client in order. Coordinates hash by
/// their bit patterns with -0.0 canonicalized to +0.0, matching
/// CircleSetSnapshot::SameContent exactly. This is the canonical content
/// hash shared by the registry, the engine's SweepCache and the wire
/// protocol — keep them in lockstep.
uint64_t HashCircleSet(std::span<const NnCircle> circles, Metric metric);

/// One edit in a delta registration: the unit of change a ticking session
/// emits and the wire protocol's delta frames carry. Edits apply in list
/// order to a copy of the base set's circle vector:
///   kReplace    — circles[index] = circle (a client moved / requeried);
///   kAppend     — circles.push_back(circle) (a client joined);
///   kSwapRemove — circles[index] = circles.back(); pop_back() (a circle
///                 left; deterministic O(1) removal — note the survivor's
///                 *position* changes, which affects the content hash but
///                 never the rasterized heat map).
/// Client and server must apply identical semantics or their content
/// hashes diverge; the wire path verifies the expected hash.
struct CircleSetEdit {
  enum class Kind : uint8_t { kReplace = 0, kAppend = 1, kSwapRemove = 2 };

  Kind kind = Kind::kReplace;
  uint32_t index = 0;  // target of kReplace/kSwapRemove; ignored by kAppend
  NnCircle circle;     // payload of kReplace/kAppend; ignored by kSwapRemove
};

/// Retention policy for entries whose registration count reaches zero.
/// With both budgets zero (the default) an entry is erased the moment its
/// last registration is released — the legacy behavior every short-lived
/// caller expects. With a nonzero budget, fully released entries are
/// retained *unpinned* in LRU order (still resolvable, so a reconnecting
/// client's by-hash requests keep hitting) until the budget overflows;
/// a zero on one axis leaves that axis unconstrained.
struct CircleSetRegistryOptions {
  /// Maximum number of unpinned entries retained (0 = unconstrained,
  /// unless both budgets are zero — then nothing is retained at all).
  size_t max_unpinned_entries = 0;
  /// Maximum total circle-payload bytes across unpinned entries.
  size_t max_unpinned_bytes = 0;

  bool retention_enabled() const {
    return max_unpinned_entries > 0 || max_unpinned_bytes > 0;
  }
};

/// An immutable circle set plus the metric its radii were measured in and
/// its content hash, computed once at construction. Snapshots are always
/// held through shared_ptr<const CircleSetSnapshot>; the circle data is
/// safe to read concurrently and never changes.
class CircleSetSnapshot {
 public:
  /// Builds a snapshot, hashing the content once. Moving the vector in
  /// makes construction copy-free.
  static std::shared_ptr<const CircleSetSnapshot> Make(
      std::vector<NnCircle> circles, Metric metric);

  const std::vector<NnCircle>& circles() const { return circles_; }
  Metric metric() const { return metric_; }
  uint64_t content_hash() const { return content_hash_; }

  /// True iff the (circles, metric) content is identical under the same
  /// bit-level comparison HashCircleSet uses: -0.0 equals +0.0, a NaN
  /// equals the same NaN bit pattern. SameContent(a) implies equal
  /// content hashes.
  bool SameContent(std::span<const NnCircle> circles, Metric metric) const;

 private:
  CircleSetSnapshot(std::vector<NnCircle> circles, Metric metric);

  std::vector<NnCircle> circles_;
  Metric metric_;
  uint64_t content_hash_;
};

/// Thread-safe, deduplicating store of circle-set snapshots with an
/// optional bounded retention of fully released entries.
///
/// Locking: lookups (Resolve, FindByHash, the size/byte counters) take a
/// shared lock and run concurrently with each other — a serving fleet's
/// hot path is resolve-dominated, and readers must not queue behind one
/// another. Mutations (Register, Release, ApplyDelta) take the lock
/// exclusively. The only thing a lookup writes is LRU recency, which is
/// guarded by a separate leaf mutex (`lru_mu_`): shared-lock holders
/// contend there only with each other, and writers (who already exclude
/// every reader through `mu_`) take it uncontended for their own LRU
/// mutations, so the whole LRU state has exactly one guarding mutex the
/// thread-safety analysis can verify. Lock order: mu_ before lru_mu_,
/// never the reverse — encoded on `lru_mu_` via RNNHM_ACQUIRED_AFTER, so
/// a reversed acquisition is a compile-time diagnostic under Clang's
/// -Wthread-safety-beta.
class CircleSetRegistry {
 public:
  CircleSetRegistry() = default;
  explicit CircleSetRegistry(const CircleSetRegistryOptions& options)
      : options_(options) {}
  CircleSetRegistry(const CircleSetRegistry&) = delete;
  CircleSetRegistry& operator=(const CircleSetRegistry&) = delete;

  /// Registers the content and returns its handle. Already-registered
  /// content (full equality, not just hash equality) returns the existing
  /// handle and bumps its registration count — re-pinning it if it was
  /// sitting unpinned in the retention list; the vector is moved into
  /// the new snapshot otherwise.
  CircleSetHandle Register(std::vector<NnCircle> circles, Metric metric)
      RNNHM_EXCLUDES(mu_);

  /// As above without taking ownership: the circles are copied only when
  /// the content is new. Use for callers that keep their own vector (a
  /// session publishing its working set every tick).
  CircleSetHandle Register(std::span<const NnCircle> circles, Metric metric)
      RNNHM_EXCLUDES(mu_);

  /// The validating form for untrusted input: registers exactly like the
  /// overloads above and fills `*handle`, or returns kInvalidArgument and
  /// registers nothing when any center or radius is non-finite. (A
  /// negative radius is accepted: it denotes an empty circle; see
  /// NnCircle.) The trusting overloads leave that check to their callers.
  Status Register(std::vector<NnCircle> circles, Metric metric,
                  CircleSetHandle* handle) RNNHM_EXCLUDES(mu_);

  /// Derives and registers a new snapshot: base's circles with `edits`
  /// applied in order (the base's metric carries over). On success fills
  /// `*derived` (registration count bumped once, exactly like Register —
  /// dedup applies if the content already exists) and returns Ok.
  ///   kNotFound        — base unknown, fully released, or evicted;
  ///   kInvalidArgument — an edit indexes out of range or carries a
  ///                      non-finite center or radius, or the derived
  ///                      content hash differs from `*expected_hash`
  ///                      (client/server edit semantics diverged); nothing
  ///                      is registered in any of these cases.
  /// When `dirty` is non-null, the bounding rects every edit perturbs (old
  /// and new footprints of replaced circles, footprints of
  /// appended/removed ones) are Add()ed to it — the exact input
  /// RecomputeDirtyColumns needs to splice instead of rebuild. When
  /// `base_out` is non-null it receives the base snapshot (pinned),
  /// saving the caller a second Resolve.
  Status ApplyDelta(const CircleSetHandle& base,
                    std::span<const CircleSetEdit> edits,
                    std::optional<uint64_t> expected_hash,
                    CircleSetHandle* derived, DirtyRegionSet* dirty = nullptr,
                    std::shared_ptr<const CircleSetSnapshot>* base_out =
                        nullptr) RNNHM_EXCLUDES(mu_);

  /// The snapshot behind a handle, or null when the handle was never
  /// issued by this registry, has been erased or evicted, or carries a
  /// content hash that does not match its entry (a stale or forged
  /// handle). Resolving an unpinned entry refreshes its LRU position.
  std::shared_ptr<const CircleSetSnapshot> Resolve(
      const CircleSetHandle& handle) const RNNHM_EXCLUDES(mu_);

  /// The handle of the unique entry registered under `content_hash`, or
  /// an invalid handle. This is the wire server's by-reference lookup.
  /// When two *distinct* contents are resident under one hash (a true
  /// 64-bit collision), the hash alone cannot name either set, so the
  /// lookup reports not-found rather than guessing — resolving the wrong
  /// circle set would silently serve a wrong heat map. Callers holding
  /// full content should additionally verify via Resolve + SameContent.
  CircleSetHandle FindByHash(uint64_t content_hash) const
      RNNHM_EXCLUDES(mu_);

  /// Decrements the handle's registration count. At zero the entry is
  /// erased immediately (default options) or moved to the unpinned
  /// retention list (nonzero budgets), possibly evicting older unpinned
  /// entries over budget. Returns false for an unknown, evicted, or
  /// already fully released handle — releasing an unpinned entry again is
  /// a safe no-op, never an underflow. Outstanding shared_ptrs keep the
  /// data alive either way.
  bool Release(const CircleSetHandle& handle) RNNHM_EXCLUDES(mu_);

  /// Number of resident entries (pinned + unpinned).
  size_t size() const RNNHM_EXCLUDES(mu_);

  /// Total circle-payload bytes across resident entries.
  size_t resident_bytes() const RNNHM_EXCLUDES(mu_);

  /// Number of resident entries with zero registrations (retained only
  /// by the retention budget).
  size_t unpinned_entries() const RNNHM_EXCLUDES(mu_);

  /// Entries evicted by the retention budget since construction.
  size_t total_evicted() const RNNHM_EXCLUDES(mu_);

  /// Test seam for hash-collision coverage: registers `circles` as a NEW
  /// entry filed under `forced_hash` instead of its true content hash,
  /// bypassing dedup. Real 64-bit FNV collisions are infeasible to
  /// construct, but the wire path must still survive one — this injects
  /// the collision the tests need. Never call outside tests.
  CircleSetHandle RegisterWithHashForTesting(std::vector<NnCircle> circles,
                                             Metric metric,
                                             uint64_t forced_hash)
      RNNHM_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const CircleSetSnapshot> set;
    size_t registrations = 0;
    // The hash this entry is filed under in by_hash_. Equals
    // set->content_hash() except for RegisterWithHashForTesting entries.
    uint64_t hash = 0;
    // Position in unpinned_lru_; valid iff registrations == 0 and the
    // entry is retained.
    std::list<uint64_t>::iterator lru;
  };

  // Shared body of both Register overloads: `owned`, when non-null, is
  // moved into a new snapshot; otherwise `circles` is copied on demand.
  CircleSetHandle RegisterImpl(std::span<const NnCircle> circles,
                               Metric metric, std::vector<NnCircle>* owned)
      RNNHM_EXCLUDES(mu_);

  // Moves a zero-registration entry onto the unpinned LRU (front = most
  // recently used); takes lru_mu_ itself for the list mutation.
  void UnpinLocked(uint64_t id, Entry& entry) RNNHM_REQUIRES(mu_);
  // Removes an unpinned entry from the LRU on re-registration; takes
  // lru_mu_ itself.
  void RepinLocked(Entry& entry) RNNHM_REQUIRES(mu_);
  // Refreshes an unpinned entry's LRU position. Called with mu_ held at
  // least shared; takes lru_mu_ itself (splice keeps every entry's lru
  // iterator valid, so concurrent readers only contend on list pointers).
  void TouchLocked(const Entry& entry) const RNNHM_REQUIRES_SHARED(mu_);
  // Erases `id` from both maps and the byte accounting.
  void EraseLocked(uint64_t id) RNNHM_REQUIRES(mu_);
  // True iff the unpinned set exceeds either retention budget.
  bool OverBudgetLocked() const RNNHM_REQUIRES(lru_mu_);
  // Evicts LRU-tail unpinned entries until within budget; takes lru_mu_
  // itself across the eviction loop.
  void EvictOverBudgetLocked() RNNHM_REQUIRES(mu_);

  static size_t PayloadBytes(const CircleSetSnapshot& set) {
    return set.circles().size() * sizeof(NnCircle);
  }

  const CircleSetRegistryOptions options_;

  mutable SharedMutex mu_;
  // Leaf lock for the LRU recency state. Shared-lock holders take it to
  // splice recency; writers take it (uncontended — exclusive mu_ already
  // excludes every reader) for their own LRU mutations. Always acquired
  // while mu_ is held, never the other way around.
  mutable Mutex lru_mu_ RNNHM_ACQUIRED_AFTER(mu_);
  uint64_t next_id_ RNNHM_GUARDED_BY(mu_) = 1;
  // Mutable so the const lookups (Resolve, FindByHash) can refresh LRU
  // recency under mu_.
  mutable std::unordered_map<uint64_t, Entry> by_id_ RNNHM_GUARDED_BY(mu_);
  // content_hash -> ids with that hash (more than one only on a true
  // 64-bit collision between distinct contents).
  mutable std::unordered_multimap<uint64_t, uint64_t> by_hash_
      RNNHM_GUARDED_BY(mu_);
  // Unpinned entries, most recently used first.
  mutable std::list<uint64_t> unpinned_lru_ RNNHM_GUARDED_BY(lru_mu_);
  size_t resident_bytes_ RNNHM_GUARDED_BY(mu_) = 0;
  size_t unpinned_bytes_ RNNHM_GUARDED_BY(lru_mu_) = 0;
  size_t total_evicted_ RNNHM_GUARDED_BY(mu_) = 0;
};

/// Tracks the registrations a connection (or stream) owns and releases
/// them when the connection goes away — the per-connection half of the
/// memory bound for long-lived servers. Every Track() corresponds to
/// exactly one Register/ApplyDelta bump; with a nonzero cap the oldest
/// tracked registration is released as new ones push past it, bounding
/// what one chatty client can pin. Not thread-safe: one scope belongs to
/// one connection.
class RegistrationScope {
 public:
  RegistrationScope() = default;
  explicit RegistrationScope(CircleSetRegistry* registry,
                             size_t max_tracked = 0)
      : registry_(registry), max_tracked_(max_tracked) {}
  RegistrationScope(const RegistrationScope&) = delete;
  RegistrationScope& operator=(const RegistrationScope&) = delete;
  ~RegistrationScope() { ReleaseAll(); }

  /// Takes ownership of one registration bump. With a cap, releases the
  /// oldest tracked handle once the cap is exceeded.
  void Track(const CircleSetHandle& handle);

  /// Releases every tracked registration (idempotent).
  void ReleaseAll();

  size_t tracked() const { return handles_.size(); }

 private:
  CircleSetRegistry* registry_ = nullptr;
  size_t max_tracked_ = 0;
  std::deque<CircleSetHandle> handles_;
};

}  // namespace rnnhm

#endif  // RNNHM_QUERY_CIRCLE_SET_REGISTRY_H_
