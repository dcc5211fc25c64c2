// Dirty-region tracking for incremental rasters.
//
// The paper frames heat maps as an interactive exploration tool: a session
// edit (move a client, add a facility, ...) perturbs a handful of
// NN-circles, yet a from-scratch rebuild repaints everything. Because the
// influence at a point p can only change when p's membership in one of the
// *edited* circles changes, the extents of the edited circles' old and
// new footprints bound every pixel whose value may differ. The sets below
// accumulate those extents across edits; the incremental rasterizer
// (heatmap/incremental.h) then repaints only the pixels they cover in the
// retained grid.
#ifndef RNNHM_CORE_DIRTY_INTERVAL_H_
#define RNNHM_CORE_DIRTY_INTERVAL_H_

#include <cstddef>
#include <vector>

#include "geom/geometry.h"

namespace rnnhm {

/// Closed interval [lo, hi] of x-coordinates (lo <= hi).
struct DirtyInterval {
  double lo;
  double hi;

  friend bool operator==(const DirtyInterval&,
                         const DirtyInterval&) = default;
};

/// Accumulates closed x-intervals across session edits and exposes them as
/// a merged, sorted, pairwise-disjoint list. Intervals are merged lazily:
/// Add is O(1) amortized, Merged() is O(b log b) for b pending intervals.
class DirtyIntervalSet {
 public:
  /// Marks [lo, hi] dirty. Requires lo <= hi (a degenerate point interval
  /// is allowed: a zero-radius circle still has a footprint boundary).
  void Add(double lo, double hi);

  /// True iff no interval has been added since construction / last Clear.
  bool empty() const { return intervals_.empty(); }

  /// Number of intervals added since the last Clear (before merging).
  size_t num_pending() const { return intervals_.size(); }

  /// The merged view: sorted ascending, pairwise disjoint (touching
  /// intervals coalesce). Idempotent; Add may follow.
  const std::vector<DirtyInterval>& Merged() const;

  /// Forgets all accumulated intervals (after a rebuild consumed them).
  void Clear();

 private:
  // Mutable so Merged() can normalize in place while staying const to
  // callers that only read the merged view.
  mutable std::vector<DirtyInterval> intervals_;
  mutable bool merged_ = true;
};

/// Closed axis-aligned dirty rectangle: the 2D footprint of an edit.
struct DirtyRect {
  DirtyInterval x;
  DirtyInterval y;

  friend bool operator==(const DirtyRect&, const DirtyRect&) = default;
};

/// Accumulates closed dirty rectangles across session edits and exposes
/// them merged: sorted ascending and pairwise disjoint in x, with rects
/// whose x-intervals overlap or touch coalesced into one — x stays the
/// splice's slab axis — and their y-intervals unioned (a conservative
/// bound; see heatmap/incremental.h for why retaining pixels outside the
/// y-union is exact). Add is O(1) amortized, Merged() is O(b log b) for b
/// pending rects, mirroring DirtyIntervalSet.
class DirtyRegionSet {
 public:
  /// Marks [x_lo, x_hi] x [y_lo, y_hi] dirty. Requires lo <= hi on both
  /// axes (degenerate point footprints are allowed).
  void Add(double x_lo, double x_hi, double y_lo, double y_hi);

  /// Marks a circle footprint's bounding box dirty.
  void AddRect(const Rect& bounds);

  /// True iff nothing has been added since construction / last Clear.
  bool empty() const { return rects_.empty(); }

  /// Number of rects added since the last Clear (before merging).
  size_t num_pending() const { return rects_.size(); }

  /// The merged view: x-sorted, pairwise disjoint in x, y-unioned per
  /// x-group. Idempotent; Add may follow.
  const std::vector<DirtyRect>& Merged() const;

  /// Forgets all accumulated rects (after a rebuild consumed them).
  void Clear();

 private:
  // Mutable so Merged() can normalize in place while staying const to
  // callers that only read the merged view.
  mutable std::vector<DirtyRect> rects_;
  mutable bool merged_ = true;
};

}  // namespace rnnhm

#endif  // RNNHM_CORE_DIRTY_INTERVAL_H_
