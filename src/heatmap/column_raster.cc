#include "heatmap/column_raster.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <thread>
#include <typeinfo>
#include <vector>

#include "common/check.h"
#include "heatmap/influence.h"

namespace rnnhm {

namespace {

// Columns per batch: chords are generated for a batch of columns at a
// time (one ArcYAtColumns call per circle and batch), so a worker's event
// lists hold at most kBatch columns' worth of chords.
constexpr int kBatch = 64;

// A circle whose column run meets the window: its index in the input and
// its exact column run; for L∞ also its exact row run, which is the same
// in every column.
struct CircleRun {
  int32_t index;
  int col_lo;
  int col_hi;
  int row_lo;
  int row_hi;
};

// The exact run [*lo, *hi) of indices in [begin, end) where `inside`
// holds, given estimates `lo`/`hi` of its ends. `inside` must hold on one
// contiguous run that, when non-empty, includes the index nearest
// `center` within [begin, end) — true of Contains along any pixel row or
// column, whose computed distance never decreases away from the circle's
// center. Returns false when the run is empty.
template <typename Inside>
bool ExactRun(const PixelAxis& axis, int begin, int end, double center,
              int lo, int hi, const Inside& inside, int* run_lo,
              int* run_hi) {
  if (begin >= end) return false;
  // An index inside the run: the estimate's first index usually is; else
  // the nearest center, LowerBound(center) or the one below it.
  int anchor = std::clamp(lo, begin, end - 1);
  if (!inside(anchor)) {
    const int a = std::clamp(axis.LowerBound(center), begin, end - 1);
    if (inside(a)) {
      anchor = a;
    } else if (a > begin && inside(a - 1)) {
      anchor = a - 1;
    } else {
      return false;
    }
  }
  lo = std::clamp(lo, begin, anchor);
  if (lo == anchor || inside(lo)) {
    while (lo > begin && inside(lo - 1)) --lo;
  } else {
    do ++lo; while (!inside(lo));  // stops at the anchor at the latest
  }
  hi = std::clamp(hi, anchor + 1, end);
  if (hi == anchor + 1 || inside(hi - 1)) {
    while (hi < end && inside(hi)) ++hi;
  } else {
    do --hi; while (!inside(hi - 1));
  }
  *run_lo = lo;
  *run_hi = hi;
  return true;
}

// The RNN set of the pixel being walked: client ids in a dense array
// (what Evaluate reads), keyed by circle index for O(1) swap-removal.
class DenseIdSet {
 public:
  explicit DenseIdSet(size_t universe) : slot_(universe, -1) {}

  void Add(int32_t index, int32_t client) {
    slot_[index] = static_cast<int32_t>(clients_.size());
    clients_.push_back(client);
    owners_.push_back(index);
  }

  void Remove(int32_t index) {
    const int32_t s = slot_[index];
    clients_[s] = clients_.back();
    owners_[s] = owners_.back();
    slot_[owners_[s]] = s;
    clients_.pop_back();
    owners_.pop_back();
    slot_[index] = -1;
  }

  bool empty() const { return clients_.empty(); }
  std::span<const int32_t> span() const { return clients_; }

 private:
  std::vector<int32_t> clients_;
  std::vector<int32_t> owners_;  // circle index per dense slot
  std::vector<int32_t> slot_;    // dense slot per circle index, or -1
};

// An event key packs (row, circle index, exit flag).
uint64_t EventKey(int row, int32_t index, bool exit) {
  return (static_cast<uint64_t>(row) << 32) |
         (static_cast<uint64_t>(index) << 1) | (exit ? 1u : 0u);
}

class ColumnWorker {
 public:
  ColumnWorker(Metric metric, std::span<const NnCircle> circles,
               std::span<const CircleRun> runs, const PixelAxis& cols,
               const PixelAxis& rows, const PixelWindow& window,
               int origin_col, int origin_row, bool counts, HeatmapGrid* out)
      : metric_(metric),
        circles_(circles),
        runs_(runs),
        cols_(cols),
        rows_(rows),
        window_(window),
        origin_col_(origin_col),
        origin_row_(origin_row),
        out_(out),
        counts_(counts),
        events_(counts ? 0 : kBatch),
        set_(counts ? 0 : circles.size()) {}

  // Paints columns [col_lo, col_hi) of the window with `measure`, or with
  // RNN-set sizes, without calling it, when the worker counts.
  void Run(int col_lo, int col_hi, const InfluenceMeasure& measure) {
    if (!counts_) background_ = measure.Evaluate({});
    for (int b0 = col_lo; b0 < col_hi; b0 += kBatch) {
      const int b1 = std::min(b0 + kBatch, col_hi);
      if (counts_) {
        for (int j = window_.row_lo; j < window_.row_hi; ++j) {
          std::fill(Cell(b0, j), Cell(b1, j), 0.0);
        }
      } else {
        for (int i = 0; i < b1 - b0; ++i) events_[i].clear();
      }
      for (const CircleRun& run : runs_) {
        const int a = std::max(run.col_lo, b0);
        const int e = std::min(run.col_hi, b1);
        if (a < e) AddChords(run, a, e, b0);
      }
      if (counts_) {
        // Prefix sums up the rows turn each column's +1/-1 into counts.
        for (int j = window_.row_lo + 1; j < window_.row_hi; ++j) {
          const double* below = Cell(b0, j - 1);
          double* row = Cell(b0, j);
          for (int i = 0; i < b1 - b0; ++i) row[i] += below[i];
        }
      } else {
        for (int i = b0; i < b1; ++i) WalkColumn(i, measure, events_[i - b0]);
      }
    }
  }

  size_t num_chords() const { return num_chords_; }
  size_t num_evaluations() const { return num_evaluations_; }

 private:
  // Output cell of global pixel (i, j).
  double* Cell(int i, int j) const {
    return out_->Row(j - origin_row_) + (i - origin_col_);
  }

  // Records circle `index`'s chord [row_lo, row_hi) in column
  // b0 + column_slot: two events to walk, or, when counting, +1 at its
  // first row and -1 past its last (dropped at the window's top edge).
  void Push(int b0, int column_slot, int32_t index, int row_lo, int row_hi) {
    ++num_chords_;
    if (counts_) {
      *Cell(b0 + column_slot, row_lo) += 1.0;
      if (row_hi < window_.row_hi) *Cell(b0 + column_slot, row_hi) -= 1.0;
      return;
    }
    events_[column_slot].push_back(EventKey(row_lo, index, false));
    events_[column_slot].push_back(EventKey(row_hi, index, true));
  }

  // Emits the chords of `run`'s circle over columns [a, e) of the batch
  // starting at column b0.
  void AddChords(const CircleRun& run, int a, int e, int b0) {
    const NnCircle& c = circles_[run.index];
    if (metric_ == Metric::kLInf) {
      for (int i = a; i < e; ++i) {
        Push(b0, i - b0, run.index, run.row_lo, run.row_hi);
      }
      return;
    }
    const double* xs = cols_.centers();
    const double* ys = rows_.centers();
    if (metric_ == Metric::kL2) {
      ArcYAtColumns(c.center, c.radius, false, xs + a, ylo_, e - a);
      ArcYAtColumns(c.center, c.radius, true, xs + a, yhi_, e - a);
    }
    for (int i = a; i < e; ++i) {
      const double x = xs[i];
      int lo, hi;
      if (metric_ == Metric::kL1) {
        const double h = c.radius - std::fabs(c.center.x - x);
        lo = rows_.LowerBound(c.center.y - h);
        hi = rows_.LowerBound(c.center.y + h);
      } else {
        lo = rows_.LowerBound(ylo_[i - a]);
        hi = rows_.LowerBound(yhi_[i - a]);
      }
      const auto inside = [&](int j) {
        return c.Contains(Point{x, ys[j]}, metric_);
      };
      if (ExactRun(rows_, window_.row_lo, window_.row_hi, c.center.y, lo, hi,
                   inside, &lo, &hi)) {
        Push(b0, i - b0, run.index, lo, hi);
      }
    }
  }

  // Walks column i's events bottom to top, filling each run of rows
  // between event rows with the value of the set live over it.
  void WalkColumn(int i, const InfluenceMeasure& measure,
                  const std::vector<uint64_t>& unsorted) {
    // Counting sort by row. Chords are pushed in circle-index order (runs_
    // is in index order) and the sort is stable, so the walk sees the
    // events in (row, circle index) order.
    const int rows = window_.height() + 1;  // exits may sit at row_hi
    row_end_.assign(rows + 1, 0);
    for (const uint64_t key : unsorted) {
      ++row_end_[static_cast<int>(key >> 32) - window_.row_lo + 1];
    }
    for (int r = 0; r < rows; ++r) row_end_[r + 1] += row_end_[r];
    sorted_.resize(unsorted.size());
    for (const uint64_t key : unsorted) {
      sorted_[row_end_[static_cast<int>(key >> 32) - window_.row_lo]++] = key;
    }
    const size_t stride = static_cast<size_t>(out_->width());
    double* column = out_->data() + (i - origin_col_);
    const auto fill = [&](int from, int to, double value) {
      double* p = column + static_cast<size_t>(from - origin_row_) * stride;
      for (int j = from; j < to; ++j, p += stride) *p = value;
    };
    double value = background_;
    int row = window_.row_lo;
    for (size_t k = 0; k < sorted_.size();) {
      const int at = static_cast<int>(sorted_[k] >> 32);
      fill(row, at, value);
      for (; k < sorted_.size() && static_cast<int>(sorted_[k] >> 32) == at;
           ++k) {
        const uint64_t key = sorted_[k];
        const int32_t index = static_cast<int32_t>((key >> 1) & 0x7fffffffu);
        if (key & 1u) {
          set_.Remove(index);
        } else {
          set_.Add(index, circles_[index].client);
        }
      }
      if (set_.empty()) {
        value = background_;
      } else {
        value = measure.Evaluate(set_.span());
        ++num_evaluations_;
      }
      row = at;
    }
    fill(row, window_.row_hi, value);
  }

  const Metric metric_;
  const std::span<const NnCircle> circles_;
  const std::span<const CircleRun> runs_;
  const PixelAxis& cols_;
  const PixelAxis& rows_;
  const PixelWindow window_;
  const int origin_col_;
  const int origin_row_;
  HeatmapGrid* const out_;
  const bool counts_;  // paint RNN-set sizes from difference counts
  std::vector<std::vector<uint64_t>> events_;  // per batch column
  std::vector<uint64_t> sorted_;               // the walked column's events
  std::vector<int> row_end_;                   // counting-sort buckets
  DenseIdSet set_;
  double ylo_[kBatch];
  double yhi_[kBatch];
  double background_ = 0.0;
  size_t num_chords_ = 0;
  size_t num_evaluations_ = 0;
};

// True when every block's measure is exactly SizeInfluence, whose value
// is the RNN set's size: the kernel then counts instead of walking. The
// exact type decides, so a subclass that overrides Evaluate is walked.
bool CountsSizes(std::span<const InfluenceMeasure* const> measures) {
  return std::all_of(measures.begin(), measures.end(),
                     [](const InfluenceMeasure* m) {
                       return typeid(*m) == typeid(SizeInfluence);
                     });
}

// Size-only L∞: every circle's pixels are the rectangle of its column run
// by its row run, so a 2-D difference array laid over the window's own
// output cells takes 4 corner updates per circle and one prefix pass turns
// it into counts. Corners on the window's right or top edge lie outside
// it and are dropped, since a prefix sum never carries them back in.
// Returns the circles' chords, as the walk would count them.
size_t PaintLInfCounts(std::span<const CircleRun> runs,
                       const PixelWindow& window, int origin_col,
                       int origin_row, HeatmapGrid* out) {
  const auto cell = [&](int i, int j) {
    return out->Row(j - origin_row) + (i - origin_col);
  };
  for (int j = window.row_lo; j < window.row_hi; ++j) {
    std::fill(cell(window.col_lo, j), cell(window.col_hi, j), 0.0);
  }
  size_t chords = 0;
  for (const CircleRun& run : runs) {
    chords += static_cast<size_t>(run.col_hi - run.col_lo);
    const bool right = run.col_hi < window.col_hi;
    *cell(run.col_lo, run.row_lo) += 1.0;
    if (right) *cell(run.col_hi, run.row_lo) -= 1.0;
    if (run.row_hi < window.row_hi) {
      *cell(run.col_lo, run.row_hi) -= 1.0;
      if (right) *cell(run.col_hi, run.row_hi) += 1.0;
    }
  }
  const int width = window.width();
  for (int j = window.row_lo; j < window.row_hi; ++j) {
    double* row = cell(window.col_lo, j);
    double sum = 0.0;
    for (int i = 0; i < width; ++i) row[i] = sum += row[i];
    if (j == window.row_lo) continue;
    const double* below = cell(window.col_lo, j - 1);
    for (int i = 0; i < width; ++i) row[i] += below[i];
  }
  return chords;
}

}  // namespace

PixelAxis ColumnAxis(const Rect& domain, int width) {
  return PixelAxis(domain.lo.x, (domain.hi.x - domain.lo.x) / width, width);
}

PixelAxis RowAxis(const Rect& domain, int height) {
  return PixelAxis(domain.lo.y, (domain.hi.y - domain.lo.y) / height, height);
}

ColumnRasterStats RasterizeColumns(
    Metric metric, std::span<const NnCircle> circles,
    std::span<const InfluenceMeasure* const> measures, const PixelAxis& cols,
    const PixelAxis& rows, const PixelWindow& window, int origin_col,
    int origin_row, HeatmapGrid* out) {
  RNNHM_CHECK(out != nullptr && !measures.empty());
  RNNHM_CHECK(window.col_lo >= 0 && window.col_hi <= cols.size() &&
              window.row_lo >= 0 && window.row_hi <= rows.size());
  RNNHM_CHECK(origin_col <= window.col_lo && origin_row <= window.row_lo);
  RNNHM_CHECK(window.col_hi - origin_col <= out->width() &&
              window.row_hi - origin_row <= out->height());
  RNNHM_CHECK_MSG(circles.size() < (size_t{1} << 31),
                  "circle indices must fit the event key");
  ColumnRasterStats stats;
  if (window.empty()) return stats;

  // Exact column run of every circle (and L∞ row run): a pixel column
  // holds a contained center only if the center level with the circle's
  // own does, so Contains at (x, cy) decides the columns for every metric.
  std::vector<CircleRun> runs;
  const double* xs = cols.centers();
  const double* ys = rows.centers();
  for (size_t k = 0; k < circles.size(); ++k) {
    const NnCircle& c = circles[k];
    RNNHM_DCHECK(IsFinite(c));
    if (!(c.radius >= 0.0)) {
      ++stats.num_skipped_circles;
      continue;
    }
    ++stats.num_circles;
    CircleRun run{static_cast<int32_t>(k), 0, 0, window.row_lo,
                  window.row_hi};
    const auto in_column = [&](int i) {
      return c.Contains(Point{xs[i], c.center.y}, metric);
    };
    if (!ExactRun(cols, window.col_lo, window.col_hi, c.center.x,
                  cols.LowerBound(c.center.x - c.radius),
                  cols.LowerBound(c.center.x + c.radius), in_column,
                  &run.col_lo, &run.col_hi)) {
      continue;
    }
    if (metric == Metric::kLInf) {
      const auto in_row = [&](int j) {
        return c.Contains(Point{c.center.x, ys[j]}, metric);
      };
      if (!ExactRun(rows, window.row_lo, window.row_hi, c.center.y,
                    rows.LowerBound(c.center.y - c.radius),
                    rows.LowerBound(c.center.y + c.radius), in_row,
                    &run.row_lo, &run.row_hi)) {
        continue;
      }
    }
    runs.push_back(run);
  }

  const bool counts = CountsSizes(measures);
  if (counts && metric == Metric::kLInf) {
    stats.num_chords =
        PaintLInfCounts(runs, window, origin_col, origin_row, out);
    return stats;
  }

  // Contiguous column blocks, one thread each (block 0 on the caller's).
  const int blocks = static_cast<int>(
      std::min<size_t>(measures.size(), static_cast<size_t>(window.width())));
  std::vector<ColumnWorker> workers;
  workers.reserve(blocks);
  for (int t = 0; t < blocks; ++t) {
    workers.emplace_back(metric, circles, runs, cols, rows, window,
                         origin_col, origin_row, counts, out);
  }
  const auto block_lo = [&](int t) {
    return window.col_lo + static_cast<int>(
                               static_cast<int64_t>(window.width()) * t /
                               blocks);
  };
  // A failing block (allocation, a throwing measure) is rethrown on the
  // caller's thread, and only after every started thread has joined.
  std::vector<std::exception_ptr> errors(blocks);
  const auto run_block = [&](int t) {
    try {
      workers[t].Run(block_lo(t), block_lo(t + 1), *measures[t]);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(blocks - 1);
  try {
    for (int t = 1; t < blocks; ++t) threads.emplace_back(run_block, t);
  } catch (...) {
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  run_block(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (const ColumnWorker& w : workers) {
    stats.num_chords += w.num_chords();
    stats.num_evaluations += w.num_evaluations();
  }
  return stats;
}

ColumnRasterStats RasterizeGrid(Metric metric,
                                std::span<const NnCircle> circles,
                                const InfluenceMeasure& measure,
                                int num_blocks, HeatmapGrid* grid) {
  RNNHM_CHECK(grid != nullptr && num_blocks >= 1);
  const std::vector<const InfluenceMeasure*> measures(num_blocks, &measure);
  return RasterizeColumns(
      metric, circles, measures, ColumnAxis(grid->domain(), grid->width()),
      RowAxis(grid->domain(), grid->height()),
      PixelWindow{0, grid->width(), 0, grid->height()}, 0, 0, grid);
}

}  // namespace rnnhm
