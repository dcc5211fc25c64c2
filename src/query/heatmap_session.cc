#include "query/heatmap_session.h"

#include "common/check.h"
#include "core/crest_parallel.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {

HeatmapSession::HeatmapSession(std::vector<Point> clients,
                               std::vector<Point> facilities, Metric metric)
    : metric_(metric),
      clients_(std::move(clients)),
      facilities_(std::move(facilities)) {
  RNNHM_CHECK_MSG(!facilities_.empty(),
                  "a session needs at least one facility");
  circles_.reserve(clients_.size());
  client_nn_.assign(clients_.size(), -1);
  EnsureFacilityTree();
  for (size_t i = 0; i < clients_.size(); ++i) {
    circles_.push_back(NnCircle{clients_[i], 0.0, static_cast<int32_t>(i)});
    RequeryClient(static_cast<int32_t>(i));
  }
  dirty_.Clear();  // the first raster is a full build anyway
}

void HeatmapSession::MarkCircleDirty(const NnCircle& circle) {
  dirty_.AddRect(circle.Bounds());
}

void HeatmapSession::EnsureFacilityTree() {
  if (facility_tree_ == nullptr) {
    facility_tree_ = std::make_unique<KdTree>(facilities_);
  }
}

void HeatmapSession::RequeryClient(int32_t id, bool record) {
  EnsureFacilityTree();
  const NnResult nn = facility_tree_->Nearest(clients_[id], metric_);
  RNNHM_DCHECK(nn.index >= 0);
  circles_[id] = NnCircle{clients_[id], nn.distance, id};
  client_nn_[id] = nn.index;
  // The new footprint is dirty; callers whose edit also removed an old
  // footprint (MoveClient) mark that one themselves before updating.
  MarkCircleDirty(circles_[id]);
  if (record) {
    RecordEdit(CircleSetEdit{CircleSetEdit::Kind::kReplace,
                             static_cast<uint32_t>(id), circles_[id]});
  }
}

void HeatmapSession::RecordEdit(const CircleSetEdit& edit) {
  if (journal_enabled_) edits_.push_back(edit);
}

void HeatmapSession::MoveClient(int32_t id, const Point& to) {
  RNNHM_CHECK(id >= 0 && id < static_cast<int32_t>(clients_.size()));
  MarkCircleDirty(circles_[id]);  // influence changes inside the old circle
  clients_[id] = to;
  RequeryClient(id);
}

int32_t HeatmapSession::AddClient(const Point& at) {
  const int32_t id = static_cast<int32_t>(clients_.size());
  clients_.push_back(at);
  circles_.push_back(NnCircle{at, 0.0, id});
  client_nn_.push_back(-1);
  // The placeholder circle never existed in the previous tick, so the
  // journal entry is the append of the final circle, not a replace.
  RequeryClient(id, /*record=*/false);
  RecordEdit(CircleSetEdit{CircleSetEdit::Kind::kAppend, 0, circles_[id]});
  return id;
}

void HeatmapSession::AddFacility(const Point& at) {
  const int32_t id = static_cast<int32_t>(facilities_.size());
  facilities_.push_back(at);
  facility_tree_.reset();  // rebuilt on next NN query
  // The new facility shrinks exactly the circles that now reach it first
  // (ties keep the incumbent, matching the k-d tree's smallest-index rule).
  for (size_t i = 0; i < clients_.size(); ++i) {
    const double d = Distance(clients_[i], at, metric_);
    if (d < circles_[i].radius) {
      // A shrink keeps the center: the old footprint covers the new one,
      // so marking it dirty covers every point whose RNN set changed.
      MarkCircleDirty(circles_[i]);
      circles_[i].radius = d;
      client_nn_[i] = id;
      RecordEdit(CircleSetEdit{CircleSetEdit::Kind::kReplace,
                               static_cast<uint32_t>(i), circles_[i]});
    }
  }
}

void HeatmapSession::RemoveFacility(int32_t id) {
  RNNHM_CHECK(id >= 0 && id < static_cast<int32_t>(facilities_.size()));
  RNNHM_CHECK_MSG(facilities_.size() >= 2,
                  "cannot remove the last facility");
  const int32_t last = static_cast<int32_t>(facilities_.size()) - 1;
  facilities_[id] = facilities_[last];
  facilities_.pop_back();
  facility_tree_.reset();
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (client_nn_[i] == id) {
      RequeryClient(static_cast<int32_t>(i));
    } else if (client_nn_[i] == last) {
      client_nn_[i] = id;  // the swapped facility kept its location
    }
  }
}

void HeatmapSession::Rebuild(const InfluenceMeasure& measure,
                             RegionLabelSink* sink,
                             const CrestOptions& options) const {
  switch (metric_) {
    case Metric::kLInf:
      RunCrest(circles_, measure, sink, options);
      break;
    case Metric::kL1:
      RunCrestL1(circles_, measure, sink, options);
      break;
    case Metric::kL2:
      RunCrestL2(circles_, measure, sink);
      break;
  }
}

MetricSweepStats HeatmapSession::RebuildParallel(
    const InfluenceMeasure& measure,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestOptions& options) const {
  return RunCrestParallelMetric(metric_, circles_, measure, shard_sinks,
                                options);
}

const HeatmapGrid& HeatmapSession::RasterIncremental(
    const InfluenceMeasure& measure, const Rect& domain, int width,
    int height, IncrementalRebuildStats* stats) {
  IncrementalRebuildStats out;
  const bool spliceable =
      raster_ != nullptr && raster_measure_ == &measure &&
      raster_->width() == width && raster_->height() == height &&
      raster_->domain() == domain;
  if (spliceable) {
    out.raster =
        RecomputeDirtyColumns(raster_.get(), metric_, circles_, measure,
                              dirty_);
  } else {
    out.full_rebuild = true;
    raster_ = std::make_unique<HeatmapGrid>(BuildHeatmapForMetric(
        metric_, circles_, measure, domain, width, height));
    raster_measure_ = &measure;
  }
  dirty_.Clear();
  if (stats != nullptr) *stats = out;
  return *raster_;
}

void HeatmapSession::InvalidateRaster() {
  raster_.reset();
  raster_measure_ = nullptr;
  dirty_.Clear();
}

CircleSetHandle HeatmapSession::PublishCircles(CircleSetRegistry& registry) {
  // The span overload copies the circles only when the content is new to
  // the registry; a tick that reverted (or a sibling session at the same
  // state) deduplicates to the existing snapshot.
  const CircleSetHandle handle =
      registry.Register(std::span<const NnCircle>(circles_), metric_);
  // Drop the previous tick's registration (after the new one, so shared
  // content never transits through zero). Re-publishing unchanged content
  // nets out: Register bumped the count, this restores it.
  if (published_registry_ == &registry && published_.valid()) {
    registry.Release(published_);
  }
  published_ = handle;
  published_registry_ = &registry;
  return handle;
}

bool HeatmapSession::ReleasePublication() {
  const bool released = published_registry_ != nullptr && published_.valid() &&
                        published_registry_->Release(published_);
  published_ = CircleSetHandle{};
  published_registry_ = nullptr;
  return released;
}

void HeatmapSession::EnableEditJournal(bool on) {
  journal_enabled_ = on;
  edits_.clear();
}

std::vector<CircleSetEdit> HeatmapSession::TakeCircleEdits() {
  std::vector<CircleSetEdit> out = std::move(edits_);
  edits_.clear();
  return out;
}

HeatmapResponse HeatmapSession::RenderThroughEngine(HeatmapEngine& engine,
                                                    const Rect& domain,
                                                    int width, int height) {
  const CircleSetHandle handle = PublishCircles(engine.registry());
  return engine.Execute(HeatmapRequestV2{handle, domain, width, height});
}

}  // namespace rnnhm
