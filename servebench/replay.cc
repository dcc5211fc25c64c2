#include "replay.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/label_sink.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "nn/nn_circle_builder.h"
#include "query/heatmap_engine.h"
#include "query/heatmap_session.h"
#include "query/wire.h"
#include "serve/wire_server.h"
#include "tile/tile_plan.h"

namespace servebench {

using rnnhm::CircleSetHandle;
using rnnhm::HeatmapEngine;
using rnnhm::HeatmapRequestV2;
using rnnhm::HeatmapResponse;
using rnnhm::Metric;

namespace {

// Registrations one connection may hold on the server (serve's default
// --max-conn-sets), mirrored by the replay's per-connection scopes.
constexpr size_t kMaxConnSets = 64;
// Timed frames always replayed per connection, whatever the budget.
constexpr size_t kMinTimedPerConnection = 2;
// Upper bound on timed frames replayed, to bound span memory.
constexpr size_t kMaxTimedReplayed = 4000;

rnnhm::HeatmapEngineOptions EngineOptions(const ServerSpec& spec) {
  rnnhm::HeatmapEngineOptions o;
  o.num_threads = spec.engine_threads;
  o.slabs_per_request = spec.engine_slabs;
  o.cache_bytes = spec.cache_bytes;
  rnnhm::CircleSetRegistryOptions registry;
  registry.max_unpinned_entries = spec.retain_sets;
  o.registry = std::make_shared<rnnhm::CircleSetRegistry>(registry);
  return o;
}

// Non-empty tile ids of the server's tile grid (the router routes only
// those).
std::vector<int> LiveTiles(const ServerSpec& spec, const rnnhm::Rect& domain,
                           int width, int height) {
  std::vector<int> ids;
  const auto windows =
      rnnhm::TileWindows(domain, width, height, spec.tile_rows, spec.tile_cols);
  for (size_t t = 0; t < windows.size(); ++t) {
    if (!windows[t].empty()) ids.push_back(static_cast<int>(t));
  }
  return ids;
}

struct Samples {
  std::vector<double> decode_us, encode_us, register_us, resolve_us,
      hit_us, execute_ms, handle_ms, fragment_max,
      fragment_sum, unattributed_ms, transport_ms;
};

// One replayed frame and where it came from.
struct Item {
  int conn = 0;
  long index = -1;  // position in the timed script; -1 for warm-up
  const Frame* frame = nullptr;
};

class InProcessReplay {
 public:
  InProcessReplay(const Inputs& in, Tracer* tracer)
      : spec_(in.server),
        tracer_(tracer),
        stepwise_(measure_, EngineOptions(spec_)),
        whole_(measure_, EngineOptions(spec_)),
        server_(whole_) {
    for (size_t c = 0; c < in.connections.size(); ++c) {
      scopes_a_.push_back(std::make_unique<rnnhm::RegistrationScope>(
          &stepwise_.registry(), kMaxConnSets));
      scopes_b_.push_back(std::make_unique<rnnhm::RegistrationScope>(
          &whole_.registry(), kMaxConnSets));
    }
  }

  // Replays one frame; false when any step failed.
  bool Run(const Item& item, const RoundTripIndex& round_trips) {
    const int32_t req = next_request_++;
    double layer_ms = 0.0;
    const int32_t root = tracer_->Begin("inproc", req);
    const bool ok = StepPlain(item, req, root, &layer_ms);
    tracer_->End(root);
    const double critical_ms = Whole(item, req);
    if (item.index >= 0) {
      const auto it = round_trips.find({item.conn, item.index});
      if (it != round_trips.end()) {
        s_.unattributed_ms.push_back(it->second - layer_ms);
        s_.transport_ms.push_back(it->second - critical_ms);
      }
    }
    return ok;
  }

  const Samples& samples() const { return s_; }

 private:
  double Span(const char* name, int32_t req, int32_t parent, int64_t start) {
    const int64_t end = NowNs();
    tracer_->Add(name, start, end, req, parent);
    return NsToMs(end - start);
  }

  bool StepPlain(const Item& item, int32_t req, int32_t root,
                 double* layer_ms) {
    rnnhm::CircleSetRegistry& registry = stepwise_.registry();
    int64_t t = NowNs();
    std::string error;
    std::optional<rnnhm::WireRequest> request =
        rnnhm::DecodeRequest(item.frame->payload(), &error);
    double ms = Span("decode", req, root, t);
    s_.decode_us.push_back(ms * 1e3);
    *layer_ms += ms;
    if (!request.has_value()) return false;

    t = NowNs();
    CircleSetHandle handle;
    if (request->inline_circles) {
      handle = registry.Register(std::move(request->circles), request->metric);
      s_.register_us.push_back(NsToUs(NowNs() - t));
      scopes_a_[item.conn]->Track(handle);
    } else {
      handle = registry.FindByHash(request->set_hash);
    }
    const int64_t resolve_start = NowNs();
    const auto set = handle.valid() ? registry.Resolve(handle) : nullptr;
    s_.resolve_us.push_back(NsToUs(NowNs() - (request->inline_circles
                                                  ? resolve_start
                                                  : t)));
    *layer_ms += Span("registry", req, root, t);
    if (set == nullptr) return false;

    const HeatmapRequestV2 v2{handle, request->domain, request->width,
                              request->height};
    std::vector<HeatmapResponse> responses;
    t = NowNs();
    const int32_t engine = tracer_->Add("engine", t, t, req, root);
    bool ok = true;
    double critical_engine_ms = 0.0;
    if (!spec_.router) {
      std::optional<HeatmapResponse> response;
      ok = stepwise_.ExecuteChecked(v2, &response).ok();
      if (ok) responses.push_back(std::move(*response));
    } else {
      double max_ms = 0.0, sum_ms = 0.0;
      std::vector<double> shard_ms(std::max(1, spec_.shards), 0.0);
      for (const int tile : LiveTiles(spec_, request->domain, request->width,
                                      request->height)) {
        const int64_t f = NowNs();
        std::optional<HeatmapResponse> fragment;
        ok = stepwise_
                 .ExecuteTileFragmentChecked(v2, spec_.tile_rows,
                                             spec_.tile_cols, tile, &fragment)
                 .ok() &&
             ok;
        const double fms = Span("fragment", req, engine, f);
        max_ms = std::max(max_ms, fms);
        sum_ms += fms;
        shard_ms[tile % shard_ms.size()] += fms;
        if (fragment.has_value()) responses.push_back(std::move(*fragment));
      }
      s_.fragment_max.push_back(max_ms);
      s_.fragment_sum.push_back(sum_ms);
      // The shards sweep in parallel: the request waits for the slowest.
      critical_engine_ms =
          *std::max_element(shard_ms.begin(), shard_ms.end());
    }
    tracer_->End(engine);
    const double engine_ms = NsToMs(tracer_->Duration(engine));
    *layer_ms += spec_.router ? critical_engine_ms : engine_ms;
    if (!ok) return false;
    if (!spec_.router) {
      if (responses[0].from_cache) {
        s_.hit_us.push_back(engine_ms * 1e3);
      } else {
        s_.execute_ms.push_back(engine_ms);
      }
    }

    t = NowNs();
    size_t bytes = 0;
    for (const HeatmapResponse& r : responses) {
      bytes += rnnhm::EncodeResponse(r).size();
    }
    ms = Span("encode", req, root, t);
    s_.encode_us.push_back(ms * 1e3);
    *layer_ms += ms;

    if (!responses[0].from_cache) {
      // The hit cost of the same request (behind the router: of its first
      // fragment), outside the request's span.
      t = NowNs();
      std::optional<HeatmapResponse> again;
      if (spec_.router) {
        stepwise_.ExecuteTileFragmentChecked(
            v2, spec_.tile_rows, spec_.tile_cols,
            LiveTiles(spec_, v2.domain, v2.width, v2.height)[0], &again);
      } else {
        stepwise_.ExecuteChecked(v2, &again);
      }
      s_.hit_us.push_back(Span("cache_probe", req, -1, t) * 1e3);
    }
    return bytes > 0;
  }

  // HandleFrame whole on the twin engine; returns the critical path (ms):
  // the frame's HandleFrame, or behind the router the slowest shard's
  // summed fragment HandleFrames.
  double Whole(const Item& item, int32_t req) {
    const Frame& frame = *item.frame;
    if (!spec_.router) {
      const int64_t t = NowNs();
      server_.HandleFrame(frame.payload(), scopes_b_[item.conn].get());
      const double ms = Span("handle_frame", req, -1, t);
      s_.handle_ms.push_back(ms);
      return ms;
    }
    std::string error;
    std::optional<rnnhm::WireRequest> request =
        rnnhm::DecodeRequest(frame.payload(), &error);
    if (!request.has_value()) return 0.0;
    const auto set = rnnhm::CircleSetSnapshot::Make(request->circles,
                                                    request->metric);
    std::vector<double> shard_ms(std::max(1, spec_.shards), 0.0);
    for (const int tile : LiveTiles(spec_, request->domain, request->width,
                                    request->height)) {
      const std::vector<uint8_t> sub =
          rnnhm::EncodeTileRequest(rnnhm::MakeWireTileRequest(
              *set, request->domain, request->width, request->height,
              request->inline_circles, spec_.tile_rows, spec_.tile_cols,
              tile));
      const int64_t t = NowNs();
      server_.HandleFrame(sub, scopes_b_[item.conn].get());
      const double ms = Span("handle_frame", req, -1, t);
      s_.handle_ms.push_back(ms);
      shard_ms[tile % shard_ms.size()] += ms;
    }
    return *std::max_element(shard_ms.begin(), shard_ms.end());
  }

  const ServerSpec& spec_;
  Tracer* tracer_;
  rnnhm::SizeInfluence measure_;
  HeatmapEngine stepwise_;
  HeatmapEngine whole_;
  rnnhm::WireServer server_;
  std::vector<std::unique_ptr<rnnhm::RegistrationScope>> scopes_a_;
  std::vector<std::unique_ptr<rnnhm::RegistrationScope>> scopes_b_;
  int32_t next_request_ = 0;
  Samples s_;
};

}  // namespace

int ReplayInProcess(const Inputs& in, const RoundTripIndex& round_trips,
                    double budget_s, Tracer* tracer, MetricList* out) {
  InProcessReplay replay(in, tracer);
  int failed = 0;
  for (size_t c = 0; c < in.connections.size(); ++c) {
    for (const Frame& f : in.connections[c].warmup) {
      if (!replay.Run(Item{static_cast<int>(c), -1, &f}, round_trips)) {
        ++failed;
      }
    }
  }
  // Timed frames, round-robin over the connections as they interleave on
  // the server.
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(budget_s * 1e9);
  size_t replayed = 0;
  for (size_t i = 0; replayed < kMaxTimedReplayed; ++i) {
    bool any = false;
    for (size_t c = 0; c < in.connections.size(); ++c) {
      const ConnectionScript& script = in.connections[c];
      if (i >= script.timed_length()) continue;
      if (i >= kMinTimedPerConnection && NowNs() > deadline) continue;
      any = true;
      ++replayed;
      if (!replay.Run(Item{static_cast<int>(c), static_cast<long>(i),
                           &script.timed(i)},
                      round_trips)) {
        ++failed;
      }
    }
    if (!any) break;
  }
  const Samples& s = replay.samples();
  out->Set("query.wire.decode_us_p50", Median(s.decode_us), "us");
  out->Set("query.wire.encode_us_p50", Median(s.encode_us), "us");
  out->Set("query.registry.register_us_p50", Median(s.register_us), "us");
  out->Set("query.registry.resolve_us_p50", Median(s.resolve_us), "us");
  out->Set("query.cache.hit_us_p50", Median(s.hit_us), "us");
  if (!s.execute_ms.empty()) {
    out->Set("query.engine.execute_ms_p50", Median(s.execute_ms), "ms");
  }
  out->Set("serve.handle_frame_ms_p50", Median(s.handle_ms), "ms");
  out->Set("serve.transport_ms_mean", Mean(s.transport_ms), "ms");
  if (!s.fragment_max.empty()) {
    out->Set("tile.fragment_ms_max", Median(s.fragment_max), "ms");
    out->Set("tile.fragment_ms_sum", Median(s.fragment_sum), "ms");
  }
  out->Set("trace.unattributed_ms_mean", Mean(s.unattributed_ms), "ms");
  return failed;
}

void MeasureLayers(const Inputs& in, bool has_tiles,
                   Tracer* tracer, MetricList* out) {
  rnnhm::SizeInfluence measure;
  std::vector<double> sweep_ms[3], build_ms[3];
  std::vector<double> labelings, events, walked, cross;
  std::vector<double> apply_us, delta_ms, frag_max, frag_sum, execute_ms;
  std::vector<double> dirty_frac;  // of the probe's spliced deltas
  int splices = 0;
  int64_t l1_pixels = 0, l1_mismatches = 0;
  ServerSpec probe_spec = in.server;
  if (!probe_spec.router) {
    // The tile probe uses the router's grid: 2 x 2 tiles on 2 shards.
    probe_spec.tile_rows = probe_spec.tile_cols = 2;
  }
  HeatmapEngine probe(measure, EngineOptions(probe_spec));
  int32_t req = -1000;
  for (const SamplePopulation& s : in.samples) {
    const int m = static_cast<int>(s.metric);
    const auto circles =
        rnnhm::BuildNnCircles(s.clients, s.facilities, s.metric);
    --req;

    rnnhm::CountingSink sink;
    int64_t t = NowNs();
    if (s.metric == Metric::kL2) {
      const rnnhm::CrestL2Stats st = rnnhm::RunCrestL2(circles, measure, &sink);
      events.push_back(static_cast<double>(st.num_events));
      labelings.push_back(static_cast<double>(st.num_labelings));
      cross.push_back(static_cast<double>(st.num_cross_events));
    } else {
      const rnnhm::CrestStats st =
          s.metric == Metric::kL1 ? rnnhm::RunCrestL1(circles, measure, &sink)
                                  : rnnhm::RunCrest(circles, measure, &sink);
      events.push_back(static_cast<double>(st.num_events));
      labelings.push_back(static_cast<double>(st.num_labelings));
      walked.push_back(static_cast<double>(st.num_elements_walked));
    }
    int64_t end = NowNs();
    sweep_ms[m].push_back(NsToMs(end - t));
    tracer->Add("core.sweep", t, end, req);

    t = NowNs();
    const rnnhm::HeatmapGrid grid = rnnhm::BuildHeatmapForMetric(
        s.metric, circles, measure, s.domain, s.size, s.size);
    end = NowNs();
    build_ms[m].push_back(NsToMs(end - t));
    tracer->Add("heatmap.build", t, end, req);

    if (s.metric == Metric::kL1) {
      t = NowNs();
      const rnnhm::HeatmapGrid oracle = rnnhm::BuildHeatmapBruteForce(
          circles, Metric::kL1, measure, s.domain, s.size, s.size);
      tracer->Add("heatmap.brute_force", t, NowNs(), req);
      for (size_t i = 0; i < oracle.values().size(); ++i) {
        if (std::memcmp(&oracle.values()[i], &grid.values()[i],
                        sizeof(double)) != 0) {
          ++l1_mismatches;
        }
      }
      l1_pixels += static_cast<int64_t>(oracle.values().size());
    }

    if (s.metric != Metric::kL1) {
      // Delta probe: one tick moving 1% of the clients a short step,
      // spliced against the base raster the engine just cached.
      rnnhm::HeatmapSession session(s.clients, s.facilities, s.metric);
      const CircleSetHandle base =
          probe.registry().Register(session.circles(), s.metric);
      std::optional<HeatmapResponse> response;
      t = NowNs();
      probe.ExecuteChecked(HeatmapRequestV2{base, s.domain, s.size, s.size},
                           &response);
      execute_ms.push_back(NsToMs(NowNs() - t));
      session.EnableEditJournal();
      rnnhm::Rng rng(0xde17a + static_cast<uint64_t>(m));
      const double step = 0.005 * (s.domain.hi.x - s.domain.lo.x);
      for (size_t k = 0; k < std::max<size_t>(1, s.clients.size() / 100);
           ++k) {
        const int32_t id =
            static_cast<int32_t>(rng.NextBounded(session.num_clients()));
        const rnnhm::Point at = session.clients()[id];
        session.MoveClient(id, {at.x + step * rng.NextGaussian(),
                                at.y + step * rng.NextGaussian()});
      }
      const auto edits = session.TakeCircleEdits();
      const uint64_t new_hash =
          rnnhm::HashCircleSet(session.circles(), s.metric);
      CircleSetHandle derived;
      t = NowNs();
      if (probe.registry().ApplyDelta(base, edits, new_hash, &derived).ok()) {
        apply_us.push_back(NsToUs(NowNs() - t));
        probe.registry().Release(derived);
      }
      bool spliced = false;
      rnnhm::IncrementalRasterStats splice;
      t = NowNs();
      if (probe
              .ExecuteDeltaChecked(base, edits, new_hash, s.domain, s.size,
                                   s.size, &derived, &response, &spliced,
                                   &splice)
              .ok()) {
        end = NowNs();
        delta_ms.push_back(NsToMs(end - t));
        splices += spliced ? 1 : 0;
        dirty_frac.push_back(static_cast<double>(splice.dirty_columns) /
                             s.size);
        tracer->Add("query.delta_probe", t, end, req);
        probe.registry().Release(derived);
      }
      probe.registry().Release(base);
    }

    if (!has_tiles) {
      const CircleSetHandle h = probe.registry().Register(circles, s.metric);
      double max_ms = 0.0, sum_ms = 0.0;
      for (const int tile : LiveTiles(probe_spec, s.domain, s.size, s.size)) {
        std::optional<HeatmapResponse> fragment;
        t = NowNs();
        probe.ExecuteTileFragmentChecked(
            HeatmapRequestV2{h, s.domain, s.size, s.size},
            probe_spec.tile_rows, probe_spec.tile_cols, tile, &fragment);
        end = NowNs();
        tracer->Add("tile.probe_fragment", t, end, req);
        max_ms = std::max(max_ms, NsToMs(end - t));
        sum_ms += NsToMs(end - t);
      }
      frag_max.push_back(max_ms);
      frag_sum.push_back(sum_ms);
      probe.registry().Release(h);
    }
  }
  for (int m = 0; m < 3; ++m) {
    const std::string tag = MetricTag(static_cast<Metric>(m));
    out->Set("core.sweep_ms_p50." + tag, Median(sweep_ms[m]), "ms");
  }
  out->Set("core.labelings_per_map", Mean(labelings), "count");
  out->Set("core.events_per_map", Mean(events), "count");
  out->Set("core.elements_walked_per_map", Mean(walked), "count");
  out->Set("core.cross_events_per_map", Mean(cross), "count");
  for (int m = 0; m < 3; ++m) {
    const std::string tag = MetricTag(static_cast<Metric>(m));
    out->Set("heatmap.build_ms_p50." + tag, Median(build_ms[m]), "ms");
  }
  out->Set("heatmap.l1_oracle_mismatch_frac",
           l1_pixels > 0 ? static_cast<double>(l1_mismatches) /
                               static_cast<double>(l1_pixels)
                         : 0.0,
           "fraction");
  if (!apply_us.empty()) {
    out->Set("query.registry.apply_delta_us_p50", Median(apply_us), "us");
    out->Set("query.engine.delta_ms_p50", Median(delta_ms), "ms");
    out->Set("heatmap.splice_ratio",
             static_cast<double>(splices) / static_cast<double>(delta_ms.size()),
             "fraction");
    out->Set("heatmap.dirty_column_frac", Mean(dirty_frac), "fraction");
  }
  if (!frag_max.empty()) {
    out->Set("tile.fragment_ms_max", Median(frag_max), "ms");
    out->Set("tile.fragment_ms_sum", Median(frag_sum), "ms");
  }
  if (!execute_ms.empty()) {
    out->Set("query.engine.execute_ms_p50", Median(execute_ms), "ms");
  }
  out->Set("nn.build_circles_ms_p50", Median(in.nn_build_ms), "ms");
}

}  // namespace servebench
