// The benchmark's three workloads, generated from the workload seed.
//
// Every frame a run sends is built here, before any server starts, so
// the program under test receives only these bytes. A workload is a
// server configuration plus one script per client connection: warm-up
// frames (part of set-up) and the timed frames, sent closed-loop.
#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/geometry.h"
#include "query/circle_set_registry.h"

namespace servebench {

/// One request frame, stored with its 4-byte length prefix so a send is a
/// single write.
struct Frame {
  std::vector<uint8_t> wire;
  rnnhm::Metric metric = rnnhm::Metric::kLInf;
  int city = 0;  ///< 0 = NYC substitute, 1 = LA substitute
  /// Index into Inputs::checks when this frame's response is checked
  /// after the timed phase, else -1.
  int check = -1;

  std::span<const uint8_t> payload() const {
    return {wire.data() + 4, wire.size() - 4};
  }
};

/// One client connection's script. The timed phase sends
/// frames[order[0]], frames[order[1]], ... (or frames in sequence when
/// `order` is empty) until the run's time is up or the script ends.
struct ConnectionScript {
  std::vector<Frame> warmup;
  std::vector<Frame> frames;
  std::vector<uint32_t> order;

  size_t timed_length() const {
    return order.empty() ? frames.size() : order.size();
  }
  const Frame& timed(size_t i) const {
    return order.empty() ? frames[i] : frames[order[i]];
  }
};

/// The reference a checked response is compared against: the exact
/// circle set and geometry of the request.
struct Check {
  std::shared_ptr<const rnnhm::CircleSetSnapshot> set;
  rnnhm::Rect domain;
  int width = 0;
  int height = 0;
  std::string label;
};

/// A population the traced run measures the library layers on directly
/// (label-only sweeps, builders, oracle, probes).
struct SamplePopulation {
  rnnhm::Metric metric = rnnhm::Metric::kLInf;
  std::vector<rnnhm::Point> clients;
  std::vector<rnnhm::Point> facilities;
  rnnhm::Rect domain;
  int size = 0;  ///< square raster side
};

/// How the server is launched, and the engine options the in-process
/// replay mirrors.
struct ServerSpec {
  bool router = false;
  std::vector<std::string> flags;  ///< after the subcommand, before --path
  int engine_threads = 1;
  int engine_slabs = 1;
  size_t cache_bytes = 0;
  size_t retain_sets = 256;
  int tile_rows = 1;
  int tile_cols = 1;
  int shards = 1;
};

struct Inputs {
  ServerSpec server;
  std::vector<ConnectionScript> connections;
  std::vector<Check> checks;
  std::vector<SamplePopulation> samples;
  /// BuildNnCircles wall time of every population generated (ms).
  std::vector<double> nn_build_ms;
};

/// "linf", "l1" or "l2" — the suffix of the per-metric metric names.
const char* MetricTag(rnnhm::Metric metric);

/// `payload` behind its [u32 LE length] frame prefix.
std::vector<uint8_t> WithLengthPrefix(const std::vector<uint8_t>& payload);

/// Builds every input of `workload` from `seed`. Same seed, same bytes.
/// False for an unknown workload name.
bool MakeInputs(const std::string& workload, uint64_t seed, Inputs* out);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
