// The traced run's in-process half: the workload's frames replayed
// through the library's public functions, and the layers measured
// directly on the workload's sample populations.
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <utility>

#include "inputs.h"
#include "trace.h"

namespace servebench {

/// Socket round trip (ms) of each timed frame of the traced socket run,
/// keyed by (connection, position in the connection's timed script).
using RoundTripIndex = std::map<std::pair<int, size_t>, double>;

/// Replays the workload's frames in WireServer's order on engines built
/// with the server's options: DecodeRequest, then Register / FindByHash +
/// Resolve, then ExecuteChecked / ExecuteTileFragmentChecked, then
/// EncodeResponse;
/// and, on a twin engine, HandleFrame whole. Warm-up frames always run;
/// timed frames run until `budget_s` is spent. Adds the query.*, serve.*
/// and trace.unattributed metrics to `out`. Returns the number of replayed
/// frames that failed.
int ReplayInProcess(const Inputs& in, const RoundTripIndex& round_trips,
                    double budget_s, Tracer* tracer, MetricList* out);

/// Measures core, heatmap, tile and nn directly on the sample
/// populations: label-only sweeps into a CountingSink, the sequential
/// builder, the L1 builder against brute force, a one-tick delta probe
/// (ApplyDelta, the spliced ExecuteDeltaChecked, its splice and
/// dirty-column counters), and — for workloads whose own frames never
/// reach it — a tile probe.
void MeasureLayers(const Inputs& in, bool has_tiles,
                   Tracer* tracer, MetricList* out);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
