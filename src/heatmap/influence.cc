#include "heatmap/influence.h"

#include <algorithm>

#include "common/check.h"

namespace rnnhm {

double WeightedInfluence::Evaluate(std::span<const int32_t> clients) const {
  double total = 0.0;
  for (const int32_t c : clients) total += weights_[c];
  return total;
}

double WeightedInfluence::UpperBound(
    std::span<const int32_t> committed,
    std::span<const int32_t> optional) const {
  double total = Evaluate(committed);
  for (const int32_t c : optional) total += std::max(0.0, weights_[c]);
  return total;
}

CapacityInfluence::CapacityInfluence(std::vector<int32_t> client_nn,
                                     std::vector<int32_t> facility_capacity,
                                     int32_t candidate_capacity)
    : client_nn_(std::move(client_nn)),
      capacity_(std::move(facility_capacity)),
      candidate_capacity_(candidate_capacity) {
  rnn_count_.assign(capacity_.size(), 0);
  for (const int32_t f : client_nn_) {
    RNNHM_CHECK(f >= 0 && f < static_cast<int32_t>(capacity_.size()));
    ++rnn_count_[f];
  }
  for (size_t f = 0; f < capacity_.size(); ++f) {
    base_total_ += std::min(capacity_[f], rnn_count_[f]);
  }
  stolen_.assign(capacity_.size(), 0);
}

double CapacityInfluence::Evaluate(std::span<const int32_t> clients) const {
  // Adding the candidate p steals `clients` from their previous NNs.
  touched_.clear();
  for (const int32_t c : clients) {
    const int32_t f = client_nn_[c];
    if (stolen_[f] == 0) touched_.push_back(f);
    ++stolen_[f];
  }
  double total = base_total_;
  for (const int32_t f : touched_) {
    total -= std::min(capacity_[f], rnn_count_[f]);
    total += std::min(capacity_[f], rnn_count_[f] - stolen_[f]);
    stolen_[f] = 0;
  }
  total += std::min<int32_t>(candidate_capacity_,
                             static_cast<int32_t>(clients.size()));
  return total;
}

double CapacityInfluence::UpperBound(
    std::span<const int32_t> committed,
    std::span<const int32_t> optional) const {
  // Stealing can only lower the existing facilities' contribution, so the
  // base total plus the candidate's own saturated term bounds every
  // superset of `committed` within committed ∪ optional.
  const int32_t r = static_cast<int32_t>(committed.size() + optional.size());
  return base_total_ + std::min(candidate_capacity_, r);
}

ConnectivityInfluence::ConnectivityInfluence(
    int32_t num_clients,
    const std::vector<std::pair<int32_t, int32_t>>& edges) {
  adjacency_.assign(num_clients, {});
  for (const auto& [a, b] : edges) {
    RNNHM_CHECK(a >= 0 && a < num_clients && b >= 0 && b < num_clients);
    if (a == b) continue;
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
  }
}

double ConnectivityInfluence::Evaluate(
    std::span<const int32_t> clients) const {
  // Thread-local membership scratch keeps concurrent Evaluate safe (the
  // parallel sweeps and column blocks share one measure across threads). It only ever
  // grows, is zero outside this call, and is restored to zero before
  // returning, so instances of any size can share it.
  thread_local std::vector<uint8_t> in_set;
  if (in_set.size() < adjacency_.size()) in_set.resize(adjacency_.size());
  for (const int32_t c : clients) in_set[c] = 1;
  int64_t twice_edges = 0;
  for (const int32_t c : clients) {
    for (const int32_t nb : adjacency_[c]) {
      if (in_set[nb]) ++twice_edges;
    }
  }
  for (const int32_t c : clients) in_set[c] = 0;
  return static_cast<double>(twice_edges) / 2.0;
}

}  // namespace rnnhm
