#include "src/stream/incremental_snapshot.h"

#include <cmath>

namespace stratrec::stream {

namespace {

/// Snaps `w` onto the availability grid — the same rounding the Service's
/// snapshot cache applies (src/api/service.cc), so a session's incremental
/// block and a cached batch snapshot at the same W agree bit for bit.
double Quantize(double w, double quantum) {
  if (quantum <= 0.0) return w;
  const double snapped = std::round(w / quantum) * quantum;
  return snapped < 0.0 ? 0.0 : (snapped > 1.0 ? 1.0 : snapped);
}

}  // namespace

IncrementalSnapshot::IncrementalSnapshot(const core::CatalogIndex* index,
                                         Executor* executor,
                                         double initial_availability,
                                         double quantum, size_t grain)
    : index_(index),
      executor_(executor),
      quantum_(quantum),
      grain_(grain),
      quantized_w_(Quantize(initial_availability, quantum)) {}

bool IncrementalSnapshot::Advance(double availability) {
  const double next = Quantize(availability, quantum_);
  if (next == quantized_w_) {
    ++delta_updates_;
    return false;
  }
  quantized_w_ = next;
  // Both go lazy-dirty, so a session that never asks for alternatives
  // never pays the re-estimation or the re-sort.
  params_dirty_ = true;
  orderings_dirty_ = true;
  ++rebuilds_;
  return true;
}

const std::vector<core::ParamVector>& IncrementalSnapshot::params() {
  if (params_dirty_) {
    // In-place re-estimation: the params vector keeps its allocation and
    // the fill partitions across the pool.
    index_->EstimateParamsInto(quantized_w_, &params_, executor_, grain_);
    params_dirty_ = false;
  }
  return params_;
}

const core::AdparOrderings& IncrementalSnapshot::orderings() {
  if (orderings_dirty_) {
    // Re-sorts the existing permutations in place; BuildAdparOrderings is
    // deterministic over equal params regardless of the previous contents,
    // so this matches a fresh snapshot's orderings byte for byte.
    core::BuildAdparOrderings(params(), &orderings_);
    orderings_dirty_ = false;
  }
  return orderings_;
}

}  // namespace stratrec::stream
