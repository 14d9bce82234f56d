#include "src/api/config.h"

#include "src/api/registry.h"

namespace stratrec::api {

Status ValidateConfig(const ServiceConfig& config) {
  auto batch = AlgorithmRegistry::Global().FindBatch(config.batch.algorithm);
  if (!batch.ok()) return batch.status();
  auto adpar = AlgorithmRegistry::Global().FindAdpar(config.batch.adpar_solver);
  if (!adpar.ok()) return adpar.status();
  if (config.availability.kind != AvailabilitySpec::Kind::kNamed) {
    auto resolved = ResolveAvailability(config.availability, {}, 0.5);
    if (!resolved.ok()) return resolved.status();
  }
  if (config.execution.worker_threads > 1024) {
    return Status::InvalidArgument(
        "execution.worker_threads must be <= 1024 (0 means hardware "
        "concurrency)");
  }
  if (config.execution.parallel_grain == 0) {
    return Status::InvalidArgument("execution.parallel_grain must be >= 1");
  }
  // The wire codec carries integers as JSON numbers, exact only up to 2^53;
  // reject larger knobs here so an unserializable config fails at Create
  // (record time), not when a journal is read back.
  constexpr size_t kMaxWireInteger = size_t{1} << 53;
  if (config.stream.max_pending > kMaxWireInteger) {
    return Status::InvalidArgument(
        "stream.max_pending exceeds 2^53 and would not round-trip the wire "
        "codec");
  }
  if (config.execution.parallel_grain > kMaxWireInteger) {
    return Status::InvalidArgument(
        "execution.parallel_grain exceeds 2^53 and would not round-trip the "
        "wire codec");
  }
  if (config.cache.shards == 0 || config.cache.shards > 256) {
    return Status::InvalidArgument("cache.shards must lie in [1, 256]");
  }
  if (config.cache.snapshot_capacity > kMaxWireInteger) {
    return Status::InvalidArgument(
        "cache.snapshot_capacity exceeds 2^53 and would not round-trip the "
        "wire codec");
  }
  if (!(config.cache.availability_quantum >= 0.0) ||
      config.cache.availability_quantum > 1.0) {
    return Status::InvalidArgument(
        "cache.availability_quantum must lie in [0, 1]");
  }
  if (config.journal.compact_after_segments > 0) {
    if (config.journal.max_segment_bytes == 0) {
      return Status::InvalidArgument(
          "journal.compact_after_segments requires segment rotation "
          "(journal.max_segment_bytes > 0)");
    }
    if (config.journal.retain_segments >=
        config.journal.compact_after_segments) {
      return Status::InvalidArgument(
          "journal.retain_segments must be < compact_after_segments, or "
          "compaction would never fold anything");
    }
  }
  if (config.journal.max_segment_bytes > kMaxWireInteger ||
      config.journal.compact_after_segments > kMaxWireInteger ||
      config.journal.retain_segments > kMaxWireInteger) {
    return Status::InvalidArgument(
        "journal segment and compaction knobs exceed 2^53 and would not "
        "round-trip the wire codec");
  }
  return Status::OK();
}

}  // namespace stratrec::api
