// Append-only line journal: the persistence substrate of record/replay.
//
// A journal file is line-delimited text. The first line is a format-version
// header ({"format":"stratrec-journal","version":1}); every following line
// is one self-describing record — the api-layer wire codec (src/api/codec.h)
// decides what a record contains, this layer only guarantees atomic,
// ordered, durable-ish appends:
//
//   * Append() is thread-safe; the internal mutex covers only the write of
//     an already-encoded line, so encoding happens outside any lock and the
//     Service hot path never serializes on anything wider than the fwrite,
//   * records are written whole lines at a time, so a reader never sees a
//     torn record (at worst a truncated tail after a crash, which
//     JournalReader tolerates when asked to),
//   * with flush-every-record (the default), a record is on its way to the
//     OS before Append returns — a *completed* pair is in the trace by the
//     time its ticket is retrievable. (A cancelled ticket's record is
//     appended when a worker eventually dequeues the withdrawn task — at
//     the latest during the Service drain on destruction — so Cancel()
//     returning is not yet a durability point.)
#ifndef STRATREC_COMMON_JOURNAL_H_
#define STRATREC_COMMON_JOURNAL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace stratrec {

/// Format name carried by the header line of every journal file.
inline constexpr std::string_view kJournalFormatName = "stratrec-journal";
/// Version written by this build; readers reject other versions.
/// v2: the config record gained the ServiceConfig::cache block and stats
/// records the cache_hits/cache_misses/index_build_nanos counters.
/// v3: segment rotation (the journal block gained max_segment_bytes) and
/// stats records the rejected_requests/retry_after_hints admission counters.
/// v4: stream sessions journal stream-open/stream-event record kinds, stats
/// records the stream_reschedules/snapshot_delta_updates/snapshot_rebuilds
/// counters, and segment chains may be compacted (cold segments folded into
/// the base — see JournalWriter::Options::compact_after_segments).
/// v5: stats records carry the kernel_dispatch level ("avx2"/"scalar") of
/// the SoA SIMD kernels.
/// v6: stats records may carry a "sim_time" virtual-time stamp — the
/// platform simulator (src/sim/) checkpoints service saturation against its
/// discrete-event clock via Service::RecordStatsSnapshot(sim_time).
/// v7: stats records carry the fault-tolerance counters
/// (deadline_exceeded/retries/failovers/hedges_won) and batch/sweep/
/// stream-open requests may carry a relative deadline_ms budget (omitted
/// when unset). The reader accepts
/// kJournalMinReadVersion..kJournalFormatVersion, and since that floor is
/// past v7, every stats counter is required on decode.
/// v8: reports carry answers, not the catalog. Batch and sweep reports drop
/// the report-level strategy_params block, and every ADPaR result (batch
/// alternatives, sweep cells, stream alternatives) carries the parameters
/// of its own k strategies. Record shapes changed, so the floor moved.
inline constexpr int kJournalFormatVersion = 8;
/// Oldest version this build still reads. v7 reports carry the catalog
/// block and ADPaR results without their own parameters, which v8 decoding
/// rejects.
inline constexpr int kJournalMinReadVersion = 8;

/// Thread-safe writer. Create via Open; the file is truncated and the
/// header line written immediately, so even an empty trace is well-formed.
class JournalWriter {
 public:
  /// Rewrites the records of the cold segments being folded by a compaction
  /// into the (usually much shorter) list that replaces them. This layer is
  /// codec-agnostic — the api layer supplies wire::CompactRecords, which
  /// keeps the records replay still needs (last config/catalog/stats, every
  /// stream-open) and drops the rest.
  using Compactor =
      std::function<std::vector<std::string>(const std::vector<std::string>&)>;

  struct Options {
    /// fflush() after every record (see JournalConfig::flush_every_record).
    bool flush_every_record = true;
    /// Segment rotation bound in bytes; 0 keeps one unbounded file. Once
    /// appending a record would push the current segment past this, the
    /// writer closes it and rolls to `<path>.1`, `<path>.2`, ... — each
    /// segment starting with its own header line, so every file in the
    /// chain is independently a well-formed journal. A segment always holds
    /// at least one record (a record larger than the bound gets a segment
    /// to itself rather than rolling forever), and a record never splits
    /// across segments.
    size_t max_segment_bytes = 0;
    /// When > 0 (requires rotation and a `compact` callback): after a roll
    /// leaves more than this many closed segments, the cold ones — all but
    /// the `retain_segments` newest closed segments — are read back, folded
    /// through `compact` into a fresh base segment (written to a temp file
    /// and renamed into place, so a crash never loses the chain), and the
    /// surviving segments are renumbered to close the gap. Readers see a
    /// shorter chain with identical semantics for the retained records.
    size_t compact_after_segments = 0;
    /// Newest closed segments a compaction leaves untouched.
    size_t retain_segments = 1;
    /// The record-folding policy; compaction is skipped when unset.
    Compactor compact;
  };

  /// Fails with kInternal when the file cannot be created.
  static Result<std::shared_ptr<JournalWriter>> Open(std::string path,
                                                     Options options);

  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record (the trailing '\n' is added here). `line` must not
  /// itself contain '\n' — records are single lines by construction
  /// (json::Dump output). Fails with kInternal on I/O errors.
  Status Append(std::string_view line);

  const std::string& path() const { return path_; }

  /// Records appended so far (excludes the header line).
  size_t records_written() const;

  /// Segment chains folded by the compaction policy so far.
  size_t compactions() const;

 private:
  JournalWriter(std::string path, std::FILE* file, Options options,
                size_t header_bytes)
      : path_(std::move(path)),
        options_(std::move(options)),
        file_(file),
        segment_bytes_(header_bytes) {}

  /// Closes the current segment and opens `<path>.<next>` with a fresh
  /// header. Called under `mutex_`.
  Status RollSegmentLocked();

  /// Folds the cold closed segments (base through `<path>.m`) through the
  /// compactor into a fresh base, deletes the folded files, and renumbers
  /// the survivors. Called under `mutex_` right after a successful roll.
  Status CompactLocked();

  const std::string path_;
  const Options options_;
  mutable std::mutex mutex_;  ///< guards the mutable state below
  std::FILE* file_ = nullptr;
  size_t segment_bytes_ = 0;    ///< bytes written to the current segment
  size_t segment_records_ = 0;  ///< records in the current segment
  size_t segment_index_ = 0;    ///< 0 = the base path, n = "<path>.n"
  size_t records_ = 0;
  size_t compactions_ = 0;
};

/// Reads a journal back: validates the header line, returns the record
/// lines in file order. Blank lines are skipped.
class JournalReader {
 public:
  /// Fails with kNotFound when the file does not exist, kInvalidArgument on
  /// a missing/foreign/newer-version header. A final line without a
  /// terminating '\n' (a crash-truncated tail) is dropped with no error —
  /// every returned record is complete.
  static Result<std::vector<std::string>> ReadRecords(const std::string& path);

  /// Reads a whole segment chain — `path`, then `<path>.1`, `<path>.2`, ...
  /// until the first missing segment — and returns the concatenated records
  /// in write order. Each segment's header is validated like ReadRecords.
  /// A single-file journal (no rotation) reads identically to ReadRecords.
  static Result<std::vector<std::string>> ReadAllSegments(
      const std::string& path);
};

}  // namespace stratrec

#endif  // STRATREC_COMMON_JOURNAL_H_
