#include "src/common/journal.h"

#include <utility>

#include "src/common/json.h"

namespace stratrec {

namespace {

std::string HeaderLine() {
  json::Value header = json::Value::Object();
  header.Add("format", std::string(kJournalFormatName));
  header.Add("version", kJournalFormatVersion);
  return json::Dump(header);
}

}  // namespace

Result<std::shared_ptr<JournalWriter>> JournalWriter::Open(std::string path,
                                                           Options options) {
  if (path.empty()) {
    return Status::InvalidArgument("journal path is empty");
  }
  if (options.compact_after_segments > 0) {
    if (options.max_segment_bytes == 0) {
      return Status::InvalidArgument(
          "journal compaction requires segment rotation (max_segment_bytes "
          "> 0)");
    }
    if (options.retain_segments >= options.compact_after_segments) {
      return Status::InvalidArgument(
          "journal retain_segments must be < compact_after_segments");
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot create journal file '" + path + "'");
  }
  const std::string header = HeaderLine();
  // Not make_shared: the constructor is private.
  std::shared_ptr<JournalWriter> writer(new JournalWriter(
      std::move(path), file, std::move(options), header.size() + 1));
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size() ||
      std::fputc('\n', file) == EOF || std::fflush(file) != 0) {
    return Status::Internal("cannot write journal header to '" +
                            writer->path() + "'");
  }
  return writer;
}

Status JournalWriter::RollSegmentLocked() {
  std::fclose(file_);
  file_ = nullptr;
  const std::string next = path_ + "." + std::to_string(++segment_index_);
  std::FILE* file = std::fopen(next.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot create journal segment '" + next + "'");
  }
  const std::string header = HeaderLine();
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size() ||
      std::fputc('\n', file) == EOF || std::fflush(file) != 0) {
    std::fclose(file);
    return Status::Internal("cannot write journal header to '" + next + "'");
  }
  file_ = file;
  segment_bytes_ = header.size() + 1;
  segment_records_ = 0;
  return Status::OK();
}

JournalWriter::~JournalWriter() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

Status JournalWriter::Append(std::string_view line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  // Roll before a record that would overrun the segment bound — but only
  // when the current segment already holds a record, so an oversized record
  // lands in a segment of its own instead of rolling forever.
  if (options_.max_segment_bytes > 0 && segment_records_ > 0 &&
      segment_bytes_ + line.size() + 1 > options_.max_segment_bytes) {
    STRATREC_RETURN_NOT_OK(RollSegmentLocked());
    // A roll is the only point where the closed-segment count grows, so it
    // is the only point a compaction can become due.
    if (options_.compact_after_segments > 0 && options_.compact &&
        segment_index_ > options_.compact_after_segments) {
      STRATREC_RETURN_NOT_OK(CompactLocked());
    }
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF) {
    return Status::Internal("journal append to '" + path_ + "' failed");
  }
  if (options_.flush_every_record && std::fflush(file_) != 0) {
    return Status::Internal("journal flush of '" + path_ + "' failed");
  }
  segment_bytes_ += line.size() + 1;
  ++segment_records_;
  ++records_;
  return Status::OK();
}

Status JournalWriter::CompactLocked() {
  // Closed segments right after a roll: the base plus `.1` .. `.(n-1)` where
  // `.n` is the segment just opened — segment_index_ of them. Fold the base
  // through `.m`, leaving the retain_segments newest closed ones (and the
  // open segment) untouched.
  const size_t m = segment_index_ - 1 - options_.retain_segments;
  std::vector<std::string> cold;
  {
    auto base = JournalReader::ReadRecords(path_);
    if (!base.ok()) return base.status();
    cold = std::move(*base);
  }
  for (size_t i = 1; i <= m; ++i) {
    auto more = JournalReader::ReadRecords(path_ + "." + std::to_string(i));
    if (!more.ok()) return more.status();
    cold.insert(cold.end(), std::make_move_iterator(more->begin()),
                std::make_move_iterator(more->end()));
  }
  const std::vector<std::string> folded = options_.compact(cold);

  // Write the folded base to a temp file and rename it into place, so a
  // crash mid-compaction leaves either the old chain or the new base —
  // never a torn one.
  const std::string tmp = path_ + ".compact.tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::Internal("cannot create compaction file '" + tmp + "'");
  }
  std::string content = HeaderLine();
  content.push_back('\n');
  for (const std::string& line : folded) {
    content.append(line);
    content.push_back('\n');
  }
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), out) == content.size() &&
      std::fflush(out) == 0;
  std::fclose(out);
  if (!wrote) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot write compaction file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot install compacted journal base '" +
                            path_ + "'");
  }
  for (size_t i = 1; i <= m; ++i) {
    std::remove((path_ + "." + std::to_string(i)).c_str());
  }
  // Renumber the survivors (ascending, so a rename never lands on a name
  // still in use): `.(m+1)` .. `.(segment_index_)` become `.1` ..
  // `.(segment_index_-m)`. The open segment is renamed by path only — the
  // FILE* stays valid.
  for (size_t j = m + 1; j <= segment_index_; ++j) {
    const std::string from = path_ + "." + std::to_string(j);
    const std::string to = path_ + "." + std::to_string(j - m);
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Internal("cannot renumber journal segment '" + from +
                              "'");
    }
  }
  segment_index_ -= m;
  ++compactions_;
  return Status::OK();
}

size_t JournalWriter::records_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

size_t JournalWriter::compactions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return compactions_;
}

Result<std::vector<std::string>> JournalReader::ReadRecords(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("journal file '" + path + "' does not exist");
  }

  std::string content;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::Internal("error reading journal file '" + path + "'");
  }

  // Split into complete ('\n'-terminated) lines; a crash-truncated tail
  // (no terminator) is dropped.
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t i = content.find('\n'); i != std::string::npos;
       start = i + 1, i = content.find('\n', start)) {
    if (i > start) lines.emplace_back(content, start, i - start);
  }

  if (lines.empty()) {
    return Status::InvalidArgument("journal file '" + path +
                                   "' has no header line");
  }
  auto header = json::Parse(lines.front());
  if (!header.ok() || !header->is_object()) {
    return Status::InvalidArgument("journal file '" + path +
                                   "' has a malformed header line");
  }
  const json::Value* format = header->Find("format");
  if (format == nullptr || !format->is_string() ||
      format->AsString() != kJournalFormatName) {
    return Status::InvalidArgument("'" + path + "' is not a " +
                                   std::string(kJournalFormatName) + " file");
  }
  const json::Value* version = header->Find("version");
  if (version == nullptr || !version->is_number() ||
      version->AsNumber() < kJournalMinReadVersion ||
      version->AsNumber() > kJournalFormatVersion) {
    return Status::InvalidArgument(
        "journal file '" + path + "' has unsupported format version " +
        (version != nullptr && version->is_number()
             ? json::FormatNumber(version->AsNumber())
             : "?") +
        " (this build reads versions " +
        std::to_string(kJournalMinReadVersion) + ".." +
        std::to_string(kJournalFormatVersion) + ")");
  }
  lines.erase(lines.begin());
  return lines;
}

Result<std::vector<std::string>> JournalReader::ReadAllSegments(
    const std::string& path) {
  auto records = ReadRecords(path);
  if (!records.ok()) return records;
  for (size_t n = 1;; ++n) {
    const std::string segment = path + "." + std::to_string(n);
    auto more = ReadRecords(segment);
    if (!more.ok()) {
      // The first missing segment ends the chain; anything else (a torn or
      // foreign file sitting at a chain name) is a real error.
      if (more.status().code() == StatusCode::kNotFound) break;
      return more.status();
    }
    records->insert(records->end(), std::make_move_iterator(more->begin()),
                    std::make_move_iterator(more->end()));
  }
  return records;
}

}  // namespace stratrec
