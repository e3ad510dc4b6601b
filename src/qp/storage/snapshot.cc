#include "qp/storage/snapshot.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <functional>

#include "qp/storage/record.h"
#include "qp/util/crc32c.h"
#include "qp/util/string_util.h"

namespace qp {
namespace storage {

const char kManifestName[] = "MANIFEST";

namespace {

// v3 bodies are the binary profile codec (EncodeProfile), each behind a
// checksum of its own. A header of another version is refused with its
// name, not as damage.
const char kSnapshotHeader[] = "qp-snapshot v3";
const char kSnapshotMagic[] = "qp-snapshot ";
const char kManifestHeader[] = "qp-manifest v1";

bool ParseUint64(std::string_view text, uint64_t* out) {
  // from_chars refuses signs, whitespace and overflow, so "-1" is
  // rejected as corrupt rather than wrapped to 2^64-1 like strtoull.
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out, 10);
  return ec == std::errc() && ptr == end;
}

bool ParseCrc(std::string_view text, uint32_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out, 16);
  return text.size() == 8 && ec == std::errc() && ptr == end;
}

uint32_t BodyCrc(std::string_view body) {
  return crc32c::Mask(crc32c::Value(body));
}

}  // namespace

Status VerifyEntryBody(const SnapshotEntry& entry, std::string_view body) {
  if (body.size() == entry.length && BodyCrc(body) == entry.crc) {
    return Status::Ok();
  }
  return Status::ParseError("corrupt snapshot entry of user '" +
                            entry.user_id + "': body checksum mismatch");
}

std::string SnapshotFileName(uint64_t seqno) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "snapshot-%020" PRIu64 ".qps", seqno);
  return buf;
}

std::string WalFileName(uint64_t first_seqno) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "wal-%020" PRIu64 ".log", first_seqno);
  return buf;
}

Status WriteManifest(FileSystem* fs, const std::string& dir,
                     const Manifest& manifest) {
  std::string content = std::string(kManifestHeader) + "\n";
  content += "seqno " + std::to_string(manifest.seqno) + "\n";
  if (!manifest.snapshot_file.empty()) {
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof crc_hex, "%08x", manifest.snapshot_crc);
    content += "snapshot " + manifest.snapshot_file + " " +
               std::to_string(manifest.snapshot_bytes) + " " + crc_hex + "\n";
  }
  content += "wal " + manifest.wal_file + "\n";
  QP_RETURN_IF_ERROR(
      WriteFileAtomic(fs, JoinPath(dir, kManifestName), content));
  return fs->SyncDir(dir);
}

Result<Manifest> ReadManifest(FileSystem* fs, const std::string& dir) {
  QP_ASSIGN_OR_RETURN(std::string content,
                      fs->ReadFile(JoinPath(dir, kManifestName)));
  auto corrupt = [&](const std::string& what) {
    return Status::ParseError("corrupt manifest in " + dir + ": " + what);
  };
  std::vector<std::string> lines = Split(content, '\n');
  if (lines.empty() || lines[0] != kManifestHeader) {
    return corrupt("bad header");
  }
  Manifest manifest;
  bool saw_seqno = false, saw_wal = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = StripWhitespace(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, ' ');
    if (fields[0] == "seqno" && fields.size() == 2) {
      if (!ParseUint64(fields[1], &manifest.seqno)) {
        return corrupt("bad seqno");
      }
      saw_seqno = true;
    } else if (fields[0] == "snapshot" && fields.size() == 4) {
      manifest.snapshot_file = fields[1];
      uint64_t crc;
      if (!ParseUint64(fields[2], &manifest.snapshot_bytes) ||
          std::sscanf(fields[3].c_str(), "%" SCNx64, &crc) != 1) {
        return corrupt("bad snapshot line");
      }
      manifest.snapshot_crc = static_cast<uint32_t>(crc);
    } else if (fields[0] == "wal" && fields.size() == 2) {
      manifest.wal_file = fields[1];
      saw_wal = true;
    } else {
      return corrupt("unknown line: " + std::string(line));
    }
  }
  if (!saw_seqno || !saw_wal) return corrupt("missing seqno or wal line");
  return manifest;
}

SnapshotWriter::SnapshotWriter(FileSystem* fs) : fs_(fs) {}

Status SnapshotWriter::Flush() {
  if (buffer_.empty()) return Status::Ok();
  QP_RETURN_IF_ERROR(file_->Append(buffer_));
  crc_ = crc32c::Extend(crc_, buffer_.data(), buffer_.size());
  written_ += buffer_.size();
  buffer_.clear();
  return Status::Ok();
}

Status SnapshotWriter::Open(const std::string& path, uint64_t count) {
  if (file_ != nullptr) return Status::FailedPrecondition("writer is open");
  auto file_or = fs_->NewWritableFile(path, /*truncate=*/true);
  if (!file_or.ok()) return status_ = file_or.status();
  file_ = std::move(file_or).value();
  declared_count_ = count;
  buffer_ = std::string(kSnapshotHeader) + "\n";
  buffer_ += "count " + std::to_string(count) + "\n";
  return Status::Ok();
}

Status SnapshotWriter::Add(const std::string& user_id, std::string_view body) {
  return Append(user_id, body, BodyCrc(body));
}

Status SnapshotWriter::AddCopy(const SnapshotEntry& entry,
                               std::string_view body) {
  return Append(entry.user_id, body, entry.crc);
}

Status SnapshotWriter::Append(const std::string& user_id,
                              std::string_view body, uint32_t body_crc) {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) return Status::FailedPrecondition("writer not open");
  if (added_ == declared_count_) {
    return status_ = Status::FailedPrecondition(
               "snapshot writer: more entries than the declared count");
  }
  ++added_;
  SnapshotEntry entry;
  entry.user_id = user_id;
  entry.length = body.size();
  entry.crc = body_crc;
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof crc_hex, "%08x", entry.crc);
  buffer_ += "user " + std::to_string(user_id.size()) + " " +
             std::to_string(body.size()) + " " + crc_hex + "\n";
  buffer_ += user_id;
  buffer_ += "\n";
  entry.offset = written_ + buffer_.size();
  entries_.push_back(std::move(entry));
  buffer_.append(body);
  // 1 MiB write granularity: big enough to amortize syscalls, small
  // enough that a million-user checkpoint never owns the whole file.
  constexpr size_t kFlushBytes = 1u << 20;
  if (buffer_.size() >= kFlushBytes) {
    Status status = Flush();
    if (!status.ok()) return status_ = status;
  }
  return Status::Ok();
}

Status SnapshotWriter::Finish(uint64_t* bytes, uint32_t* crc) {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) return Status::FailedPrecondition("writer not open");
  if (added_ != declared_count_) {
    return status_ = Status::FailedPrecondition(
               "snapshot writer: " + std::to_string(added_) +
               " entries added but " + std::to_string(declared_count_) +
               " declared");
  }
  Status status = Flush();
  if (!status.ok()) return status_ = status;
  if (!(status = file_->Sync()).ok()) return status_ = status;
  if (!(status = file_->Close()).ok()) return status_ = status;
  *bytes = written_;
  *crc = crc_;
  file_.reset();
  return Status::Ok();
}

namespace {

/// The one framing walk both readers share: verifies size + CRC against
/// the manifest, then visits every `user` entry with its header (id,
/// body offset, length and checksum) and body view. The visitor decides
/// what to materialize — LoadSnapshot decodes profiles, IndexSnapshot
/// records positions only.
Status VerifyAndWalkSnapshot(
    const std::string& content, const std::string& path,
    uint64_t expected_bytes, uint32_t expected_crc,
    const std::function<Status(SnapshotEntry&&, std::string_view)>& visit) {
  auto corrupt = [&](const std::string& what) {
    return Status::ParseError("corrupt snapshot " + path + ": " + what);
  };
  if (content.size() != expected_bytes) {
    return corrupt("size mismatch (" + std::to_string(content.size()) +
                   " vs manifest " + std::to_string(expected_bytes) + ")");
  }
  if (crc32c::Value(content) != expected_crc) {
    return corrupt("checksum mismatch");
  }

  // The checksum passed, so any framing violation below is a logic bug
  // rather than disk damage — but report it as corruption regardless.
  size_t pos = 0;
  auto read_line = [&](std::string_view* line) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) return false;
    *line = std::string_view(content).substr(pos, eol - pos);
    pos = eol + 1;
    return true;
  };

  std::string_view line;
  if (!read_line(&line)) return corrupt("bad header");
  if (line != kSnapshotHeader) {
    if (StartsWith(line, kSnapshotMagic)) {
      return Status::ParseError(
          "unsupported snapshot " + path + ": format '" + std::string(line) +
          "', this build reads only '" + kSnapshotHeader + "'");
    }
    return corrupt("bad header");
  }
  if (!read_line(&line) || !StartsWith(line, "count ")) {
    return corrupt("missing count");
  }
  uint64_t count;
  if (!ParseUint64(line.substr(6), &count)) return corrupt("bad count");

  for (uint64_t i = 0; i < count; ++i) {
    if (!read_line(&line) || !StartsWith(line, "user ")) {
      return corrupt("missing user header");
    }
    std::vector<std::string> fields = Split(line, ' ');
    uint64_t id_len, body_len;
    SnapshotEntry entry;
    if (fields.size() != 4 || !ParseUint64(fields[1], &id_len) ||
        !ParseUint64(fields[2], &body_len) ||
        !ParseCrc(fields[3], &entry.crc)) {
      return corrupt("bad user header");
    }
    // Bounds-check by subtraction: huge lengths must not wrap the sum.
    if (id_len >= content.size() - pos) {  // id plus its '\n' terminator.
      return corrupt("user entry past EOF");
    }
    entry.user_id = content.substr(pos, id_len);
    pos += id_len;
    if (content[pos] != '\n') return corrupt("missing id terminator");
    ++pos;
    if (body_len > content.size() - pos) {
      return corrupt("user entry past EOF");
    }
    entry.offset = pos;
    entry.length = body_len;
    std::string_view body = std::string_view(content).substr(pos, body_len);
    QP_RETURN_IF_ERROR(visit(std::move(entry), body));
    pos += body_len;
  }
  if (pos != content.size()) return corrupt("trailing bytes");
  return Status::Ok();
}

}  // namespace

Result<std::vector<LoadedEntry>> LoadSnapshot(FileSystem* fs,
                                              const std::string& path,
                                              uint64_t expected_bytes,
                                              uint32_t expected_crc) {
  QP_ASSIGN_OR_RETURN(std::string content, fs->ReadFile(path));
  std::vector<LoadedEntry> entries;
  QP_RETURN_IF_ERROR(VerifyAndWalkSnapshot(
      content, path, expected_bytes, expected_crc,
      [&](SnapshotEntry&& entry, std::string_view body) -> Status {
        Status verified = VerifyEntryBody(entry, body);
        entries.push_back(
            {std::move(entry.user_id),
             verified.ok() ? DecodeProfile(body)
                           : Result<UserProfile>(std::move(verified))});
        return Status::Ok();
      }));
  return entries;
}

Result<std::vector<SnapshotEntry>> IndexSnapshot(FileSystem* fs,
                                                 const std::string& path,
                                                 uint64_t expected_bytes,
                                                 uint32_t expected_crc) {
  QP_ASSIGN_OR_RETURN(std::string content, fs->ReadFile(path));
  std::vector<SnapshotEntry> entries;
  QP_RETURN_IF_ERROR(VerifyAndWalkSnapshot(
      content, path, expected_bytes, expected_crc,
      [&](SnapshotEntry&& entry, std::string_view) -> Status {
        entries.push_back(std::move(entry));
        return Status::Ok();
      }));
  return entries;
}

}  // namespace storage
}  // namespace qp
