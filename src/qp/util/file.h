#ifndef QP_UTIL_FILE_H_
#define QP_UTIL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "qp/util/status.h"

namespace qp {

/// An append-only output stream. The storage layer never seeks or
/// overwrites: WAL segments and snapshots are written front to back, and
/// atomicity comes from write-to-temp + Rename at the FileSystem level.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  /// Forces everything appended so far to stable storage (fsync). Data
  /// that was never synced may vanish in a crash; data that was is
  /// guaranteed to survive.
  virtual Status Sync() = 0;

  /// Closes the file. Idempotent; the destructor closes implicitly but
  /// swallows errors, so callers that care must Close() explicitly.
  virtual Status Close() = 0;
};

/// Minimal filesystem surface the storage subsystem runs on. Production
/// uses the POSIX implementation (DefaultFileSystem()); tests substitute
/// FaultInjectingFileSystem to simulate crashes, torn writes and fsync
/// failures deterministically.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path` for appending. `truncate` discards existing content.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  /// Reads the whole file into a string. NotFound if it does not exist.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Reads exactly `[offset, offset + length)` of the file. OutOfRange
  /// when the range extends past EOF — a caller holding a stale index
  /// must find out, not get a short read. The default implementation is
  /// ReadFile + substr, so every FileSystem (including the fault-
  /// injecting one, which keeps its read-fault wiring) supports it; the
  /// POSIX implementation overrides it with pread so the durable profile
  /// store can page one cold profile in without touching the rest of a
  /// multi-megabyte snapshot.
  virtual Result<std::string> ReadFileRange(const std::string& path,
                                            uint64_t offset, uint64_t length);

  /// Atomically replaces `to` with `from` (rename(2) semantics).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status RemoveFile(const std::string& path) = 0;

  /// Creates `path` (single level); OK if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;

  /// Names (not paths) of the entries in `path`, excluding "." / "..".
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) = 0;

  virtual bool Exists(const std::string& path) = 0;

  /// Fsyncs the directory itself so renames/creates within it are
  /// durable. A no-op on filesystems without directory entries.
  virtual Status SyncDir(const std::string& path) = 0;
};

/// The process-wide POSIX filesystem singleton.
FileSystem* DefaultFileSystem();

/// Joins a directory and a file name with exactly one separator.
std::string JoinPath(std::string_view dir, std::string_view name);

/// Writes `content` to `path` via a temp file + atomic rename, synced
/// before the rename — a crash leaves either the old file or the new
/// one, never a torn mix. Callers that need the rename itself durable
/// follow up with fs->SyncDir on the parent directory.
Status WriteFileAtomic(FileSystem* fs, const std::string& path,
                       std::string_view content);

}  // namespace qp

#endif  // QP_UTIL_FILE_H_
