#ifndef QP_STORAGE_FAULT_INJECTION_H_
#define QP_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "qp/util/file.h"
#include "qp/util/random.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {

/// A deterministic in-memory FileSystem with crash semantics, the test
/// double behind the crash-recovery property suite. It models exactly
/// what a real disk promises an append-only writer:
///   - bytes become *durable* only when Sync() succeeds; Crash() throws
///     away every unsynced byte, except that a deterministic prefix of
///     the torn tail may survive (a partial sector write);
///   - fsync can be made to fail (once or permanently);
///   - short writes: an Append may persist only a prefix and then error;
///   - bit flips can corrupt already-durable bytes (media decay), which
///     recovery must *detect*, not silently absorb.
/// Metadata operations (create/rename/remove) are treated as immediately
/// durable, the usual simplification of single-directory WAL designs.
class FaultInjectingFileSystem : public FileSystem {
 public:
  FaultInjectingFileSystem() = default;

  // FileSystem:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                    uint64_t length) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Status SyncDir(const std::string& path) override;

  // Fault controls -----------------------------------------------------

  /// Every Sync() on any file fails with Internal until cleared.
  void SetSyncFailure(bool fail);

  /// The next `count` Sync() calls (on any file) fail with Internal,
  /// then syncs succeed again — a *transient* fsync failure, which the
  /// WAL does not retry: it fails the mutation and goes sticky until the
  /// breaker's probe rewrites the acknowledged state. Independent of
  /// SetSyncFailure (which models a permanently dead disk).
  void FailNextSyncs(uint64_t count);

  /// The next Append on `path` persists only `keep_bytes` of its data,
  /// then returns Internal (a short write).
  void InjectShortWrite(const std::string& path, size_t keep_bytes);

  /// Flips bit `bit` of byte `offset` of `path` in place. Returns
  /// NotFound/OutOfRange when the target does not exist.
  Status FlipBit(const std::string& path, size_t offset, int bit);

  /// Simulates a process + machine crash: every file reverts to its last
  /// synced size, except that `rng` decides how many bytes of each
  /// unsynced tail survive (0..all — a torn write). Open handles become
  /// dead (their writes error afterwards).
  void Crash(Rng* rng);

  /// Crash keeping all unsynced bytes (process crash, OS survived and
  /// flushed the page cache).
  void CrashKeepingUnsynced();

  /// Current size of `path`'s durable prefix, for assertions.
  Result<size_t> SyncedSize(const std::string& path) const;

  uint64_t num_syncs() const;

 private:
  friend class FaultInjectingFile;

  struct FileState {
    std::string data;
    size_t synced_size = 0;
    /// Bumped by Crash(); handles created before a crash refuse writes.
    uint64_t generation = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<FileState>> files_;
  std::set<std::string> dirs_;
  bool fail_syncs_ = false;
  uint64_t fail_next_syncs_ = 0;
  std::map<std::string, size_t> short_writes_;
  uint64_t num_syncs_ = 0;
  uint64_t crash_generation_ = 0;
};

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_FAULT_INJECTION_H_
