#ifndef QP_STORAGE_SNAPSHOT_H_
#define QP_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qp/pref/profile.h"
#include "qp/util/file.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {

/// The durable directory's source of truth: which snapshot file covers
/// state up to `seqno`, and which WAL file holds the records after it.
/// Written atomically (temp + rename), so a reader always sees either
/// the old or the new generation, never a mix.
struct Manifest {
  /// Every mutation with seqno <= this is inside the snapshot.
  uint64_t seqno = 0;
  /// Snapshot file name within the directory; empty for a fresh store.
  std::string snapshot_file;
  uint64_t snapshot_bytes = 0;
  uint32_t snapshot_crc = 0;  // CRC32C of the snapshot file's bytes.
  /// WAL file name; its first record has seqno `seqno + 1`.
  std::string wal_file;
};

/// Name of the manifest file within a storage directory.
extern const char kManifestName[];

/// File-name builders: "snapshot-<seqno>.qps" / "wal-<first_seqno>.log".
std::string SnapshotFileName(uint64_t seqno);
std::string WalFileName(uint64_t first_seqno);

Status WriteManifest(FileSystem* fs, const std::string& dir,
                     const Manifest& manifest);
Result<Manifest> ReadManifest(FileSystem* fs, const std::string& dir);

/// One user's state inside a snapshot. Profiles are carried as
/// shared_ptrs on the write side so snapshotting never copies them.
using SnapshotUsers =
    std::vector<std::pair<std::string, std::shared_ptr<const UserProfile>>>;

/// Writes `users` to `path` and fsyncs it, reporting the byte count +
/// CRC32C for the manifest. The format ("qp-snapshot v2") is a text
/// header and count line, then per user a "user <idlen> <bodylen>" line,
/// the id, a newline and the body: the user's profile in the binary
/// profile codec (EncodeProfile), which reproduces it bit for bit.
Status WriteSnapshot(FileSystem* fs, const std::string& path,
                     const SnapshotUsers& users, uint64_t* bytes,
                     uint32_t* crc);

/// Loads and verifies a snapshot written by WriteSnapshot. A size or
/// checksum mismatch against the manifest values is an error — a
/// snapshot is either wholly valid or the directory is corrupt — and so
/// is any body DecodeProfile refuses. Another format version (v1 bodies
/// were text) is a ParseError that names it.
Result<std::vector<std::pair<std::string, UserProfile>>> LoadSnapshot(
    FileSystem* fs, const std::string& path, uint64_t expected_bytes,
    uint32_t expected_crc);

/// Where one user's encoded profile body sits inside a snapshot file,
/// the unit of the tiered store's cold index: a cold profile is paged in
/// with a single ReadFileRange(offset, length) + DecodeProfile, no other
/// entry touched.
struct SnapshotEntry {
  std::string user_id;
  uint64_t offset = 0;  // Byte offset of the profile body in the file.
  uint64_t length = 0;  // Body length in bytes.
};

/// Verifies the whole file (size + CRC32C against the manifest) and
/// walks only the length-framed entry headers — profile bodies are never
/// decoded — returning every user's body position. This is how a tiered
/// recovery indexes a million-user snapshot without materializing a
/// single profile.
Result<std::vector<SnapshotEntry>> IndexSnapshot(FileSystem* fs,
                                                 const std::string& path,
                                                 uint64_t expected_bytes,
                                                 uint32_t expected_crc);

/// Streaming counterpart of WriteSnapshot for checkpoints that merge
/// hot in-memory profiles with cold bodies copied from the previous
/// snapshot: entries are appended one at a time (buffered, CRC32C
/// extended incrementally) so the writer never holds the whole snapshot
/// in memory, and each Add records the body's SnapshotEntry for the next
/// cold index. Usage: Open (with the exact final entry count — the
/// format's count header is written up front), Add per user in sorted
/// order, Finish (flush + fsync + close, reporting bytes and CRC for the
/// manifest). Any error is sticky and fails Finish.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(FileSystem* fs);

  Status Open(const std::string& path, uint64_t count);
  Status Add(const std::string& user_id, std::string_view body);
  Status Finish(uint64_t* bytes, uint32_t* crc);

  /// Body positions of every Add, in Add order. Valid after Finish.
  std::vector<SnapshotEntry> TakeEntries() { return std::move(entries_); }

 private:
  Status Flush();

  FileSystem* fs_;
  std::unique_ptr<WritableFile> file_;
  std::string buffer_;
  uint64_t written_ = 0;  // Bytes handed to the file so far.
  uint32_t crc_ = 0;
  uint64_t declared_count_ = 0;
  uint64_t added_ = 0;
  std::vector<SnapshotEntry> entries_;
  Status status_;
};

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_SNAPSHOT_H_
