#ifndef QP_STORAGE_SNAPSHOT_H_
#define QP_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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

/// Where one user's encoded profile body sits inside a snapshot file,
/// the unit of a durable store's cold index: a cold profile is paged in
/// with a single ReadFileRange(offset, length), checked against `crc`
/// and decoded, no other entry touched.
struct SnapshotEntry {
  std::string user_id;
  uint64_t offset = 0;  // Byte offset of the profile body in the file.
  uint64_t length = 0;  // Body length in bytes.
  uint32_t crc = 0;     // Masked CRC32C of the body, from its header.
};

/// The check every body passes before it is decoded: its length and
/// checksum match its entry header. The file's CRC is verified only when
/// the whole file is read (Open, the scrubber), so a body read later on
/// its own needs this one; a ParseError naming the user otherwise.
Status VerifyEntryBody(const SnapshotEntry& entry, std::string_view body);

/// One entry of a loaded snapshot: its user and the decoded profile, or
/// why the body cannot be trusted (it fails its entry checksum, or
/// DecodeProfile refuses it).
struct LoadedEntry {
  std::string user_id;
  Result<UserProfile> profile;
};

/// Loads and verifies a snapshot written by SnapshotWriter, decoding
/// every body: the scrubber's whole-generation check. A size, checksum
/// or framing mismatch against the manifest values fails the whole load
/// — the file is damaged — while a body that fails on its own fails only
/// its entry's profile, because a checkpoint carries a rotted body into
/// the next file under the checksum it was written with
/// (SnapshotWriter::AddCopy). Another format version (v1 bodies were
/// text, v2 entries had no checksum) is a ParseError that names it.
Result<std::vector<LoadedEntry>> LoadSnapshot(FileSystem* fs,
                                              const std::string& path,
                                              uint64_t expected_bytes,
                                              uint32_t expected_crc);

/// Verifies the whole file (size + CRC32C against the manifest) and
/// walks only the length-framed entry headers — profile bodies are never
/// decoded — returning every user's body position and checksum. This is
/// how recovery indexes a million-user snapshot without materializing a
/// single profile.
Result<std::vector<SnapshotEntry>> IndexSnapshot(FileSystem* fs,
                                                 const std::string& path,
                                                 uint64_t expected_bytes,
                                                 uint32_t expected_crc);

/// The one snapshot writer: a checkpoint streams hot in-memory profiles
/// (Add) and cold bodies copied from the previous snapshot (AddCopy)
/// through it. The format ("qp-snapshot v3") is a text header and count
/// line, then per user a "user <idlen> <bodylen> <crc>" line (crc: the
/// body's masked CRC32C in 8 hex digits), the id, a newline and the
/// body: the user's profile in the binary profile codec (EncodeProfile),
/// which reproduces it bit for bit. Entries are appended one at a time
/// (buffered, CRC32C extended incrementally) so the writer never holds
/// the whole snapshot in memory, and each Add or AddCopy records the
/// body's SnapshotEntry for the next cold index. Usage: Open (with the
/// exact final entry count — the format's count header is written up
/// front), Add or AddCopy per user in sorted order, Finish (flush +
/// fsync + close, reporting bytes and CRC for the manifest). Any error
/// is sticky and fails Finish.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(FileSystem* fs);

  Status Open(const std::string& path, uint64_t count);
  /// Appends a body encoded now, under a checksum computed here.
  Status Add(const std::string& user_id, std::string_view body);
  /// Appends a body copied byte for byte out of an older snapshot, under
  /// the checksum `entry` was written with rather than one computed now:
  /// a body that rotted since fails its check in the new file just as in
  /// the old one, instead of being sealed under a fresh checksum.
  Status AddCopy(const SnapshotEntry& entry, std::string_view body);
  Status Finish(uint64_t* bytes, uint32_t* crc);

  /// Body positions of every entry, in the order added. Valid after
  /// Finish.
  std::vector<SnapshotEntry> TakeEntries() { return std::move(entries_); }

 private:
  Status Append(const std::string& user_id, std::string_view body,
                uint32_t body_crc);
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
