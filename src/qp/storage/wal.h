#ifndef QP_STORAGE_WAL_H_
#define QP_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "qp/obs/metrics.h"
#include "qp/util/file.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {

/// When WalWriter::Append returns, how much of the record is guaranteed
/// to survive a crash.
enum class FsyncPolicy {
  /// Every record is fsynced before Append returns. Concurrent writers
  /// are group-committed: one fsync covers every record that queued up
  /// while the previous fsync was in flight.
  kEveryRecord,
  /// Never fsync (the OS flushes when it pleases). Fastest; a crash may
  /// lose everything since the last external Sync().
  kNever,
};

const char* FsyncPolicyName(FsyncPolicy policy);

struct WalOptions {
  /// A failed fsync is never retried: after one, the kernel may already
  /// have marked the unwritten pages clean and report the error only
  /// once, so a retry can succeed with the records not on disk. The
  /// failure goes sticky instead (see WalWriter::Append).
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  /// Where the writer counts records, bytes and fsyncs (qp_wal_*_total)
  /// and records per-fsync latency (the qp_wal_sync_seconds histogram).
  /// Instruments are looked up once at construction, so successive
  /// writer generations of one store continue the same series. The
  /// registry is not owned and must outlive the writer; without one the
  /// writer owns one.
  obs::MetricScope metrics;
};

/// On-disk record frame (all integers little-endian):
///
///   [ body_size u32 | masked crc32c(size) u32 | masked crc32c(body) u32
///     | body ]
///   body = [ seqno u64 | payload ]
///
/// The length field carries its own checksum: a bit flip in body_size
/// fails the header check instead of sending the reader to a bogus
/// frame boundary, where mid-log corruption would masquerade as a torn
/// tail and silently discard every record after it.
///
/// Sequence numbers are assigned by the writer, dense and strictly
/// increasing; the reader verifies the progression, so a record from a
/// stale log generation can never be replayed silently.
class WalWriter {
 public:
  /// Takes ownership of `file`, an empty (or freshly truncated) log.
  /// The first record appended gets sequence number `first_seqno`.
  WalWriter(std::unique_ptr<WritableFile> file, uint64_t first_seqno,
            WalOptions options = {});
  ~WalWriter();

  /// Appends one record. Thread-safe; under kEveryRecord, concurrent
  /// appends are batched into one write+fsync (group commit). On success
  /// `*seqno` is the record's sequence number. Any I/O or fsync failure
  /// is sticky: the writer refuses further appends, because a log with a
  /// hole cannot be trusted.
  Status Append(std::string_view payload, uint64_t* seqno);

  /// Forces everything appended so far to stable storage.
  Status Sync();

  Status Close();

  /// Highest sequence number handed out (0 if none yet).
  uint64_t last_appended_seqno() const;
  /// Highest sequence number known durable (0 if none).
  uint64_t last_synced_seqno() const;
  /// Bytes this writer has framed into its segment: the segment's growth
  /// since the writer opened it, which drives compaction.
  uint64_t segment_bytes() const;

 private:
  Status AppendLocked(std::string_view payload, std::unique_lock<std::mutex>* lock,
                      uint64_t* seqno);
  Status SyncLocked(std::unique_lock<std::mutex>* lock);
  /// file_->Sync() behind the "wal.sync" fault site, counting and timing
  /// a successful fsync. Called UNLOCKED (the flushing_ flag keeps the
  /// file exclusively ours).
  Status SyncFile();

  const WalOptions options_;
  const obs::MetricScope metrics_;
  obs::Counter* const metric_records_;
  obs::Counter* const metric_bytes_;
  obs::Counter* const metric_fsyncs_;
  obs::Histogram* const metric_sync_seconds_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unique_ptr<WritableFile> file_;
  uint64_t next_seqno_;
  uint64_t synced_seqno_ = 0;
  /// Records encoded but not yet handed to the file (group-commit queue).
  std::string pending_;
  uint64_t pending_max_seqno_ = 0;
  bool flushing_ = false;
  Status error_;  // Sticky first failure.
  uint64_t segment_bytes_ = 0;
};

/// One decoded record.
struct WalRecord {
  uint64_t seqno = 0;
  std::string_view payload;  // Into the reader's buffer.
};

/// Sequential reader over a complete WAL buffer. Distinguishes the two
/// failure modes recovery cares about:
///   - a *torn tail* (the final record is incomplete, or its checksum
///     fails and nothing follows) ends the log cleanly — the bytes are
///     reported via torn_bytes() and the caller truncates;
///   - a corrupt record with more data after it (bit flip, bad seqno,
///     bad frame mid-log) is an error — replaying past a hole would
///     silently diverge from the pre-crash state.
/// When the length field's own checksum fails, the reader scans the
/// remainder for a complete frame that continues the sequence: finding
/// one proves valid records would be lost by truncating, so the open
/// fails instead.
class WalReader {
 public:
  /// `data` must outlive the reader. `expected_first_seqno` anchors the
  /// sequence check (records replayed after a snapshot at S start at S+1).
  WalReader(std::string_view data, uint64_t expected_first_seqno);

  /// Reads the next record. Returns OK with *has_record=false at the end
  /// of the valid prefix (clean or torn); a non-OK status means mid-log
  /// corruption.
  Status Next(WalRecord* record, bool* has_record);

  /// Bytes of valid records consumed so far.
  size_t valid_bytes() const { return valid_end_; }
  /// Bytes discarded at the tail (0 unless the log was torn).
  size_t torn_bytes() const { return torn_bytes_; }

 private:
  bool HasValidFrameAfter(size_t from) const;

  std::string_view data_;
  size_t pos_ = 0;
  size_t valid_end_ = 0;
  size_t torn_bytes_ = 0;
  uint64_t expected_seqno_;
  bool done_ = false;
};

/// Encodes one framed record (used by the writer; exposed for tests).
void EncodeWalRecord(uint64_t seqno, std::string_view payload,
                     std::string* dst);

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_WAL_H_
