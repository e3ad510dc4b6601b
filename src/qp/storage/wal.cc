#include "qp/storage/wal.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "qp/storage/coding.h"
#include "qp/util/crc32c.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace storage {

namespace {
// Frame header: body size, masked CRC of the size field, masked CRC of
// the body. Checksumming the size separately lets the reader trust a
// frame boundary before the body is even in range.
constexpr size_t kHeaderSize = 12;
// The body always starts with the 8-byte sequence number.
constexpr size_t kMinBodySize = 8;
}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryRecord:
      return "every_record";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

void EncodeWalRecord(uint64_t seqno, std::string_view payload,
                     std::string* dst) {
  std::string body;
  body.reserve(kMinBodySize + payload.size());
  PutFixed64(&body, seqno);
  body.append(payload.data(), payload.size());
  std::string size_bytes;
  PutFixed32(&size_bytes, static_cast<uint32_t>(body.size()));
  dst->append(size_bytes);
  PutFixed32(dst, crc32c::Mask(crc32c::Value(size_bytes)));
  PutFixed32(dst, crc32c::Mask(crc32c::Value(body)));
  dst->append(body);
}

WalWriter::WalWriter(std::unique_ptr<WritableFile> file, uint64_t first_seqno,
                     WalOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics.OrOwn()),
      metric_records_(metrics_.counter("qp_wal_records_appended_total")),
      metric_bytes_(metrics_.counter("qp_wal_bytes_appended_total")),
      metric_fsyncs_(metrics_.counter("qp_wal_fsyncs_total")),
      metric_sync_seconds_(metrics_.histogram("qp_wal_sync_seconds")),
      file_(std::move(file)),
      next_seqno_(first_seqno),
      synced_seqno_(first_seqno - 1),
      pending_max_seqno_(first_seqno - 1) {}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Append(std::string_view payload, uint64_t* seqno) {
  std::unique_lock<std::mutex> lock(mutex_);
  return AppendLocked(payload, &lock, seqno);
}

Status WalWriter::AppendLocked(std::string_view payload,
                               std::unique_lock<std::mutex>* lock,
                               uint64_t* seqno) {
  if (!error_.ok()) return error_;
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  // Chaos site: a transient append refusal. Fails this one mutation
  // without poisoning the writer (no seqno consumed, no sticky error),
  // so it exercises the caller's failure accounting and the breaker's
  // consecutive-failure counting.
  QP_RETURN_IF_ERROR(QP_FAULT_POINT("wal.append"));
  const uint64_t s = next_seqno_++;
  const size_t size_before = pending_.size();
  EncodeWalRecord(s, payload, &pending_);
  pending_max_seqno_ = s;
  segment_bytes_ += pending_.size() - size_before;
  metric_records_->Add(1);
  metric_bytes_->Add(pending_.size() - size_before);
  if (seqno != nullptr) *seqno = s;

  if (options_.fsync == FsyncPolicy::kNever) {
    // Hand the bytes to the OS immediately (still under the lock, so
    // frames reach the file in sequence order); never fsync.
    std::string batch;
    batch.swap(pending_);
    Status status = file_->Append(batch);
    if (!status.ok()) error_ = status;
    return status;
  }

  // Group commit: the first writer to find no flush in flight becomes
  // the leader and flushes *everything* queued so far — including the
  // records of the followers blocked on cv_ — with a single fsync.
  for (;;) {
    if (!error_.ok()) return error_;
    if (synced_seqno_ >= s) return Status::Ok();
    if (!flushing_) {
      flushing_ = true;
      std::string batch;
      batch.swap(pending_);
      const uint64_t batch_max = pending_max_seqno_;
      lock->unlock();
      Status status = file_->Append(batch);
      if (status.ok()) status = SyncFile();
      lock->lock();
      flushing_ = false;
      if (status.ok()) {
        synced_seqno_ = std::max(synced_seqno_, batch_max);
      } else {
        error_ = status;
      }
      cv_.notify_all();
    } else {
      cv_.wait(*lock);
    }
  }
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  return SyncLocked(&lock);
}

Status WalWriter::SyncLocked(std::unique_lock<std::mutex>* lock) {
  if (!error_.ok()) return error_;
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  // Serialize with any group-commit flush so file bytes stay in order.
  while (flushing_) cv_.wait(*lock);
  if (!error_.ok()) return error_;
  flushing_ = true;
  std::string batch;
  batch.swap(pending_);
  const uint64_t target = pending_max_seqno_;
  lock->unlock();
  Status status;
  if (!batch.empty()) status = file_->Append(batch);
  if (status.ok()) status = SyncFile();
  lock->lock();
  flushing_ = false;
  if (status.ok()) {
    synced_seqno_ = std::max(synced_seqno_, target);
  } else {
    error_ = status;
  }
  cv_.notify_all();
  return status;
}

Status WalWriter::SyncFile() {
  // The chaos site sits right before the real fsync, so an injected
  // failure takes exactly the path a real one does: the error goes
  // sticky upstream.
  const auto start = std::chrono::steady_clock::now();
  Status status = QP_FAULT_POINT("wal.sync");
  if (status.ok()) status = file_->Sync();
  if (status.ok()) {
    metric_fsyncs_->Add(1);
    metric_sync_seconds_->Record(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
  }
  return status;
}

Status WalWriter::Close() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::Ok();
  Status status;
  if (error_.ok() && options_.fsync != FsyncPolicy::kNever) {
    status = SyncLocked(&lock);
  } else if (error_.ok() && !pending_.empty()) {
    std::string batch;
    batch.swap(pending_);
    status = file_->Append(batch);
    if (!status.ok()) error_ = status;
  }
  Status close_status = file_->Close();
  file_.reset();
  return status.ok() ? close_status : status;
}

uint64_t WalWriter::last_appended_seqno() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return next_seqno_ - 1;
}

uint64_t WalWriter::last_synced_seqno() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return synced_seqno_;
}

uint64_t WalWriter::segment_bytes() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return segment_bytes_;
}

WalReader::WalReader(std::string_view data, uint64_t expected_first_seqno)
    : data_(data), expected_seqno_(expected_first_seqno) {}

Status WalReader::Next(WalRecord* record, bool* has_record) {
  *has_record = false;
  if (done_) return Status::Ok();
  const size_t remaining = data_.size() - pos_;
  if (remaining == 0) {
    done_ = true;
    return Status::Ok();
  }
  // An incomplete frame at the tail is a torn write: the process died
  // mid-append. Everything before it is intact, so recovery truncates
  // the tail and carries on.
  if (remaining < kHeaderSize) {
    torn_bytes_ = remaining;
    done_ = true;
    return Status::Ok();
  }
  auto corrupt = [&](const char* what) {
    return Status::ParseError(std::string("corrupt WAL record at offset ") +
                              std::to_string(pos_) + ": " + what);
  };
  const std::string_view size_bytes = data_.substr(pos_, 4);
  const uint32_t size_crc = DecodeFixed32(data_.data() + pos_ + 4);
  if (crc32c::Unmask(size_crc) != crc32c::Value(size_bytes)) {
    // The length field fails its own checksum, so the frame boundary
    // cannot be trusted. If a complete frame that continues the
    // sequence exists anywhere in the remainder, truncating here would
    // silently lose valid records — that is mid-log corruption.
    // Otherwise the bytes are the garbage prefix of a torn append.
    if (HasValidFrameAfter(pos_)) {
      return corrupt("length checksum mismatch");
    }
    torn_bytes_ = remaining;
    done_ = true;
    return Status::Ok();
  }
  const uint32_t body_size = DecodeFixed32(data_.data() + pos_);
  const uint32_t stored_crc = DecodeFixed32(data_.data() + pos_ + 8);
  if (body_size < kMinBodySize) return corrupt("frame too small");
  // The size is checksummed, so a frame that extends past EOF really
  // was cut short mid-write: a torn tail.
  if (kHeaderSize + static_cast<size_t>(body_size) > remaining) {
    torn_bytes_ = remaining;
    done_ = true;
    return Status::Ok();
  }
  std::string_view body = data_.substr(pos_ + kHeaderSize, body_size);
  if (crc32c::Unmask(stored_crc) != crc32c::Value(body)) {
    if (pos_ + kHeaderSize + body_size == data_.size()) {
      // Checksum failure on the very last record with nothing after it:
      // indistinguishable from a torn final write, so treat it as one.
      torn_bytes_ = remaining;
      done_ = true;
      return Status::Ok();
    }
    return corrupt("checksum mismatch");
  }
  const uint64_t seqno = DecodeFixed64(body.data());
  if (seqno != expected_seqno_) return corrupt("sequence number gap");
  ++expected_seqno_;
  pos_ += kHeaderSize + body_size;
  valid_end_ = pos_;
  record->seqno = seqno;
  record->payload = body.substr(kMinBodySize);
  *has_record = true;
  return Status::Ok();
}

bool WalReader::HasValidFrameAfter(size_t from) const {
  // A frame passing both checksums with a seqno that continues this log
  // is overwhelming evidence of real records beyond the bad bytes (two
  // independent CRC32Cs colliding on garbage is ~2^-64).
  for (size_t off = from; off + kHeaderSize <= data_.size(); ++off) {
    const std::string_view size_bytes = data_.substr(off, 4);
    const uint32_t size_crc = DecodeFixed32(data_.data() + off + 4);
    if (crc32c::Unmask(size_crc) != crc32c::Value(size_bytes)) continue;
    const uint32_t body_size = DecodeFixed32(data_.data() + off);
    if (body_size < kMinBodySize) continue;
    if (static_cast<size_t>(body_size) > data_.size() - off - kHeaderSize) {
      continue;
    }
    const uint32_t body_crc = DecodeFixed32(data_.data() + off + 8);
    const std::string_view body = data_.substr(off + kHeaderSize, body_size);
    if (crc32c::Unmask(body_crc) != crc32c::Value(body)) continue;
    if (DecodeFixed64(body.data()) >= expected_seqno_) return true;
  }
  return false;
}

}  // namespace storage
}  // namespace qp
