#include "qp/storage/fault_injection.h"

#include <algorithm>
#include <utility>

#include "qp/util/fault_hub.h"

namespace qp {
namespace storage {

/// Handle onto one in-memory file. All state lives in the shared
/// FileState so Crash() can revert files while handles are open.
class FaultInjectingFile : public WritableFile {
 public:
  FaultInjectingFile(FaultInjectingFileSystem* fs, std::string path,
                     std::shared_ptr<FaultInjectingFileSystem::FileState> state,
                     uint64_t generation)
      : fs_(fs),
        path_(std::move(path)),
        state_(std::move(state)),
        generation_(generation) {}

  Status Append(std::string_view data) override {
    // The seeded chaos schedule generalizes the one-shot knobs below:
    // kPartial keeps a fraction of the payload (a torn write), kError
    // drops it all. Evaluated (and any delay slept) before the FS lock
    // so a stall never convoys unrelated files.
    FaultAction fault = QP_FAULT_ACTION("fs.append");
    fault.Sleep();
    std::lock_guard<std::mutex> lock(fs_->mutex_);
    if (closed_) return Status::FailedPrecondition("file closed: " + path_);
    if (state_->generation != generation_) {
      return Status::Internal("stale handle after crash: " + path_);
    }
    auto short_write = fs_->short_writes_.find(path_);
    if (short_write != fs_->short_writes_.end()) {
      size_t keep = std::min(short_write->second, data.size());
      fs_->short_writes_.erase(short_write);
      state_->data.append(data.data(), keep);
      return Status::Internal("injected short write on " + path_);
    }
    if (fault.fire && fault.mode == FaultMode::kPartial) {
      size_t keep = static_cast<size_t>(
          static_cast<double>(data.size()) * fault.partial_fraction);
      state_->data.append(data.data(), std::min(keep, data.size()));
      return Status::Internal("injected short write on " + path_);
    }
    if (fault.fire && fault.mode == FaultMode::kError) {
      return fault.ToStatus("fs.append");
    }
    state_->data.append(data.data(), data.size());
    return Status::Ok();
  }

  Status Sync() override {
    FaultAction fault = QP_FAULT_ACTION("fs.sync");
    fault.Sleep();
    std::lock_guard<std::mutex> lock(fs_->mutex_);
    if (closed_) return Status::FailedPrecondition("file closed: " + path_);
    if (state_->generation != generation_) {
      return Status::Internal("stale handle after crash: " + path_);
    }
    if (fs_->fail_syncs_) {
      return Status::Internal("injected fsync failure on " + path_);
    }
    if (fs_->fail_next_syncs_ > 0) {
      --fs_->fail_next_syncs_;
      return Status::Internal("injected transient fsync failure on " + path_);
    }
    // A partial fsync has no meaningful shape; it degenerates to a
    // failure with nothing marked durable.
    if (fault.fire && fault.mode != FaultMode::kDelay) {
      return fault.ToStatus("fs.sync");
    }
    state_->synced_size = state_->data.size();
    fs_->num_syncs_ += 1;
    return Status::Ok();
  }

  Status Close() override {
    std::lock_guard<std::mutex> lock(fs_->mutex_);
    closed_ = true;
    return Status::Ok();
  }

 private:
  FaultInjectingFileSystem* fs_;
  std::string path_;
  std::shared_ptr<FaultInjectingFileSystem::FileState> state_;
  uint64_t generation_;
  bool closed_ = false;
};

Result<std::unique_ptr<WritableFile>>
FaultInjectingFileSystem::NewWritableFile(const std::string& path,
                                          bool truncate) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& state = files_[path];
  if (state == nullptr) {
    state = std::make_shared<FileState>();
    state->generation = crash_generation_;
  } else if (truncate) {
    state->data.clear();
    state->synced_size = 0;
    state->generation = crash_generation_;
  }
  return std::unique_ptr<WritableFile>(new FaultInjectingFile(
      this, path, state, state->generation));
}

Result<std::string> FaultInjectingFileSystem::ReadFile(
    const std::string& path) {
  FaultAction fault = QP_FAULT_ACTION("fs.read");
  fault.Sleep();
  if (fault.fire && fault.mode != FaultMode::kDelay) {
    return fault.ToStatus("fs.read");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second->data;
}

Result<std::string> FaultInjectingFileSystem::ReadFileRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  // Same fault surface as ReadFile, but O(length): the default
  // whole-file fallback would make every cold load copy the entire
  // snapshot.
  FaultAction fault = QP_FAULT_ACTION("fs.read");
  fault.Sleep();
  if (fault.fire && fault.mode != FaultMode::kDelay) {
    return fault.ToStatus("fs.read");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  const std::string& data = it->second->data;
  if (offset > data.size() || length > data.size() - offset) {
    return Status::OutOfRange("read range past EOF in " + path);
  }
  return data.substr(offset, length);
}

Status FaultInjectingFileSystem::Rename(const std::string& from,
                                        const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  files_[to] = std::move(it->second);
  files_.erase(from);
  return Status::Ok();
}

Status FaultInjectingFileSystem::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::Ok();
}

Status FaultInjectingFileSystem::CreateDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  dirs_.insert(path);
  return Status::Ok();
}

Result<std::vector<std::string>> FaultInjectingFileSystem::ListDir(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix.push_back('/');
  std::vector<std::string> names;
  for (const auto& [file_path, state] : files_) {
    if (file_path.size() > prefix.size() &&
        file_path.compare(0, prefix.size(), prefix) == 0 &&
        file_path.find('/', prefix.size()) == std::string::npos) {
      names.push_back(file_path.substr(prefix.size()));
    }
  }
  return names;
}

bool FaultInjectingFileSystem::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

Status FaultInjectingFileSystem::SyncDir(const std::string&) {
  return Status::Ok();
}

void FaultInjectingFileSystem::SetSyncFailure(bool fail) {
  std::lock_guard<std::mutex> lock(mutex_);
  fail_syncs_ = fail;
}

void FaultInjectingFileSystem::FailNextSyncs(uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  fail_next_syncs_ = count;
}

void FaultInjectingFileSystem::InjectShortWrite(const std::string& path,
                                                size_t keep_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  short_writes_[path] = keep_bytes;
}

Status FaultInjectingFileSystem::FlipBit(const std::string& path,
                                         size_t offset, int bit) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  if (offset >= it->second->data.size()) {
    return Status::OutOfRange("flip offset past EOF of " + path);
  }
  it->second->data[offset] =
      static_cast<char>(it->second->data[offset] ^ (1 << (bit & 7)));
  return Status::Ok();
}

void FaultInjectingFileSystem::Crash(Rng* rng) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++crash_generation_;
  for (auto& [path, state] : files_) {
    size_t unsynced = state->data.size() - state->synced_size;
    if (unsynced > 0) {
      // A torn write: a deterministic prefix of the unsynced tail made
      // it to the platter before power was lost.
      size_t kept = static_cast<size_t>(rng->Below(unsynced + 1));
      state->data.resize(state->synced_size + kept);
    }
    state->synced_size = state->data.size();
    state->generation = crash_generation_;
  }
}

void FaultInjectingFileSystem::CrashKeepingUnsynced() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++crash_generation_;
  for (auto& [path, state] : files_) {
    state->synced_size = state->data.size();
    state->generation = crash_generation_;
  }
}

Result<size_t> FaultInjectingFileSystem::SyncedSize(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second->synced_size;
}

uint64_t FaultInjectingFileSystem::num_syncs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_syncs_;
}

}  // namespace storage
}  // namespace qp
