// A pass-through Fs for lake tests that watch index snapshot writes:
// every call goes to the real filesystem, and OnSnapshotWrite runs just
// before each snapshot file is written into one index directory
// (WriteFileAtomic writes "<name>.snap.tmp.<n>" first).

#ifndef MLAKE_TESTS_SNAPSHOT_WRITE_FS_H_
#define MLAKE_TESTS_SNAPSHOT_WRITE_FS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fs.h"
#include "common/string_util.h"

namespace mlake {

class SnapshotWriteFs : public Fs {
 public:
  explicit SnapshotWriteFs(std::string index_dir)
      : index_dir_(std::move(index_dir) + "/") {}

  Result<std::string> ReadFile(const std::string& p) override {
    return base_->ReadFile(p);
  }
  bool FileExists(const std::string& p) override {
    return base_->FileExists(p);
  }
  Result<uint64_t> FileSize(const std::string& p) override {
    return base_->FileSize(p);
  }
  Result<std::vector<std::string>> ListDir(const std::string& d) override {
    return base_->ListDir(d);
  }
  Result<std::vector<std::string>> ListSubdirs(const std::string& d) override {
    return base_->ListSubdirs(d);
  }
  Result<MmapFile> Mmap(const std::string& p) override {
    return base_->Mmap(p);
  }
  Status WriteFile(const std::string& p, std::string_view data) override {
    if (StartsWith(p, index_dir_) && p.find(".snap") != std::string::npos) {
      OnSnapshotWrite(p);
    }
    return base_->WriteFile(p, data);
  }
  Status AppendFile(const std::string& p, std::string_view data) override {
    return base_->AppendFile(p, data);
  }
  Status Truncate(const std::string& p, uint64_t size) override {
    return base_->Truncate(p, size);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status RemoveFile(const std::string& p) override {
    return base_->RemoveFile(p);
  }
  Status CreateDirs(const std::string& p) override {
    return base_->CreateDirs(p);
  }
  Status SyncFile(const std::string& p) override { return base_->SyncFile(p); }
  Status SyncDir(const std::string& p) override { return base_->SyncDir(p); }

 protected:
  virtual void OnSnapshotWrite(const std::string& path) = 0;

 private:
  Fs* base_ = RealFs();
  std::string index_dir_;
};

}  // namespace mlake

#endif  // MLAKE_TESTS_SNAPSHOT_WRITE_FS_H_
