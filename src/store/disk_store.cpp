#include "store/disk_store.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <system_error>
#include <thread>

namespace wsn {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestName = "MANIFEST.tsv";
constexpr const char* kArtifactSuffix = ".plan";

/// Reads the keys already recorded in the manifest so reopening a store
/// does not duplicate its lines.
std::unordered_set<std::string> read_manifest_keys(const fs::path& path) {
  std::unordered_set<std::string> keys;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    const std::size_t tab = line.find('\t');
    if (tab != std::string::npos) keys.insert(line.substr(0, tab));
  }
  return keys;
}

/// Serial for temp-file names, unique per writer in this process.
std::atomic<std::uint64_t> g_temp_serial{0};

std::string temp_name(const std::string& final_path) {
  return final_path + ".tmp" +
         std::to_string(g_temp_serial.fetch_add(1, std::memory_order_relaxed));
}

/// Rewrites the manifest with its lines in key order, one line per key,
/// through a temp file and a rename, so a reader sees the old or the new
/// manifest whole.
void sort_manifest(const fs::path& path) {
  std::map<std::string, std::string> lines;
  {
    std::ifstream file(path);
    std::string line;
    while (std::getline(file, line)) {
      const std::size_t tab = line.find('\t');
      if (tab != std::string::npos) lines.emplace(line.substr(0, tab), line);
    }
  }
  const std::string temp = temp_name(path.string());
  bool written = false;
  {
    std::ofstream file(temp, std::ios::trunc);
    for (const auto& entry : lines) file << entry.second << '\n';
    written = static_cast<bool>(file);
  }
  std::error_code ec;
  if (written) fs::rename(temp, path, ec);
  if (!written || ec) fs::remove(temp, ec);
}

/// The test-only fault injector (see disk_store.h); nullptr in production.
std::atomic<PlanDiskStore::LoadFaultInjector> g_load_fault_injector{nullptr};

}  // namespace

void PlanDiskStore::set_load_fault_injector(LoadFaultInjector hook) {
  g_load_fault_injector.store(hook, std::memory_order_release);
}

PlanDiskStore::PlanDiskStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  ok_ = !ec && fs::is_directory(dir_, ec);
  if (!ok_) {
    std::fprintf(stderr, "plan store: cannot open directory %s\n",
                 dir_.c_str());
    return;
  }
  manifested_ = read_manifest_keys(fs::path(dir_) / kManifestName);
}

PlanDiskStore::~PlanDiskStore() {
  if (!appended_) return;
  try {
    sort_manifest(fs::path(dir_) / kManifestName);
  } catch (const std::exception& e) {
    // The manifest is documentation; an unsorted one still lists every key.
    std::fprintf(stderr, "plan store: cannot sort %s/%s: %s\n", dir_.c_str(),
                 kManifestName, e.what());
  }
}

std::string PlanDiskStore::artifact_path(const PlanFingerprint& fp) const {
  return (fs::path(dir_) / (fp.hex() + kArtifactSuffix)).string();
}

PlanSerdeStatus PlanDiskStore::load(const PlanFingerprint& fp,
                                    StoredPlan& out) const {
  if (!ok_) return PlanSerdeStatus::kNotFound;
  const std::string path = artifact_path(fp);
  // Transient I/O failures (EIO under load, a flaky network mount) get a
  // bounded retry with exponential backoff; every other status -- hit,
  // miss, or verification failure -- surfaces immediately.  Exhausting
  // the attempts surfaces kIoError and the caller recompiles: slow is
  // acceptable, wrong or crashed is not.
  PlanSerdeStatus status = PlanSerdeStatus::kNotFound;
  for (int attempt = 0; attempt < kLoadAttempts; ++attempt) {
    status = read_plan_file(path, out);
    if (const LoadFaultInjector hook =
            g_load_fault_injector.load(std::memory_order_acquire)) {
      status = hook(status, attempt);
    }
    if (status != PlanSerdeStatus::kIoError) return status;
    if (attempt + 1 < kLoadAttempts) {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1L << attempt));
    }
  }
  return status;
}

bool PlanDiskStore::save(const PlanFingerprint& fp, const StoredPlan& value) {
  if (!ok_) return false;
  // Unique temp name per writer, then an atomic rename: a reader never
  // observes a half-written artifact, and concurrent writers of the same
  // key each install identical bytes.
  const std::string final_path = artifact_path(fp);
  const std::string temp_path = temp_name(final_path);
  if (!write_plan_file(temp_path, value)) {
    std::error_code ec;
    fs::remove(temp_path, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    fs::remove(temp_path, ec);
    return false;
  }

  const std::lock_guard<std::mutex> lock(manifest_mutex_);
  if (manifested_.insert(fp.hex()).second) {
    std::ofstream manifest(fs::path(dir_) / kManifestName, std::ios::app);
    if (manifest) {
      manifest << fp.hex() << '\t' << fp.canonical << '\n';
      appended_ = true;
    }
  }
  return true;
}

std::size_t PlanDiskStore::artifact_count() const {
  if (!ok_) return 0;
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == kArtifactSuffix) ++count;
  }
  return count;
}

}  // namespace wsn
