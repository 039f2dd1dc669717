#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>

#include "store/fingerprint.h"
#include "store/serialize.h"

/// Disk-backed plan store: a directory of content-addressed artifacts
/// plus a human-readable manifest.
///
/// Layout:
///
///   <dir>/<32-hex-key>.plan   -- one version-1 artifact per fingerprint
///   <dir>/MANIFEST.tsv        -- "<hex key>\t<canonical request>" lines
///
/// The manifest is documentation, not an index: loads go straight to the
/// content-addressed path, so a torn or missing manifest can never serve
/// a wrong plan.  Lines are appended as saves complete, and a store that
/// appended any rewrites the manifest in key order when it closes: two
/// stores that saved the same plans hold byte-identical directories, in
/// whatever order concurrent saves finished.  Saves are atomic (unique
/// temp file + rename) and last-writer-wins, which is exactly right for a
/// content-addressed store -- every writer of a key writes the same
/// bytes.
///
/// Failure policy: every load problem -- absent file, truncation, bad
/// magic, stale format version, checksum damage, structural nonsense --
/// is reported as a status for the caller to treat as a cache miss.
/// Nothing here aborts, and nothing that fails verification is ever
/// returned as a plan.
namespace wsn {

class PlanDiskStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`.  False return
  /// from `ok()` means the directory could not be created; loads then
  /// miss and saves fail, but nothing throws.
  explicit PlanDiskStore(std::string dir);
  /// Sorts the manifest by key if this store appended to it.
  ~PlanDiskStore();
  PlanDiskStore(const PlanDiskStore&) = delete;
  PlanDiskStore& operator=(const PlanDiskStore&) = delete;

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Path the artifact for `fp` lives at (whether or not it exists yet).
  [[nodiscard]] std::string artifact_path(const PlanFingerprint& fp) const;

  /// Transient-read retry policy: a load whose raw read reports kIoError
  /// (artifact present, open/read failed) is retried up to this many
  /// attempts with a short exponential backoff before the error surfaces
  /// and the caller falls back to recompiling.
  static constexpr int kLoadAttempts = 3;

  /// Loads and fully verifies the artifact; kNotFound when absent,
  /// kIoError only after `kLoadAttempts` reads all failed.
  [[nodiscard]] PlanSerdeStatus load(const PlanFingerprint& fp,
                                     StoredPlan& out) const;

  /// Transient-read retries performed by this store so far.
  [[nodiscard]] std::uint64_t read_retries() const noexcept {
    return read_retries_.load(std::memory_order_relaxed);
  }

  /// Test hook (process-global): rewrites each raw read's status before
  /// the retry policy sees it, given the 0-based attempt number -- lets
  /// tests inject transient I/O failures without touching the
  /// filesystem.  Pass nullptr to clear.
  using LoadFaultInjector = PlanSerdeStatus (*)(PlanSerdeStatus status,
                                                int attempt);
  static void set_load_fault_injector(LoadFaultInjector hook);

  /// Writes the artifact atomically and appends the manifest line (once
  /// per key per store lifetime).  False on I/O failure.
  [[nodiscard]] bool save(const PlanFingerprint& fp, const StoredPlan& value);

  /// Number of `.plan` artifacts currently in the directory.
  [[nodiscard]] std::size_t artifact_count() const;

 private:
  std::string dir_;
  bool ok_ = false;
  mutable std::atomic<std::uint64_t> read_retries_{0};
  std::mutex manifest_mutex_;
  std::unordered_set<std::string> manifested_;
  bool appended_ = false;  // guarded by manifest_mutex_
};

}  // namespace wsn
