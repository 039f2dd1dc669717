// PlanDiskStore: content-addressed artifact layout, manifest behavior, and
// the failure policy -- every form of on-disk damage is a reported miss,
// never a trusted plan and never an abort.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "protocol/registry.h"
#include "store/disk_store.h"
#include "store/fingerprint.h"
#include "topology/factory.h"

namespace wsn {
namespace {

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wsn_test_disk_" + tag)) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

StoredPlan sample_plan() {
  const auto topo = make_mesh("2D-4", 6, 4);
  StoredPlan stored;
  stored.plan =
      RelayPlan(paper_plan(*topo, 2, {}, &stored.report));
  return stored;
}

PlanFingerprint sample_fingerprint() {
  const auto topo = make_mesh("2D-4", 6, 4);
  return fingerprint_plan_request(*topo, 2, "paper");
}

/// Overwrites one byte; xors with the old byte when `value` is 0 so the
/// result is guaranteed to differ.
void damage_artifact(const std::string& path, std::size_t offset,
                     char value = 0) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open()) << path;
  if (value == 0) {
    file.seekg(static_cast<std::streamoff>(offset));
    char old = 0;
    file.read(&old, 1);
    value = static_cast<char>(old ^ 0x40);
  }
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&value, 1);
}

TEST(StoreDisk, SaveLoadRoundTripAndLayout) {
  const TempDir tmp("roundtrip");
  PlanDiskStore store(tmp.path.string());
  ASSERT_TRUE(store.ok());

  const PlanFingerprint fp = sample_fingerprint();
  const StoredPlan original = sample_plan();
  ASSERT_TRUE(store.save(fp, original));
  EXPECT_EQ(store.artifact_count(), 1u);

  // Content-addressed path: the fingerprint's hex is the file stem.
  const std::string path = store.artifact_path(fp);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_NE(path.find(fp.hex()), std::string::npos);

  StoredPlan loaded;
  ASSERT_EQ(store.load(fp, loaded), PlanSerdeStatus::kOk);
  EXPECT_EQ(loaded.plan.source(), original.plan.source());
  EXPECT_EQ(loaded.plan.total_offsets(), original.plan.total_offsets());
  EXPECT_EQ(loaded.report.repairs, original.report.repairs);

  // The manifest documents the canonical request for the key.
  std::ifstream manifest(tmp.path / "MANIFEST.tsv");
  std::string line;
  ASSERT_TRUE(std::getline(manifest, line));
  EXPECT_NE(line.find(fp.hex()), std::string::npos);
  EXPECT_NE(line.find(fp.canonical), std::string::npos);
}

TEST(StoreDisk, MissingArtifactIsNotFound) {
  const TempDir tmp("missing");
  PlanDiskStore store(tmp.path.string());
  ASSERT_TRUE(store.ok());
  StoredPlan out;
  EXPECT_EQ(store.load(sample_fingerprint(), out),
            PlanSerdeStatus::kNotFound);
}

TEST(StoreDisk, FlippedByteIsChecksumMismatch) {
  const TempDir tmp("corrupt");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  ASSERT_TRUE(store.save(fp, sample_plan()));
  damage_artifact(store.artifact_path(fp), 70);
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kChecksumMismatch);
}

TEST(StoreDisk, StaleVersionIsBadVersion) {
  const TempDir tmp("version");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  ASSERT_TRUE(store.save(fp, sample_plan()));
  damage_artifact(store.artifact_path(fp), 8,
                  static_cast<char>(kPlanFormatVersion + 9));
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kBadVersion);
}

TEST(StoreDisk, TruncatedArtifactIsRejected) {
  const TempDir tmp("truncate");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  ASSERT_TRUE(store.save(fp, sample_plan()));
  std::filesystem::resize_file(store.artifact_path(fp), 40);
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kTruncated);
}

TEST(StoreDisk, ForeignFileIsBadMagic) {
  const TempDir tmp("magic");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  {
    std::ofstream file(store.artifact_path(fp), std::ios::binary);
    file << "definitely not a plan artifact, but longer than a header";
  }
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kBadMagic);
}

TEST(StoreDisk, SaveOverwriteIsIdempotent) {
  const TempDir tmp("overwrite");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  ASSERT_TRUE(store.save(fp, sample_plan()));
  ASSERT_TRUE(store.save(fp, sample_plan()));
  EXPECT_EQ(store.artifact_count(), 1u);
  // Second save of the key does not duplicate the manifest line.
  std::ifstream manifest(tmp.path / "MANIFEST.tsv");
  std::size_t lines = 0;
  for (std::string line; std::getline(manifest, line);) ++lines;
  EXPECT_EQ(lines, 1u);
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kOk);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

// Concurrent saves finish in any order; the closed store must not show
// it, so a byte-diff of two stores is a determinism check at any worker
// count.  Reopening a store and adding a key keeps the order too.
TEST(StoreDisk, ManifestIsInKeyOrderWhateverTheSaveOrder) {
  const TempDir forward("order_forward");
  const TempDir backward("order_backward");
  const auto topo = make_mesh("2D-4", 6, 4);
  std::vector<PlanFingerprint> fps;
  for (const NodeId src : {5u, 0u, 3u, 1u}) {
    fps.push_back(fingerprint_plan_request(*topo, src, "paper"));
  }
  const StoredPlan plan = sample_plan();
  {
    PlanDiskStore store(forward.path.string());
    for (const PlanFingerprint& fp : fps) ASSERT_TRUE(store.save(fp, plan));
  }
  {
    PlanDiskStore store(backward.path.string());
    for (auto it = fps.rbegin(); it != fps.rend(); ++it) {
      ASSERT_TRUE(store.save(*it, plan));
    }
  }
  const std::string manifest = read_file(forward.path / "MANIFEST.tsv");
  EXPECT_EQ(manifest, read_file(backward.path / "MANIFEST.tsv"));

  const auto keys_of = [](const std::string& text) {
    std::vector<std::string> keys;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      keys.push_back(line.substr(0, line.find('\t')));
    }
    return keys;
  };
  std::vector<std::string> keys = keys_of(manifest);
  EXPECT_EQ(keys.size(), fps.size());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  {
    PlanDiskStore store(forward.path.string());
    ASSERT_TRUE(store.save(fingerprint_plan_request(*topo, 2, "paper"), plan));
    ASSERT_TRUE(store.save(fps.front(), plan));  // already listed
  }
  keys = keys_of(read_file(forward.path / "MANIFEST.tsv"));
  EXPECT_EQ(keys.size(), fps.size() + 1);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(StoreDisk, UncreatableDirectoryDegradesWithoutThrowing) {
  const TempDir tmp("blocked");
  // A regular file where the store wants its directory.
  std::filesystem::create_directories(tmp.path);
  const std::filesystem::path blocker = tmp.path / "file";
  { std::ofstream(blocker) << "x"; }

  PlanDiskStore store((blocker / "store").string());
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.save(sample_fingerprint(), sample_plan()));
  StoredPlan out;
  EXPECT_EQ(store.load(sample_fingerprint(), out),
            PlanSerdeStatus::kNotFound);
  EXPECT_EQ(store.artifact_count(), 0u);
}

// --- transient-read retry policy -------------------------------------------

/// Clears the global load-fault injector even when an assertion bails out.
struct InjectorGuard {
  ~InjectorGuard() { PlanDiskStore::set_load_fault_injector(nullptr); }
};

std::atomic<int> g_injected_reads{0};

TEST(StoreDisk, TransientIoErrorIsRetriedToSuccess) {
  const TempDir tmp("retry_ok");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  ASSERT_TRUE(store.save(fp, sample_plan()));

  const InjectorGuard guard;
  // First read fails as if the disk hiccupped; the retry sees the truth.
  PlanDiskStore::set_load_fault_injector(
      +[](PlanSerdeStatus status, int attempt) {
        return attempt == 0 ? PlanSerdeStatus::kIoError : status;
      });
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kOk);
  EXPECT_EQ(out.plan.num_nodes(), sample_plan().plan.num_nodes());
  EXPECT_EQ(store.read_retries(), 1u);
}

TEST(StoreDisk, PersistentIoErrorSurfacesAfterBoundedAttempts) {
  const TempDir tmp("retry_exhausted");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  ASSERT_TRUE(store.save(fp, sample_plan()));

  const InjectorGuard guard;
  g_injected_reads.store(0);
  PlanDiskStore::set_load_fault_injector(+[](PlanSerdeStatus, int) {
    g_injected_reads.fetch_add(1);
    return PlanSerdeStatus::kIoError;
  });
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kIoError);
  // Exactly kLoadAttempts reads, kLoadAttempts - 1 of them retries.
  EXPECT_EQ(g_injected_reads.load(), PlanDiskStore::kLoadAttempts);
  EXPECT_EQ(store.read_retries(),
            static_cast<std::uint64_t>(PlanDiskStore::kLoadAttempts - 1));
}

TEST(StoreDisk, VerificationFailuresAreNotRetried) {
  const TempDir tmp("retry_checksum");
  PlanDiskStore store(tmp.path.string());
  const PlanFingerprint fp = sample_fingerprint();
  ASSERT_TRUE(store.save(fp, sample_plan()));
  damage_artifact(store.artifact_path(fp), 70);

  const InjectorGuard guard;
  g_injected_reads.store(0);
  PlanDiskStore::set_load_fault_injector(+[](PlanSerdeStatus status, int) {
    g_injected_reads.fetch_add(1);
    return status;
  });
  StoredPlan out;
  EXPECT_EQ(store.load(fp, out), PlanSerdeStatus::kChecksumMismatch);
  // Damage is not transient: one read, no retries, straight to recompile.
  EXPECT_EQ(g_injected_reads.load(), 1);
  EXPECT_EQ(store.read_retries(), 0u);
}

}  // namespace
}  // namespace wsn
