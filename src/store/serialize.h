#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "protocol/resolver.h"
#include "sim/plan.h"

/// Versioned, checksummed binary serialization of compiled plans.
///
/// A stored artifact is the unit the plan store moves around: the resolved
/// `RelayPlan` together with the `ResolveReport` describing how it was
/// repaired and, for plans built from a learned channel, the link quality
/// they were built from.  The wire format (version 1, little-endian, all
/// integral -- round-trips are bit-exact):
///
///   offset  size  field
///   0       8     magic "WSNPLAN1"
///   8       4     u32 format version (= 1)
///   12      4     u32 node count
///   16      4     u32 source id
///   20      4     u32 flags: bit 0 = quality section present; every
///                 other bit is reserved and must be 0
///   24      8     u64 report.repairs
///   32      8     u64 report.rounds
///   40      8     u64 report.unreachable
///   48      8     u64 report.unrepaired
///   56      8     u64 total offset count (redundant; cross-checked)
///   64      ...   per node: u32 count, then count x u32 offsets
///   (flags bit 0 only)
///           8     u64 quality count (>= 1)
///           ...   count x u64 IEEE-754 bit patterns, each a delivery
///                 probability in (0, 1], in CSR link order
///   end-8   8     u64 checksum of every preceding byte (eight byte-lane
///                 FNV-1a streams folded together; see serialize.cpp)
///
/// An artifact with flags 0 carries no quality and has exactly the layout
/// it had before the section existed, so older artifacts still decode.
///
/// Decoding is total: every failure mode maps to a `PlanSerdeStatus`
/// instead of a contract abort, so a corrupted or stale artifact is a
/// cache *miss*, never a crash.  Structural rules (source in range,
/// offsets >= 1 and strictly increasing, quality values in (0, 1]) are
/// re-verified after the checksum as defense in depth --
/// `RelayPlan::validate()` aborts, and nothing read from disk may reach it
/// unvalidated.
namespace wsn {

/// A compiled plan plus the resolver's account of building it.  A plan
/// deserializes in O(1) allocations and simulates directly.
struct StoredPlan {
  RelayPlan plan;
  ResolveReport report;
  /// The learned per-link delivery probabilities the plan was built from,
  /// in CSR link order (ETX plans on a lossy channel); empty otherwise.
  std::vector<double> quality = {};
};

inline constexpr std::uint32_t kPlanFormatVersion = 1;
inline constexpr std::size_t kPlanMagicSize = 8;
inline constexpr char kPlanMagic[kPlanMagicSize + 1] = "WSNPLAN1";

enum class PlanSerdeStatus {
  kOk,
  kNotFound,          // no artifact at that path / key
  kIoError,           // artifact exists but open/read failed (EIO, EACCES,
                      // NFS hiccup...) -- transient, worth retrying
  kTruncated,         // shorter than its own structure claims
  kBadMagic,          // not a plan artifact at all
  kBadVersion,        // a format this build does not speak
  kChecksumMismatch,  // bytes damaged after the artifact was written
  kMalformed,         // intact bytes, structurally invalid plan
};

[[nodiscard]] std::string_view to_string(PlanSerdeStatus status) noexcept;

/// FNV-1a 64-bit over `bytes`; the checksum used by the artifact trailer
/// and the fingerprint hashes (store/fingerprint.h).
[[nodiscard]] std::uint64_t fnv1a64(
    std::string_view bytes,
    std::uint64_t basis = 0xcbf29ce484222325ull) noexcept;

/// The artifact trailer checksum over `body` (every byte before the
/// trailer).  Exposed so tests can seal hand-built artifacts.
[[nodiscard]] std::uint64_t plan_checksum(std::string_view body) noexcept;

/// Encodes `value` into the version-1 artifact format.
[[nodiscard]] std::string serialize_plan(const StoredPlan& value);

/// Decodes an artifact.  On any status other than kOk, `out` is left
/// untouched.
[[nodiscard]] PlanSerdeStatus deserialize_plan(std::string_view bytes,
                                               StoredPlan& out);

/// Writes the artifact to `path` (not atomic; PlanDiskStore layers
/// temp-file + rename on top).  False on I/O failure.
[[nodiscard]] bool write_plan_file(const std::string& path,
                                   const StoredPlan& value);

/// Reads and decodes the artifact at `path`; kNotFound when absent,
/// kIoError when present but unreadable (retry-worthy).
[[nodiscard]] PlanSerdeStatus read_plan_file(const std::string& path,
                                             StoredPlan& out);

}  // namespace wsn
