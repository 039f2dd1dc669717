#include "store/serialize.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace wsn {

std::string_view to_string(PlanSerdeStatus status) noexcept {
  switch (status) {
    case PlanSerdeStatus::kOk:
      return "ok";
    case PlanSerdeStatus::kNotFound:
      return "not found";
    case PlanSerdeStatus::kIoError:
      return "i/o error";
    case PlanSerdeStatus::kTruncated:
      return "truncated";
    case PlanSerdeStatus::kBadMagic:
      return "bad magic";
    case PlanSerdeStatus::kBadVersion:
      return "unsupported format version";
    case PlanSerdeStatus::kChecksumMismatch:
      return "checksum mismatch";
    case PlanSerdeStatus::kMalformed:
      return "malformed plan";
  }
  return "unknown";
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t basis) noexcept {
  std::uint64_t hash = basis;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

// Explicit little-endian encoding keeps artifacts portable across hosts.
void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

// The or-of-shifted-bytes idiom compiles to a single load on little-endian
// hosts while still decoding correctly on big-endian ones.
std::uint32_t le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t le64(const unsigned char* p) noexcept {
  return static_cast<std::uint64_t>(le32(p)) |
         static_cast<std::uint64_t>(le32(p + 4)) << 32;
}

/// Bounds-checked little-endian reader over the artifact bytes.
class Reader {
 public:
  explicit Reader(std::string_view bytes)
      : data_(reinterpret_cast<const unsigned char*>(bytes.data())),
        size_(bytes.size()) {}

  [[nodiscard]] bool read_u32(std::uint32_t& value) noexcept {
    if (size_ - pos_ < 4) return false;
    value = le32(data_ + pos_);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool read_u64(std::uint64_t& value) noexcept {
    if (size_ - pos_ < 8) return false;
    value = le64(data_ + pos_);
    pos_ += 8;
    return true;
  }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kTrailerSize = 8;
/// `flags` bit 0: a quality section follows the per-node offsets.
constexpr std::uint32_t kQualityFlag = 1;

}  // namespace

/// The artifact trailer checksum: eight interleaved FNV-1a streams, one
/// per byte lane, folded into one word.  Interleaving breaks the serial
/// xor-multiply dependency chain of plain FNV, giving ~8x the throughput
/// on the multi-KB bodies the disk tier verifies on every load; any
/// single-byte change still lands in exactly one lane and flips the fold.
std::uint64_t plan_checksum(std::string_view bytes) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  std::uint64_t lane[8];
  for (std::uint64_t j = 0; j < 8; ++j) lane[j] = kBasis + j;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      lane[j] = (lane[j] ^ p[i + j]) * kPrime;
    }
  }
  for (; i < n; ++i) {
    lane[i % 8] = (lane[i % 8] ^ p[i]) * kPrime;
  }
  std::uint64_t hash = kBasis ^ n;
  for (std::uint64_t l : lane) {
    hash = (hash ^ (l & 0xff)) * kPrime;
    hash ^= l >> 8;
    hash *= kPrime;
  }
  return hash;
}

std::string serialize_plan(const StoredPlan& value) {
  const RelayPlan& plan = value.plan;
  const std::size_t node_count = plan.num_nodes();
  const std::uint64_t total_offsets = plan.total_offsets();

  std::string out;
  const std::vector<double>& quality = value.quality;
  out.reserve(kHeaderSize + 4 * node_count +
              4 * static_cast<std::size_t>(total_offsets) +
              (quality.empty() ? 0 : 8 + 8 * quality.size()) + kTrailerSize);
  out.append(kPlanMagic, kPlanMagicSize);
  put_u32(out, kPlanFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(node_count));
  put_u32(out, plan.source());
  put_u32(out, quality.empty() ? 0 : kQualityFlag);
  put_u64(out, value.report.repairs);
  put_u64(out, value.report.rounds);
  put_u64(out, value.report.unreachable);
  put_u64(out, value.report.unrepaired);
  put_u64(out, total_offsets);
  for (NodeId v = 0; v < node_count; ++v) {
    const std::span<const Slot> offsets = plan.offsets(v);
    put_u32(out, static_cast<std::uint32_t>(offsets.size()));
    for (Slot offset : offsets) put_u32(out, offset);
  }
  if (!quality.empty()) {
    put_u64(out, quality.size());
    for (double p : quality) put_u64(out, std::bit_cast<std::uint64_t>(p));
  }
  put_u64(out, plan_checksum(out));
  return out;
}

PlanSerdeStatus deserialize_plan(std::string_view bytes, StoredPlan& out) {
  if (bytes.size() < kPlanMagicSize + 4) return PlanSerdeStatus::kTruncated;
  if (std::memcmp(bytes.data(), kPlanMagic, kPlanMagicSize) != 0) {
    return PlanSerdeStatus::kBadMagic;
  }
  Reader header(bytes.substr(kPlanMagicSize));
  std::uint32_t version = 0;
  if (!header.read_u32(version)) return PlanSerdeStatus::kTruncated;
  if (version != kPlanFormatVersion) return PlanSerdeStatus::kBadVersion;
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    return PlanSerdeStatus::kTruncated;
  }

  const std::string_view body = bytes.substr(0, bytes.size() - kTrailerSize);
  Reader trailer(bytes.substr(bytes.size() - kTrailerSize));
  std::uint64_t stored_checksum = 0;
  if (!trailer.read_u64(stored_checksum)) return PlanSerdeStatus::kTruncated;
  if (plan_checksum(body) != stored_checksum) {
    return PlanSerdeStatus::kChecksumMismatch;
  }

  Reader r(body.substr(kPlanMagicSize + 4));
  std::uint32_t node_count = 0;
  std::uint32_t source = 0;
  std::uint32_t flags = 0;
  std::uint64_t repairs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t unrepaired = 0;
  std::uint64_t total_offsets = 0;
  if (!r.read_u32(node_count) || !r.read_u32(source) || !r.read_u32(flags) ||
      !r.read_u64(repairs) || !r.read_u64(rounds) ||
      !r.read_u64(unreachable) || !r.read_u64(unrepaired) ||
      !r.read_u64(total_offsets)) {
    return PlanSerdeStatus::kTruncated;
  }
  if (node_count == 0 || source >= node_count ||
      (flags & ~kQualityFlag) != 0) {
    return PlanSerdeStatus::kMalformed;
  }

  // Cross-check the claimed sizes against the actual byte count before
  // allocating anything -- a corrupted header must not drive a giant
  // resize.
  const std::size_t payload = body.size() - kHeaderSize;
  if (payload / 4 < node_count ||
      total_offsets > (payload - 4 * static_cast<std::size_t>(node_count)) / 4) {
    return PlanSerdeStatus::kTruncated;
  }

  std::vector<std::uint32_t> starts(node_count + 1, 0);
  std::vector<Slot> flat_offsets(static_cast<std::size_t>(total_offsets));
  std::uint64_t seen_offsets = 0;
  const auto* base = reinterpret_cast<const unsigned char*>(body.data());
  std::size_t pos = kHeaderSize;
  for (std::uint32_t v = 0; v < node_count; ++v) {
    if (body.size() - pos < 4) return PlanSerdeStatus::kTruncated;
    const std::uint32_t count = le32(base + pos);
    pos += 4;
    const std::uint64_t begin = seen_offsets;
    seen_offsets += count;
    if (seen_offsets > total_offsets) return PlanSerdeStatus::kMalformed;
    if ((body.size() - pos) / 4 < count) return PlanSerdeStatus::kTruncated;
    starts[v + 1] = static_cast<std::uint32_t>(seen_offsets);
    // One bulk decode per node instead of a push_back per offset; the
    // contract checks (offsets >= 1, strictly increasing -- validate()
    // aborts on violation, so enforce here instead) run over the decoded
    // values in place.
    Slot previous = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t offset = le32(base + pos + 4 * i);
      if (offset < 1 || offset <= previous) return PlanSerdeStatus::kMalformed;
      previous = offset;
      flat_offsets[static_cast<std::size_t>(begin) + i] = offset;
    }
    pos += 4 * static_cast<std::size_t>(count);
  }
  if (seen_offsets != total_offsets) return PlanSerdeStatus::kMalformed;
  std::vector<double> quality;
  if ((flags & kQualityFlag) != 0) {
    if (body.size() - pos < 8) return PlanSerdeStatus::kTruncated;
    const std::uint64_t count = le64(base + pos);
    pos += 8;
    if (count == 0) return PlanSerdeStatus::kMalformed;
    if ((body.size() - pos) / 8 < count) return PlanSerdeStatus::kTruncated;
    quality.resize(static_cast<std::size_t>(count));
    for (double& p : quality) {
      p = std::bit_cast<double>(le64(base + pos));
      pos += 8;
      // Negated so NaN fails too: a delivery probability lies in (0, 1].
      if (!(p > 0.0 && p <= 1.0)) return PlanSerdeStatus::kMalformed;
    }
  }
  if (pos != body.size()) {
    return PlanSerdeStatus::kMalformed;  // trailing garbage under checksum
  }
  if (starts[source + 1] == starts[source]) {
    return PlanSerdeStatus::kMalformed;  // source must be a relay
  }

  StoredPlan result;
  result.plan =
      RelayPlan::adopt(source, std::move(starts), std::move(flat_offsets));
  result.report.repairs = repairs;
  result.report.rounds = rounds;
  result.report.unreachable = unreachable;
  result.report.unrepaired = unrepaired;
  result.quality = std::move(quality);
  out = std::move(result);
  return PlanSerdeStatus::kOk;
}

bool write_plan_file(const std::string& path, const StoredPlan& value) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  const std::string bytes = serialize_plan(value);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(file);
}

PlanSerdeStatus read_plan_file(const std::string& path, StoredPlan& out) {
  // A warm-cache sweep loads hundreds of artifacts, so the slurp path is
  // deliberately lean: raw descriptors on POSIX (no stream buffering, no
  // FILE allocation), plain stdio elsewhere.
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // Absence is a clean miss; anything else (EIO, EACCES, a flaky
    // network mount) is a transient I/O error the caller may retry.
    return errno == ENOENT || errno == ENOTDIR ? PlanSerdeStatus::kNotFound
                                               : PlanSerdeStatus::kIoError;
  }
  // Typical artifacts (a few KB) fit the stack buffer and decode without
  // touching the heap; larger ones spill into `bytes`.
  char stack_buffer[16384];
  std::string bytes;
  std::size_t have = 0;
  for (;;) {
    char* dst = have < sizeof stack_buffer ? stack_buffer + have : nullptr;
    std::size_t room = sizeof stack_buffer - have;
    if (dst == nullptr) {
      if (bytes.empty()) bytes.assign(stack_buffer, have);
      bytes.resize(have + sizeof stack_buffer);
      dst = bytes.data() + have;
      room = sizeof stack_buffer;
    }
    const ssize_t got = ::read(fd, dst, room);
    if (got < 0) {
      ::close(fd);
      return PlanSerdeStatus::kIoError;
    }
    if (got == 0) break;
    have += static_cast<std::size_t>(got);
  }
  ::close(fd);
  if (!bytes.empty()) {
    bytes.resize(have);
    return deserialize_plan(bytes, out);
  }
  return deserialize_plan(std::string_view(stack_buffer, have), out);
#else
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return errno == ENOENT ? PlanSerdeStatus::kNotFound
                           : PlanSerdeStatus::kIoError;
  }
  std::string bytes;
  char chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.append(chunk, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return PlanSerdeStatus::kIoError;
  return deserialize_plan(bytes, out);
#endif
}

}  // namespace wsn
