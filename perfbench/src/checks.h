#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report.h"

/// Output checks: every workload verifies what the program produced, and
/// every failed check counts as a failed operation in the run's Ledger.
namespace meshbench {

/// FNV-1a 64 over a stream of lines, each followed by '\n'.
[[nodiscard]] std::uint64_t digest_lines(const std::vector<std::string>& lines);

/// Checks one audited scenario record: status ok and audit_violations
/// == 0.  `why` receives the reason on failure.
[[nodiscard]] bool check_record(std::string_view line, std::string& why);

/// Verifies a results stream (header line first, then one record per
/// job) against the reference stream: the digests must match and every
/// record must pass check_record.  Each job is one attempted operation; each
/// record that differs from the reference or breaks the rule is one
/// failure, and a stream of the wrong length fails its missing jobs.
void verify_stream(const std::vector<std::string>& got,
                   const std::vector<std::string>& reference,
                   Ledger& ledger);

/// Reads a text file into lines (no trailing newlines).  Empty on error.
[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

/// The server's request id ("req") from a response frame, 0 when absent.
[[nodiscard]] std::uint64_t response_req(std::string_view frame) noexcept;

}  // namespace meshbench
