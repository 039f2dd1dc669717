#include "checks.h"

#include <algorithm>
#include <fstream>

#include "common/json.h"

namespace meshbench {

std::uint64_t digest_lines(const std::vector<std::string>& lines) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  };
  for (const std::string& line : lines) {
    for (const char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return hash;
}

bool check_record(std::string_view line, std::string& why) {
  wsn::JsonValue doc;
  if (!wsn::parse_json(line, doc) || !doc.is_object()) {
    why = "unparseable record";
    return false;
  }
  if (doc.string_or("status", "") != "ok") {
    why = "job " + std::to_string(static_cast<std::uint64_t>(
                       doc.number_or("job", -1))) +
          " status is not ok";
    return false;
  }
  const std::string job =
      "job " + std::to_string(static_cast<std::uint64_t>(doc.number_or("job", 0)));
  if (doc.find("audit_violations") == nullptr) {
    why = job + " carries no audit verdict";
    return false;
  }
  if (doc.number_or("audit_violations", 1) != 0) {
    why = job + " has audit violations: " + doc.string_or("audit_failed", "?");
    return false;
  }
  return true;
}

void verify_stream(const std::vector<std::string>& got,
                   const std::vector<std::string>& reference,
                   Ledger& ledger) {
  const std::size_t jobs = reference.empty() ? 0 : reference.size() - 1;
  ledger.attempt(jobs);
  std::string why;
  if (digest_lines(got) == digest_lines(reference)) {
    for (std::size_t i = 1; i < got.size(); ++i) {
      if (!check_record(got[i], why)) ledger.fail(why);
    }
    return;
  }
  // The digests differ: find which records do, one failure each.
  if (got.empty() || got.front() != reference.front()) {
    ledger.fail("results header differs from the reference", jobs);
    return;
  }
  const std::size_t common = std::min(got.size(), reference.size());
  for (std::size_t i = 1; i < common; ++i) {
    if (got[i] != reference[i]) {
      ledger.fail("record " + std::to_string(i - 1) +
                  " differs from the reference");
    } else if (!check_record(got[i], why)) {
      ledger.fail(why);
    }
  }
  if (got.size() < reference.size()) {
    ledger.fail("results stream ends after " + std::to_string(common - 1) +
                    " of " + std::to_string(jobs) + " records",
                reference.size() - common);
  } else if (got.size() > reference.size()) {
    ledger.fail("results stream has extra records");
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return lines;
}

std::uint64_t response_req(std::string_view frame) noexcept {
  constexpr std::string_view kKey = "\"req\":";
  const std::size_t at = frame.find(kKey);
  if (at == std::string_view::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = at + kKey.size();
       i < frame.size() && frame[i] >= '0' && frame[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(frame[i] - '0');
  }
  return value;
}

}  // namespace meshbench
