#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// Minimal command-line parsing for the examples and bench binaries.
///
/// Supports `--name value`, `--name=value`, boolean `--flag`, and free
/// positional arguments; prints a generated usage block on `--help` or on
/// the first malformed option.  Deliberately tiny: downstream users embed
/// the library, not the parser.
namespace wsn {

class CliParser {
 public:
  /// `program` and `summary` feed the usage header; `usage_status` is the
  /// exit status of a malformed number (see get_u64), which should match
  /// what the program returns when parse() fails.
  CliParser(std::string program, std::string summary, int usage_status = 1);

  /// Declares an option with a value; `fallback` is used when absent.
  void add_option(std::string name, std::string description,
                  std::string fallback);

  /// Declares a boolean flag (false unless present).
  void add_flag(std::string name, std::string description);

  /// Parses argv.  Returns false (after printing usage to stderr) on an
  /// unknown option, a missing value, or `--help`.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// Accessors; all expect that `parse` succeeded and the name was declared.
  /// get_u64/get_f64 treat text that is not a number as a usage error:
  /// they print the option, the text and the usage block to stderr and
  /// exit with `usage_status`.
  [[nodiscard]] std::string get(std::string_view name) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view name) const;
  [[nodiscard]] double get_f64(std::string_view name) const;
  [[nodiscard]] bool get_flag(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The generated usage text.
  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string description;
    std::string fallback;
    std::string value;
    bool is_flag = false;
    bool seen = false;
  };

  Option* find(std::string_view name) noexcept;
  const Option* find(std::string_view name) const noexcept;
  [[noreturn]] void fail_number(std::string_view name, const char* kind,
                                const std::string& text) const;

  std::string program_;
  std::string summary_;
  int usage_status_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
};

}  // namespace wsn
