#include "common/cli.h"

#include <cstdio>
#include <cstdlib>

#include "common/assert.h"
#include "common/string_util.h"

namespace wsn {

CliParser::CliParser(std::string program, std::string summary,
                     int usage_status)
    : program_(std::move(program)),
      summary_(std::move(summary)),
      usage_status_(usage_status) {}

void CliParser::add_option(std::string name, std::string description,
                           std::string fallback) {
  WSN_EXPECTS(find(name) == nullptr);
  std::string value = fallback;
  options_.push_back(Option{std::move(name), std::move(description),
                            std::move(fallback), std::move(value),
                            /*is_flag=*/false, /*seen=*/false});
}

void CliParser::add_flag(std::string name, std::string description) {
  WSN_EXPECTS(find(name) == nullptr);
  options_.push_back(Option{std::move(name), std::move(description), "", "",
                            /*is_flag=*/true, /*seen=*/false});
}

CliParser::Option* CliParser::find(std::string_view name) noexcept {
  for (auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

const CliParser::Option* CliParser::find(std::string_view name) const noexcept {
  for (const auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stderr);
      return false;
    }
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string_view value;
    bool has_inline_value = false;
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    Option* opt = find(arg);
    if (opt == nullptr) {
      std::fprintf(stderr, "%s: unknown option --%.*s\n\n", program_.c_str(),
                   static_cast<int>(arg.size()), arg.data());
      std::fputs(usage().c_str(), stderr);
      return false;
    }
    if (opt->is_flag) {
      if (has_inline_value) {
        std::fprintf(stderr, "%s: flag --%s takes no value\n\n",
                     program_.c_str(), opt->name.c_str());
        std::fputs(usage().c_str(), stderr);
        return false;
      }
      opt->seen = true;
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option --%s requires a value\n\n",
                     program_.c_str(), opt->name.c_str());
        std::fputs(usage().c_str(), stderr);
        return false;
      }
      value = argv[++i];
    }
    opt->value = std::string(value);
    opt->seen = true;
  }
  return true;
}

std::string CliParser::get(std::string_view name) const {
  const Option* opt = find(name);
  WSN_EXPECTS(opt != nullptr && !opt->is_flag);
  return opt->value;
}

void CliParser::fail_number(std::string_view name, const char* kind,
                            const std::string& text) const {
  std::fprintf(stderr, "%s: option --%.*s expects %s, got '%s'\n\n",
               program_.c_str(), static_cast<int>(name.size()), name.data(),
               kind, text.c_str());
  std::fputs(usage().c_str(), stderr);
  std::exit(usage_status_);
}

std::uint64_t CliParser::get_u64(std::string_view name) const {
  std::uint64_t out = 0;
  const std::string text = get(name);
  if (!parse_u64(text, out)) fail_number(name, "an unsigned integer", text);
  return out;
}

double CliParser::get_f64(std::string_view name) const {
  double out = 0.0;
  const std::string text = get(name);
  if (!parse_f64(text, out)) fail_number(name, "a number", text);
  return out;
}

bool CliParser::get_flag(std::string_view name) const {
  const Option* opt = find(name);
  WSN_EXPECTS(opt != nullptr && opt->is_flag);
  return opt->seen;
}

std::string CliParser::usage() const {
  std::string out = program_ + " - " + summary_ + "\n\noptions:\n";
  std::size_t width = 0;
  for (const auto& opt : options_) width = std::max(width, opt.name.size());
  for (const auto& opt : options_) {
    out += "  --" + pad_right(opt.name, width + 2) + opt.description;
    if (!opt.is_flag && !opt.fallback.empty()) {
      out += " (default: " + opt.fallback + ")";
    }
    out += "\n";
  }
  out += "  --" + pad_right("help", width + 2) + "show this message\n";
  return out;
}

}  // namespace wsn
