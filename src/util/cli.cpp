#include "util/cli.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace aem::util {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  // from_chars with an explicit base 10 never skips whitespace and never
  // accepts a sign or a 0x prefix; requiring full consumption rejects
  // trailing garbage, and ec reports overflow past 2^64-1.
  std::uint64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // boolean switch
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  queried_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::uint64_t Cli::u64(const std::string& name, std::uint64_t def) const {
  const std::string* v = find(name);
  if (v == nullptr) return def;
  if (auto n = parse_u64(*v)) return *n;
  throw std::invalid_argument("flag --" + name +
                              " expects a non-negative base-10 integer < 2^64"
                              ", got '" +
                              *v + "'");
}

std::string Cli::str(const std::string& name, const std::string& def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : *v;
}

bool Cli::flag(const std::string& name) const {
  const std::string* v = find(name);
  return v != nullptr && (*v == "true" || *v == "1" || *v == "yes");
}

std::size_t Cli::jobs() const {
  return static_cast<std::size_t>(u64("jobs", 1));
}

void Cli::reject_unknown_flags() const {
  std::string unknown;
  for (const auto& kv : values_) {
    if (queried_.count(kv.first) != 0) continue;
    unknown += unknown.empty() ? "--" : ", --";
    unknown += kv.first;
  }
  if (!unknown.empty())
    throw std::invalid_argument("unknown flag(s): " + unknown);
}

}  // namespace aem::util
