// Minimal command-line flag parsing for the bench and example binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean switches.
// Unknown flags are an error, so typos in sweep scripts fail loudly: every
// lookup records the name it asked for, and a main calls
// reject_unknown_flags() after its last lookup.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace aem::util {

/// Strict base-10 unsigned parser used for every integer flag: the whole
/// string must be plain decimal digits and the value must fit in 64 bits.
/// Rejects what std::stoull quietly accepts — leading whitespace, '+'/'-'
/// signs (a negative count would wrap to a huge unsigned), hex, and
/// trailing garbage ("123abc").
/// Returns nullopt instead of throwing so callers own the error message.
std::optional<std::uint64_t> parse_u64(std::string_view s);

class Cli {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Cli(int argc, char** argv);

  /// Value lookups with defaults.  Throw std::invalid_argument if a flag is
  /// present but not parseable at the requested type.
  std::uint64_t u64(const std::string& name, std::uint64_t def) const;
  std::string str(const std::string& name, const std::string& def) const;
  bool flag(const std::string& name) const;

  bool has(const std::string& name) const;
  const std::string& program() const { return program_; }

  /// Worker-thread count for sweep parallelism (see harness/parallel_sweep):
  /// `--jobs=N` if given, else 1; the environment is never read.  0 means
  /// "one worker per hardware thread".  Parallelism never changes results
  /// (MODEL.md section 12), so 1 is always a safe default.  A malformed
  /// value throws std::invalid_argument like any integer flag; bench mains
  /// catch it and exit nonzero.
  std::size_t jobs() const;

  /// Throws std::invalid_argument naming every given flag that no lookup
  /// above has asked for.  Call once, after the last lookup.
  void reject_unknown_flags() const;

 private:
  /// The given value of --name, or nullptr; records the name as queried.
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> queried_;
};

}  // namespace aem::util
