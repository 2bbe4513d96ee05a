#ifndef LAAR_COMMON_FLAGS_H_
#define LAAR_COMMON_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <variant>
#include <vector>

namespace laar {

/// Minimal `--name=value` command-line parser used by the bench binaries
/// and CLI tools. A bare `--name` is treated as `--name=1`. Numeric getters
/// parse the whole value strictly: a malformed or out-of-range value prints
/// `--name: expected ..., got "value"` and exits with status 2.
/// A read declares the flag: getters record its name and default for `Finish()`.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      // string_view slicing sidesteps a GCC 12 -Wrestrict false positive
      // on std::string::substr chains.
      std::string_view raw = argv[i];
      if (raw.size() < 2 || raw[0] != '-' || raw[1] != '-') {
        positional_.emplace_back(raw);
        continue;
      }
      raw.remove_prefix(2);
      const size_t eq = raw.find('=');
      if (eq == std::string_view::npos) {
        values_.insert_or_assign(std::string(raw), std::string("1"));
      } else {
        values_.insert_or_assign(std::string(raw.substr(0, eq)),
                                 std::string(raw.substr(eq + 1)));
      }
    }
  }

  int GetInt(const std::string& name, int fallback) const {
    const std::string* value = Read(name, fallback);
    return value == nullptr ? fallback : Parse<int>(name, *value, "an integer");
  }
  double GetDouble(const std::string& name, double fallback) const {
    const std::string* value = Read(name, fallback);
    return value == nullptr ? fallback : Parse<double>(name, *value, "a number");
  }
  uint64_t GetUint64(const std::string& name, uint64_t fallback) const {
    const std::string* value = Read(name, fallback);
    return value == nullptr ? fallback
                            : Parse<uint64_t>(name, *value, "a non-negative integer");
  }
  std::string GetString(const std::string& name, const std::string& fallback) const {
    const std::string* value = Read(name, fallback);
    return value == nullptr ? fallback : *value;
  }
  bool Has(const std::string& name) const { return Read(name, std::monostate{}) != nullptr; }

  /// The numeric getters' parse, for numbers a binary finds inside a flag's
  /// value (the `H@T+D` entries of laar_simulate's `--crash-schedule`):
  /// true when all of `text` is one T in range, and finite for a
  /// floating-point T. No blanks, no leading '+', no suffix; not `nan`.
  template <typename T>
  static bool ParseNumber(std::string_view text, T* out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    if (ec != std::errc() || ptr != end) return false;
    if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
    return true;
  }

  /// Takes the arguments that do not start with `--`, in order.
  const std::vector<std::string>& positional() {
    positional_taken_ = true;
    return positional_;
  }

  /// Call once, after every read and before any work. `--help` prints one
  /// `--name=default` line per declared flag, in read order, and exits 0. An
  /// undeclared `--name`, a single-dash argument, or a positional argument
  /// nobody took exits 2. A getter called afterwards aborts.
  void Finish() {
    finished_ = true;
    if (values_.count("help") > 0) {
      for (const Declared& flag : declared_) {
        std::printf("--%s%s\n", flag.name.c_str(), FormatDefault(flag.fallback).c_str());
      }
      std::exit(0);
    }
    for (const auto& [name, value] : values_) {
      if (!IsDeclared(name)) RejectArgument("unknown flag --" + name);
    }
    for (const std::string& arg : positional_) {
      if (!positional_taken_ || arg.starts_with('-')) {
        RejectArgument("unexpected argument \"" + arg + "\"");
      }
    }
  }

 private:
  /// A read flag's default as its getter was given it; `Has` gives none.
  using Default = std::variant<std::monostate, int, double, uint64_t, std::string>;
  struct Declared {
    std::string name;
    Default fallback;
  };

  /// Declares `name` on its first read; returns its value, or null if unset.
  const std::string* Read(const std::string& name, Default fallback) const {
    if (finished_) {
      std::fprintf(stderr, "laar::Flags: --%s read after Finish()\n", name.c_str());
      std::abort();
    }
    if (!IsDeclared(name)) declared_.push_back({name, std::move(fallback)});
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  bool IsDeclared(const std::string& name) const {
    return std::any_of(declared_.begin(), declared_.end(),
                       [&name](const Declared& flag) { return flag.name == name; });
  }

  [[noreturn]] static void RejectArgument(const std::string& what) {
    std::fprintf(stderr, "%s (see --help)\n", what.c_str());
    std::exit(2);
  }

  static std::string FormatDefault(const Default& fallback) {
    char buffer[32];  // fits any int, uint64_t, or shortest double
    return std::visit(
        [&buffer](const auto& value) -> std::string {
          using T = std::decay_t<decltype(value)>;
          if constexpr (std::is_same_v<T, std::monostate>) return "";
          else if constexpr (std::is_same_v<T, std::string>) return "=" + value;
          else return "=" + std::string(buffer, std::to_chars(buffer, std::end(buffer), value).ptr);
        },
        fallback);
  }

  template <typename T>
  static T Parse(const std::string& name, const std::string& value, const char* expected) {
    T result{};
    if (ParseNumber(value, &result)) return result;
    // Rejected: re-parse only to say why.
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, result);
    if constexpr (std::is_integral_v<T>) {
      if (ec == std::errc::result_out_of_range) {
        Reject(name, value,
               std::string(expected) + " in [" +
                   std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]");
      }
    } else if (ec == std::errc::result_out_of_range ||
               (ec == std::errc() && !std::isfinite(result))) {
      Reject(name, value, "a finite number");
    }
    Reject(name, value, expected);
  }

  [[noreturn]] static void Reject(const std::string& name, const std::string& value,
                                  const std::string& expected) {
    std::fprintf(stderr, "--%s: expected %s, got \"%s\"\n", name.c_str(), expected.c_str(),
                 value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::vector<Declared> declared_;
  bool positional_taken_ = false;
  bool finished_ = false;
};

}  // namespace laar

#endif  // LAAR_COMMON_FLAGS_H_
