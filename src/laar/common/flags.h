#ifndef LAAR_COMMON_FLAGS_H_
#define LAAR_COMMON_FLAGS_H_

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

namespace laar {

/// Minimal `--name=value` command-line parser used by the bench binaries
/// and CLI tools. A bare `--name` is treated as `--name=1`. Numeric getters
/// parse the whole value strictly: a malformed or out-of-range value prints
/// `--name: expected ..., got "value"` and exits with status 2.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      // string_view slicing sidesteps a GCC 12 -Wrestrict false positive
      // on std::string::substr chains.
      std::string_view raw = argv[i];
      if (raw.size() < 2 || raw[0] != '-' || raw[1] != '-') continue;
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
    auto it = values_.find(name);
    return it == values_.end() ? fallback : Parse<int>(name, it->second, "an integer");
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : Parse<double>(name, it->second, "a number");
  }
  uint64_t GetUint64(const std::string& name, uint64_t fallback) const {
    auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : Parse<uint64_t>(name, it->second, "a non-negative integer");
  }
  std::string GetString(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  template <typename T>
  static T Parse(const std::string& name, const std::string& value, const char* expected) {
    T result{};
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
    if (ec != std::errc() || ptr != end) Reject(name, value, expected);
    return result;
  }

  [[noreturn]] static void Reject(const std::string& name, const std::string& value,
                                  const std::string& expected) {
    std::fprintf(stderr, "--%s: expected %s, got \"%s\"\n", name.c_str(), expected.c_str(),
                 value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

}  // namespace laar

#endif  // LAAR_COMMON_FLAGS_H_
