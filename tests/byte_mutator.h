#ifndef LAAR_TESTS_BYTE_MUTATOR_H_
#define LAAR_TESTS_BYTE_MUTATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "laar/common/rng.h"

namespace laar {

/// Applies one to three seeded byte edits (replace, insert, delete) to
/// `text` (not empty). Three in four new bytes come from `alphabet`, the
/// input language's own bytes, so that many mutants still parse; the rest
/// are any byte.
inline std::string Mutate(std::string text, std::string_view alphabet, Rng& rng) {
  const int64_t edits = rng.UniformInt(1, 3);
  for (int64_t e = 0; e < edits && !text.empty(); ++e) {
    const char byte =
        rng.Bernoulli(0.75)
            ? alphabet[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))]
            : static_cast<char>(rng.UniformInt(0, 255));
    const auto at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        text[at] = byte;
        break;
      case 1:
        text.insert(at, 1, byte);
        break;
      default:
        text.erase(at, 1);
        break;
    }
  }
  return text;
}

}  // namespace laar

#endif  // LAAR_TESTS_BYTE_MUTATOR_H_
