// Seeded mutation of text inputs for the reader fuzz tests: truncations,
// byte inserts and replacements, and inserted tokens the format gives
// meaning to, so the mutations reach the parser's edges.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace lsds::fuzz {

class TextMutator {
 public:
  /// `special`: bytes the format gives meaning to, drawn half the time a
  /// byte is inserted or replaced. `tokens`: words inserted whole.
  TextMutator(std::uint64_t seed, std::string special, std::vector<std::string> tokens)
      : rng_(seed), special_(std::move(special)), tokens_(std::move(tokens)) {}

  /// One to eight edits of `text`.
  std::string mutate(std::string text) {
    const auto edits = rng_.uniform_int(1, 8);
    for (std::int64_t e = 0; e < edits && !text.empty(); ++e) {
      const auto pos = pick(text.size());
      switch (rng_.uniform_int(0, 9)) {
        case 0:
          text.resize(pos);
          break;
        case 1:
        case 2:
          text.insert(pos, 1, byte());
          break;
        case 3:
        case 4:
          text.insert(pos, tokens_[pick(tokens_.size())]);
          break;
        default:
          text[pos] = byte();
          break;
      }
    }
    return text;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  char byte() {
    if (rng_.uniform() < 0.5) return special_[pick(special_.size())];
    return static_cast<char>(rng_.uniform_int(0, 255));
  }

  core::RngStream rng_;
  std::string special_;
  std::vector<std::string> tokens_;
};

}  // namespace lsds::fuzz
