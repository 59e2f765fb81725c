#pragma once
// Global CA configurations (DESIGN.md S3).
//
// A Configuration is the global state of a Boolean cellular automaton: one
// bit per cell, packed 64 cells per word. Packing matters twice over:
// phase-space enumeration touches millions of configurations, and the
// word-parallel kernel (packed_kernels.hpp) updates 64 cells per ALU op.
//
// Invariant: unused high bits of the last word are zero, so whole-word
// equality, hashing and popcount need no masking.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rules/rule.hpp"

namespace tca::core {

using rules::State;

/// Bit-packed vector of cell states.
class Configuration {
 public:
  /// All cells set to `fill` (default: the quiescent state 0).
  explicit Configuration(std::size_t num_cells = 0, State fill = 0);

  /// Parses "0101..."; throws std::invalid_argument on other characters.
  /// Character i becomes cell i.
  static Configuration from_string(std::string_view bits);

  /// First `num_cells` bits of `bits` (bit i = cell i). num_cells <= 64.
  static Configuration from_bits(std::uint64_t bits, std::size_t num_cells);

  /// Cells as a uint64 (bit i = cell i); requires size() <= 64.
  [[nodiscard]] std::uint64_t to_bits() const;

  [[nodiscard]] std::size_t size() const noexcept { return num_cells_; }

  [[nodiscard]] State get(std::size_t i) const {
    return static_cast<State>((words_[i >> 6] >> (i & 63)) & 1u);
  }

  void set(std::size_t i, State value) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (value != 0) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }

  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  /// Number of cells in state 1.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Sets every cell to `value`.
  void fill(State value);

  /// "0101..." (cell 0 first).
  [[nodiscard]] std::string to_string() const;

  /// Raw word storage for the packed kernels. words().size() ==
  /// ceil(size()/64); the invariant (zero padding bits) must be restored
  /// via mask_padding() after any whole-word writes.
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Zeroes the unused high bits of the last word.
  void mask_padding() noexcept;

  friend bool operator==(const Configuration&, const Configuration&) = default;

 private:
  std::size_t num_cells_ = 0;
  std::vector<std::uint64_t> words_;
};

/// 64-bit hash (FNV-1a over the packed words), for unordered containers and
/// trajectory cycle detection.
[[nodiscard]] std::uint64_t hash_value(const Configuration& c) noexcept;

struct ConfigurationHash {
  std::size_t operator()(const Configuration& c) const noexcept {
    return static_cast<std::size_t>(hash_value(c));
  }
};

}  // namespace tca::core
