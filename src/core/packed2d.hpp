#pragma once
// Bit-packed 2-D torus grid (DESIGN.md S3 extension).
//
// A rows x cols torus of Boolean cells, each row packed 64 cells per word,
// convertible to and from the flat row-major Configuration that
// graph::grid2d automata use. core/render.hpp draws it.

#include <cstdint>
#include <vector>

#include "core/configuration.hpp"

namespace tca::core {

/// Bit-packed rows x cols torus of Boolean cells.
class TorusGrid {
 public:
  TorusGrid(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }

  [[nodiscard]] State get(std::size_t r, std::size_t c) const {
    return static_cast<State>(
        (words_[r * words_per_row_ + (c >> 6)] >> (c & 63)) & 1u);
  }
  void set(std::size_t r, std::size_t c, State value) {
    const std::uint64_t bit = std::uint64_t{1} << (c & 63);
    auto& word = words_[r * words_per_row_ + (c >> 6)];
    word = value != 0 ? (word | bit) : (word & ~bit);
  }

  /// Conversion from/to the flat row-major Configuration used by
  /// graph::grid2d automata (cell id = r * cols + c).
  static TorusGrid from_configuration(const Configuration& c,
                                      std::size_t rows, std::size_t cols);
  [[nodiscard]] Configuration to_configuration() const;

  [[nodiscard]] const std::uint64_t* row(std::size_t r) const {
    return words_.data() + r * words_per_row_;
  }
  [[nodiscard]] std::uint64_t* row(std::size_t r) {
    return words_.data() + r * words_per_row_;
  }

  /// Zeroes the unused high bits of each row's last word.
  void mask_padding() noexcept;

  [[nodiscard]] std::size_t popcount() const noexcept;

  friend bool operator==(const TorusGrid&, const TorusGrid&) = default;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::size_t words_per_row_;
  std::vector<std::uint64_t> words_;
};

}  // namespace tca::core
