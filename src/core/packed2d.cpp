#include "core/packed2d.hpp"

#include <bit>
#include <stdexcept>

#include "runtime/error.hpp"

namespace tca::core {
TorusGrid::TorusGrid(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_((cols + 63) / 64),
      words_(rows * words_per_row_, 0) {
  if (rows < 1 || cols < 1) {
    throw tca::InvalidArgumentError("TorusGrid: empty grid");
  }
}

TorusGrid TorusGrid::from_configuration(const Configuration& c,
                                        std::size_t rows, std::size_t cols) {
  if (c.size() != rows * cols) {
    throw tca::InvalidArgumentError(
        "TorusGrid: configuration size mismatch",
        tca::ErrorCode::kSizeMismatch);
  }
  TorusGrid g(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t col = 0; col < cols; ++col) {
      g.set(r, col, c.get(r * cols + col));
    }
  }
  return g;
}

Configuration TorusGrid::to_configuration() const {
  Configuration c(rows_ * cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t col = 0; col < cols_; ++col) {
      c.set(r * cols_ + col, get(r, col));
    }
  }
  return c;
}

void TorusGrid::mask_padding() noexcept {
  const std::size_t rem = cols_ & 63;
  if (rem == 0) return;
  const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
  for (std::size_t r = 0; r < rows_; ++r) {
    words_[r * words_per_row_ + words_per_row_ - 1] &= mask;
  }
}

std::size_t TorusGrid::popcount() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

}  // namespace tca::core
