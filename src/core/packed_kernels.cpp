#include "core/packed_kernels.hpp"

#include <stdexcept>

#include "runtime/error.hpp"

namespace tca::core {
namespace {

void require_same_ring(const Configuration& in, const Configuration& out,
                       std::size_t min_n) {
  if (in.size() != out.size()) {
    throw tca::InvalidArgumentError(
        "packed kernel: size mismatch", tca::ErrorCode::kSizeMismatch);
  }
  if (in.size() < min_n) {
    throw tca::InvalidArgumentError("packed kernel: ring too small");
  }
  if (&in == &out) {
    throw tca::InvalidArgumentError("packed kernel: in and out must differ");
  }
}

}  // namespace

void ring_shift_up(const Configuration& in, Configuration& out) {
  require_same_ring(in, out, 1);
  const std::size_t n = in.size();
  const auto src = in.words();
  auto dst = out.words();
  // Initial carry: cell n-1 wraps into cell 0.
  std::uint64_t carry = (src[(n - 1) >> 6] >> ((n - 1) & 63)) & 1u;
  for (std::size_t w = 0; w < src.size(); ++w) {
    const std::uint64_t word = src[w];
    dst[w] = (word << 1) | carry;
    carry = word >> 63;
  }
  out.mask_padding();
}

void ring_shift_down(const Configuration& in, Configuration& out) {
  require_same_ring(in, out, 1);
  const std::size_t n = in.size();
  const auto src = in.words();
  auto dst = out.words();
  const std::uint64_t wrap = src[0] & 1u;  // cell 0 wraps into cell n-1
  for (std::size_t w = 0; w + 1 < src.size(); ++w) {
    dst[w] = (src[w] >> 1) | (src[w + 1] << 63);
  }
  dst[src.size() - 1] = src[src.size() - 1] >> 1;
  // Place the wrapped bit at cell n-1.
  const std::size_t top_word = (n - 1) >> 6;
  const std::size_t top_bit = (n - 1) & 63;
  dst[top_word] =
      (dst[top_word] & ~(std::uint64_t{1} << top_bit)) | (wrap << top_bit);
  out.mask_padding();
}

void step_ring_table3_packed(const rules::TableRule& rule,
                             const Configuration& in, Configuration& out,
                             PackedScratch& scratch) {
  require_same_ring(in, out, 3);
  if (rule.table.size() != 8) {
    throw tca::InvalidArgumentError(
        "step_ring_table3_packed: arity-3 table only");
  }
  ring_shift_up(in, scratch.left);
  ring_shift_down(in, scratch.right);
  const auto l = scratch.left.words();
  const auto s = in.words();
  const auto r = scratch.right.words();
  auto dst = out.words();
  for (std::size_t w = 0; w < dst.size(); ++w) {
    std::uint64_t acc = 0;
    for (std::size_t p = 0; p < 8; ++p) {
      if (rule.table[p] == 0) continue;
      // TableRule convention: inputs (left, self, right), left is MSB.
      const std::uint64_t lt = (p & 4) != 0 ? l[w] : ~l[w];
      const std::uint64_t st = (p & 2) != 0 ? s[w] : ~s[w];
      const std::uint64_t rt = (p & 1) != 0 ? r[w] : ~r[w];
      acc |= lt & st & rt;
    }
    dst[w] = acc;
  }
  out.mask_padding();
}

}  // namespace tca::core
