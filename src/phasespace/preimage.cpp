#include "phasespace/preimage.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/error.hpp"

namespace tca::phasespace {
namespace {

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return (s < a || a == kSaturated || b == kSaturated) ? kSaturated : s;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kSaturated || b == kSaturated) return kSaturated;
  if (a > kSaturated / b) return kSaturated;
  return a * b;
}

/// W x W saturating-u64 matrix, row-major.
using Matrix = std::vector<std::uint64_t>;

Matrix multiply(const Matrix& a, const Matrix& b, std::uint32_t w) {
  Matrix out(static_cast<std::size_t>(w) * w, 0);
  for (std::uint32_t i = 0; i < w; ++i) {
    for (std::uint32_t k = 0; k < w; ++k) {
      const std::uint64_t aik = a[i * w + k];
      if (aik == 0) continue;
      for (std::uint32_t j = 0; j < w; ++j) {
        out[i * w + j] =
            sat_add(out[i * w + j], sat_mul(aik, b[k * w + j]));
      }
    }
  }
  return out;
}

/// Boolean W x W matrix as per-row bitmasks (W <= 64).
using BoolMatrix = std::vector<std::uint64_t>;

BoolMatrix bool_multiply(const BoolMatrix& a, const BoolMatrix& b,
                         std::uint32_t w) {
  BoolMatrix out(w, 0);
  for (std::uint32_t i = 0; i < w; ++i) {
    std::uint64_t row = 0;
    std::uint64_t bits = a[i];
    while (bits != 0) {
      const auto k = static_cast<std::uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      row |= b[k];
    }
    out[i] = row;
  }
  return out;
}

}  // namespace

RingPreimageSolver::RingPreimageSolver(const rules::Rule& rule,
                                       std::uint32_t radius,
                                       core::Memory memory)
    : radius_(radius),
      window_bits_(2 * radius),
      window_count_(1u << (2 * radius)) {
  if (radius == 0 || radius > 3) {
    throw tca::InvalidArgumentError(
        "RingPreimageSolver: radius must be in [1,3]");
  }
  const std::uint32_t full_bits = 2 * radius + 1;
  const std::size_t full_count = std::size_t{1} << full_bits;
  table_.resize(full_count);
  std::vector<rules::State> inputs;
  for (std::size_t window = 0; window < full_count; ++window) {
    inputs.clear();
    for (std::uint32_t j = 0; j < full_bits; ++j) {
      // Bit order: MSB-first, spatially left-to-right; skip the middle
      // (self) cell for memoryless automata.
      if (memory == core::Memory::kWithout && j == radius) continue;
      inputs.push_back(static_cast<rules::State>(
          (window >> (full_bits - 1 - j)) & 1u));
    }
    table_[window] = rules::eval(rule, inputs);
  }
}

std::uint64_t RingPreimageSolver::count(
    const core::Configuration& target) const {
  const std::size_t n = target.size();
  if (n < 2 * std::size_t{radius_} + 1) {
    throw tca::InvalidArgumentError("RingPreimageSolver: ring too small");
  }
  const std::uint32_t w = window_count_;
  // Per-output transfer matrices: M_b[win][win'] = 1 iff win' extends win
  // and the full window maps to b.
  Matrix m[2] = {Matrix(static_cast<std::size_t>(w) * w, 0),
                 Matrix(static_cast<std::size_t>(w) * w, 0)};
  for (std::uint32_t win = 0; win < w; ++win) {
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      const std::uint32_t full = (win << 1) | bit;
      const std::uint32_t next = full & (w - 1);
      m[table_[full]][win * w + next] = 1;
    }
  }
  // Product in target order; start from M_{y_0} and fold the rest in.
  Matrix product = m[target.get(0)];
  for (std::size_t i = 1; i < n; ++i) {
    product = multiply(product, m[target.get(i)], w);
  }
  std::uint64_t trace = 0;
  for (std::uint32_t i = 0; i < w; ++i) {
    trace = sat_add(trace, product[i * w + i]);
  }
  return trace;
}

std::vector<core::Configuration> RingPreimageSolver::enumerate(
    const core::Configuration& target, std::size_t limit) const {
  const std::size_t n = target.size();
  if (n < 2 * std::size_t{radius_} + 1) {
    throw tca::InvalidArgumentError("RingPreimageSolver: ring too small");
  }
  const std::uint32_t w = window_count_;

  // Boolean step matrices.
  BoolMatrix step[2] = {BoolMatrix(w, 0), BoolMatrix(w, 0)};
  for (std::uint32_t win = 0; win < w; ++win) {
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      const std::uint32_t full = (win << 1) | bit;
      const std::uint32_t next = full & (w - 1);
      step[table_[full]][win] |= std::uint64_t{1} << next;
    }
  }

  // Suffix reachability: reach[i][win] = endpoint windows reachable from
  // `win` by consuming target[i..n).
  std::vector<BoolMatrix> reach(n + 1);
  reach[n] = BoolMatrix(w, 0);
  for (std::uint32_t i = 0; i < w; ++i) reach[n][i] = std::uint64_t{1} << i;
  for (std::size_t i = n; i-- > 0;) {
    reach[i] = bool_multiply(step[target.get(i)], reach[i + 1], w);
  }

  std::vector<core::Configuration> results;
  std::vector<rules::State> cells(n, 0);
  for (std::uint32_t w0 = 0; w0 < w && results.size() < limit; ++w0) {
    if ((reach[0][w0] & (std::uint64_t{1} << w0)) == 0) continue;
    // Seed the initial window cells: bit j (MSB-first) is cell
    // (n - radius + j) mod n.
    for (std::uint32_t j = 0; j < window_bits_; ++j) {
      cells[(n - radius_ + j) % n] = static_cast<rules::State>(
          (w0 >> (window_bits_ - 1 - j)) & 1u);
    }
    // Iterative DFS over appended bits.
    struct Frame {
      std::uint32_t window;
      std::uint8_t next_bit;  // 0, 1, or 2 = exhausted
    };
    std::vector<Frame> stack{{w0, 0}};
    while (!stack.empty() && results.size() < limit) {
      Frame& frame = stack.back();
      const std::size_t i = stack.size() - 1;  // position being extended
      if (i == n) {
        // Complete walk; closure is guaranteed by the reach pruning, but
        // assert it anyway.
        if (frame.window == w0) {
          core::Configuration c(n);
          for (std::size_t idx = 0; idx < n; ++idx) {
            c.set(idx, cells[idx]);
          }
          results.push_back(std::move(c));
        }
        stack.pop_back();
        continue;
      }
      if (frame.next_bit >= 2) {
        stack.pop_back();
        continue;
      }
      const std::uint32_t bit = frame.next_bit++;
      const std::uint32_t full = (frame.window << 1) | bit;
      if (table_[full] != target.get(i)) continue;
      const std::uint32_t next = full & (w - 1);
      if ((reach[i + 1][next] & (std::uint64_t{1} << w0)) == 0) continue;
      cells[(i + radius_) % n] = static_cast<rules::State>(bit);
      stack.push_back(Frame{next, 0});
    }
  }
  return results;
}

std::uint64_t RingPreimageSolver::count_fixed_points_impl(
    std::size_t n) const {
  if (n < 2 * std::size_t{radius_} + 1) {
    throw tca::InvalidArgumentError("count_fixed_points_ring: ring too small");
  }
  const std::uint32_t w = window_count_;
  // A configuration is fixed iff at every position the rule output equals
  // the window's middle cell (bit position `radius_` from the MSB of the
  // 2r+1-bit full window, i.e. bit index radius_ from the LSB).
  Matrix m(static_cast<std::size_t>(w) * w, 0);
  for (std::uint32_t win = 0; win < w; ++win) {
    for (std::uint32_t bit = 0; bit < 2; ++bit) {
      const std::uint32_t full = (win << 1) | bit;
      const std::uint32_t middle = (full >> radius_) & 1u;
      if (table_[full] != middle) continue;
      const std::uint32_t next = full & (w - 1);
      m[win * w + next] = 1;
    }
  }
  Matrix product = m;
  for (std::size_t i = 1; i < n; ++i) product = multiply(product, m, w);
  std::uint64_t trace = 0;
  for (std::uint32_t i = 0; i < w; ++i) {
    trace = sat_add(trace, product[i * w + i]);
  }
  return trace;
}

std::uint64_t count_fixed_points_ring(const RingPreimageSolver& solver,
                                      std::size_t n) {
  return solver.count_fixed_points_impl(n);
}

std::uint64_t RingPreimageSolver::count_period_two_impl(std::size_t n) const {
  if (radius_ > 2) {
    throw tca::InvalidArgumentError(
        "count_period_two_states_ring: radius <= 2 only");
  }
  if (n < 2 * std::size_t{radius_} + 1) {
    throw tca::InvalidArgumentError("count_period_two_states_ring: ring too "
                                "small");
  }
  const std::uint32_t w = window_count_;
  const std::uint32_t ww = w * w;  // paired (x-window, y-window) alphabet
  Matrix m(static_cast<std::size_t>(ww) * ww, 0);
  for (std::uint32_t wx = 0; wx < w; ++wx) {
    for (std::uint32_t wy = 0; wy < w; ++wy) {
      for (std::uint32_t bx = 0; bx < 2; ++bx) {
        for (std::uint32_t by = 0; by < 2; ++by) {
          const std::uint32_t fullx = (wx << 1) | bx;
          const std::uint32_t fully = (wy << 1) | by;
          // Mutual constraints at this position: F(x)_i = y_i, F(y)_i =
          // x_i, with the middle cell at bit index radius_.
          if (table_[fullx] != ((fully >> radius_) & 1u)) continue;
          if (table_[fully] != ((fullx >> radius_) & 1u)) continue;
          const std::uint32_t from = wx * w + wy;
          const std::uint32_t to = (fullx & (w - 1)) * w + (fully & (w - 1));
          m[static_cast<std::size_t>(from) * ww + to] = 1;
        }
      }
    }
  }
  Matrix product = m;
  for (std::size_t i = 1; i < n; ++i) product = multiply(product, m, ww);
  std::uint64_t trace = 0;
  for (std::uint32_t i = 0; i < ww; ++i) {
    trace = sat_add(trace, product[static_cast<std::size_t>(i) * ww + i]);
  }
  return trace;
}

std::uint64_t count_period_two_states_ring(const RingPreimageSolver& solver,
                                           std::size_t n) {
  return solver.count_period_two_impl(n);
}

std::uint64_t count_gardens_of_eden_ring(const RingPreimageSolver& solver,
                                         std::size_t n) {
  runtime::RunControl unlimited;
  return count_gardens_of_eden_ring(solver, n, unlimited).gardens;
}

GoeCensus count_gardens_of_eden_ring(const RingPreimageSolver& solver,
                                     std::size_t n,
                                     runtime::RunControl& control) {
  TCA_SPAN("goe_census");
  tca::require_explicit_bits(n, 24, "count_gardens_of_eden_ring");
  GoeCensus out;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    if (control.note_states() != runtime::StopReason::kNone) break;
    const auto target = core::Configuration::from_bits(bits, n);
    if (solver.count(target) == 0) ++out.gardens;
    ++out.scanned;
  }
  const auto status = control.status();
  out.stop_reason = status.stop_reason;
  out.truncated = status.truncated();
  static obs::Counter& scanned = obs::counter("phasespace.goe.scanned");
  static obs::Counter& gardens = obs::counter("phasespace.goe.gardens");
  scanned.add(out.scanned);
  gardens.add(out.gardens);
  return out;
}

}  // namespace tca::phasespace
