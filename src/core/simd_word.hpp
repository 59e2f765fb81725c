#pragma once
// ISA-generic wide machine word for the SIMD batch kernels
// (docs/performance.md).
//
// WideWord<W> is W uint64 lanes with the bitwise/shift operations the
// circuit plans need (rules/circuit_eval.hpp). Every operation is a plain
// fixed-trip-count loop: there are NO intrinsics here. The per-ISA
// translation units (core/batch_kernels_{scalar,avx2,avx512,neon}.cpp)
// compile the SAME kernel template against WideWord<1>, <4>, or <8> under
// the matching target flags, and the compiler's auto-vectorizer turns
// these loops into one or two vector ops each (verified by the widening
// gate in tests/perf_gates_test.cpp). This keeps the kernels a
// single source of truth across scalar, AVX2, AVX-512, and NEON.
//
// Each W is instantiated in exactly one translation unit per build
// (scalar=1; avx2/neon=4; avx512=8), so no WideWord<W> symbol is ever
// emitted under two different ISA flag sets — see the ODR note in
// core/batch_kernels_impl.hpp.

#include <cstdint>

namespace tca::core {

/// W uint64 lanes; lane t of a cell plane covers configurations
/// [64t, 64t + 64) of the batch.
template <unsigned W>
struct WideWord {
  static_assert(W >= 1 && W <= 8, "WideWord: 1..8 words per plane");

  std::uint64_t v[W];

  [[nodiscard]] static constexpr WideWord zero() noexcept {
    return WideWord{};
  }

  [[nodiscard]] static constexpr WideWord ones() noexcept {
    WideWord w{};
    for (unsigned t = 0; t < W; ++t) w.v[t] = ~std::uint64_t{0};
    return w;
  }

  [[nodiscard]] static constexpr WideWord broadcast(std::uint64_t x) noexcept {
    WideWord w{};
    for (unsigned t = 0; t < W; ++t) w.v[t] = x;
    return w;
  }

  [[nodiscard]] static WideWord load(const std::uint64_t* p) noexcept {
    WideWord w;
    for (unsigned t = 0; t < W; ++t) w.v[t] = p[t];
    return w;
  }

  void store(std::uint64_t* p) const noexcept {
    for (unsigned t = 0; t < W; ++t) p[t] = v[t];
  }

  /// True when any lane has any bit set (adder-tree early-out).
  [[nodiscard]] constexpr bool any() const noexcept {
    std::uint64_t acc = 0;
    for (unsigned t = 0; t < W; ++t) acc |= v[t];
    return acc != 0;
  }

  constexpr WideWord& operator&=(const WideWord& o) noexcept {
    for (unsigned t = 0; t < W; ++t) v[t] &= o.v[t];
    return *this;
  }
  constexpr WideWord& operator|=(const WideWord& o) noexcept {
    for (unsigned t = 0; t < W; ++t) v[t] |= o.v[t];
    return *this;
  }
  constexpr WideWord& operator^=(const WideWord& o) noexcept {
    for (unsigned t = 0; t < W; ++t) v[t] ^= o.v[t];
    return *this;
  }

  [[nodiscard]] friend constexpr WideWord operator&(WideWord a,
                                                    const WideWord& b) noexcept {
    a &= b;
    return a;
  }
  [[nodiscard]] friend constexpr WideWord operator|(WideWord a,
                                                    const WideWord& b) noexcept {
    a |= b;
    return a;
  }
  [[nodiscard]] friend constexpr WideWord operator^(WideWord a,
                                                    const WideWord& b) noexcept {
    a ^= b;
    return a;
  }
  [[nodiscard]] friend constexpr WideWord operator~(WideWord a) noexcept {
    for (unsigned t = 0; t < W; ++t) a.v[t] = ~a.v[t];
    return a;
  }
  /// Per-lane uint64 shifts (used by the lane-wise block transpose).
  [[nodiscard]] friend constexpr WideWord operator<<(WideWord a,
                                                     unsigned s) noexcept {
    for (unsigned t = 0; t < W; ++t) a.v[t] <<= s;
    return a;
  }
  [[nodiscard]] friend constexpr WideWord operator>>(WideWord a,
                                                     unsigned s) noexcept {
    for (unsigned t = 0; t < W; ++t) a.v[t] >>= s;
    return a;
  }
};

}  // namespace tca::core
