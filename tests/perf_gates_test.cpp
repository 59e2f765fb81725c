// Performance gates (docs/performance.md), registered as the single
// serial ctest entry `perf_gates` in optimised, unsanitised builds only:
//
//  * bit-slice: the 64-lane bit-sliced batch engine builds the n = 20
//    Lemma-1 successor table >= 10x faster than the scalar
//    decode/step/encode loop, with exact step, cell and lane tallies;
//  * widening: the widest SIMD tier this host runs builds the same table
//    >= 2.5x faster than the 64-lane tier (SKIP on scalar-only hosts);
//  * disk census: a disk-backed n = 28 build plus the streamed
//    Garden-of-Eden census stays under 1 GiB peak RSS.
//
// Each timed comparison takes the best of five runs per side, alternating
// the sides so drift on the host hits both equally. Tiers are pinned
// through the BatchCodeStepper constructor, never the TCA_BATCH_ISA knob.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/batch_isa.hpp"
#include "core/synchronous.hpp"
#include "obs/metrics.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "runtime/budget.hpp"

namespace tca {
namespace {

namespace fs = std::filesystem;
using phasespace::BatchCodeStepper;
using phasespace::StateCode;

core::Automaton majority_ring(std::size_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing, rules::majority(),
                               core::Memory::kWith);
}

template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Timed passes per side of each ratio gate.
constexpr std::uint64_t kPasses = 5;

/// Best-of-kPasses ratio time(slow) / time(fast), the sides alternating.
template <typename Slow, typename Fast>
double best_of_passes_ratio(Slow&& slow, Fast&& fast) {
  double slow_s = std::numeric_limits<double>::infinity();
  double fast_s = std::numeric_limits<double>::infinity();
  for (std::uint64_t pass = 0; pass < kPasses; ++pass) {
    slow_s = std::min(slow_s, seconds_of(slow));
    fast_s = std::min(fast_s, seconds_of(fast));
  }
  return slow_s / fast_s;
}

TEST(PerfGates, BitsliceBeatsScalarTenfold) {
  const std::size_t n = 20;
  const auto a = majority_ring(n);
  std::vector<StateCode> scalar_table(StateCode{1} << n);
  std::vector<StateCode> batch_table(scalar_table.size());
  BatchCodeStepper stepper(a, core::BatchIsa::kScalar);
  obs::Counter& sync_steps = obs::counter("engine.synchronous.steps");
  obs::Counter& sync_cells = obs::counter("engine.synchronous.cells");
  obs::Counter& batch_steps = obs::counter("engine.batch.steps");
  obs::Counter& batch_lanes = obs::counter("engine.batch.lanes");
  const std::uint64_t sync_steps0 = sync_steps.value();
  const std::uint64_t sync_cells0 = sync_cells.value();
  const std::uint64_t batch_steps0 = batch_steps.value();
  const std::uint64_t batch_lanes0 = batch_lanes.value();
  const double ratio = best_of_passes_ratio(
      [&] {
        core::Configuration front(n);
        core::Configuration back(n);
        for (StateCode s = 0; s < scalar_table.size(); ++s) {
          front = core::Configuration::from_bits(s, n);
          core::step_synchronous(a, front, back);
          scalar_table[s] = back.to_bits();
        }
      },
      [&] { stepper.step_range(0, batch_table.size(), batch_table.data()); });
  std::printf("bit-slice speedup: %.1fx (bound 10x)\n", ratio);
  EXPECT_EQ(batch_table, scalar_table);
  EXPECT_GE(ratio, 10.0);
  // Per pass: one scalar step per state, one 64-lane batch step per 64.
  const std::uint64_t states = scalar_table.size();
  EXPECT_EQ(sync_steps.value() - sync_steps0, kPasses * states);
  EXPECT_EQ(sync_cells.value() - sync_cells0, kPasses * states * n);
  EXPECT_EQ(batch_steps.value() - batch_steps0, kPasses * states / 64);
  EXPECT_EQ(batch_lanes.value() - batch_lanes0, kPasses * states);
}

TEST(PerfGates, WidestTierBeatsBitsliceTwoAndAHalfFold) {
  const core::BatchIsa best = core::best_supported_isa();
  if (best == core::BatchIsa::kScalar) {
    GTEST_SKIP() << "no SIMD tier on this host";
  }
  const std::size_t n = 20;
  const auto a = majority_ring(n);
  std::vector<StateCode> narrow_table(StateCode{1} << n);
  std::vector<StateCode> wide_table(narrow_table.size());
  BatchCodeStepper narrow(a, core::BatchIsa::kScalar);
  BatchCodeStepper wide(a, best);
  const double ratio = best_of_passes_ratio(
      [&] { narrow.step_range(0, narrow_table.size(), narrow_table.data()); },
      [&] { wide.step_range(0, wide_table.size(), wide_table.data()); });
  std::printf("%s over the 64-lane tier: %.2fx (bound 2.5x)\n",
              core::isa_name(best), ratio);
  EXPECT_EQ(wide_table, narrow_table);
  EXPECT_GE(ratio, 2.5);
}

/// Scratch directory named with the pid (so concurrent runs never share
/// one), emptied on entry and removed on scope exit.
class ScratchDir {
 public:
  ScratchDir()
      : path_(fs::temp_directory_path() /
              ("tca-perf-gates-" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(PerfGates, DiskCensusAtN28StaysUnderOneGiB) {
  const ScratchDir dir;
  phasespace::ShardedBuildOptions options;
  options.store = phasespace::StoreKind::kDisk;
  options.disk_dir = dir.path().string();
  const auto a = majority_ring(28);
  runtime::RunControl build_control{runtime::RunBudget{}};
  const phasespace::ShardedBuild out =
      phasespace::build_synchronous_sharded(a, options, build_control);
  ASSERT_TRUE(out.complete());
  runtime::RunControl census_control{runtime::RunBudget{}};
  const phasespace::GoeCensus census =
      phasespace::count_gardens_of_eden(*out.store, census_control);
  EXPECT_EQ(census.scanned, std::uint64_t{1} << 28);

  struct rusage ru {};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &ru), 0);
  const auto rss_mib = static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;  // KiB on Linux
  std::printf("disk n=28 build + census: peak RSS %llu MiB (bound 1024)\n",
              static_cast<unsigned long long>(rss_mib));
  EXPECT_LT(rss_mib, 1024u);
}

}  // namespace
}  // namespace tca
