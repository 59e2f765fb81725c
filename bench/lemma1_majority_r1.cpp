// Experiment LEM1 — Lemma 1: radius-1 MAJORITY rings.
//  (i)  parallel CA have temporal two-cycles (the alternating pair);
//  (ii) sequential CA have NO cycles for ANY update order — verified three
//       independent ways: SCC over the full choice digraph (exhaustive,
//       n <= 14), all 7! sweep permutations (n = 7), and random fair
//       schedules on larger rings (n <= 24) with the Lyapunov bound.
// (iii) pins the exact work counters of those runs (states built, sweeps,
//       node updates, flips, parallel steps), so a change in how much
//       work the engines do fails the experiment.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "analysis/energy.hpp"
#include "bench/experiment_util.hpp"
#include "core/automaton.hpp"
#include "core/schedule.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "core/trajectory.hpp"
#include "graph/builders.hpp"
#include "obs/metrics.hpp"
#include "phasespace/choice_digraph.hpp"
#include "phasespace/classify.hpp"

using namespace tca;

namespace {

core::Automaton majority_ring(std::size_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing, rules::majority(),
                               core::Memory::kWith);
}

}  // namespace

int main() {
  bench::banner(
      "LEM1",
      "Lemma 1: 1-D CA with r=1 and MAJORITY: (i) the parallel CA has finite "
      "temporal two-cycles; (ii) the sequential CA has no cycles for any "
      "update order.");

  bench::Verdict verdict;

  std::printf("\n(i) Parallel two-cycles (alternating configurations):\n");
  std::printf("%6s %22s %10s %10s\n", "n", "configuration", "period",
              "transient");
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u, 16u, 20u, 24u}) {
    const auto a = majority_ring(n);
    core::Configuration alt(n);
    for (std::size_t i = 1; i < n; i += 2) alt.set(i, 1);
    const auto orbit = core::find_orbit_synchronous(a, alt, 64);
    const bool ok = orbit && orbit->period == 2 && orbit->transient == 0;
    std::printf("%6zu %22s %10llu %10llu\n", n,
                n <= 20 ? alt.to_string().c_str() : "(0101...)",
                orbit ? static_cast<unsigned long long>(orbit->period) : 0ULL,
                orbit ? static_cast<unsigned long long>(orbit->transient)
                      : 0ULL);
    verdict.check("n=" + std::to_string(n) + ": (01)^* is a two-cycle", ok);
  }

  std::printf(
      "\n(ii.a) Exhaustive: SCC over the nondeterministic choice digraph\n");
  std::printf("%6s %14s %16s %20s\n", "n", "states", "SCCs",
              "proper-cycle states");
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u, 14u}) {
    const phasespace::ChoiceDigraph g(majority_ring(n));
    const auto analysis = phasespace::analyze(g);
    std::printf("%6zu %14llu %16llu %20llu\n", n,
                static_cast<unsigned long long>(g.num_states()),
                static_cast<unsigned long long>(analysis.num_sccs),
                static_cast<unsigned long long>(
                    analysis.num_proper_cycle_states));
    verdict.check("n=" + std::to_string(n) + ": choice digraph cycle-free",
                  !analysis.has_proper_cycle());
  }

  std::printf("\n(ii.b) All 5040 sweep permutations on n=7:\n");
  {
    const auto a = majority_ring(7);
    auto perm = core::identity_order(7);
    bool all_cycle_free = true;
    std::uint64_t count = 0;
    do {
      const auto cls =
          phasespace::classify(phasespace::FunctionalGraph::sweep(a, perm));
      if (cls.has_proper_cycle()) all_cycle_free = false;
      ++count;
    } while (std::next_permutation(perm.begin(), perm.end()));
    std::printf("  permutations checked: %llu\n",
                static_cast<unsigned long long>(count));
    verdict.check("every one of the 5040 sweep orders is cycle-free",
                  all_cycle_free && count == 5040);
  }

  std::printf(
      "\n(ii.c) Random fair schedules, n = 24, 50 trials: convergence and "
      "the Lyapunov change bound\n");
  {
    const std::size_t n = 24;
    const auto net = analysis::ThresholdNetwork::majority(graph::ring(n), true);
    const auto a = net.automaton();
    const auto bound = analysis::sequential_change_bound(net);
    std::mt19937_64 rng(12345);
    bool all_converged = true;
    std::uint64_t worst_updates = 0;
    for (int trial = 0; trial < 50; ++trial) {
      core::Configuration c(n);
      for (std::size_t i = 0; i < n; ++i) {
        c.set(i, static_cast<core::State>(rng() & 1u));
      }
      core::RandomSweepSchedule schedule(n, rng());
      const auto updates =
          core::run_schedule_to_fixed_point(a, c, schedule, 100000);
      if (!updates) {
        all_converged = false;
      } else {
        worst_updates = std::max(worst_updates, *updates);
      }
    }
    std::printf("  worst-case updates to fixed point: %llu (energy bound on "
                "state changes: %lld)\n",
                static_cast<unsigned long long>(worst_updates),
                static_cast<long long>(bound));
    verdict.check("all 50 random-schedule runs converge to a fixed point",
                  all_converged);
  }

  std::printf("\n(iii) Exact work tallies of the runs above (the same on "
              "every host and SIMD tier):\n");
  const auto tally = [&verdict](const char* name, std::uint64_t want) {
    const std::uint64_t got = obs::counter(name).value();
    std::printf("  %-32s %10llu\n", name,
                static_cast<unsigned long long>(got));
    verdict.check(std::string(name) + " = " + std::to_string(want),
                  got == want);
  };
  tally("phasespace.build.runs", 5040);
  tally("phasespace.build.states", 645120);
  tally("engine.batch.sweeps", 645120);
  tally("engine.sequential.node_updates", 2003);
  tally("engine.sequential.flips", 181);
  tally("engine.synchronous.steps", 40);
  tally("engine.synchronous.cells", 500);

  return verdict.finish("LEM1");
}
