// Experiment RBST — fault-tolerant sweep over the repo's main engines,
// driven by bench::ExperimentDriver (docs/robustness.md). Demonstrates the
// whole robustness surface in one binary: per-experiment watchdog +
// exception isolation, budget truncation with well-formed partial results,
// cooperative cancellation, deterministic fault injection, and checksummed
// checkpoint/resume (`--checkpoint f --resume`): kill this binary halfway
// through and resume — the final summary is bit-identical
// (tests/resume_supervised_test.cpp pins that contract).

#include <cstdio>
#include <new>
#include <set>
#include <vector>

#include "aca/explorer.hpp"
#include "bench/experiment_util.hpp"
#include "core/automaton.hpp"
#include "core/thread_pool.hpp"
#include "interleave/explorer.hpp"
#include "interleave/vm.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "runtime/budget.hpp"
#include "runtime/fault.hpp"

using namespace tca;

namespace {

core::Automaton majority_ring(std::size_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing, rules::majority(),
                               core::Memory::kWith);
}

core::Automaton xor_ring(std::size_t n) {
  return core::Automaton::line(n, 1, core::Boundary::kRing, rules::parity(),
                               core::Memory::kWith);
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// The phase-space facade (one worker at 2^20 states), a four-worker
/// flat build and a budgeted build of the same automaton must agree
/// bit-for-bit.
bench::ExperimentResult phase_space_engines(runtime::RunControl& control) {
  const auto a = xor_ring(20);
  const auto serial = phasespace::FunctionalGraph::synchronous(a);
  phasespace::ShardedBuildOptions options;
  options.workers = 4;
  runtime::RunControl unlimited;
  const auto parallel =
      phasespace::build_synchronous_sharded(a, options, unlimited);
  const auto budgeted =
      phasespace::build_synchronous_sharded(a, options, control);
  const bool ok =
      parallel.complete() && budgeted.complete() &&
      serial.successors() == parallel.build.graph->successors() &&
      serial.successors() == budgeted.build.graph->successors();
  return {ok, "2^20 states; serial == parallel == budgeted"};
}

/// Transfer-matrix Garden-of-Eden census vs. explicit in-degree count.
bench::ExperimentResult goe_census(runtime::RunControl& control) {
  const std::size_t n = 16;
  const phasespace::RingPreimageSolver solver(rules::majority(), 1,
                                              core::Memory::kWith);
  const auto census = phasespace::count_gardens_of_eden_ring(solver, n,
                                                             control);
  const auto graph = phasespace::FunctionalGraph::synchronous(
      majority_ring(n));
  std::vector<std::uint32_t> indegree(graph.num_states(), 0);
  for (const phasespace::StateCode s : graph.successors()) ++indegree[s];
  std::uint64_t orphans = 0;
  for (const std::uint32_t d : indegree) orphans += d == 0;
  const bool ok = !census.truncated && census.gardens == orphans;
  return {ok, "n=" + u64(n) + ": transfer-matrix gardens=" +
                  u64(census.gardens) + ", in-degree-0 states=" +
                  u64(orphans)};
}

/// Section 4 subsumption on a small ring, legacy and budgeted explorers.
bench::ExperimentResult aca_subsumption(runtime::RunControl& control) {
  const auto a = xor_ring(5);
  const auto legacy = aca::compare_reach_sets(a, 0b00011);
  const auto budgeted = aca::compare_reach_sets(a, 0b00011, control);
  const bool ok = !legacy.truncated && !budgeted.truncated &&
                  legacy.contains_synchronous && legacy.contains_sequential &&
                  legacy.only_aca > 0 &&
                  budgeted.aca_total == legacy.aca_total &&
                  budgeted.only_aca == legacy.only_aca;
  return {ok, "XOR n=5: reach(ACA)=" + u64(legacy.aca_total) +
                  ", only-ACA=" + u64(legacy.only_aca)};
}

/// Section 1.1 granularity: statement {3}, parallel {1,2}, machine
/// {1,2,3}.
bench::ExperimentResult interleave_granularity(runtime::RunControl& control) {
  using Outcomes = std::set<std::vector<std::int64_t>>;
  const auto stmt = interleave::statement_level_example(1, 2);
  const auto mach = interleave::machine_level_example(1, 2);
  const auto stmt_out =
      interleave::interleaving_outcomes(stmt, stmt.initial({0}), control);
  const auto par_out = interleave::parallel_outcomes(stmt, stmt.initial({0}));
  const auto mach_out =
      interleave::interleaving_outcomes(mach, mach.initial({0}), control);
  const bool ok = !stmt_out.truncated && !mach_out.truncated &&
                  stmt_out.outcomes == Outcomes{{3}} &&
                  par_out == Outcomes{{1}, {2}} &&
                  mach_out.outcomes == Outcomes{{1}, {2}, {3}};
  return {ok, "statement {3}; parallel {1,2}; machine {1,2,3}"};
}

/// A max_states budget truncates the ACA exploration into a well-formed
/// SUBSET of the full reach set, with the stop reason reported.
bench::ExperimentResult budget_truncation(runtime::RunControl&) {
  const auto a = majority_ring(5);
  const aca::AcaSystem sys(a);
  const auto full = aca::explore(sys, 0b00101);
  runtime::RunBudget budget;
  budget.max_states = 64;
  runtime::RunControl small(budget);
  const auto partial = aca::explore(sys, 0b00101, small);
  bool subset = true;
  for (const auto c : partial.configs) subset &= full.configs.count(c) > 0;
  const bool ok = !full.truncated && partial.truncated &&
                  partial.stop_reason == runtime::StopReason::kMaxStates &&
                  partial.global_states <= 64 && subset;
  return {ok, "full reach " + u64(full.global_states) +
                  " global states; budget 64 stopped at " +
                  u64(partial.global_states) + " (" +
                  runtime::stop_reason_name(partial.stop_reason) +
                  "), subset of full"};
}

/// Pre-cancelled tokens stop work before it starts; wall-clock deadlines
/// stop an exponential census mid-scan with a clean partial result.
bench::ExperimentResult deadline_and_cancel(runtime::RunControl&) {
  const phasespace::RingPreimageSolver solver(rules::majority(), 1,
                                              core::Memory::kWith);
  runtime::CancelToken token;
  token.cancel();
  runtime::RunControl cancelled(runtime::RunBudget::unlimited(), token);
  const auto none = phasespace::count_gardens_of_eden_ring(solver, 20,
                                                           cancelled);
  runtime::RunBudget budget;
  budget.wall_limit = std::chrono::milliseconds(50);
  runtime::RunControl deadline(budget);
  const auto partial = phasespace::count_gardens_of_eden_ring(solver, 22,
                                                              deadline);
  const bool ok =
      none.truncated && none.scanned == 0 &&
      none.stop_reason == runtime::StopReason::kCancelled &&
      partial.truncated && partial.scanned > 0 &&
      partial.scanned < (std::uint64_t{1} << 22) &&
      partial.stop_reason == runtime::StopReason::kDeadline;
  // The deadline's scanned count is timing-dependent: keep it out of the
  // detail string so resumed summaries stay bit-identical.
  return {ok, "pre-cancel scanned 0 (cancelled); 50ms deadline returned a "
              "clean partial census (deadline)"};
}

/// Transfer matrices count fixed points on rings far past explicit
/// enumeration; cross-checked against the explicit phase space at n=12.
bench::ExperimentResult transfer_matrix_scaling(runtime::RunControl&) {
  const phasespace::RingPreimageSolver solver(rules::majority(), 1,
                                              core::Memory::kWith);
  const std::uint64_t small = phasespace::count_fixed_points_ring(solver, 12);
  const auto graph = phasespace::FunctionalGraph::synchronous(
      majority_ring(12));
  std::uint64_t explicit_fixed = 0;
  for (phasespace::StateCode s = 0; s < graph.num_states(); ++s) {
    explicit_fixed += graph.succ(s) == s;
  }
  const std::uint64_t huge = phasespace::count_fixed_points_ring(solver,
                                                                 10000);
  const bool ok = small == explicit_fixed && huge > 0;
  return {ok, "n=12 fixed points " + u64(small) + " == explicit count; " +
                  "n=10000 counted without enumeration"};
}

/// Deterministic fault injection: every graceful-degradation path fires.
bench::ExperimentResult fault_injection_drill(runtime::RunControl&) {
  const auto a = xor_ring(10);
  bool alloc_caught = false;
  {
    runtime::ScopedFaultPlan plan({.alloc_failure_at = 1});
    try {
      (void)phasespace::FunctionalGraph::synchronous(a);
    } catch (const std::bad_alloc&) {
      alloc_caught = true;
    }
  }
  phasespace::ShardedBuildOptions options;
  options.shard_states = 64;
  options.workers = 4;
  // The first pool chunk throws, and so does the first sharded-build
  // shard; both surface at the join.
  const auto chunk_fault_caught = [](const auto& run) {
    runtime::ScopedFaultPlan plan({.chunk_exception_at = 1});
    try {
      run();
    } catch (const tca::InjectedFaultError&) {
      return true;
    }
    return false;
  };
  const bool chunk_caught =
      chunk_fault_caught([] {
        core::ThreadPool pool(2);
        pool.parallel_for(0, 1024, 64, [](std::size_t, std::size_t) {});
      }) &&
      chunk_fault_caught([&] {
        runtime::RunControl unlimited;
        (void)phasespace::build_synchronous_sharded(a, options, unlimited);
      });
  const auto serial = phasespace::FunctionalGraph::synchronous(a);
  bool degraded_ok = false;
  {
    runtime::ScopedFaultPlan plan({.fail_thread_spawn = true});
    core::ThreadPool pool(4);  // spawn fails; pool degrades to serial
    runtime::RunControl unlimited;
    // Every worker spawn fails: the build runs on the calling thread.
    const auto fallback =
        phasespace::build_synchronous_sharded(a, options, unlimited);
    degraded_ok = pool.size() == 1 &&  // caller only: every spawn failed
                  fallback.complete() &&
                  serial.successors() == fallback.build.graph->successors();
  }
  const bool ok = alloc_caught && chunk_caught && degraded_ok;
  return {ok, std::string("alloc fault -> bad_alloc: ") +
                  (alloc_caught ? "yes" : "NO") +
                  "; chunk fault rethrown at join: " +
                  (chunk_caught ? "yes" : "NO") +
                  "; spawn failure degraded to serial: " +
                  (degraded_ok ? "yes" : "NO")};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::DriverOptions::parse(argc, argv);
  bench::banner(
      "RBST",
      "Fault-tolerant experiment runtime: budgets, cancellation, "
      "checkpoint/resume, and fault injection over the paper's engines.");

  // The cheap granularity check runs first so the first checkpoint lands
  // within milliseconds: a run killed as soon as that checkpoint appears
  // still has the heavy experiments pending.
  bench::ExperimentDriver driver("RBST", opts);
  driver.run("interleave-granularity", interleave_granularity);
  driver.run("phase-space-engines", phase_space_engines);
  driver.run("goe-census", goe_census);
  driver.run("aca-subsumption", aca_subsumption);
  driver.run("budget-truncation", budget_truncation);
  driver.run("deadline-and-cancel", deadline_and_cancel);
  driver.run("transfer-matrix-scaling", transfer_matrix_scaling);
  driver.run("fault-injection-drill", fault_injection_drill);
  return driver.finish();
}
