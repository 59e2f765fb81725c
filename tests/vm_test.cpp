// Unit tests for the register VM and interleaving explorer
// (src/interleave/vm.hpp, explorer.hpp) — the paper's Section 1.1 example.

#include <gtest/gtest.h>

#include "interleave/explorer.hpp"
#include "interleave/vm.hpp"

namespace tca::interleave {
namespace {

TEST(Machine, StepExecutesInstructions) {
  const Machine m = machine_level_example(1, 2);
  auto s = m.initial({0});
  m.step(s, 0);  // LOAD r0, x0
  EXPECT_EQ(s.regs[0][0], 0);
  m.step(s, 0);  // ADDI r0, 1
  EXPECT_EQ(s.regs[0][0], 1);
  m.step(s, 0);  // STORE x0, r0
  EXPECT_EQ(s.shared[0], 1);
  EXPECT_TRUE(m.finished(s, 0));
  EXPECT_FALSE(m.all_finished(s));
}

TEST(Machine, SteppingFinishedProcessThrows) {
  const Machine m = statement_level_example(1, 2);
  auto s = m.initial({0});
  m.step(s, 0);
  EXPECT_THROW(m.step(s, 0), std::logic_error);
}

TEST(Machine, ValidatesOperands) {
  EXPECT_THROW(Machine({Program{Load{0, 5}}}, 1, 1), std::invalid_argument);
  EXPECT_THROW(Machine({Program{Load{3, 0}}}, 1, 1), std::invalid_argument);
  EXPECT_THROW(Machine({Program{AtomicAddVar{2, 1}}}, 1, 1),
               std::invalid_argument);
}

TEST(Machine, InitialValidatesSharedCount) {
  const Machine m = statement_level_example(1, 2);
  EXPECT_THROW(m.initial({0, 0}), std::invalid_argument);
}

TEST(Section11, StatementGranularityAlwaysGivesThree) {
  // Atomic x+=1 and x+=2 commute: every interleaving yields x == 3.
  const Machine m = statement_level_example(1, 2);
  const auto outcomes = interleaving_outcomes(m, m.initial({0}));
  EXPECT_EQ(outcomes,
            (std::set<std::vector<std::int64_t>>{{3}}));
}

TEST(Section11, ParallelExecutionLosesAnUpdate) {
  // Simultaneous read, conflicting writes: x ends as 1 or 2, never 3 —
  // "no sequential ordering of [statement-level] operations can reproduce
  // parallel computation".
  const Machine m = statement_level_example(1, 2);
  const auto outcomes = parallel_outcomes(m, m.initial({0}));
  EXPECT_EQ(outcomes,
            (std::set<std::vector<std::int64_t>>{{1}, {2}}));
}

TEST(Section11, MachineGranularityRecoversParallelBehaviour) {
  // At LOAD/ADDI/STORE granularity the interleavings produce {1, 2, 3}:
  // the parallel outcomes are a subset, so refining granularity restores
  // the interleaving semantics.
  const Machine m = machine_level_example(1, 2);
  const auto outcomes = interleaving_outcomes(m, m.initial({0}));
  EXPECT_EQ(outcomes,
            (std::set<std::vector<std::int64_t>>{{1}, {2}, {3}}));
}

TEST(Section11, ParallelSubsetOfMachineInterleavings) {
  const Machine stmt = statement_level_example(1, 2);
  const Machine mach = machine_level_example(1, 2);
  const auto parallel = parallel_outcomes(stmt, stmt.initial({0}));
  const auto machine = interleaving_outcomes(mach, mach.initial({0}));
  for (const auto& outcome : parallel) {
    EXPECT_TRUE(machine.contains(outcome));
  }
  // ...but NOT of the statement-level interleavings.
  const auto statement = interleaving_outcomes(stmt, stmt.initial({0}));
  for (const auto& outcome : parallel) {
    EXPECT_FALSE(statement.contains(outcome));
  }
}

TEST(CountInterleavings, BinomialForTwoProcesses) {
  // Two 3-instruction programs: C(6,3) = 20 schedules; two 1-instruction
  // programs: C(2,1) = 2.
  EXPECT_EQ(count_interleavings(machine_level_example(1, 2)), 20u);
  EXPECT_EQ(count_interleavings(statement_level_example(1, 2)), 2u);
}

TEST(CountInterleavings, ThreeProcesses) {
  // Three 2-instruction programs: 6! / (2!)^3 = 90.
  const Program p{AtomicAddVar{0, 1}, AtomicAddVar{0, 1}};
  const Machine m({p, p, p}, 1, 1);
  EXPECT_EQ(count_interleavings(m), 90u);
}

TEST(ParallelOutcomes, RejectsNonAtomicProcesses) {
  const Machine m = machine_level_example(1, 2);
  EXPECT_THROW(parallel_outcomes(m, m.initial({0})), std::invalid_argument);
}

TEST(ParallelOutcomes, DistinctVariablesDontConflict) {
  const Machine m({Program{AtomicAddVar{0, 1}}, Program{AtomicAddVar{1, 2}}},
                  2, 1);
  const auto outcomes = parallel_outcomes(m, m.initial({0, 0}));
  EXPECT_EQ(outcomes, (std::set<std::vector<std::int64_t>>{{1, 2}}));
}

TEST(Section11, CasRetryLoopsRestoreAtomicity) {
  // Optimistic concurrency: lock-free increments via CAS retry loops give
  // x = 3 under EVERY interleaving — machine-level instructions CAN
  // implement statement-level atomicity, they just need the right ones.
  const Machine m = cas_level_example(1, 2);
  const auto outcomes = interleaving_outcomes(m, m.initial({0}));
  EXPECT_EQ(outcomes, (std::set<std::vector<std::int64_t>>{{3}}));
}

TEST(Section11, CasLoopsWithThreeProcesses) {
  const Machine one = cas_level_example(1, 1);
  Program p = one.program(0);
  const Machine m({p, p, p}, 1, 3);
  const auto outcomes = interleaving_outcomes(m, m.initial({0}));
  EXPECT_EQ(outcomes, (std::set<std::vector<std::int64_t>>{{3}}));
}

TEST(Cas, SemanticsDirect) {
  // CAS success and failure paths.
  const Machine m({Program{Load{0, 0}, AddImm{0, 5}, Cas{0, 1, 0, 2}}},
                  /*num_shared=*/1, /*num_regs=*/3);
  auto s = m.initial({7});
  m.step(s, 0);  // r0 = 7
  m.step(s, 0);  // r0 = 12
  // CAS expects regs[1] == 0 != shared 7: fails, r2 = 0.
  m.step(s, 0);
  EXPECT_EQ(s.shared[0], 7);
  EXPECT_EQ(s.regs[0][2], 0);
}

TEST(BranchIfZero, LoopsAndFallsThrough) {
  // r0 starts 0: branch to self-loop exit... program: ADDI r0,1; BZ r0,@0
  // never loops because r0 becomes 1.
  const Machine m({Program{AddImm{0, 1}, BranchIfZero{0, 0}}}, 1, 1);
  auto s = m.initial({0});
  m.step(s, 0);
  m.step(s, 0);
  EXPECT_TRUE(m.finished(s, 0));
}

TEST(Machine, ValidatesBranchTarget) {
  EXPECT_THROW(Machine({Program{BranchIfZero{0, 5}}}, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(Machine({Program{Cas{0, 0, 0, 9}}}, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(Machine({Program{Mov{0, 7}}}, 1, 1), std::invalid_argument);
}

TEST(CountInterleavings, RejectsBranchingPrograms) {
  EXPECT_THROW((void)count_interleavings(cas_level_example(1, 2)),
               std::invalid_argument);
}

TEST(InstructionToString, Readable) {
  EXPECT_EQ(to_string(Instr{Load{0, 0}}), "LOAD r0, x0");
  EXPECT_EQ(to_string(Instr{AddImm{0, 2}}), "ADDI r0, 2");
  EXPECT_EQ(to_string(Instr{Store{0, 0}}), "STORE x0, r0");
  EXPECT_EQ(to_string(Instr{AtomicAddVar{0, 1}}),
            "x0 := x0 + 1  (atomic)");
}

TEST(Interleavings, DifferentIncrementsStillCommutativeAtomically) {
  const Machine m = statement_level_example(5, -3);
  const auto outcomes = interleaving_outcomes(m, m.initial({10}));
  EXPECT_EQ(outcomes, (std::set<std::vector<std::int64_t>>{{12}}));
}

}  // namespace
}  // namespace tca::interleave
