// Contract, edge-case, stress, and FAILURE-PATH coverage for
// core::ThreadPool (src/core/thread_pool.hpp): size, exact range cover,
// empty ranges, ranges smaller than the
// alignment unit, alignment larger than the range, pool size 1 vs
// hardware_concurrency, a repeated fork-join stress loop — plus the
// robustness paths (docs/robustness.md): chunk exceptions rethrown at the
// join barrier without deadlock, cooperative cancellation between chunks,
// and spawn-failure degradation to serial execution. The stress tests are
// what the TSan CI job exercises (ctest -L sanitizer under
// -DTCA_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.hpp"
#include "runtime/budget.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::core {
namespace {

// --- basic contract -------------------------------------------------------

TEST(ThreadPool, SizeCountsCallingThread) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  ThreadPool single(1);
  EXPECT_EQ(single.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, AlignmentRespected) {
  ThreadPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> chunks(3);
  std::atomic<std::size_t> idx{0};
  pool.parallel_for(0, 100, 64, [&](std::size_t b, std::size_t e) {
    chunks[idx.fetch_add(1)] = {b, e};
  });
  for (std::size_t i = 0; i < idx.load(); ++i) {
    EXPECT_EQ(chunks[i].first % 64, 0u) << "chunk " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 6400u);
}

TEST(ThreadPoolEdge, EmptyRangeNeverInvokesChunkFn) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 0, 64, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(17, 17, 1, [&](std::size_t, std::size_t) { ++calls; });
  // begin > end counts as empty, not as a wrapped range.
  pool.parallel_for(5, 3, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolEdge, RangeSmallerThanAlignRunsAsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for(0, 10, 64, [&](std::size_t b, std::size_t e) {
    ++chunks;
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 1) << "a sub-align range must not be split";
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolEdge, AlignLargerThanRangeWithOffsetBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(40);
  pool.parallel_for(8, 40, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i < 8 ? 0 : 1) << i;
  }
}

TEST(ThreadPoolEdge, ChunkBoundariesAreAlignMultiples) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(0, 300, 64, [&](std::size_t b, std::size_t e) {
    std::lock_guard lock(m);
    chunks.emplace_back(b, e);
  });
  std::size_t covered = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b % 64, 0u) << "chunk start must be 64-aligned";
    EXPECT_TRUE(e % 64 == 0 || e == 300) << "chunk end " << e;
    covered += e - b;
  }
  EXPECT_EQ(covered, 300u);
}

TEST(ThreadPoolEdge, PoolSizeOneRunsEverythingOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<long> data(1000, 1);
  std::atomic<bool> foreign{false};
  pool.parallel_for(0, data.size(), 1, [&](std::size_t b, std::size_t e) {
    if (std::this_thread::get_id() != caller) foreign = true;
    for (std::size_t i = b; i < e; ++i) data[i] = static_cast<long>(i);
  });
  EXPECT_FALSE(foreign.load());
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0L), 999L * 1000 / 2);
}

TEST(ThreadPoolEdge, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<long> sum{0};
  pool.parallel_for(0, 4096, 64, [&](std::size_t b, std::size_t e) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), 4095L * 4096 / 2);
}

TEST(ThreadPoolStress, RepeatedForkJoin) {
  // Many small fork-join rounds through one pool: the handoff protocol
  // (generation counter, pending count, both condition variables) gets
  // hammered; TSan checks the protocol, the sum checks exactly-once
  // execution.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for(0, 256, 1, [&](std::size_t b, std::size_t e) {
      sum += static_cast<long>(e - b);
    });
  }
  EXPECT_EQ(sum.load(), 256L * kRounds);
}

TEST(ThreadPoolStress, ManyPoolsConstructedAndDestroyed) {
  // Construction/destruction is part of the protocol too (stopping_ flag
  // vs worker wakeup): churn pools of every small size.
  for (int iter = 0; iter < 50; ++iter) {
    for (unsigned threads = 1; threads <= 5; ++threads) {
      ThreadPool pool(threads);
      std::atomic<int> hits{0};
      pool.parallel_for(0, 64, 16, [&](std::size_t b, std::size_t e) {
        hits += static_cast<int>(e - b);
      });
      ASSERT_EQ(hits.load(), 64);
    }
  }
}

TEST(ThreadPoolFailure, ChunkExceptionRethrownAtJoinWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  const auto boom = [&](std::size_t b, std::size_t) {
    ++ran;
    if (b == 0) throw std::runtime_error("chunk 0 failed");
  };
  EXPECT_THROW(pool.parallel_for(0, 4096, 1, boom), std::runtime_error);
  EXPECT_GE(ran.load(), 1);

  // The pool stays fully usable: the next run executes exactly once over
  // the whole range.
  std::atomic<long> sum{0};
  pool.parallel_for(0, 4096, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 4095L * 4096 / 2);
}

TEST(ThreadPoolFailure, EveryChunkThrowingStillRethrowsExactlyOnce) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        pool.parallel_for(0, 1000, 1,
                          [](std::size_t, std::size_t) {
                            throw std::logic_error("all chunks fail");
                          }),
        std::logic_error)
        << "round " << round;
  }
}

TEST(ThreadPoolFailure, ExceptionStopsRemainingChunks) {
  // After a chunk throws, other participants must stop picking up new
  // chunks (abandon flag), so on a big range most chunks never run.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(0, 1 << 20, 1,
                                 [&](std::size_t, std::size_t) {
                                   ++ran;
                                   throw std::runtime_error("first");
                                 }),
               std::runtime_error);
  // At most one in-flight chunk per participant before the flag is seen.
  EXPECT_LE(ran.load(), static_cast<int>(pool.size()));
}

TEST(ThreadPoolFailure, CancellationBetweenChunksLeavesBufferConsistent) {
  ThreadPool pool(4);
  runtime::RunBudget budget;
  budget.max_steps = 1;  // trips after the first charged chunk
  runtime::RunControl control(budget);

  std::vector<int> data(1 << 16, 0);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> completed;
  const auto reason = pool.parallel_for(
      0, data.size(), 64,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) data[i] = static_cast<int>(i) + 1;
        control.note_steps();
        const std::lock_guard lock(m);
        completed.emplace_back(b, e);
      },
      &control);
  EXPECT_EQ(reason, runtime::StopReason::kMaxSteps);

  // Buffer consistency: every element is either untouched or fully
  // written, matching exactly the chunks that completed — a chunk is never
  // half-applied by cancellation (it is only checked between chunks).
  std::vector<bool> expected(data.size(), false);
  for (const auto& [b, e] : completed) {
    for (std::size_t i = b; i < e; ++i) expected[i] = true;
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i] != 0, expected[i]) << "element " << i;
    if (data[i] != 0) ASSERT_EQ(data[i], static_cast<int>(i) + 1);
  }
  // Cancellation really pruned work: nowhere near the full range ran.
  EXPECT_LT(completed.size() * 64, data.size());
}

TEST(ThreadPoolFailure, PreCancelledControlRunsNoChunks) {
  ThreadPool pool(4);
  runtime::CancelToken token;
  token.cancel();
  runtime::RunControl control(runtime::RunBudget::unlimited(), token);
  std::atomic<int> ran{0};
  const auto reason = pool.parallel_for(
      0, 4096, 1, [&](std::size_t, std::size_t) { ++ran; }, &control);
  EXPECT_EQ(reason, runtime::StopReason::kCancelled);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolFailure, InjectedChunkFaultSurfacesAsInjectedFaultError) {
  ThreadPool pool(2);
  runtime::ScopedFaultPlan plan({.chunk_exception_at = 1});
  EXPECT_THROW(
      pool.parallel_for(0, 1024, 1, [](std::size_t, std::size_t) {}),
      tca::InjectedFaultError);
  // Plan consumed: the next run is clean.
  std::atomic<int> hits{0};
  pool.parallel_for(0, 1024, 1, [&](std::size_t b, std::size_t e) {
    hits += static_cast<int>(e - b);
  });
  EXPECT_EQ(hits.load(), 1024);
}

TEST(ThreadPoolFailure, SpawnFailureDegradesToCallerOnlyExecution) {
  runtime::ScopedFaultPlan plan({.fail_thread_spawn = true});
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 1u) << "all spawns failed: caller-only pool";
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> foreign{false};
  std::atomic<long> sum{0};
  pool.parallel_for(0, 1000, 1, [&](std::size_t b, std::size_t e) {
    if (std::this_thread::get_id() != caller) foreign = true;
    for (std::size_t i = b; i < e; ++i) sum += static_cast<long>(i);
  });
  EXPECT_FALSE(foreign.load());
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

// Regression tests for the lock-discipline rework (docs/static-analysis.md):
// the per-run descriptor is snapshotted under the pool mutex by every
// participant, and the first-error latch lives entirely under its own
// error mutex. These pin the observable contracts that rework protects.

// Back-to-back runs with different ranges and chunk functions: a stale
// run descriptor (the bug class the GUARDED_BY annotations exclude) would
// re-run an old range or an old function and break the exactly-once count.
TEST(ThreadPoolDiscipline, BackToBackRunsNeverLeakTheirPredecessors) {
  ThreadPool pool(4);
  for (int round = 1; round <= 64; ++round) {
    const auto n = static_cast<std::size_t>(round * 7 + 1);
    std::vector<std::atomic<int>> hits(n);
    const int stamp = round;
    pool.parallel_for(0, n, 1, [&, stamp](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(stamp);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), stamp) << "round " << round << " index " << i;
    }
  }
}

// After a throwing run, the error latch must be consumed: the next clean
// run must not rethrow, and a later throwing run must surface its OWN
// exception, not a stale one.
TEST(ThreadPoolDiscipline, ErrorLatchIsConsumedAcrossRuns) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1024, 1,
                        [](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("first");
                        }),
      std::runtime_error);

  std::atomic<int> hits{0};
  pool.parallel_for(0, 128, 1, [&](std::size_t b, std::size_t e) {
    hits += static_cast<int>(e - b);
  });
  EXPECT_EQ(hits.load(), 128) << "clean run after a throwing run";

  try {
    pool.parallel_for(0, 1024, 1, [](std::size_t b, std::size_t) {
      if (b == 0) throw std::runtime_error("second");
    });
    FAIL() << "expected the second run's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "second") << "stale latched exception leaked";
  }
}

}  // namespace
}  // namespace tca::core
