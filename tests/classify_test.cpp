// classify() against a serial reference (the single-threaded Definition 3
// pass it replaced, copied below): every Classification field must match
// on hand-shaped maps, seeded random maps for n = 1..22 (graphs above
// 2^20 states classify on more than one worker when the host has the
// CPUs), and the same table read through the flat and disk stores.

#include "phasespace/classify.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "phasespace/functional_graph.hpp"
#include "phasespace/successor_store.hpp"

namespace tca::phasespace {
namespace {

namespace fs = std::filesystem;

/// The serial algorithm: coloured walks find the cycles, attractors are
/// sorted by representative and remapped, a memoised chase computes
/// depths, and a full in-degree vector counts the Gardens of Eden.
Classification reference_classify(const FunctionalGraph& fg) {
  const StateCode count = fg.num_states();
  Classification out;
  out.kind.assign(count, StateKind::kTransient);
  out.attractor.assign(count, 0);

  constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  std::vector<std::uint32_t> walk_tag(count, kUnset);
  std::vector<std::uint32_t> walk_pos(count, 0);
  std::vector<std::uint8_t> resolved(count, 0);
  std::vector<StateCode> path;

  for (StateCode start = 0; start < count; ++start) {
    if (resolved[start]) continue;
    path.clear();
    StateCode s = start;
    const auto tag = static_cast<std::uint32_t>(start & 0xFFFFFFFFu);
    while (!resolved[s] && walk_tag[s] != tag) {
      walk_tag[s] = tag;
      walk_pos[s] = static_cast<std::uint32_t>(path.size());
      path.push_back(s);
      s = fg.succ(s);
    }
    if (!resolved[s]) {
      const std::uint32_t first = walk_pos[s];
      const auto period = static_cast<std::uint64_t>(path.size() - first);
      StateCode rep = path[first];
      for (std::size_t i = first; i < path.size(); ++i) {
        rep = std::min(rep, path[i]);
      }
      const auto attractor_id =
          static_cast<std::uint32_t>(out.attractors.size());
      out.attractors.push_back(Attractor{period, rep, 0});
      for (std::size_t i = first; i < path.size(); ++i) {
        out.kind[path[i]] =
            period == 1 ? StateKind::kFixedPoint : StateKind::kCycle;
        out.attractor[path[i]] = attractor_id;
        resolved[path[i]] = 1;
      }
      path.resize(first);
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      out.attractor[*it] = out.attractor[fg.succ(*it)];
      out.kind[*it] = StateKind::kTransient;
      resolved[*it] = 1;
    }
  }

  std::vector<std::uint32_t> perm(out.attractors.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return out.attractors[a].representative <
           out.attractors[b].representative;
  });
  std::vector<std::uint32_t> inverse(perm.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  std::vector<Attractor> sorted;
  sorted.reserve(out.attractors.size());
  for (std::uint32_t i : perm) sorted.push_back(out.attractors[i]);
  out.attractors = std::move(sorted);
  for (StateCode s = 0; s < count; ++s) {
    out.attractor[s] = inverse[out.attractor[s]];
  }

  std::vector<std::uint64_t> depth(count, 0);
  std::vector<std::uint8_t> depth_done(count, 0);
  for (StateCode s = 0; s < count; ++s) {
    if (out.kind[s] != StateKind::kTransient) depth_done[s] = 1;
  }
  for (StateCode s = 0; s < count; ++s) {
    if (depth_done[s]) continue;
    path.clear();
    StateCode t = s;
    while (!depth_done[t]) {
      path.push_back(t);
      t = fg.succ(t);
    }
    std::uint64_t d = depth[t];
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      depth[*it] = ++d;
      depth_done[*it] = 1;
    }
  }

  for (StateCode s = 0; s < count; ++s) {
    ++out.attractors[out.attractor[s]].basin_size;
    switch (out.kind[s]) {
      case StateKind::kFixedPoint:
        ++out.num_fixed_points;
        break;
      case StateKind::kCycle:
        ++out.num_cycle_states;
        break;
      case StateKind::kTransient:
        ++out.num_transient_states;
        out.max_transient = std::max(out.max_transient, depth[s]);
        break;
    }
  }
  for (const Attractor& a : out.attractors) {
    ++out.cycle_length_histogram[a.period];
  }

  std::vector<std::uint32_t> indeg(count, 0);
  for (StateCode s = 0; s < count; ++s) ++indeg[fg.succ(s)];
  for (StateCode s = 0; s < count; ++s) {
    if (indeg[s] == 0) ++out.num_gardens_of_eden;
  }
  return out;
}

/// Field-by-field comparison; per-state vectors report the first
/// mismatching state instead of dumping 2^n entries.
void expect_same(const Classification& got, const Classification& want) {
  ASSERT_EQ(got.kind.size(), want.kind.size());
  ASSERT_EQ(got.attractor.size(), want.attractor.size());
  for (std::size_t s = 0; s < want.kind.size(); ++s) {
    ASSERT_EQ(got.kind[s], want.kind[s]) << "kind of state " << s;
    ASSERT_EQ(got.attractor[s], want.attractor[s])
        << "attractor of state " << s;
  }
  ASSERT_EQ(got.attractors.size(), want.attractors.size());
  for (std::size_t i = 0; i < want.attractors.size(); ++i) {
    EXPECT_EQ(got.attractors[i].period, want.attractors[i].period) << i;
    EXPECT_EQ(got.attractors[i].representative,
              want.attractors[i].representative)
        << i;
    EXPECT_EQ(got.attractors[i].basin_size, want.attractors[i].basin_size)
        << i;
  }
  EXPECT_EQ(got.num_fixed_points, want.num_fixed_points);
  EXPECT_EQ(got.num_cycle_states, want.num_cycle_states);
  EXPECT_EQ(got.num_transient_states, want.num_transient_states);
  EXPECT_EQ(got.num_gardens_of_eden, want.num_gardens_of_eden);
  EXPECT_EQ(got.max_transient, want.max_transient);
  EXPECT_EQ(got.cycle_length_histogram, want.cycle_length_histogram);
}

void expect_matches_reference(std::uint32_t bits,
                              std::vector<StateCode> table) {
  const FunctionalGraph fg =
      FunctionalGraph::from_table(bits, std::move(table));
  expect_same(classify(fg), reference_classify(fg));
}

std::vector<StateCode> table_of(std::uint32_t bits,
                                StateCode (*f)(StateCode, StateCode)) {
  const StateCode count = StateCode{1} << bits;
  std::vector<StateCode> t(count);
  for (StateCode s = 0; s < count; ++s) t[s] = f(s, count);
  return t;
}

/// Seeded random maps of four shapes, chosen by `shape`:
///  0 uniform (a few long cycles under deep random trees),
///  1 permutation (all cycle states, often more than 4096 attractors),
///  2 into a small target set (hot in-degrees, most states Gardens of
///    Eden),
///  3 succ(s) <= s (converging chains into many fixed points).
std::vector<StateCode> random_table(std::uint32_t bits, int shape,
                                    std::uint64_t seed) {
  const StateCode count = StateCode{1} << bits;
  std::mt19937_64 rng(seed);
  std::vector<StateCode> t(count);
  switch (shape) {
    case 0:
      for (StateCode& v : t) v = rng() % count;
      break;
    case 1:
      for (StateCode s = 0; s < count; ++s) t[s] = s;
      std::shuffle(t.begin(), t.end(), rng);
      break;
    case 2: {
      const StateCode targets = std::max<StateCode>(1, count >> 8);
      for (StateCode& v : t) v = (rng() % targets) * (count / targets);
      break;
    }
    default:
      for (StateCode s = 0; s < count; ++s) t[s] = rng() % (s + 1);
      break;
  }
  return t;
}

TEST(Classify, IdentityMapIsAllFixedPoints) {
  for (std::uint32_t bits : {1u, 6u, 13u}) {
    SCOPED_TRACE(bits);
    expect_matches_reference(bits,
                             table_of(bits, [](StateCode s, StateCode) {
                               return s;
                             }));
  }
}

TEST(Classify, ConstantMapHasInDegreeTwoToTheN) {
  for (std::uint32_t bits : {1u, 7u, 16u}) {
    SCOPED_TRACE(bits);
    expect_matches_reference(bits,
                             table_of(bits, [](StateCode, StateCode n) {
                               return n / 2;
                             }));
  }
}

TEST(Classify, SingleFullCycle) {
  for (std::uint32_t bits : {1u, 5u, 16u}) {
    SCOPED_TRACE(bits);
    expect_matches_reference(bits,
                             table_of(bits, [](StateCode s, StateCode n) {
                               return (s + 1) % n;
                             }));
  }
}

TEST(Classify, LongChainIntoAFixedPoint) {
  // 0 -> 1 -> ... -> 2^n - 1, which is fixed: max_transient = 2^n - 1.
  for (std::uint32_t bits : {1u, 5u, 16u, 21u}) {
    SCOPED_TRACE(bits);
    expect_matches_reference(bits,
                             table_of(bits, [](StateCode s, StateCode n) {
                               return std::min(s + 1, n - 1);
                             }));
  }
}

TEST(Classify, MixedCyclesWithTrees) {
  // Cycles of period 1..7 on the low states, every other state hanging
  // off them through trees of varying depth.
  for (std::uint32_t bits : {5u, 10u, 17u}) {
    SCOPED_TRACE(bits);
    expect_matches_reference(
        bits, table_of(bits, [](StateCode s, StateCode) -> StateCode {
          if (s < 28) {
            // Cycles {0}, {1,2}, {3,4,5}, {6..9}, {10..14}, {15..20},
            // {21..27}.
            StateCode lo = 0;
            StateCode len = 1;
            while (s >= lo + len) {
              lo += len;
              ++len;
            }
            return lo + (s - lo + 1) % len;
          }
          // Every other state steps strictly down, so it drains into
          // the cycles: halving gives shallow trees, the hash deep ones.
          return s % 2 == 0 ? s / 2 : (s * 2654435761u) % s;
        }));
  }
}

TEST(Classify, SeededRandomMapsAcrossWorkerCounts) {
  for (std::uint32_t bits = 1; bits <= 22; ++bits) {
    for (int shape = 0; shape < 4; ++shape) {
      // The largest sizes are where classify runs on several workers;
      // one shape per size keeps the sanitizer lanes quick.
      if (bits > 18 && shape != static_cast<int>(bits % 4)) continue;
      SCOPED_TRACE("bits " + std::to_string(bits) + " shape " +
                   std::to_string(shape));
      expect_matches_reference(
          bits, random_table(bits, shape, 0x5eed0000u + bits * 4 + shape));
    }
  }
}

TEST(Classify, SameTableThroughEveryStore) {
  const std::uint32_t bits = 14;
  const std::vector<StateCode> table = random_table(bits, 0, 42);
  const FunctionalGraph flat = FunctionalGraph::from_table(bits, table);
  const Classification want = reference_classify(flat);
  expect_same(classify(flat), want);

  const fs::path dir = fs::temp_directory_path() /
                       ("tca_classify_test_" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  {
    std::shared_ptr<SuccessorStore> store =
        make_store(StoreKind::kDisk, bits, dir.string());
    store->put_range(0, table.size(), table.data());
    store->finalize();
    expect_same(classify(FunctionalGraph::from_store(store)), want);
  }
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace tca::phasespace
