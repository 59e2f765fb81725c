#include "testing/generators.hpp"

#include <algorithm>
#include <random>

#include "graph/builders.hpp"
#include "graph/properties.hpp"

namespace tca::testing {
namespace {

using graph::Graph;
using graph::NodeId;

std::uint32_t range(std::mt19937_64& rng, std::uint32_t lo, std::uint32_t hi) {
  return lo + static_cast<std::uint32_t>(rng() % (hi - lo + 1));
}

/// A substrate from the full builder family, capped at max_nodes nodes.
Graph any_space(std::mt19937_64& rng, std::uint32_t max_nodes) {
  const auto cap = [&](std::uint32_t lo, std::uint32_t hi) {
    return range(rng, lo, std::max(lo, std::min(hi, max_nodes)));
  };
  switch (rng() % 10) {
    case 0: return graph::ring(cap(3, 12));
    case 1: return graph::path(cap(1, 12));
    case 2: return graph::random_gnp(
        cap(2, 10), 0.2 + 0.05 * static_cast<double>(rng() % 9), rng());
    case 3: return graph::grid2d(2 + rng() % 2, cap(2, 4));
    case 4: return graph::hypercube(2 + rng() % 2);
    case 5: return graph::complete(cap(2, 6));
    case 6: return graph::complete_bipartite(cap(1, 4), cap(1, 4));
    case 7: return graph::star(cap(2, 10));
    case 8: return Graph(0, {});  // the empty automaton: one state, n = 0
    default: {
      // random 3-regular graph needs n*d even and d < n.
      const auto nodes = static_cast<NodeId>(4 + 2 * (rng() % 3));
      return graph::random_regular(nodes, 3, rng());
    }
  }
}

/// A bipartite substrate with minimum degree >= 1.
Graph bipartite_space(std::mt19937_64& rng, std::uint32_t max_nodes) {
  const auto cap = [&](std::uint32_t lo, std::uint32_t hi) {
    return range(rng, lo, std::max(lo, std::min(hi, max_nodes)));
  };
  switch (rng() % 5) {
    case 0: return graph::ring(2 * cap(2, 5));      // even rings
    case 1: return graph::path(cap(2, 10));
    case 2: return graph::grid2d(2 + rng() % 2, cap(2, 4));
    case 3: return graph::complete_bipartite(cap(1, 4), cap(1, 4));
    default: return graph::star(cap(2, 10));
  }
}

/// A tiny substrate whose explicit ACA state space fits one word.
Graph tiny_space(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return graph::ring(static_cast<NodeId>(3 + rng() % 3));
    case 1: return graph::path(2 + rng() % 4);
    case 2: return graph::complete(2 + rng() % 4);
    default: return graph::random_gnp(2 + static_cast<NodeId>(rng() % 5), 0.5,
                                      rng());
  }
}

RuleSpec random_rule(std::mt19937_64& rng, CaseOptions::RuleClass cls,
                     const Graph& g) {
  const std::uint32_t max_k = std::max(1u, g.max_degree() + 1);
  switch (cls) {
    case CaseOptions::RuleClass::kThreshold:
      return RuleSpec{RuleSpec::Kind::kKOfN, range(rng, 1, std::min(4u, max_k)),
                      0};
    case CaseOptions::RuleClass::kMonotoneSymmetric:
      switch (rng() % 3) {
        case 0: return RuleSpec{RuleSpec::Kind::kMajority};
        case 1: return RuleSpec{RuleSpec::Kind::kMajorityTieOne};
        default:
          return RuleSpec{RuleSpec::Kind::kKOfN,
                          range(rng, 1, std::min(4u, max_k)), 0};
      }
    case CaseOptions::RuleClass::kAny:
      break;
  }
  switch (rng() % 5) {
    case 0: return RuleSpec{RuleSpec::Kind::kMajority};
    case 1: return RuleSpec{RuleSpec::Kind::kMajorityTieOne};
    case 2: return RuleSpec{RuleSpec::Kind::kParity};
    case 3:
      return RuleSpec{RuleSpec::Kind::kKOfN, range(rng, 1, std::min(4u, max_k)),
                      0};
    default:
      // A GENUINE random totalistic rule: the output for each count of live
      // inputs is an independent coin flip. (The pre-harness fuzzer's
      // "random symmetric" branch silently degenerated to parity; this is
      // the fixed generator.)
      return RuleSpec{RuleSpec::Kind::kSymmetric, 1, rng()};
  }
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TestCase random_case(std::uint64_t case_seed, const CaseOptions& options) {
  std::mt19937_64 rng(case_seed);
  TestCase c;
  c.seed = case_seed;

  Graph g;
  switch (options.substrate) {
    case CaseOptions::SubstrateClass::kAny:
      g = any_space(rng, options.max_nodes);
      break;
    case CaseOptions::SubstrateClass::kBipartite:
      g = bipartite_space(rng, options.max_nodes);
      break;
    case CaseOptions::SubstrateClass::kTiny:
      g = tiny_space(rng);
      break;
  }
  c.n = g.num_nodes();
  c.edges = g.edges();

  switch (options.memory) {
    case CaseOptions::MemoryPolicy::kWith:
      c.memory = core::Memory::kWith;
      break;
    case CaseOptions::MemoryPolicy::kWithout:
      c.memory = core::Memory::kWithout;
      break;
    case CaseOptions::MemoryPolicy::kEither:
      c.memory = (rng() & 1u) != 0 ? core::Memory::kWith
                                   : core::Memory::kWithout;
      break;
  }

  if (options.substrate == CaseOptions::SubstrateClass::kBipartite) {
    // Section 3.2 oracle envelope: memoryless k-of-n with k at most the
    // minimum degree, so the bipartition configuration sits on a two-cycle.
    c.memory = core::Memory::kWithout;
    NodeId min_deg = c.n == 0 ? 0 : g.degree(0);
    for (NodeId v = 1; v < c.n; ++v) min_deg = std::min(min_deg, g.degree(v));
    c.rule = RuleSpec{RuleSpec::Kind::kKOfN,
                      range(rng, 1, std::max(1u, min_deg)), 0};
  } else {
    c.rule = random_rule(rng, options.rules, g);
  }

  c.config_bits =
      c.n >= 64 ? rng() : rng() & ((std::uint64_t{1} << c.n) - 1);
  c.steps = range(rng, 1, std::max(1u, options.max_steps));
  return c;
}

}  // namespace tca::testing
