#pragma once
// Seeded case generation for the property-based suite (DESIGN.md S10).
//
// Every case is a pure function of a 64-bit case seed plus the oracle's
// CaseOptions, so any failure reproduces from its printed seed alone —
// no global RNG, no time dependence. Seeds for case i of a run are derived
// from the run's base seed with a splitmix64 hop, so consecutive cases are
// statistically independent while the whole run stays one number.

#include <cstdint>

#include "testing/case.hpp"

namespace tca::testing {

/// What an oracle needs its cases to look like. Oracles still re-check
/// their preconditions and pass vacuously when a SHRUNK case drifts out of
/// this envelope (shrinking then rejects the reduction).
struct CaseOptions {
  enum class RuleClass : std::uint8_t {
    kAny,                ///< all RuleSpec kinds, incl. random totalistic
    kMonotoneSymmetric,  ///< Theorem 1 class: majority / k-of-n
    kThreshold,          ///< homogeneous k-of-n only (energy oracles)
  };
  enum class SubstrateClass : std::uint8_t {
    kAny,        ///< every builder family
    kBipartite,  ///< bipartite, min degree >= 1 (Section 3.2 oracles)
    kTiny,       ///< n <= 6 (explicit ACA state spaces)
  };
  enum class MemoryPolicy : std::uint8_t { kEither, kWith, kWithout };

  RuleClass rules = RuleClass::kAny;
  SubstrateClass substrate = SubstrateClass::kAny;
  MemoryPolicy memory = MemoryPolicy::kEither;
  std::uint32_t max_nodes = 12;  ///< generated n stays in [0, max_nodes]
  std::uint32_t max_steps = 32;
};

/// splitmix64: the seed-derivation hop (public so tests can predict it).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index);

/// The case for a given case seed. Deterministic: equal (seed, options)
/// yield equal cases.
[[nodiscard]] TestCase random_case(std::uint64_t case_seed,
                                   const CaseOptions& options);

}  // namespace tca::testing
