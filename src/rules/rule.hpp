#pragma once
// Local update rules (DESIGN.md S2).
//
// A rule maps an ordered tuple of Boolean inputs (the node's neighborhood
// values; the node's own state is one of the inputs iff the automaton has
// memory) to the node's next Boolean state — the delta function of the FSM
// in Definition 2 of the paper.
//
// Rules are a closed std::variant so the simulation engines can
// monomorphize their inner loops with std::visit instead of paying a
// virtual call per cell per step (see DESIGN.md decision 1).
//
// Input-order conventions:
//  * Symmetric rules (Majority, KOfN, Symmetric, Parity) ignore input order.
//  * TableRule interprets inputs as a binary number with inputs[0] as the
//    MOST significant bit. For a 1-D radius-1 neighborhood ordered
//    (left, self, right) this matches the Wolfram elementary-CA numbering.
//  * WeightedThresholdRule pairs weights[i] with inputs[i].

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace tca::rules {

/// Cell state: 0 or 1 (Boolean CA; 0 is the quiescent state).
using State = std::uint8_t;

/// Tie handling for MAJORITY over an even number of inputs. The paper only
/// exercises odd input counts (2r+1 with memory), where ties cannot occur.
enum class MajorityTie : std::uint8_t {
  kZero,  ///< exactly half ones -> 0 (strict majority required for 1)
  kOne,   ///< exactly half ones -> 1
};

/// MAJORITY rule: next state is the majority value among the inputs.
/// Arity-generic (adapts to however many inputs it is given).
struct MajorityRule {
  MajorityTie tie = MajorityTie::kZero;
  friend bool operator==(const MajorityRule&, const MajorityRule&) = default;
};

/// k-of-n threshold rule: 1 iff at least `k` inputs are 1. Arity-generic.
/// k = 0 is the constant-1 rule; k > arity yields constant 0.
/// Every monotone symmetric Boolean function is a k-of-n rule (or constant),
/// which is why this type represents the paper's entire Theorem 1 class.
struct KOfNRule {
  std::uint32_t k = 1;
  friend bool operator==(const KOfNRule&, const KOfNRule&) = default;
};

/// Totalistic/symmetric rule: the next state depends only on the NUMBER of
/// ones among the inputs. accept[s] is the output when exactly s inputs are
/// 1; accept.size() must be arity+1.
struct SymmetricRule {
  std::vector<State> accept;
  friend bool operator==(const SymmetricRule&, const SymmetricRule&) = default;
};

/// XOR/parity rule: 1 iff an odd number of inputs are 1. Arity-generic.
/// The paper's Section 3.1 motivating example (non-monotone).
struct ParityRule {
  friend bool operator==(const ParityRule&, const ParityRule&) = default;
};

/// Arbitrary truth-table rule of fixed arity m; table.size() must be 2^m.
/// Index convention: inputs[0] is the most significant bit.
struct TableRule {
  std::vector<State> table;
  friend bool operator==(const TableRule&, const TableRule&) = default;
};

/// Linear threshold rule with explicit integer weights: output 1 iff
/// sum_i weights[i]*inputs[i] >= theta. Fixed arity = weights.size().
struct WeightedThresholdRule {
  std::vector<std::int32_t> weights;
  std::int32_t theta = 1;
  friend bool operator==(const WeightedThresholdRule&,
                         const WeightedThresholdRule&) = default;
};

/// Outer-totalistic (semi-totalistic) rule: the next state depends on the
/// node's OWN state and the NUMBER of live neighbors — the Game-of-Life
/// family. `self_index` says which input slot carries the node's own state
/// (0 for graph-derived neighborhoods with memory; r for spatially-ordered
/// radius-r line neighborhoods). born[s] / survive[s] give the output when
/// the self cell is 0 / 1 and exactly s OTHER inputs are 1; both vectors
/// must be sized arity (the number of non-self inputs + 1).
struct OuterTotalisticRule {
  std::vector<State> born;
  std::vector<State> survive;
  std::uint32_t self_index = 0;
  friend bool operator==(const OuterTotalisticRule&,
                         const OuterTotalisticRule&) = default;
};

/// The closed set of rule kinds understood by the engines.
using Rule = std::variant<MajorityRule, KOfNRule, SymmetricRule, ParityRule,
                          TableRule, WeightedThresholdRule,
                          OuterTotalisticRule>;

/// Number of ones among the inputs.
[[nodiscard]] inline std::uint32_t count_ones(std::span<const State> inputs) {
  std::uint32_t ones = 0;
  for (State s : inputs) ones += s;
  return ones;
}

/// Evaluates a single rule kind on an input tuple.
[[nodiscard]] inline State eval(const MajorityRule& r,
                                std::span<const State> inputs) {
  const std::uint32_t ones = count_ones(inputs);
  const std::uint32_t m = static_cast<std::uint32_t>(inputs.size());
  if (r.tie == MajorityTie::kZero) return ones * 2 > m ? State{1} : State{0};
  return ones * 2 >= m ? State{1} : State{0};
}

[[nodiscard]] inline State eval(const KOfNRule& r,
                                std::span<const State> inputs) {
  return count_ones(inputs) >= r.k ? State{1} : State{0};
}

[[nodiscard]] State eval(const SymmetricRule& r, std::span<const State> inputs);

[[nodiscard]] inline State eval(const ParityRule&,
                                std::span<const State> inputs) {
  return static_cast<State>(count_ones(inputs) & 1u);
}

[[nodiscard]] State eval(const TableRule& r, std::span<const State> inputs);

[[nodiscard]] State eval(const WeightedThresholdRule& r,
                         std::span<const State> inputs);

[[nodiscard]] State eval(const OuterTotalisticRule& r,
                         std::span<const State> inputs);

/// Evaluates any rule on an input tuple (single visit; engines that care
/// about the per-cell cost should visit once and run a monomorphic loop).
[[nodiscard]] inline State eval(const Rule& rule,
                                std::span<const State> inputs) {
  return std::visit([&](const auto& r) { return eval(r, inputs); }, rule);
}

/// The arity a rule requires, or 0 if the rule adapts to any arity.
[[nodiscard]] std::uint32_t required_arity(const Rule& rule);

/// Short human-readable rule name, e.g. "majority", "3-of-5", "parity".
[[nodiscard]] std::string describe(const Rule& rule);

/// MAJORITY shorthand used throughout the paper.
[[nodiscard]] inline Rule majority() { return MajorityRule{}; }

/// XOR shorthand (Section 3.1 example).
[[nodiscard]] inline Rule parity() { return ParityRule{}; }

/// Simple-majority threshold as an explicit k-of-n for odd arity m:
/// k = (m+1)/2. Throws for even m (ambiguous without a tie rule).
[[nodiscard]] Rule majority_k_of(std::uint32_t arity);

/// Builds the radius-1 TableRule for a Wolfram elementary-CA code (0..255).
/// Intended for 1-D neighborhoods ordered (left, self, right).
[[nodiscard]] TableRule wolfram(std::uint32_t code);

/// Conway's Game of Life (B3/S23) over an 8-neighbor (Moore) neighborhood,
/// expressed for graph-derived automata with memory (self input first).
[[nodiscard]] OuterTotalisticRule game_of_life();

/// General birth/survival rule "B<digits>/S<digits>" over `neighbors`
/// non-self inputs (e.g. life_like({3}, {2, 3}, 8) == game_of_life()).
[[nodiscard]] OuterTotalisticRule life_like(std::span<const std::uint32_t> born,
                                            std::span<const std::uint32_t> survive,
                                            std::uint32_t neighbors,
                                            std::uint32_t self_index = 0);

}  // namespace tca::rules
