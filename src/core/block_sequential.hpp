#pragma once
// Block-sequential update scheme (DESIGN.md S3).
//
// A partition B_1, ..., B_k of the nodes is processed block by block:
// within a block all nodes update synchronously (reading the same
// configuration), and the block's writes become visible before the next
// block runs. The two extremes recover the paper's two models:
//   one block of all nodes      -> classical parallel CA,
//   n singleton blocks          -> sequential CA with a fixed permutation.
// This is the standard interpolation between synchrony and sequentiality in
// the SDS literature the paper builds on ([2-6]).

#include <cstdint>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "core/configuration.hpp"

namespace tca::core {

/// An ordered partition of {0..n-1} into nonempty blocks.
class BlockOrder {
 public:
  /// Validates: blocks nonempty, ids in range, each node in exactly one
  /// block (for an automaton of `n` nodes).
  BlockOrder(std::vector<std::vector<NodeId>> blocks, std::size_t n);

  /// The fully synchronous scheme: a single block of all n nodes (no
  /// block at all when n == 0).
  static BlockOrder synchronous(std::size_t n);

  /// The fully sequential scheme along a permutation.
  static BlockOrder sequential(std::span<const NodeId> order);

  /// The classic two-phase (checkerboard) scheme: all even nodes, then all
  /// odd nodes. On radius-1 rings with even n each block is an independent
  /// set, so the within-block parallelism is harmless: the sweep equals
  /// any sequential order that lists evens before odds (tested).
  static BlockOrder even_odd(std::size_t n);

  [[nodiscard]] const std::vector<std::vector<NodeId>>& blocks() const {
    return blocks_;
  }

 private:
  std::vector<std::vector<NodeId>> blocks_;
};

/// One block-sequential sweep in place. Returns the number of cell changes.
std::size_t step_block_sequential(const Automaton& a, Configuration& c,
                                  const BlockOrder& order);

}  // namespace tca::core
