#include "core/block_sequential.hpp"

#include <stdexcept>
#include <vector>

#include "runtime/error.hpp"

namespace tca::core {

BlockOrder::BlockOrder(std::vector<std::vector<NodeId>> blocks, std::size_t n)
    : blocks_(std::move(blocks)) {
  std::vector<bool> seen(n, false);
  std::size_t total = 0;
  for (const auto& block : blocks_) {
    if (block.empty()) {
      throw tca::InvalidArgumentError("BlockOrder: empty block");
    }
    for (NodeId v : block) {
      if (v >= n) {
        throw tca::InvalidArgumentError("BlockOrder: id out of range",
                                        tca::ErrorCode::kOutOfRange);
      }
      if (seen[v]) {
        throw tca::InvalidArgumentError("BlockOrder: duplicate node");
      }
      seen[v] = true;
      ++total;
    }
  }
  if (total != n) {
    throw tca::InvalidArgumentError("BlockOrder: not a partition of all nodes");
  }
}

BlockOrder BlockOrder::synchronous(std::size_t n) {
  std::vector<NodeId> all(n);
  for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<NodeId>(v);
  std::vector<std::vector<NodeId>> blocks;
  // The empty node set's only partition has no blocks.
  if (n != 0) blocks.push_back(std::move(all));
  return BlockOrder(std::move(blocks), n);
}

BlockOrder BlockOrder::even_odd(std::size_t n) {
  std::vector<NodeId> evens, odds;
  for (std::size_t v = 0; v < n; ++v) {
    (v % 2 == 0 ? evens : odds).push_back(static_cast<NodeId>(v));
  }
  std::vector<std::vector<NodeId>> blocks;
  if (!evens.empty()) blocks.push_back(std::move(evens));
  if (!odds.empty()) blocks.push_back(std::move(odds));
  return BlockOrder(std::move(blocks), n);
}

BlockOrder BlockOrder::sequential(std::span<const NodeId> order) {
  std::vector<std::vector<NodeId>> blocks;
  blocks.reserve(order.size());
  for (NodeId v : order) blocks.push_back({v});
  return BlockOrder(std::move(blocks), order.size());
}

std::size_t step_block_sequential(const Automaton& a, Configuration& c,
                                  const BlockOrder& order) {
  if (c.size() != a.size()) {
    throw tca::InvalidArgumentError(
        "step_block_sequential: size mismatch", tca::ErrorCode::kSizeMismatch);
  }
  std::size_t changes = 0;
  std::vector<State> next;  // staged writes for the current block
  for (const auto& block : order.blocks()) {
    next.resize(block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      next[i] = a.eval_node(block[i], c);
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (c.get(block[i]) != next[i]) {
        c.set(block[i], next[i]);
        ++changes;
      }
    }
  }
  return changes;
}

}  // namespace tca::core
