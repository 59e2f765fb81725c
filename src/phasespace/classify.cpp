#include "phasespace/classify.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "core/contracts.hpp"
#include "core/thread_pool.hpp"

namespace tca::phasespace {

namespace {

/// Phase 2 marks a state whose image in-degree counter was peeled to zero.
constexpr std::uint32_t kPeeled = 0xFFFFFFFFu;
/// Attractor ids below max(this, states / 64) are tallied in per-chunk
/// arrays (at most 1/8 B per state per worker); the rest, present only
/// when attractors are very plentiful and so rarely contended, go to
/// shared relaxed counters.
constexpr StateCode kDenseBasins = 4096;
/// Chunk boundaries are multiples of a bitmap word.
constexpr std::size_t kChunkAlign = 64;

[[nodiscard]] bool in_image(const std::uint64_t* image, StateCode s) {
  return ((image[s >> 6] >> (s & 63)) & 1) != 0;
}

// Phase 2 counters (out.attractor doubles as them until phase 3).

void add_pending(std::uint32_t& counter, std::uint32_t n) {
  std::atomic_ref<std::uint32_t> pending(counter);
  pending.fetch_add(n, std::memory_order_relaxed);
}

/// Claims a state whose counter is zero for the peel; of the racing
/// scanner and decrementer exactly one wins.
[[nodiscard]] bool claim(std::uint32_t& counter) {
  std::atomic_ref<std::uint32_t> pending(counter);
  std::uint32_t zero = 0;
  return pending.load(std::memory_order_relaxed) == 0 &&
         pending.compare_exchange_strong(zero, kPeeled,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed);
}

/// Removes one peeled predecessor; true when that emptied the counter and
/// this call claimed the state, so the chain continues through it.
[[nodiscard]] bool drop_edge(std::uint32_t& counter) {
  std::atomic_ref<std::uint32_t> pending(counter);
  return pending.fetch_sub(1, std::memory_order_relaxed) == 1 &&
         claim(counter);
}

/// Phase 4 label of a transient state. depth == 0 means "not labelled
/// yet"; a nonzero depth is stored last, with release, so a reader that
/// acquires it also sees the attractor id.
struct Label {
  std::uint32_t depth = 0;
  std::uint32_t id = 0;
};

[[nodiscard]] Label load_label(std::uint32_t& depth_slot,
                               std::uint32_t& attr_slot) {
  std::atomic_ref<std::uint32_t> published(depth_slot);
  const std::uint32_t d = published.load(std::memory_order_acquire);
  if (d == 0) return {};
  std::atomic_ref<std::uint32_t> label(attr_slot);
  return {d, label.load(std::memory_order_relaxed)};
}

void store_label(std::uint32_t& depth_slot, std::uint32_t& attr_slot,
                 Label l) {
  std::atomic_ref<std::uint32_t> label(attr_slot);
  label.store(l.id, std::memory_order_relaxed);
  std::atomic_ref<std::uint32_t> published(depth_slot);
  published.store(l.depth, std::memory_order_release);
}

}  // namespace

std::vector<std::uint32_t> in_degrees(const SuccessorStore& store) {
  // Streamed, not random access: one sequential pass works identically on
  // the flat and disk backends (the disk backend serves it with bounded
  // pread blocks, no mmap growth).
  std::vector<std::uint32_t> indeg(store.num_entries(), 0);
  store.for_each_range(
      [&indeg](StateCode, std::size_t count, const StateCode* block) {
        for (std::size_t j = 0; j < count; ++j) ++indeg[block[j]];
      });
  return indeg;
}

std::vector<std::uint32_t> in_degrees(const FunctionalGraph& fg) {
  return in_degrees(fg.store());
}

Classification classify(const FunctionalGraph& fg) {
  const StateCode count = fg.num_states();
  Classification out;
  out.kind.assign(count, StateKind::kTransient);
  // Until phase 3 ends, out.attractor holds each state's in-degree counted
  // from image sources only (kPeeled once peeled); it doubles as scratch.
  out.attractor.assign(count, 0);
  StateKind* kind = out.kind.data();
  std::uint32_t* attr = out.attractor.data();

  const std::uint64_t words = (count + 63) >> 6;
  std::vector<std::uint64_t> image_words(words, 0);
  std::uint64_t* image = image_words.data();
  // Transient depth, 0 = not yet labelled; written by phase 1 before use.
  const auto depth = std::make_unique_for_overwrite<std::uint32_t[]>(count);

  const unsigned workers = workers_for_states(count);
  std::optional<core::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  const auto for_chunks =
      [&](const std::function<void(std::size_t, std::size_t)>& fn) {
        if (pool) {
          pool->parallel_for(0, count, kChunkAlign, fn);
        } else {
          fn(0, count);
        }
      };

  // Phase 1: image bitmap -> Gardens of Eden are the clear bits.
  for_chunks([&](std::size_t b, std::size_t e) TCA_HOT_PATH {
    std::fill(depth.get() + b, depth.get() + e, 0u);
    or_into_image(image, b, e, [&fg](StateCode s) { return fg.succ(s); });
  });
  std::uint64_t reached = 0;
  for (std::uint64_t w = 0; w < words; ++w) {
    reached += static_cast<std::uint64_t>(std::popcount(image[w]));
  }
  out.num_gardens_of_eden = count - reached;

  // Phase 2a: in-degrees counted from image sources only. A Garden of Eden
  // is transient and would be peeled first anyway, and skipping it keeps
  // hot attractors (reached from most of the space) uncontended.
  for_chunks([&](std::size_t b, std::size_t e) TCA_HOT_PATH {
    StateCode run_target = 0;
    std::uint32_t run = 0;
    for (StateCode s = b; s < e; ++s) {
      if (!in_image(image, s)) continue;
      const StateCode t = fg.succ(s);
      if (run != 0 && t != run_target) {
        add_pending(attr[run_target], run);
        run = 0;
      }
      run_target = t;
      ++run;
    }
    if (run != 0) add_pending(attr[run_target], run);
  });

  // Phase 2b: chain peeling (Kahn's algorithm without rounds). Every image
  // state whose counter is zero starts a chain; the chain walks on while
  // its decrement empties the successor. Whatever keeps a counter is on a
  // cycle.
  for_chunks([&](std::size_t b, std::size_t e) TCA_HOT_PATH {
    for (StateCode s = b; s < e; ++s) {
      if (!in_image(image, s) || !claim(attr[s])) continue;
      for (StateCode x = s;;) {
        const StateCode t = fg.succ(x);
        if (!drop_edge(attr[t])) break;
        x = t;
      }
    }
  });

  // Phase 3 (serial, cycle states only): walking the unpeeled states in
  // ascending order meets each cycle first at its smallest state, so
  // attractor ids come out sorted by representative.
  for (std::uint64_t w = 0; w < words; ++w) {
    for (std::uint64_t left = image[w]; left != 0; left &= left - 1) {
      const StateCode s = (w << 6) | static_cast<StateCode>(
                                         std::countr_zero(left));
      if (kind[s] != StateKind::kTransient || attr[s] == kPeeled) continue;
      const auto id = static_cast<std::uint32_t>(out.attractors.size());
      std::uint64_t period = 0;
      StateCode x = s;
      do {
        kind[x] = StateKind::kCycle;
        attr[x] = id;
        x = fg.succ(x);
        ++period;
      } while (x != s);
      if (period == 1) {
        kind[s] = StateKind::kFixedPoint;
        ++out.num_fixed_points;
      } else {
        out.num_cycle_states += period;
      }
      out.attractors.push_back(Attractor{period, s, 0});
      ++out.cycle_length_histogram[period];
    }
  }
  out.num_transient_states =
      count - out.num_fixed_points - out.num_cycle_states;

  // Phase 4: label transients by a memoised chase and tally basins. A
  // chase walks to the first labelled state (a cycle state, or a transient
  // whose depth another chase published), then walks again writing each
  // state's attractor and depth. Labels are canonical, so racing chases
  // write identical values; depth != 0 publishes the attractor label.
  std::mutex merge_mu;
  const auto dense_basins = static_cast<std::uint32_t>(std::min<StateCode>(
      out.attractors.size(), std::max(kDenseBasins, count >> 6)));
  for_chunks([&](std::size_t b, std::size_t e) TCA_HOT_PATH {
    std::vector<std::uint64_t> tally(dense_basins, 0);
    std::uint32_t max_depth = 0;
    for (StateCode s = b; s < e; ++s) {
      std::uint32_t id = 0;
      if (kind[s] != StateKind::kTransient) {
        id = attr[s];  // written by phase 3, before this phase's barrier
      } else {
        Label l = load_label(depth[s], attr[s]);
        if (l.depth == 0) {
          std::uint32_t steps = 0;
          for (StateCode t = s;;) {
            t = fg.succ(t);
            ++steps;
            if (kind[t] != StateKind::kTransient) {
              l = {0, attr[t]};
              break;
            }
            l = load_label(depth[t], attr[t]);
            if (l.depth != 0) break;
          }
          // The state `k` hops before the labelled one has depth
          // l.depth + k.
          const std::uint32_t base = l.depth;
          l.depth += steps;
          for (StateCode x = s; steps != 0; --steps, x = fg.succ(x)) {
            store_label(depth[x], attr[x], {base + steps, l.id});
          }
        }
        id = l.id;
        max_depth = std::max(max_depth, l.depth);
      }
      if (id < dense_basins) {
        ++tally[id];
      } else {
        std::atomic_ref<std::uint64_t> basin(out.attractors[id].basin_size);
        basin.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Phase 5: per-chunk reduction.
    const std::lock_guard<std::mutex> lock(merge_mu);
    for (std::uint32_t i = 0; i < dense_basins; ++i) {
      out.attractors[i].basin_size += tally[i];
    }
    out.max_transient = std::max<std::uint64_t>(out.max_transient, max_depth);
  });
  return out;
}

}  // namespace tca::phasespace
