#pragma once
// Sharded, NUMA-aware phase-space construction
// (docs/performance.md "successor storage hierarchy"). This is the one
// engine every successor table of an automaton is built with:
// FunctionalGraph::synchronous / sweep are facades over it (kFlat,
// workers_for_states(2^n), unlimited control), budgeted callers call
// build_*_sharded directly and supervised callers
// supervised_synchronous_sharded. The same work-stealing drain also runs
// the table-free Garden-of-Eden census: instead of storing each stepped
// block it ORs the block's successors into a 1-bit/state reached bitmap.
//
//  * the 2^n code range is cut into fixed shards (multiples of
//    successor_store.hpp's kPutAlign on the disk backend, so extents
//    never share a byte) and the shards are partitioned into one
//    contiguous region per WORKER GROUP — one group per NUMA node when
//    /sys/devices/system/node exposes several (probed once per process,
//    graceful single-group fallback otherwise). Workers claim shards
//    from their own group's cursor and, once it drains, STEAL from the
//    other groups — so the common case is node-local memory traffic and
//    the tail case is no idle cores. Claim/steal tallies land in the
//    "phasespace.shard.{claimed,stolen}" counters.
//
//  * each worker streams its shard through a thread-local
//    BatchCodeStepper (the dispatched SIMD tier; plans, slices and
//    fallback buffers are per-thread state). On the flat backend it
//    steps straight into the table; on the disk backend (spilled n-bit
//    extents with FNV digests) it fills a thread-local staging buffer
//    and put_range()s the finished shard.
//
// The result is deterministic: shard -> range is a fixed function of
// (bits, shard_states), every shard is computed by exactly one worker
// with the same engine, and shards write disjoint ranges — so the
// table is bit-identical for ANY worker count, group layout, or steal
// interleaving (pinned by sharded_build_test and the
// store-backend-agree oracle).
//
// Budget/truncation contract: the store's resident footprint (plus the
// staging buffers, when there are any) is charged up front, states are
// charged per 1024-block; a tripped control stops claiming. Truncation
// has one meaning: the whole shards the store holds
// (ShardStats::stored_states); a shard abandoned mid-stream is not
// stored. Shards complete out of order, so with several workers the
// stored shards need not be a prefix; with one worker they are. On the
// DISK backend a truncated build still finalizes its manifest, so a
// follow-up build with resume=true skips every digest-valid shard
// already on disk.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/budget.hpp"
#include "runtime/supervisor.hpp"

namespace tca::phasespace {

/// One worker group: the CPUs of one NUMA node (or the whole machine
/// when the topology is flat / unprobeable).
struct WorkerGroup {
  std::uint32_t node = 0;          ///< NUMA node id (0 on fallback)
  std::vector<unsigned> cpus;      ///< CPUs owned by the node
};

/// Machine topology as the sharder sees it.
struct NumaTopology {
  std::vector<WorkerGroup> groups;  ///< >= 1, sorted by node id
  bool from_sysfs = false;          ///< false => single-group fallback
  [[nodiscard]] unsigned total_cpus() const noexcept {
    unsigned n = 0;
    for (const WorkerGroup& g : groups) {
      n += static_cast<unsigned>(g.cpus.size());
    }
    return n;
  }
};

/// Probes /sys/devices/system/node/node*/cpulist. Any read/parse
/// failure, or a machine with one node, degrades to a single group of
/// hardware_concurrency() CPUs — never throws.
[[nodiscard]] NumaTopology probe_numa_topology();

struct ShardedBuildOptions {
  /// Storage backend the build writes into.
  StoreKind store = StoreKind::kFlat;
  /// Worker threads (0 = one per probed CPU). Clamped to >= 1; the
  /// calling thread is worker 0.
  unsigned workers = 0;
  /// States per shard; the final shard is the ragged remainder. On the
  /// disk backend rounded UP to a multiple of kPutAlign (512) so extents
  /// own whole bytes. Small values are for tests.
  StateCode shard_states = StateCode{1} << 16;
  /// Directory for StoreKind::kDisk (required then, ignored otherwise).
  std::string disk_dir;
  /// kDisk only: revalidate extents already on disk (digest check
  /// against the manifest) and skip rebuilding shards they cover.
  bool resume = false;
  /// Engine rung the per-worker steppers run at (the degradation
  /// ladder's knob; kWideSimd = dispatched best tier).
  runtime::EngineRung rung = runtime::EngineRung::kWideSimd;
};

/// Build-level tallies (also published as counters).
struct ShardStats {
  std::uint64_t shards_total = 0;
  std::uint64_t shards_claimed = 0;   ///< claimed from the worker's group
  std::uint64_t shards_stolen = 0;    ///< claimed from a foreign group
  std::uint64_t resumed_states = 0;   ///< kDisk resume: states not rebuilt
  /// States held by whole shards in the store: completed plus resumed.
  /// On a truncated kDisk build this is what a resume will skip; partial
  /// shards abandoned mid-stream are not counted.
  std::uint64_t stored_states = 0;
  std::uint32_t worker_groups = 0;
  std::uint32_t workers = 0;
};

/// Outcome of a sharded build: the FunctionalGraphBuild contract (graph
/// engaged iff complete; a truncated build reports counts, and
/// stats.stored_states says what the store holds) plus the store itself
/// (engaged iff complete — the streaming-census surface — or, for
/// resume and inspection, on a truncated kDisk build) and the shard
/// tallies.
struct ShardedBuild {
  FunctionalGraphBuild build;
  std::shared_ptr<SuccessorStore> store;
  ShardStats stats;

  [[nodiscard]] bool complete() const noexcept { return build.complete(); }
};

/// Sharded synchronous phase space: succ[s] = F(s) for all 2^n states,
/// bit-identical to FunctionalGraph::synchronous on every backend.
[[nodiscard]] ShardedBuild build_synchronous_sharded(
    const core::Automaton& a, const ShardedBuildOptions& options,
    runtime::RunControl& control);

/// Sharded sweep (SCA) phase space: one full sweep of `order` per code,
/// bit-identical to FunctionalGraph::sweep.
[[nodiscard]] ShardedBuild build_sweep_sharded(
    const core::Automaton& a, std::vector<core::NodeId> order,
    const ShardedBuildOptions& options, runtime::RunControl& control);

/// Supervised wrapper (docs/robustness.md): runs the sharded synchronous
/// build under a runtime::Supervisor, one attempt per build, each at the
/// attempt's engine-degradation-ladder rung, so memory pressure or an
/// injected fault retries one rung down instead of failing. kDisk builds
/// set resume=true on retry attempts so a failed attempt's completed
/// shards are not recomputed.
struct SupervisedShardedBuild {
  ShardedBuild build;
  runtime::SupervisorReport report;
};
[[nodiscard]] SupervisedShardedBuild supervised_synchronous_sharded(
    const core::Automaton& a, ShardedBuildOptions options,
    const runtime::SupervisorOptions& supervisor);

/// Table-free Garden-of-Eden census over ALL 2^n configurations of any
/// automaton (any topology, n <= max_explicit_bits(kDisk)): the sharded
/// drain steps every code, synchronously or, given `sweep_order`, by one
/// full sweep of it, and ORs each 1024-block of successors into a
/// 1-bit/state reached bitmap; gardens are the unreached codes. Nothing
/// is stored, so options.store, disk_dir and resume are ignored; workers,
/// shard_states and rung (synchronous only, the sweep map runs the
/// dispatched tier) mean what they mean for a build, and the census is
/// identical for every one of them. On rings it must agree with the
/// transfer-matrix census (tested).
///
/// Budgeted like a build: the bitmap bytes are charged up front and one
/// state per source code in 1024-blocks. A truncated census has seen
/// only part of the image, so no garden count can be claimed: `gardens`
/// stays 0, `truncated` is set with the stop reason, and `scanned`
/// reports the states stepped. Nothing is kept for a resume; callers
/// supervise it with runtime::Supervisor, one attempt per rung.
[[nodiscard]] GoeCensus count_gardens_of_eden(
    const core::Automaton& a,
    std::optional<std::vector<core::NodeId>> sweep_order,
    const ShardedBuildOptions& options, runtime::RunControl& control);

/// Census over an ALREADY-BUILT successor table: streams any
/// SuccessorStore backend (flat / disk) into a reached-states
/// bitmap in bounded blocks — the disk backend serves the scan with
/// pread, so an n=28-32 census runs in bitmap + block memory (1 bit/state
/// + O(4096) staging), never materializing the table in RAM. Same
/// gardens/scanned/truncated semantics as the table-free census above;
/// the store must be complete and finalized.
[[nodiscard]] GoeCensus count_gardens_of_eden(const SuccessorStore& store,
                                              runtime::RunControl& control);

}  // namespace tca::phasespace
