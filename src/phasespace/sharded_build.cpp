#include "phasespace/sharded_build.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "core/contracts.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::phasespace {
namespace {

/// Parses a sysfs cpulist ("0-3,8,10-11") into CPU ids; empty on garbage.
std::vector<unsigned> parse_cpulist(const std::string& text) {
  std::vector<unsigned> cpus;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view item(text.data() + pos, end - pos);
    while (!item.empty() && (item.back() == '\n' || item.back() == ' ')) {
      item.remove_suffix(1);
    }
    if (!item.empty()) {
      const std::size_t dash = item.find('-');
      const auto parse = [](std::string_view s, unsigned& out) {
        out = 0;
        if (s.empty()) return false;
        for (const char c : s) {
          if (c < '0' || c > '9') return false;
          out = out * 10 + static_cast<unsigned>(c - '0');
        }
        return true;
      };
      unsigned lo = 0;
      unsigned hi = 0;
      if (dash == std::string_view::npos) {
        if (!parse(item, lo)) return {};
        hi = lo;
      } else if (!parse(item.substr(0, dash), lo) ||
                 !parse(item.substr(dash + 1), hi) || hi < lo) {
        return {};
      }
      for (unsigned c = lo; c <= hi; ++c) cpus.push_back(c);
    }
    pos = end + 1;
  }
  return cpus;
}

NumaTopology fallback_topology() {
  NumaTopology topo;
  WorkerGroup g;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned c = 0; c < hw; ++c) g.cpus.push_back(c);
  topo.groups.push_back(std::move(g));
  return topo;
}

/// Batched counter publication, mirroring publish_build_tallies.
void publish_shard_tallies(const ShardStats& stats,
                           std::uint64_t states_built) {
  static obs::Counter& builds = obs::counter("phasespace.build.runs");
  static obs::Counter& states = obs::counter("phasespace.build.states");
  static obs::Counter& claimed = obs::counter("phasespace.shard.claimed");
  static obs::Counter& stolen = obs::counter("phasespace.shard.stolen");
  static obs::Counter& resumed = obs::counter("phasespace.shard.resumed_states");
  builds.add();
  states.add(states_built);
  claimed.add(stats.shards_claimed);
  stolen.add(stats.shards_stolen);
  resumed.add(stats.resumed_states);
}

/// States stepped, charged and handed to the sink per block: budgets
/// and cancellation trip mid-shard, not per shard.
constexpr std::size_t kBlockStates = 1024;

/// Shard -> range is a fixed function of (count, shard_states); shards are
/// split into one contiguous region per worker group.
struct ShardPlan {
  StateCode shard_states = 0;
  std::uint64_t shards_total = 0;
  StateCode count = 0;
  unsigned workers = 0;
  /// Group g's shards are [region_end[g - 1], region_end[g]).
  std::vector<std::uint64_t> region_end;

  [[nodiscard]] StateCode shard_first(std::uint64_t shard) const noexcept {
    return shard * shard_states;
  }
  [[nodiscard]] std::size_t shard_count(std::uint64_t shard) const noexcept {
    return static_cast<std::size_t>(
        std::min<StateCode>(shard_states, count - shard_first(shard)));
  }
};

/// Plans 2^bits states as shards of `shard_states` rounded up to a
/// multiple of `align`, over `workers` workers (0 = one per probed CPU).
ShardPlan plan_shards(std::uint32_t bits, StateCode shard_states,
                      unsigned workers, StateCode align) {
  ShardPlan plan;
  plan.count = StateCode{1} << bits;
  plan.shard_states =
      (std::max<StateCode>(1, shard_states) + align - 1) / align * align;
  plan.shards_total = (plan.count + plan.shard_states - 1) / plan.shard_states;
  // The topology cannot change under a running process; probing sysfs
  // on every build would cost more than a small build itself.
  static const NumaTopology topo = probe_numa_topology();
  const auto num_groups = static_cast<std::uint32_t>(topo.groups.size());
  plan.workers = std::max(1u, workers != 0 ? workers : topo.total_cpus());

  // Worker w belongs to group w % G; shard regions are sized
  // proportionally to each group's worker head-count so nobody starts
  // with an empty plate (workerless groups get empty regions and are
  // only reached by stealing — i.e. never, since they hold nothing).
  std::vector<std::uint32_t> group_workers(num_groups, 0);
  for (unsigned w = 0; w < plan.workers; ++w) ++group_workers[w % num_groups];
  plan.region_end.assign(num_groups, 0);
  std::uint64_t assigned_workers = 0;
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    assigned_workers += group_workers[g];
    // Cumulative proportional split: exact coverage, no rounding gaps.
    plan.region_end[g] = plan.shards_total * assigned_workers / plan.workers;
  }
  return plan;
}

// shard_done: 0 = to step, kResumed = valid on disk, kStored = stepped
// and sunk by this call (written only by the shard's single claimant).
constexpr std::uint8_t kResumed = 1;
constexpr std::uint8_t kStored = 2;

/// Per-worker tallies: each slot is written only by its worker and read
/// after the join barrier.
struct WorkerTally {
  std::uint64_t claimed = 0;
  std::uint64_t stolen = 0;
  std::uint64_t stepped = 0;  ///< states stepped by this call
};

/// A drain's tallies summed over its workers, and its first failure.
struct DrainResult {
  WorkerTally total;
  std::exception_ptr error;
};

/// The table build's sink: flat shards are stepped straight into the
/// table; disk shards are staged in a per-worker buffer and put_range'd
/// whole.
struct StoreSink {
  SuccessorStore* store;
  StateCode* flat_table;
  std::vector<StateCode> staging;

  StateCode* block_dst(StateCode first, std::size_t offset) noexcept {
    return flat_table != nullptr ? flat_table + first + offset
                                 : staging.data() + offset;
  }
  void block(const StateCode* /*succ*/, std::size_t /*n*/) noexcept {}
  void shard(StateCode first, std::size_t n) {
    if (flat_table == nullptr) store->put_range(first, n, staging.data());
  }
};

/// The table-free census' sink: each block is stepped into one
/// thread-local buffer and ORed into the shared reached bitmap
/// (or_into_image, as classify's phase 1 fills its image bitmap).
struct BitmapSink {
  std::uint64_t* reached;
  StateCode buffer[kBlockStates];

  StateCode* block_dst(StateCode /*first*/, std::size_t /*offset*/) noexcept {
    return buffer;
  }
  void block(const StateCode* succ, std::size_t n) noexcept {
    or_into_image(reached, 0, n, [succ](StateCode i) { return succ[i]; });
  }
  void shard(StateCode /*first*/, std::size_t /*n*/) noexcept {}
};

/// The work-stealing drain shared by the table build and the table-free
/// census. Every worker makes its own sink with make_sink(), claims
/// shards, steps each one in kBlockStates-blocks into
/// sink.block_dst(first, offset), hands every stepped block to
/// sink.block() and every whole shard to sink.shard(). Shards marked in
/// `done` are skipped; the drain marks the ones it sinks kStored. A
/// tripped control abandons the shard in hand (never sunk whole) and
/// stops all claiming; the first worker failure is captured, not thrown.
template <class MakeSink>
DrainResult drain_shards(
    const core::Automaton& a,
    const std::optional<std::vector<core::NodeId>>& sweep_order,
    const ShardPlan& plan, const ShardedBuildOptions& options,
    runtime::RunControl& control, const char* context, std::uint8_t* done,
    const MakeSink& make_sink) {
  const auto num_groups = static_cast<std::uint32_t>(plan.region_end.size());
  const unsigned workers = plan.workers;
  // One claim cursor per group. fetch_add may overshoot region_end by up
  // to one per contending worker; claims are validated against the end,
  // so overshoot only wastes the increment.
  const std::uint64_t* region_end = plan.region_end.data();
  std::vector<std::atomic<std::uint64_t>> cursors(num_groups);
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    cursors[g].store(g == 0 ? 0 : region_end[g - 1],
                     std::memory_order_relaxed);
  }
  std::atomic<bool> abandon{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::vector<WorkerTally> tallies(workers);

  runtime::RunControl* ctl = &control;
  const ShardPlan* plan_ptr = &plan;

  const auto worker_body = [&, ctl, plan_ptr, region_end,
                            done](unsigned worker_id) TCA_HOT_PATH {
    const std::uint32_t home = worker_id % num_groups;
    WorkerTally tally;
    try {
      // Thread-local engine + sink: plans, slices, fallback buffers and
      // staging are per-thread state.
      BatchCodeStepper stepper = sweep_order
                                     ? BatchCodeStepper(a, *sweep_order)
                                     : BatchCodeStepper(a, options.rung);
      if (worker_id == 0 &&
          (sweep_order || options.rung != runtime::EngineRung::kScalar)) {
        // The batch decision is surfaced once per drain, not per worker
        // (all workers make the same decision from the same automaton).
        // The forced-scalar rung is deliberate, not a fallback.
        note_batch_fallback(stepper, a, context);
      }
      auto sink = make_sink();
      while (!abandon.load(std::memory_order_relaxed)) {
        // Claim: home group first, then sweep the others (steal).
        std::uint64_t shard = ~std::uint64_t{0};
        bool is_steal = false;
        for (std::uint32_t off = 0; off < num_groups; ++off) {
          const std::uint32_t g = (home + off) % num_groups;
          while (cursors[g].load(std::memory_order_relaxed) < region_end[g]) {
            const std::uint64_t got =
                cursors[g].fetch_add(1, std::memory_order_relaxed);
            if (got < region_end[g]) {
              shard = got;
              is_steal = off != 0;
              break;
            }
          }
          if (shard != ~std::uint64_t{0}) break;
        }
        if (shard == ~std::uint64_t{0}) break;  // everything drained
        if (done[shard] != 0) continue;         // resumed from disk
        runtime::fault::check_chunk();
        const StateCode first = plan_ptr->shard_first(shard);
        const std::size_t n_states = plan_ptr->shard_count(shard);
        // A tripped shard is NOT sunk whole: the store keeps whole shards
        // only — that is what makes disk extents exact and resumable.
        bool whole = true;
        for (std::size_t offset = 0; offset < n_states;) {
          const auto block =
              std::min<std::size_t>(kBlockStates, n_states - offset);
          if (ctl->note_states(block) != runtime::StopReason::kNone) {
            whole = false;
            abandon.store(true, std::memory_order_relaxed);
            break;
          }
          StateCode* const dst = sink.block_dst(first, offset);
          stepper.step_range(first + offset, block, dst);
          sink.block(dst, block);
          offset += block;
          tally.stepped += block;
        }
        if (!whole) break;
        sink.shard(first, n_states);
        done[shard] = kStored;
        ++(is_steal ? tally.stolen : tally.claimed);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
      abandon.store(true, std::memory_order_relaxed);
    }
    tallies[worker_id] = tally;
  };

  // Spawn workers 1..N-1; the calling thread is worker 0. Spawn failure
  // degrades to fewer workers (possibly just the caller), mirroring
  // ThreadPool's policy.
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    try {
      if (runtime::fault::should_fail_thread_spawn()) {
        throw tca::InjectedFaultError(
            "fault plan: sharded-build worker spawn failure");
      }
      TCA_JOINED_BEFORE_SCOPE_EXIT(
          "all spawned workers are joined at the barrier right after "
          "worker_body(0), before any captured local dies");
      threads.emplace_back(worker_body, w);
    } catch (...) {
      static obs::Counter& degraded =
          obs::counter("phasespace.shard.spawn_degraded");
      degraded.add();
      obs::log_event(obs::LogLevel::kWarn, "phasespace.shard.spawn_degraded",
                     {{"requested", static_cast<std::uint64_t>(workers)},
                      {"spawned", static_cast<std::uint64_t>(w)}});
      break;
    }
  }
  worker_body(0);
  for (std::thread& t : threads) t.join();

  DrainResult out;
  out.error = first_error;
  for (const WorkerTally& t : tallies) {
    out.total.claimed += t.claimed;
    out.total.stolen += t.stolen;
    out.total.stepped += t.stepped;
  }
  return out;
}

ShardedBuild build_sharded(
    const core::Automaton& a,
    const std::optional<std::vector<core::NodeId>>& sweep_order,
    const ShardedBuildOptions& options, runtime::RunControl& control,
    const char* context) {
  TCA_SPAN("phase_space_build_sharded");
  const auto bits = static_cast<std::uint32_t>(a.size());
  tca::require_explicit_bits(bits, max_explicit_bits(options.store), context);
  // Disk extents must own disjoint whole bytes (see DiskStore).
  const ShardPlan plan = plan_shards(
      bits, options.shard_states, options.workers,
      options.store == StoreKind::kDisk ? kPutAlign : StateCode{1});
  const StateCode count = plan.count;

  ShardedBuild out;
  out.stats.shards_total = plan.shards_total;
  out.stats.worker_groups = static_cast<std::uint32_t>(plan.region_end.size());
  out.stats.workers = plan.workers;

  // --- budget: charge the store + staging footprint up front ------------
  // Flat shards are stepped straight into the table, which is charged
  // whole BEFORE it is allocated; disk builds pin no table, only one
  // staging shard per worker that is put_range'd (spilled) when full.
  const bool flat = options.store == StoreKind::kFlat;
  const std::size_t staging_states =
      flat ? 0
           : static_cast<std::size_t>(
                 std::min<StateCode>(plan.shard_states, count));
  const std::uint64_t charge =
      (flat ? count : std::uint64_t{plan.workers} * staging_states) *
      sizeof(StateCode);
  if (control.note_bytes(charge) != runtime::StopReason::kNone) {
    out.build.status = control.status();
    publish_shard_tallies(out.stats, 0);
    return out;
  }
  runtime::fault::check_alloc(charge);

  std::shared_ptr<SuccessorStore> store =
      make_store(options.store, bits, options.disk_dir);

  // --- kDisk resume: skip shards whose extents revalidate ---------------
  std::vector<std::uint8_t> shard_done(
      static_cast<std::size_t>(plan.shards_total), 0);
  if (options.store == StoreKind::kDisk && options.resume) {
    auto* disk = static_cast<DiskStore*>(store.get());
    for (const DiskStore::Extent& e : disk->resume()) {
      // Only extents that exactly tile a shard are reusable (extent
      // granularity IS shard granularity for every sharded build with
      // the same shard_states).
      if (e.first % plan.shard_states != 0) continue;
      const std::uint64_t shard = e.first / plan.shard_states;
      if (shard >= plan.shards_total ||
          e.count != plan.shard_count(shard)) {
        continue;
      }
      if (shard_done[static_cast<std::size_t>(shard)] == 0) {
        shard_done[static_cast<std::size_t>(shard)] = kResumed;
        out.stats.resumed_states += e.count;
      }
    }
  }

  SuccessorStore* const store_raw = store.get();
  StateCode* const flat_table =
      flat ? static_cast<FlatStore*>(store_raw)->data() : nullptr;
  const DrainResult drained = drain_shards(
      a, sweep_order, plan, options, control, context, shard_done.data(),
      [store_raw, flat_table, staging_states] {
        return StoreSink{store_raw, flat_table,
                         std::vector<StateCode>(staging_states)};
      });
  out.stats.shards_claimed = drained.total.claimed;
  out.stats.shards_stolen = drained.total.stolen;
  const std::uint64_t stepped = drained.total.stepped;
  if (drained.error != nullptr) {
    // Publish what happened before surfacing the failure.
    publish_shard_tallies(out.stats, stepped);
    std::rethrow_exception(drained.error);
  }
  out.build.status = control.status();

  for (std::uint64_t shard = 0; shard < plan.shards_total; ++shard) {
    if (shard_done[static_cast<std::size_t>(shard)] != 0) {
      out.stats.stored_states += plan.shard_count(shard);
    }
  }
  const bool complete =
      !out.build.status.truncated() && out.stats.stored_states == count;

  if (!complete) {
    // Counts only: the states this call stepped (every one of them was
    // admitted by the budget, so a max_states cap bounds them) and the
    // whole shards stored. Disk builds still persist their manifest so
    // resume picks up the finished shards.
    out.build.states_built = stepped;
    if (options.store == StoreKind::kDisk) {
      store->finalize();
      out.store = std::move(store);  // partial, for resume/inspection
    }
    publish_shard_tallies(out.stats, out.build.states_built);
    return out;
  }

  store->finalize();
  out.build.states_built = count;
  out.store = store;
  out.build.graph = FunctionalGraph::from_store(std::move(store));
  publish_shard_tallies(out.stats, count);
  return out;
}

/// The reached bitmap both whole-space censuses fill, 1 bit per state and
/// their only allocation: charged to `control` up front. Empty, with
/// `out` truncated, when the byte budget trips.
std::vector<std::uint64_t> reached_bitmap(StateCode count,
                                          runtime::RunControl& control,
                                          GoeCensus& out) {
  const std::uint64_t words = (count + 63) >> 6;
  if (control.note_bytes(words * sizeof(std::uint64_t)) !=
      runtime::StopReason::kNone) {
    out.stop_reason = control.status().stop_reason;
    out.truncated = true;
    return {};
  }
  runtime::fault::check_alloc(words * sizeof(std::uint64_t));
  return std::vector<std::uint64_t>(static_cast<std::size_t>(words), 0);
}

/// Settles a census whose scan has stopped after out.scanned states: a
/// complete scan's gardens are the unreached codes, a truncated one
/// claims none. Publishes the phasespace.goe.{scanned,gardens} counters.
void settle_census(GoeCensus& out, StateCode count,
                   const std::vector<std::uint64_t>& reached,
                   const runtime::RunControl& control) {
  const runtime::RunStatus status = control.status();
  out.stop_reason = status.stop_reason;
  out.truncated = status.truncated() || out.scanned != count;
  if (!out.truncated) {
    std::uint64_t hit = 0;
    for (const std::uint64_t w : reached) {
      hit += static_cast<std::uint64_t>(std::popcount(w));
    }
    out.gardens = count - hit;
  }
  static obs::Counter& scanned = obs::counter("phasespace.goe.scanned");
  static obs::Counter& gardens = obs::counter("phasespace.goe.gardens");
  scanned.add(out.scanned);
  gardens.add(out.gardens);
}

}  // namespace

NumaTopology probe_numa_topology() {
  namespace fs = std::filesystem;
  NumaTopology topo;
  std::error_code ec;
  const fs::path root("/sys/devices/system/node");
  if (!fs::is_directory(root, ec) || ec) return fallback_topology();
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (ec) return fallback_topology();
    const std::string name = entry.path().filename().string();
    if (name.rfind("node", 0) != 0 || name.size() <= 4) continue;
    std::uint32_t node = 0;
    bool numeric = true;
    for (std::size_t i = 4; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      node = node * 10 + static_cast<std::uint32_t>(name[i] - '0');
    }
    if (!numeric) continue;
    std::ifstream cpulist(entry.path() / "cpulist");
    if (!cpulist) continue;
    std::string text;
    std::getline(cpulist, text);
    std::vector<unsigned> cpus = parse_cpulist(text);
    if (cpus.empty()) continue;  // memory-only node: no workers to home
    WorkerGroup g;
    g.node = node;
    g.cpus = std::move(cpus);
    topo.groups.push_back(std::move(g));
  }
  if (topo.groups.empty()) return fallback_topology();
  std::sort(topo.groups.begin(), topo.groups.end(),
            [](const WorkerGroup& a, const WorkerGroup& b) {
              return a.node < b.node;
            });
  topo.from_sysfs = true;
  return topo;
}

ShardedBuild build_synchronous_sharded(const core::Automaton& a,
                                       const ShardedBuildOptions& options,
                                       runtime::RunControl& control) {
  return build_sharded(a, std::nullopt, options, control,
                       "build_synchronous_sharded");
}

ShardedBuild build_sweep_sharded(const core::Automaton& a,
                                 std::vector<core::NodeId> order,
                                 const ShardedBuildOptions& options,
                                 runtime::RunControl& control) {
  return build_sharded(a, std::move(order), options, control,
                       "build_sweep_sharded");
}

SupervisedShardedBuild supervised_synchronous_sharded(
    const core::Automaton& a, ShardedBuildOptions options,
    const runtime::SupervisorOptions& supervisor_options) {
  SupervisedShardedBuild out;
  runtime::Supervisor supervisor(supervisor_options);
  bool first_attempt = true;
  out.report = supervisor.run(
      "phasespace.synchronous_sharded", [&](runtime::AttemptContext& ctx) {
        ShardedBuildOptions attempt = options;
        attempt.rung = ctx.rung;
        // Retries of a disk build reuse every digest-valid shard the
        // failed attempt already spilled.
        if (!first_attempt && attempt.store == StoreKind::kDisk) {
          attempt.resume = true;
        }
        first_attempt = false;
        out.build = build_synchronous_sharded(a, attempt, ctx.control);
        return out.build.complete() ? runtime::AttemptOutcome::kCompleted
                                    : runtime::AttemptOutcome::kTruncated;
      });
  return out;
}

GoeCensus count_gardens_of_eden(
    const core::Automaton& a,
    std::optional<std::vector<core::NodeId>> sweep_order,
    const ShardedBuildOptions& options, runtime::RunControl& control) {
  TCA_SPAN("goe_census_sharded");
  const auto bits = static_cast<std::uint32_t>(a.size());
  // Only the bitmap is resident, so the widest backend's ceiling holds.
  tca::require_explicit_bits(bits, max_explicit_bits(StoreKind::kDisk),
                             "count_gardens_of_eden");
  const ShardPlan plan =
      plan_shards(bits, options.shard_states, options.workers, 1);
  GoeCensus out;
  std::vector<std::uint64_t> reached = reached_bitmap(plan.count, control, out);
  if (out.truncated) return out;
  std::vector<std::uint8_t> shard_done(
      static_cast<std::size_t>(plan.shards_total), 0);
  std::uint64_t* const bitmap = reached.data();
  const DrainResult drained =
      drain_shards(a, sweep_order, plan, options, control,
                   "count_gardens_of_eden", shard_done.data(),
                   [bitmap] { return BitmapSink{bitmap, {}}; });
  if (drained.error != nullptr) std::rethrow_exception(drained.error);
  out.scanned = drained.total.stepped;
  settle_census(out, plan.count, reached, control);
  return out;
}

GoeCensus count_gardens_of_eden(const SuccessorStore& store,
                                runtime::RunControl& control) {
  TCA_SPAN("goe_census_store");
  tca::require_explicit_bits(store.bits(), max_explicit_bits(store.kind()),
                             "count_gardens_of_eden");
  const StateCode count = store.num_entries();
  GoeCensus out;
  std::vector<std::uint64_t> reached = reached_bitmap(count, control, out);
  if (out.truncated) return out;

  // Streamed read-back in bounded blocks: the table was already built, so
  // this pass costs reads, not steps — the disk backend serves it with
  // pread and never grows the resident set past bitmap + block.
  StateCode block[4096];
  for (StateCode s = 0; s < count;) {
    const auto chunk =
        static_cast<std::size_t>(std::min<StateCode>(4096, count - s));
    if (control.note_states(chunk) != runtime::StopReason::kNone) break;
    store.read_range(s, chunk, block);
    for (std::size_t j = 0; j < chunk; ++j) {
      reached[block[j] >> 6] |= std::uint64_t{1} << (block[j] & 63);
    }
    s += chunk;
    out.scanned = s;
  }
  settle_census(out, count, reached, control);
  return out;
}

}  // namespace tca::phasespace
