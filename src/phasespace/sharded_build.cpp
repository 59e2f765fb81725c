#include "phasespace/sharded_build.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
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

/// RAM the backend will pin (charged to the byte budget BEFORE any
/// allocation).
std::uint64_t estimated_store_bytes(StoreKind kind, std::uint32_t bits,
                                    StateCode count) {
  switch (kind) {
    case StoreKind::kFlat:
      return count * sizeof(StateCode);
    case StoreKind::kPacked:
      return (((static_cast<std::uint64_t>(count) * bits + 63) >> 6) + 1) *
             sizeof(std::uint64_t);
    case StoreKind::kDisk:
      return 0;  // spills; its staging buffers are charged separately
  }
  return count * sizeof(StateCode);
}

/// Best-effort pin of the calling thread to `cpus`; failures are logged
/// once per build, never fatal (shared runners refuse affinity calls).
bool pin_to_cpus(const std::vector<unsigned>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const unsigned c : cpus) {
    if (c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

struct ShardPlan {
  StateCode shard_states = 0;
  std::uint64_t shards_total = 0;
  StateCode count = 0;

  [[nodiscard]] StateCode shard_first(std::uint64_t shard) const noexcept {
    return shard * shard_states;
  }
  [[nodiscard]] std::size_t shard_count(std::uint64_t shard) const noexcept {
    return static_cast<std::size_t>(
        std::min<StateCode>(shard_states, count - shard_first(shard)));
  }
};

ShardedBuild build_sharded(const core::Automaton& a, bool sweep_mode,
                           std::vector<core::NodeId> order,
                           const ShardedBuildOptions& options,
                           runtime::RunControl& control,
                           const char* context) {
  TCA_SPAN("phase_space_build_sharded");
  const auto bits = static_cast<std::uint32_t>(a.size());
  tca::require_explicit_bits(bits, max_explicit_bits(options.store), context);
  const StateCode count = StateCode{1} << bits;

  ShardedBuild out;

  // --- plan: shards, groups, workers ------------------------------------
  ShardPlan plan;
  plan.count = count;
  plan.shard_states = std::max<StateCode>(1, options.shard_states);
  if (options.store == StoreKind::kDisk) {
    // Disk extents must own disjoint whole bytes (see DiskStore).
    plan.shard_states =
        (plan.shard_states + kPutAlign - 1) / kPutAlign * kPutAlign;
  }
  plan.shards_total = (count + plan.shard_states - 1) / plan.shard_states;

  // The topology cannot change under a running process; probing sysfs
  // on every build would cost more than a small build itself.
  static const NumaTopology topo = probe_numa_topology();
  const auto num_groups = static_cast<std::uint32_t>(topo.groups.size());
  unsigned workers = options.workers != 0 ? options.workers
                                          : std::max(1u, topo.total_cpus());
  workers = std::max(1u, workers);

  out.stats.shards_total = plan.shards_total;
  out.stats.worker_groups = num_groups;
  out.stats.workers = workers;

  // Worker w belongs to group w % G; shard regions are sized
  // proportionally to each group's worker head-count so nobody starts
  // with an empty plate (workerless groups get empty regions and are
  // only reached by stealing — i.e. never, since they hold nothing).
  std::vector<std::uint32_t> group_workers(num_groups, 0);
  for (unsigned w = 0; w < workers; ++w) ++group_workers[w % num_groups];
  std::vector<std::uint64_t> region_begin(num_groups, 0);
  std::vector<std::uint64_t> region_end(num_groups, 0);
  {
    std::uint64_t next = 0;
    std::uint64_t assigned_workers = 0;
    for (std::uint32_t g = 0; g < num_groups; ++g) {
      region_begin[g] = next;
      assigned_workers += group_workers[g];
      // Cumulative proportional split: exact coverage, no rounding gaps.
      const std::uint64_t end =
          plan.shards_total * assigned_workers / workers;
      region_end[g] = end;
      next = end;
    }
    region_end[num_groups - 1] = plan.shards_total;
  }

  // --- budget: charge the store + staging footprint up front ------------
  // Flat shards are stepped straight into the table; the other backends
  // stage one shard per worker and put_range it.
  const bool flat = options.store == StoreKind::kFlat;
  const std::size_t staging_states =
      flat ? 0
           : static_cast<std::size_t>(
                 std::min<StateCode>(plan.shard_states, count));
  const std::uint64_t staging_bytes =
      static_cast<std::uint64_t>(workers) * staging_states *
      sizeof(StateCode);
  const std::uint64_t charge =
      estimated_store_bytes(options.store, bits, count) + staging_bytes;
  if (control.note_bytes(charge) != runtime::StopReason::kNone) {
    out.build.status = control.status();
    publish_shard_tallies(out.stats, 0);
    return out;
  }
  runtime::fault::check_alloc(charge);

  std::shared_ptr<SuccessorStore> store =
      make_store(options.store, bits, options.disk_dir);

  // --- kDisk resume: skip shards whose extents revalidate ---------------
  // shard_done: 0 = to build, kResumed = valid on disk, kStored = built
  // and put by this call (written only by the shard's single claimant).
  constexpr std::uint8_t kResumed = 1;
  constexpr std::uint8_t kStored = 2;
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

  // --- the work-stealing drain ------------------------------------------
  // One claim cursor per group. fetch_add may overshoot region_end by up
  // to one per contending worker; claims are validated against the end,
  // so overshoot only wastes the increment.
  std::vector<std::atomic<std::uint64_t>> cursors(num_groups);
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    cursors[g].store(region_begin[g], std::memory_order_relaxed);
  }
  std::atomic<bool> abandon{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  // Per-worker tallies: each slot is written only by its worker and read
  // after the join barrier.
  struct WorkerTally {
    std::uint64_t claimed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t stepped = 0;  ///< states stepped by this call
  };
  std::vector<WorkerTally> tallies(workers);

  runtime::RunControl* ctl = &control;
  SuccessorStore* store_raw = store.get();
  StateCode* const flat_table =
      flat ? static_cast<FlatStore*>(store_raw)->data() : nullptr;
  const ShardPlan* plan_ptr = &plan;
  std::uint8_t* done = shard_done.data();

  const auto worker_body = [&, ctl, store_raw, flat_table, plan_ptr,
                            done](unsigned worker_id) TCA_HOT_PATH {
    const std::uint32_t home = worker_id % num_groups;
    if (options.pin_threads && worker_id != 0) {
      // Worker 0 is the calling thread; leave its affinity alone.
      pin_to_cpus(topo.groups[home].cpus);
    }
    WorkerTally tally;
    try {
      // Thread-local engine + staging: plans, slices and fallback
      // buffers are per-thread state.
      BatchCodeStepper stepper =
          sweep_mode ? BatchCodeStepper(a, order)
                     : BatchCodeStepper(a, options.rung);
      if (worker_id == 0 &&
          (sweep_mode || options.rung != runtime::EngineRung::kScalar)) {
        // The batch decision is surfaced once per build, not per worker
        // (all workers make the same decision from the same automaton).
        // The forced-scalar rung is deliberate, not a fallback — same
        // policy as count_gardens_of_eden_explicit.
        note_batch_fallback(stepper, a, context);
      }
      std::vector<StateCode> staging(staging_states);
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
        StateCode* const dst =
            flat_table != nullptr ? flat_table + first : staging.data();
        // Stream the shard in 1024-blocks so budgets/cancellation trip
        // mid-shard, not per-shard; a tripped shard is NOT stored (the
        // store keeps whole shards only — that is what makes disk
        // extents exact and resumable).
        bool whole = true;
        for (std::size_t done_states = 0; done_states < n_states;) {
          const auto block =
              std::min<std::size_t>(1024, n_states - done_states);
          if (ctl->note_states(block) != runtime::StopReason::kNone) {
            whole = false;
            abandon.store(true, std::memory_order_relaxed);
            break;
          }
          stepper.step_range(first + done_states, block, dst + done_states);
          done_states += block;
          tally.stepped += block;
        }
        if (!whole) break;
        if (flat_table == nullptr) store_raw->put_range(first, n_states, dst);
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

  std::uint64_t stepped = 0;
  for (const WorkerTally& t : tallies) {
    out.stats.shards_claimed += t.claimed;
    out.stats.shards_stolen += t.stolen;
    stepped += t.stepped;
  }
  if (first_error != nullptr) {
    // Publish what happened before surfacing the failure.
    publish_shard_tallies(out.stats, stepped);
    std::rethrow_exception(first_error);
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
  return build_sharded(a, /*sweep_mode=*/false, {}, options, control,
                       "build_synchronous_sharded");
}

ShardedBuild build_sweep_sharded(const core::Automaton& a,
                                 std::vector<core::NodeId> order,
                                 const ShardedBuildOptions& options,
                                 runtime::RunControl& control) {
  return build_sharded(a, /*sweep_mode=*/true, std::move(order), options,
                       control, "build_sweep_sharded");
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

}  // namespace tca::phasespace
