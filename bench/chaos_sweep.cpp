// Experiment CHAOS — randomized multi-fault chaos sweep over the
// supervised execution layer (docs/robustness.md).
//
// Each seeded scenario composes a multi-knob runtime::FaultPlan (injected
// allocation failures with size floors, mid-build cancellation, checkpoint
// write failures and read corruption, forced transient attempt failures,
// sharded-build shard exceptions and spawn failures) and runs a
// supervised workload under it:
//
//   * mode A — a segmented synchronous phase-space build that checkpoints
//     each segment into a generational CheckpointStore and resumes from
//     the newest checksum-valid generation on retry;
//   * mode B — a multi-worker sharded phase-space build
//     (supervised_synchronous_sharded) under the Supervisor's
//     retry/degradation ladder;
//   * mode C — a DISK-BACKED sharded build killed mid-spill (budget trip
//     between extents), with one spilled byte deliberately corrupted
//     before a resume=true rebuild: the digest revalidation must drop
//     exactly the poisoned extent and the rebuild must end bit-identical.
//
// THE invariant (ISSUE 7): every supervised run must end either
// bit-identical to the fault-free baseline, as a well-formed truncated
// partial (exact prefix / counts-only), or resumed-from-last-good and
// then bit-identical. Anything else — a mismatched table, a non-prefix
// partial, a terminal failure under a recoverable plan — is an invariant
// violation, printed with a one-line repro (`chaos_sweep --seed <s>`) and
// fatal to the sweep. CI runs >= 200 scenarios under ASan
// (scripts/chaos.py).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/experiment_util.hpp"
#include "core/automaton.hpp"
#include "obs/metrics.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/sharded_build.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/ckpt_store.hpp"
#include "runtime/fault.hpp"
#include "runtime/supervisor.hpp"

using namespace tca;

namespace {

namespace fs = std::filesystem;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Tiny deterministic per-scenario RNG (bench code may not use <random>
/// conventions anyway; the schedule must be reproducible from the seed).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = splitmix64(state); }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  bool chance(std::uint64_t percent) { return below(100) < percent; }
};

enum class Mode { kSegmented, kParallel, kDiskSharded };

struct Scenario {
  std::uint64_t seed = 0;
  std::size_t cells = 8;
  bool majority_rule = true;
  Mode mode = Mode::kSegmented;
  runtime::EngineRung start_rung = runtime::EngineRung::kWideSimd;
  runtime::FaultPlan plan;
  std::uint64_t corrupt_salt = 0;  ///< mode C: picks the poisoned byte
};

Scenario make_scenario(std::uint64_t seed) {
  Rng rng{seed};
  Scenario s;
  s.seed = seed;
  s.cells = 8 + rng.below(4);  // 2^8 .. 2^11 states: fast but non-trivial
  s.majority_rule = rng.chance(50);
  const std::uint64_t mode_draw = rng.below(100);
  s.mode = mode_draw < 25   ? Mode::kDiskSharded
           : mode_draw < 60 ? Mode::kParallel
                            : Mode::kSegmented;
  s.start_rung = static_cast<runtime::EngineRung>(
      rng.below(runtime::kEngineRungCount));
  const std::uint64_t count = std::uint64_t{1} << s.cells;

  // Compose 1-4 fault knobs. Every knob fires at most once, so the worst
  // case is bounded and the supervisor's attempt budget (8) always covers
  // the recoverable-failure count — a terminal outcome is therefore
  // always a bug, never bad luck.
  if (s.mode == Mode::kDiskSharded) {
    // The kill-mid-spill fault: cancel somewhere inside the build so some
    // extents are on disk and some are not; plus the usual transients.
    if (rng.chance(75)) s.plan.cancel_at_visit = 1 + rng.below(count);
    if (rng.chance(35)) s.plan.retry_transient_at = 1 + rng.below(2);
    if (rng.chance(25)) s.plan.fail_thread_spawn = true;
    s.corrupt_salt = rng.next();
    return s;
  }
  if (s.mode == Mode::kParallel) {
    if (rng.chance(60)) s.plan.chunk_exception_at = 1 + rng.below(3);
    if (rng.chance(40)) s.plan.fail_thread_spawn = true;
    if (rng.chance(40)) s.plan.retry_transient_at = 1 + rng.below(2);
    if (rng.chance(25)) s.plan.cancel_at_visit = 1 + rng.below(count);
  } else {
    if (rng.chance(45)) {
      s.plan.alloc_failure_at = 1 + rng.below(2);
      // Sometimes target only big allocations: the segment table reserve
      // qualifies, small bookkeeping allocations do not.
      if (rng.chance(50)) s.plan.alloc_min_bytes = 1024;
    }
    if (rng.chance(45)) s.plan.checkpoint_write_at = 1 + rng.below(3);
    if (rng.chance(45)) s.plan.checkpoint_read_corrupt_at = 1;
    if (rng.chance(45)) s.plan.retry_transient_at = 1 + rng.below(2);
    if (rng.chance(30)) s.plan.cancel_at_visit = 1 + rng.below(2 * count);
  }
  return s;
}

core::Automaton make_ring(const Scenario& s) {
  return core::Automaton::line(s.cells, 1, core::Boundary::kRing,
                               s.majority_rule ? rules::majority()
                                               : rules::parity(),
                               core::Memory::kWith);
}

runtime::SupervisorOptions supervisor_options(const Scenario& s) {
  runtime::SupervisorOptions options;
  options.retry.max_attempts = 8;
  options.retry.initial_backoff = std::chrono::milliseconds(1);
  options.retry.max_backoff = std::chrono::milliseconds(2);
  options.retry.seed = s.seed;
  options.start_rung = s.start_rung;
  return options;
}

const char* describe_plan(const Scenario& s, std::string& storage) {
  storage.clear();
  const auto knob = [&storage](const char* name, std::uint64_t v) {
    if (v == 0) return;
    if (!storage.empty()) storage += ",";
    storage += name;
    storage += "=";
    storage += std::to_string(v);
  };
  knob("alloc", s.plan.alloc_failure_at);
  knob("alloc_min", s.plan.alloc_min_bytes);
  knob("chunk", s.plan.chunk_exception_at);
  knob("cancel", s.plan.cancel_at_visit);
  knob("ckpt_w", s.plan.checkpoint_write_at);
  knob("ckpt_r", s.plan.checkpoint_read_corrupt_at);
  knob("retry", s.plan.retry_transient_at);
  knob("spawn", s.plan.fail_thread_spawn ? 1 : 0);
  if (storage.empty()) storage = "none";
  return storage.c_str();
}

/// How one scenario resolved against the invariant.
enum class Leg { kIdentical, kTruncated, kResumed, kViolation };

struct ScenarioOutcome {
  Leg leg = Leg::kViolation;
  std::string note;
};

/// Mode A: build the successor table in 4 checkpointed segments under the
/// Supervisor; a retried attempt resumes from the newest checksum-valid
/// generation. Segment payload: "states=<k>\n" + raw table-prefix bytes.
ScenarioOutcome run_segmented(const Scenario& s, const core::Automaton& a,
                              const std::vector<phasespace::StateCode>& base,
                              const fs::path& workdir) {
  const std::uint64_t count = std::uint64_t{1} << s.cells;
  const std::uint64_t segment = count / 4;
  runtime::CheckpointStore store((workdir / "seg.ckpt").string(), {3});

  std::vector<phasespace::StateCode> table(count, 0);
  std::uint64_t built = 0;       // states valid in `table` (final attempt)
  bool resumed = false;          // any attempt started from a checkpoint

  runtime::Supervisor supervisor(supervisor_options(s));
  const auto report = supervisor.run(
      "chaos.segmented", [&](runtime::AttemptContext& ctx) {
        built = 0;
        if (const auto recovery = store.load_latest()) {
          const std::string& payload = recovery->checkpoint.payload;
          const auto nl = payload.find('\n');
          if (nl != std::string::npos &&
              payload.rfind("states=", 0) == 0) {
            const std::uint64_t done = std::strtoull(
                payload.substr(7, nl - 7).c_str(), nullptr, 10);
            const std::size_t bytes = payload.size() - nl - 1;
            if (done <= count && bytes == done * sizeof(table[0])) {
              std::memcpy(table.data(), payload.data() + nl + 1, bytes);
              built = done;
              if (ctx.attempt > 1) resumed = true;
            }
          }
        }
        phasespace::BatchCodeStepper stepper(a, ctx.rung);
        while (built < count) {
          const std::uint64_t target =
              std::min(count, (built / segment + 1) * segment);
          while (built < target) {
            const auto block = static_cast<std::size_t>(
                std::min<std::uint64_t>(256, target - built));
            if (ctx.control.note_states(block) !=
                runtime::StopReason::kNone) {
              return runtime::AttemptOutcome::kTruncated;
            }
            runtime::fault::check_alloc(block * sizeof(table[0]));
            stepper.step_range(built, block, table.data() + built);
            built += block;
          }
          runtime::Checkpoint ck;
          ck.payload = "states=" + std::to_string(built) + "\n";
          ck.payload.append(
              reinterpret_cast<const char*>(table.data()),
              built * sizeof(table[0]));
          store.save(ck);  // kIo / bad_alloc here is transient: retried
        }
        return runtime::AttemptOutcome::kCompleted;
      });

  ScenarioOutcome out;
  if (report.state == runtime::SupervisedState::kCompleted) {
    if (table != base) {
      out.note = "completed but table differs from fault-free baseline";
      return out;
    }
    out.leg = resumed ? Leg::kResumed : Leg::kIdentical;
    return out;
  }
  if (report.state == runtime::SupervisedState::kTruncated) {
    if (built > count ||
        !std::equal(table.begin(),
                    table.begin() + static_cast<std::ptrdiff_t>(built),
                    base.begin())) {
      out.note = "truncated result is not an exact baseline prefix";
      return out;
    }
    out.leg = Leg::kTruncated;
    return out;
  }
  out.note = "terminal failure under a recoverable plan: " +
             std::string(error_code_name(report.last_error)) + " (" +
             report.last_error_what + ")";
  return out;
}

/// Mode B: a multi-worker sharded build under the Supervisor. Shard
/// exceptions and spawn failures are the faults; a truncated build is
/// counts-only by contract.
ScenarioOutcome run_parallel(const Scenario& s, const core::Automaton& a,
                             const std::vector<phasespace::StateCode>& base) {
  const std::uint64_t count = std::uint64_t{1} << s.cells;
  phasespace::ShardedBuildOptions options;
  options.shard_states = 64;
  options.workers = 3;
  const phasespace::SupervisedShardedBuild sup =
      phasespace::supervised_synchronous_sharded(a, options,
                                                 supervisor_options(s));
  const runtime::SupervisorReport& report = sup.report;

  ScenarioOutcome out;
  if (report.state == runtime::SupervisedState::kCompleted) {
    if (!sup.build.complete() ||
        sup.build.build.graph->successors() != base) {
      out.note = "completed but table differs from fault-free baseline";
      return out;
    }
    out.leg = report.attempts > 1 ? Leg::kResumed : Leg::kIdentical;
    return out;
  }
  if (report.state == runtime::SupervisedState::kTruncated) {
    if (sup.build.build.states_built > count ||
        sup.build.stats.stored_states > sup.build.build.states_built) {
      out.note = "truncated parallel build overcounts states";
      return out;
    }
    out.leg = Leg::kTruncated;
    return out;
  }
  out.note = "terminal failure under a recoverable plan: " +
             std::string(error_code_name(report.last_error)) + " (" +
             report.last_error_what + ")";
  return out;
}

/// Mode C: a disk-backed sharded build is killed mid-spill (budget trip
/// between extents — the store holds only whole digest-recorded shards),
/// ONE byte of the spilled data is flipped, and a resume=true supervised
/// rebuild runs fault-free. Invariants: the truncated pass is counts-only
/// with a finalized manifest; resume drops the poisoned extent instead of
/// trusting it; the rebuild is bit-identical to the baseline.
ScenarioOutcome run_disk_sharded(const Scenario& s, const core::Automaton& a,
                                 const std::vector<phasespace::StateCode>& base,
                                 const fs::path& workdir) {
  const std::uint64_t count = std::uint64_t{1} << s.cells;
  phasespace::ShardedBuildOptions options;
  options.store = phasespace::StoreKind::kDisk;
  options.disk_dir = (workdir / "store").string();
  options.shard_states = phasespace::kPutAlign;
  options.workers = 2;
  options.rung = s.start_rung;

  ScenarioOutcome out;
  bool truncated_pass = false;

  // Pass 1 runs under the installed fault plan (the caller scopes it).
  try {
    runtime::RunControl control{runtime::RunBudget{}};
    const phasespace::ShardedBuild first =
        phasespace::build_synchronous_sharded(a, options, control);
    if (first.complete()) {
      std::vector<phasespace::StateCode> table(count);
      first.store->read_range(0, count, table.data());
      if (table != base) {
        out.note = "mode C pass 1 completed but differs from baseline";
        return out;
      }
    } else {
      truncated_pass = true;
      if (first.build.states_built > count) {
        out.note = "mode C truncated pass overcounts states";
        return out;
      }
    }
  } catch (const tca::Error&) {
    // An injected transient surfaced as an exception; the resume pass
    // below must still recover everything from the manifest.
    truncated_pass = true;
  }

  // Poison one spilled byte (bit rot / torn pwrite survivor). The resume
  // digest check must refuse the extent rather than serve bad data.
  const fs::path data = workdir / "store" / "succ.dat";
  std::error_code ec;
  const std::uint64_t data_size =
      fs::exists(data, ec) ? fs::file_size(data, ec) : 0;
  if (data_size > 0) {
    std::fstream f(data, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t byte = s.corrupt_salt % data_size;
    f.seekg(static_cast<std::streamoff>(byte));
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(byte));
    c = static_cast<char>(c ^ 0x20);
    f.write(&c, 1);
  }

  // Pass 2: resume rebuild under the Supervisor. Fault knobs that did
  // not fire in pass 1 (a late cancel, a second transient) may fire
  // here; a cancel makes THIS pass a well-formed truncation, which is a
  // legitimate leg, not a violation.
  options.resume = true;
  const phasespace::SupervisedShardedBuild second =
      phasespace::supervised_synchronous_sharded(a, options,
                                                 supervisor_options(s));
  if (second.report.state == runtime::SupervisedState::kTruncated) {
    if (second.build.build.states_built > count) {
      out.note = "mode C truncated resume pass overcounts states";
      return out;
    }
    out.leg = Leg::kTruncated;
    return out;
  }
  if (second.report.state != runtime::SupervisedState::kCompleted ||
      !second.build.complete()) {
    out.note = "mode C resume rebuild did not complete: " +
               std::string(error_code_name(second.report.last_error)) + " (" +
               second.report.last_error_what + ")";
    return out;
  }
  std::vector<phasespace::StateCode> table(count);
  second.build.store->read_range(0, count, table.data());
  if (table != base) {
    out.note = "mode C resumed table differs from fault-free baseline";
    return out;
  }
  out.leg = truncated_pass || second.build.stats.resumed_states > 0
                ? Leg::kResumed
                : Leg::kIdentical;
  return out;
}

ScenarioOutcome run_scenario(const Scenario& s, bool verbose) {
  const auto a = make_ring(s);
  // Fault-free baseline FIRST, before any plan is installed.
  const auto baseline = phasespace::FunctionalGraph::synchronous(a);
  const auto& base = baseline.successors();

  const fs::path workdir =
      fs::temp_directory_path() /
      ("tca_chaos_" + std::to_string(s.seed & 0xFFFFFFFFull));
  std::error_code ec;
  fs::remove_all(workdir, ec);
  fs::create_directories(workdir, ec);

  ScenarioOutcome out;
  {
    runtime::ScopedFaultPlan plan(s.plan);
    switch (s.mode) {
      case Mode::kSegmented: out = run_segmented(s, a, base, workdir); break;
      case Mode::kParallel: out = run_parallel(s, a, base); break;
      case Mode::kDiskSharded:
        out = run_disk_sharded(s, a, base, workdir);
        break;
    }
  }
  fs::remove_all(workdir, ec);

  if (verbose) {
    std::string knobs;
    static const char* kLegNames[] = {"bit-identical", "truncated",
                                      "resumed-from-last-good",
                                      "VIOLATION"};
    static const char* kModeNames[] = {"segmented", "parallel",
                                       "disk-sharded"};
    std::printf("seed=%llu n=%zu rule=%s mode=%s rung=%s plan={%s} -> %s%s%s\n",
                static_cast<unsigned long long>(s.seed), s.cells,
                s.majority_rule ? "majority" : "parity",
                kModeNames[static_cast<int>(s.mode)],
                runtime::rung_name(s.start_rung), describe_plan(s, knobs),
                kLegNames[static_cast<int>(out.leg)],
                out.note.empty() ? "" : ": ", out.note.c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 200;
  std::uint64_t base_seed = 0xC4A05;
  bool single = false;
  std::uint64_t single_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--base-seed" && i + 1 < argc) {
      base_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      single = true;
      single_seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds <n>] [--base-seed <s>] [--seed <s>]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::banner("CHAOS",
                "Chaos sweep: randomized multi-fault plans over supervised "
                "runs; every outcome must be bit-identical, well-formed "
                "truncated, or resumed-from-last-good.");

  static obs::Counter& c_scen = obs::counter("chaos.scenarios");
  static obs::Counter& c_ident = obs::counter("chaos.identical");
  static obs::Counter& c_trunc = obs::counter("chaos.truncated");
  static obs::Counter& c_res = obs::counter("chaos.resumed");
  static obs::Counter& c_viol = obs::counter("chaos.violations");

  std::vector<std::uint64_t> failing;
  const auto drive = [&](std::uint64_t seed, bool verbose) {
    const Scenario s = make_scenario(seed);
    const ScenarioOutcome out = run_scenario(s, verbose);
    c_scen.add();
    switch (out.leg) {
      case Leg::kIdentical: c_ident.add(); break;
      case Leg::kTruncated: c_trunc.add(); break;
      case Leg::kResumed: c_res.add(); break;
      case Leg::kViolation:
        c_viol.add();
        failing.push_back(seed);
        std::printf("CHAOS-REPRO: %s --seed %llu\n", argv[0],
                    static_cast<unsigned long long>(seed));
        std::printf("  violation: %s\n", out.note.c_str());
        break;
    }
  };

  if (single) {
    drive(single_seed, /*verbose=*/true);
  } else {
    for (std::uint64_t i = 0; i < seeds; ++i) {
      drive(splitmix64(base_seed + i), /*verbose=*/false);
    }
  }

  bench::Verdict verdict;
  verdict.set_argv(argc, argv);
  verdict.set_seed(base_seed);
  const std::uint64_t ran = single ? 1 : seeds;
  verdict.check("every-scenario-classified", true,
                std::to_string(ran) + " scenarios");
  verdict.check("zero-invariant-violations", failing.empty(),
                failing.empty()
                    ? "bit-identical/truncated/resumed only"
                    : std::to_string(failing.size()) + " violation(s)");
  return verdict.finish("CHAOS");
}
