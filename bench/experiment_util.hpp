#pragma once
// Shared output helpers for the experiment harnesses: consistent banners,
// table rows, and a PASS/FAIL verdict accumulator so every binary ends with
// an unambiguous machine-greppable summary line — plus the fault-tolerant
// ExperimentDriver (docs/robustness.md): per-experiment watchdog +
// exception isolation + versioned checkpoint/resume, so a sweep killed
// halfway through restarts from the last completed experiment and still
// produces bit-identical final verdicts.
//
// Both Verdict and ExperimentDriver end a run by writing a RunManifest
// (obs/manifest.hpp) into results/ — the machine-readable artifact next to
// the human-readable stdout summary.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "runtime/budget.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/ckpt_store.hpp"
#include "runtime/error.hpp"

namespace tca::bench {

/// Prints the experiment banner (id + the paper claim being regenerated).
inline void banner(const std::string& id, const std::string& claim) {
  std::printf("=============================================================\n");
  std::printf("Experiment %s\n", id.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("=============================================================\n");
}

/// Accumulates named checks and prints the final verdict. finish() also
/// writes `<results_dir>/<id>.manifest.json` recording every check, so the
/// run leaves a machine-readable artifact alongside the stdout summary.
class Verdict {
 public:
  void check(const std::string& name, bool ok) {
    check(name, ok, "");
  }

  void check(const std::string& name, bool ok, const std::string& detail) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", name.c_str());
    checks_.push_back({name, ok ? "PASS" : "FAIL", detail});
    if (!ok) failed_ = true;
  }

  /// Records the invocation line and/or seed for the manifest (optional).
  void set_argv(int argc, char** argv) {
    argv_.assign(argv, argv + argc);
  }
  void set_seed(std::uint64_t seed) { seed_ = seed; }

  /// Prints the summary line, writes the manifest, and returns the
  /// process exit code.
  int finish(const std::string& id) const {
    obs::RunManifest manifest;
    manifest.tool = id;
    manifest.status = failed_ ? "FAIL" : "PASS";
    manifest.seed = seed_;
    manifest.argv = argv_;
    manifest.checks = checks_;
    manifest.wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const std::string path = obs::manifest_path(id);
    if (manifest.try_write(path)) {
      std::printf("manifest: %s\n", path.c_str());
    }
    std::printf("-------------------------------------------------------------\n");
    std::printf("%s: %s\n", id.c_str(), failed_ ? "FAIL" : "PASS");
    return failed_ ? 1 : 0;
  }

 private:
  bool failed_ = false;
  std::vector<obs::ManifestCheck> checks_;
  std::vector<std::string> argv_;
  std::optional<std::uint64_t> seed_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// What one sub-experiment reports back to the driver.
struct ExperimentResult {
  bool ok = false;
  std::string detail;  ///< deterministic one-line summary (counts, sizes)
};

/// Command-line surface shared by driver-based sweeps.
struct DriverOptions {
  std::string checkpoint_path;        ///< empty = no checkpointing
  bool resume = false;                ///< load checkpoint_path before running
  std::chrono::seconds watchdog{30};  ///< per-experiment limit; 0 = none
  std::uint32_t generations = 3;      ///< checkpoint generations kept

  static DriverOptions parse(int argc, char** argv) {
    DriverOptions opts;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--checkpoint" && i + 1 < argc) {
        opts.checkpoint_path = argv[++i];
      } else if (arg == "--resume") {
        opts.resume = true;
        // Optional path operand: `--resume <ckpt>` both loads from and
        // keeps checkpointing to that file.
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          opts.checkpoint_path = argv[++i];
        }
      } else if (arg == "--watchdog" && i + 1 < argc) {
        opts.watchdog = std::chrono::seconds(std::atol(argv[++i]));
      } else if (arg == "--generations" && i + 1 < argc) {
        opts.generations = static_cast<std::uint32_t>(
            std::max(1L, std::atol(argv[++i])));
      } else {
        std::fprintf(stderr,
                     "usage: %s [--checkpoint <path>] [--resume [<path>]] "
                     "[--watchdog <seconds>] [--generations <k>]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    return opts;
  }
};

/// Runs a sweep of named sub-experiments with three layers of fault
/// tolerance:
///  * every body runs on a worker thread under a cooperative
///    runtime::RunControl whose deadline is the watchdog; if the body does
///    not return within the watchdog it is cancelled, given a grace
///    period, and — only if it ignores cancellation — abandoned (detached)
///    so the rest of the sweep still runs;
///  * exceptions from a body are caught and recorded as ERROR, never
///    propagate, and never stop the sweep;
///  * after every completed experiment the driver writes a checksummed
///    checkpoint (runtime/checkpoint.hpp); `--resume` skips completed
///    experiments and replays their recorded verdict lines, so the final
///    summary is bit-identical to an uninterrupted run.
class ExperimentDriver {
 public:
  using Body = std::function<ExperimentResult(runtime::RunControl&)>;

  ExperimentDriver(std::string sweep_name, DriverOptions opts)
      : name_(std::move(sweep_name)), opts_(std::move(opts)) {
    if (opts_.resume && !opts_.checkpoint_path.empty()) load_checkpoint();
  }

  /// Deterministic per-experiment seed (stable across runs and resumes).
  [[nodiscard]] std::uint64_t seed(const std::string& id) const {
    return runtime::fnv1a64(name_ + "/" + id);
  }

  /// Runs (or, on resume, replays) one sub-experiment.
  void run(const std::string& id, const Body& body) {
    if (const auto it = completed_.find(id); it != completed_.end()) {
      std::printf("\n--- %s [%s from checkpoint] ---\n", id.c_str(),
                  it->second.status.c_str());
      order_.push_back(id);
      return;
    }
    std::printf("\n--- %s ---\n", id.c_str());
    order_.push_back(id);
    completed_[id] = execute(body);
    if (!opts_.checkpoint_path.empty()) save_checkpoint();
  }

  /// Prints the machine-diffable summary section and the final verdict
  /// line, writes the sweep's RunManifest, and returns the process exit
  /// code.
  int finish() const {
    std::printf("\n== summary ==\n");
    bool failed = false;
    obs::RunManifest manifest;
    manifest.tool = name_;
    manifest.seed = runtime::fnv1a64(name_);
    if (opts_.watchdog.count() > 0) {
      manifest.budgets["watchdog_s"] = std::to_string(opts_.watchdog.count());
    }
    if (!opts_.checkpoint_path.empty()) {
      manifest.extra["checkpoint"] = opts_.checkpoint_path;
      manifest.extra["resumed"] = opts_.resume ? "true" : "false";
    }
    for (const std::string& id : order_) {
      const Entry& e = completed_.at(id);
      std::printf("  [%s] %s%s%s\n", e.status.c_str(), id.c_str(),
                  e.detail.empty() ? "" : " — ", e.detail.c_str());
      manifest.checks.push_back({id, e.status, e.detail});
      if (e.status != "PASS") failed = true;
    }
    manifest.status = failed ? "FAIL" : "PASS";
    manifest.wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const std::string path = obs::manifest_path(name_);
    if (manifest.try_write(path)) {
      std::printf("manifest: %s\n", path.c_str());
    }
    std::printf("%s: %s\n", name_.c_str(), failed ? "FAIL" : "PASS");
    return failed ? 1 : 0;
  }

 private:
  struct Entry {
    std::string status;  // PASS | FAIL | ERROR | TIMEOUT
    std::string detail;
  };

  /// Shared with the worker so an abandoned (hung) thread never touches
  /// driver stack frames after the watchdog gives up on it.
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Entry entry;
    runtime::RunControl control;
    explicit Slot(const runtime::RunBudget& budget, runtime::CancelToken token)
        : control(budget, std::move(token)) {}
  };

  Entry execute(const Body& body) const {
    runtime::CancelToken token;
    runtime::RunBudget budget;
    if (opts_.watchdog.count() > 0) budget.wall_limit = opts_.watchdog;
    auto slot = std::make_shared<Slot>(budget, token);
    std::thread worker([slot, body] {
      Entry entry;
      try {
        const ExperimentResult r = body(slot->control);
        entry = {r.ok ? "PASS" : "FAIL", r.detail};
      } catch (const std::exception& e) {
        entry = {"ERROR", e.what()};
      } catch (...) {
        entry = {"ERROR", "unknown exception"};
      }
      const std::lock_guard<std::mutex> lock(slot->mutex);
      slot->entry = std::move(entry);
      slot->done = true;
      slot->cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(slot->mutex);
    const auto finished = [&slot] { return slot->done; };
    if (opts_.watchdog.count() <= 0) {
      slot->cv.wait(lock, finished);
    } else if (!slot->cv.wait_for(lock, opts_.watchdog, finished)) {
      // Cooperative cancel, then a short grace period before giving up.
      token.cancel();
      if (!slot->cv.wait_for(lock, std::chrono::seconds(5), finished)) {
        lock.unlock();
        worker.detach();  // best effort: the body ignored cancellation
        return {"TIMEOUT", "watchdog expired and the body ignored "
                           "cancellation; worker abandoned"};
      }
    }
    lock.unlock();
    worker.join();
    return slot->entry;
  }

  // Checkpoint payload: "sweep=<name>" then one "done=<id>|<status>|<detail>"
  // line per completed experiment, in completion order.
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '\\') out += "\\\\";
      else if (c == '\n') out += "\\n";
      else if (c == '|') out += "\\p";
      else out += c;
    }
    return out;
  }

  static std::string unescape(const std::string& s) {
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '\\' || i + 1 == s.size()) {
        out += s[i];
        continue;
      }
      const char next = s[++i];
      out += next == 'n' ? '\n' : next == 'p' ? '|' : next;
    }
    return out;
  }

  void save_checkpoint() const {
    runtime::Checkpoint ck;
    ck.payload = "sweep=" + name_ + "\n";
    for (const std::string& id : order_) {
      const Entry& e = completed_.at(id);
      ck.payload += "done=" + escape(id) + "|" + e.status + "|" +
                    escape(e.detail) + "\n";
    }
    try {
      // Generational store (runtime/ckpt_store.hpp): the head stays at
      // checkpoint_path, older generations rotate to <path>.g<seq>, so a
      // checkpoint corrupted AFTER being written still leaves a last-good
      // generation to resume from.
      runtime::CheckpointStore store(opts_.checkpoint_path,
                                     {opts_.generations});
      store.save(ck);
    } catch (const tca::CheckpointError& e) {
      obs::log_event(obs::LogLevel::kWarn, "driver.checkpoint_write_failed",
                     {{"path", opts_.checkpoint_path}, {"error", e.what()}});
    }
  }

  void load_checkpoint() {
    runtime::CheckpointStore store(opts_.checkpoint_path,
                                   {opts_.generations});
    auto recovery = store.load_latest();
    if (!recovery) return;  // nothing valid on disk: start from scratch
    if (recovery->from_generation || recovery->quarantined > 0) {
      std::printf(
          "checkpoint head was missing or corrupt; recovered generation %s "
          "(%u file(s) quarantined)\n",
          recovery->path.c_str(), recovery->quarantined);
    }
    const std::optional<runtime::Checkpoint> ck =
        std::move(recovery->checkpoint);
    std::size_t pos = 0;
    bool sweep_ok = false;
    while (pos < ck->payload.size()) {
      std::size_t end = ck->payload.find('\n', pos);
      if (end == std::string::npos) end = ck->payload.size();
      const std::string line = ck->payload.substr(pos, end - pos);
      pos = end + 1;
      if (line.rfind("sweep=", 0) == 0) {
        sweep_ok = line.substr(6) == name_;
        if (!sweep_ok) {
          obs::log_event(obs::LogLevel::kWarn, "driver.checkpoint_mismatch",
                         {{"expected_sweep", name_},
                          {"found_sweep", line.substr(6)},
                          {"path", opts_.checkpoint_path}});
          return;
        }
      } else if (sweep_ok && line.rfind("done=", 0) == 0) {
        const std::string rest = line.substr(5);
        const std::size_t a = rest.find('|');
        const std::size_t b = rest.find('|', a + 1);
        if (a == std::string::npos || b == std::string::npos) continue;
        completed_[unescape(rest.substr(0, a))] =
            Entry{rest.substr(a + 1, b - a - 1), unescape(rest.substr(b + 1))};
      }
    }
    if (!completed_.empty()) {
      std::printf("resuming from %s: %zu experiment(s) already done\n",
                  opts_.checkpoint_path.c_str(), completed_.size());
    }
  }

  std::string name_;
  DriverOptions opts_;
  std::map<std::string, Entry> completed_;
  std::vector<std::string> order_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace tca::bench
