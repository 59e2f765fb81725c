#pragma once
// Machine-readable run manifests (docs/observability.md).
//
// Every bench binary and the bench::ExperimentDriver end a run by writing
// a RunManifest: one schema-versioned JSON file capturing what ran (tool,
// argv, seed), against which build (git SHA, build type, compiler, flags,
// sanitizers — frozen into obs/build_info.hpp at CMake configure time),
// what happened (status, per-check verdicts, per-benchmark timings,
// StopReason, wall-clock), and the full metrics snapshot. Manifests are
// the comparable, versioned result artifacts tools read instead of
// scraping stdout.
//
// Schema versioning policy: kManifestSchemaVersion bumps on any change
// that would break a reader (field removal or retyping); adding optional
// fields is NOT a bump. Readers must ignore unknown fields.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tca::obs {

/// Current manifest schema version (see versioning policy above).
inline constexpr std::uint32_t kManifestSchemaVersion = 1;

/// One named PASS/FAIL-style verdict inside a manifest.
struct ManifestCheck {
  std::string id;
  std::string status;  ///< PASS | FAIL | ERROR | TIMEOUT | SKIP | CRASH
  std::string detail;
};

/// One timed measurement (name, value, unit, rate, iterations).
struct BenchmarkTiming {
  std::string name;
  double real_time = 0;          ///< per-iteration, in `time_unit`
  std::string time_unit = "ns";
  double items_per_second = 0;   ///< 0 when the bench reports none
  std::uint64_t iterations = 0;
};

/// The manifest a run fills in and writes. Build info, timestamp, and the
/// metrics snapshot are added automatically at serialization time.
struct RunManifest {
  std::string tool;              ///< binary or sweep name (manifest key)
  std::string status = "UNKNOWN";  ///< overall PASS / FAIL / ERROR / ...
  std::optional<std::uint64_t> seed;
  std::vector<std::string> argv;
  std::string stop_reason = "none";  ///< runtime::stop_reason_name value
  double wall_ms = 0;
  std::map<std::string, std::string> budgets;  ///< limit name -> value
  std::vector<ManifestCheck> checks;
  std::vector<BenchmarkTiming> benchmarks;
  std::map<std::string, std::string> extra;  ///< free-form annotations
  bool include_metrics = true;  ///< embed snapshot_metrics() on write

  [[nodiscard]] std::string to_json() const;

  /// Atomically writes to_json() to `path` (tmp file + rename), creating
  /// parent directories. Throws tca::RuntimeError(kIo) on failure.
  void write(const std::string& path) const;

  /// write(), with failures logged (event "manifest.write_failed") instead
  /// of thrown — manifest emission must never take down a finished run.
  /// Returns true on success.
  bool try_write(const std::string& path) const noexcept;
};

/// Where manifests land: $TCA_RESULTS_DIR if set, else "results" under
/// the current working directory (docs/observability.md describes the
/// layout).
[[nodiscard]] std::string results_dir();

/// `<results_dir()>/<tool>.manifest.json`. Does not create anything;
/// RunManifest::write creates parent directories as needed.
[[nodiscard]] std::string manifest_path(std::string_view tool);

}  // namespace tca::obs
