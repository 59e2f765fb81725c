#pragma once
// The in-process census workloads (census.cpp).

#include "support.hpp"

namespace perfbench {

/// census-n24 (disk = false: flat store, n = 24) or census-disk-n28
/// (disk = true: disk store, n = 28).
[[nodiscard]] Report run_census(const RunOptions& opt, SpanRecorder& rec,
                                bool disk);

}  // namespace perfbench
