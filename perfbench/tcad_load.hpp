#pragma once
// The daemon workloads (tcad_load.cpp).

#include "support.hpp"

namespace perfbench {

/// tcad-cold (hot = false) or tcad-hot (hot = true).
[[nodiscard]] Report run_tcad(const RunOptions& opt, SpanRecorder& rec,
                              bool hot);

}  // namespace perfbench
