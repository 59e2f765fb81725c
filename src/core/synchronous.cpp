#include "core/synchronous.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "runtime/error.hpp"

namespace tca::core {

void step_synchronous(const Automaton& a, const Configuration& in,
                      Configuration& out) {
  if (in.size() != a.size() || out.size() != a.size()) {
    throw tca::InvalidArgumentError(
        "step_synchronous: size mismatch", tca::ErrorCode::kSizeMismatch);
  }
  if (&in == &out) {
    throw tca::InvalidArgumentError("step_synchronous: in and out must differ");
  }
  // Step-granular metering: two relaxed adds per n-cell step.
  static obs::Counter& steps = obs::counter("engine.synchronous.steps");
  static obs::Counter& cells = obs::counter("engine.synchronous.cells");
  steps.add();
  cells.add(a.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    out.set(v, a.eval_node(static_cast<NodeId>(v), in));
  }
}

Configuration step_synchronous(const Automaton& a, const Configuration& in) {
  Configuration out(in.size());
  step_synchronous(a, in, out);
  return out;
}

void advance_synchronous(const Automaton& a, Configuration& c,
                         std::uint64_t steps) {
  Configuration back(c.size());
  for (std::uint64_t t = 0; t < steps; ++t) {
    step_synchronous(a, c, back);
    std::swap(c, back);
  }
}

bool is_fixed_point_synchronous(const Automaton& a, const Configuration& c) {
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a.eval_node(static_cast<NodeId>(v), c) != c.get(v)) return false;
  }
  return true;
}

}  // namespace tca::core
