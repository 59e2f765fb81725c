#include "phasespace/functional_graph.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phasespace/sharded_build.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::phasespace {
namespace {

/// The facades' build: a flat table, one worker per 2^20 states.
ShardedBuildOptions facade_options(std::uint32_t bits) {
  ShardedBuildOptions options;
  options.workers = workers_for_states(StateCode{1} << bits);
  return options;
}

}  // namespace

unsigned workers_for_states(StateCode count) {
  const StateCode hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::clamp<StateCode>(count >> 20, 1, hw));
}

FunctionalGraph::FunctionalGraph(std::uint32_t bits, const CodeStepFn& step)
    : bits_(bits) {
  TCA_SPAN("phase_space_build");
  tca::require_explicit_bits(bits, kMaxExplicitBits, "FunctionalGraph");
  const StateCode count = StateCode{1} << bits;
  runtime::fault::check_alloc(count * sizeof(StateCode));
  std::vector<StateCode> succ(count);
  for (StateCode s = 0; s < count; ++s) succ[s] = step(s);
  store_ = std::make_shared<FlatStore>(bits, std::move(succ));
  flat_ = store_->flat_table()->data();
  // One batched publish per build (docs/observability.md).
  static obs::Counter& builds = obs::counter("phasespace.build.runs");
  static obs::Counter& states = obs::counter("phasespace.build.states");
  builds.add();
  states.add(count);
}

FunctionalGraph FunctionalGraph::from_table(std::uint32_t bits,
                                            std::vector<StateCode> succ) {
  tca::require_explicit_bits(bits, kMaxExplicitBits,
                             "FunctionalGraph::from_table");
  if (succ.size() != (StateCode{1} << bits)) {
    throw tca::InvalidArgumentError(
        "FunctionalGraph::from_table: table has " +
            std::to_string(succ.size()) + " entries, expected 2^" +
            std::to_string(bits),
        tca::ErrorCode::kSizeMismatch);
  }
  FunctionalGraph fg;
  fg.bits_ = bits;
  fg.store_ = std::make_shared<FlatStore>(bits, std::move(succ));
  fg.flat_ = fg.store_->flat_table()->data();
  return fg;
}

FunctionalGraph FunctionalGraph::from_store(
    std::shared_ptr<SuccessorStore> store) {
  if (store == nullptr) {
    throw tca::InvalidArgumentError("FunctionalGraph::from_store: null store");
  }
  const std::uint32_t bits = store->bits();
  tca::require_explicit_bits(bits, max_explicit_bits(store->kind()),
                             "FunctionalGraph::from_store");
  if (store->num_entries() != (StateCode{1} << bits)) {
    throw tca::InvalidArgumentError(
        "FunctionalGraph::from_store: store holds " +
            std::to_string(store->num_entries()) + " entries, expected 2^" +
            std::to_string(bits),
        tca::ErrorCode::kSizeMismatch);
  }
  FunctionalGraph fg;
  fg.bits_ = bits;
  fg.store_ = std::move(store);
  if (const std::vector<StateCode>* t = fg.store_->flat_table()) {
    fg.flat_ = t->data();
  }
  return fg;
}

const std::vector<StateCode>& FunctionalGraph::successors() const {
  const std::vector<StateCode>* t = store_->flat_table();
  if (t == nullptr) {
    throw tca::StateError(
        std::string("FunctionalGraph::successors: the ") +
            store_kind_name(store_->kind()) +
            " backend has no flat table; iterate via "
            "store().for_each_range() instead",
        tca::ErrorCode::kInvalidState);
  }
  return *t;
}

FunctionalGraph FunctionalGraph::synchronous(const core::Automaton& a) {
  TCA_SPAN("phase_space_build");
  const auto bits = static_cast<std::uint32_t>(a.size());
  tca::require_explicit_bits(bits, kMaxExplicitBits,
                             "FunctionalGraph::synchronous");
  runtime::RunControl unlimited;
  // Unlimited control: the build either completes or throws.
  return std::move(
      *build_synchronous_sharded(a, facade_options(bits), unlimited)
           .build.graph);
}

FunctionalGraph FunctionalGraph::sweep(const core::Automaton& a,
                                       std::vector<core::NodeId> order) {
  TCA_SPAN("phase_space_build");
  const auto bits = static_cast<std::uint32_t>(a.size());
  tca::require_explicit_bits(bits, kMaxExplicitBits,
                             "FunctionalGraph::sweep");
  runtime::RunControl unlimited;
  return std::move(*build_sweep_sharded(a, std::move(order),
                                        facade_options(bits), unlimited)
                        .build.graph);
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a)
    : BatchCodeStepper(a, runtime::EngineRung::kWideSimd) {}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   std::vector<core::NodeId> order)
    : a_(&a),
      order_(std::move(order)),
      sweep_mode_(true),
      front_(a.size()),
      back_(a.size()) {
  init_batch(std::nullopt);
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   core::BatchIsa isa)
    : a_(&a), sweep_mode_(false), front_(a.size()), back_(a.size()) {
  init_batch(isa);
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   std::vector<core::NodeId> order,
                                   core::BatchIsa isa)
    : a_(&a),
      order_(std::move(order)),
      sweep_mode_(true),
      front_(a.size()),
      back_(a.size()) {
  init_batch(isa);
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   runtime::EngineRung rung)
    : a_(&a),
      sweep_mode_(false),
      rung_(rung),
      front_(a.size()),
      back_(a.size()) {
  if (rung == runtime::EngineRung::kWideSimd) {
    init_batch(std::nullopt);
  } else if (rung == runtime::EngineRung::kBatch64) {
    // The 64-lane bit-slice tier is compiled unconditionally, so forcing
    // kScalar never throws for a supported automaton.
    init_batch(core::BatchIsa::kScalar);
  }
}

void BatchCodeStepper::init_batch(std::optional<core::BatchIsa> isa) {
  const auto support = core::batch_support(*a_);
  if (!support.ok) {
    reason_ = support.reason;
    return;
  }
  stepper_ = isa ? core::make_wide_stepper(*a_, *isa)
                 : core::make_wide_stepper(*a_);
}

void BatchCodeStepper::step_range(StateCode first, std::size_t count,
                                  StateCode* succ) {
  const std::size_t n = a_->size();
  if (stepper_ != nullptr) {
    // The whole load/step/store pipeline runs inside the tier's
    // translation unit, so the transposes vectorize with the kernels.
    if (sweep_mode_) {
      stepper_->sweep_code_range(first, count, order_, succ);
    } else {
      stepper_->step_code_range(first, count, succ);
    }
    return;
  }
  // Scalar fallback: identical to the per-code adapters below.
  for (std::size_t j = 0; j < count; ++j) {
    front_ = core::Configuration::from_bits(first + j, n);
    if (sweep_mode_) {
      core::apply_sequence(*a_, front_, order_);
      succ[j] = front_.to_bits();
    } else {
      core::step_synchronous(*a_, front_, back_);
      succ[j] = back_.to_bits();
    }
  }
}

void note_batch_fallback(const BatchCodeStepper& stepper,
                         const core::Automaton& a, const char* context) {
  if (stepper.batched()) return;
  // Silent de-optimization must show up in run manifests
  // (docs/performance.md).
  static obs::Counter& fallbacks = obs::counter("engine.batch.fallback");
  fallbacks.add();
  const char* reason = stepper.fallback_reason();
  obs::log_event(
      obs::LogLevel::kWarn, "engine.batch.fallback",
      {{"context", context},
       {"reason", reason != nullptr ? reason : "unknown"},
       {"rule", a.homogeneous() ? rules::describe(a.rule(0)) : "per-node"},
       {"cells", static_cast<std::uint64_t>(a.size())}});
}

CodeStepFn synchronous_code_step(const core::Automaton& a) {
  const std::size_t n = a.size();
  return [&a, n](StateCode s) {
    const auto c = core::Configuration::from_bits(s, n);
    return core::step_synchronous(a, c).to_bits();
  };
}

CodeStepFn sweep_code_step(const core::Automaton& a,
                           std::vector<core::NodeId> order) {
  const std::size_t n = a.size();
  return [&a, n, order = std::move(order)](StateCode s) {
    auto c = core::Configuration::from_bits(s, n);
    core::apply_sequence(a, c, order);
    return c.to_bits();
  };
}

}  // namespace tca::phasespace
