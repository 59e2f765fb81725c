#include "phasespace/functional_graph.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "core/synchronous_fast.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::phasespace {
namespace {

/// One batched publish per build (docs/observability.md).
void publish_build_tallies(std::uint64_t states_built) {
  static obs::Counter& builds = obs::counter("phasespace.build.runs");
  static obs::Counter& states = obs::counter("phasespace.build.states");
  builds.add();
  states.add(states_built);
}

/// Counter + structured event for every batch-engine decline
/// (docs/performance.md): silent de-optimization must show up in run
/// manifests.
void publish_batch_fallback(const core::Automaton& a, const char* reason,
                            const char* context) {
  static obs::Counter& fallbacks = obs::counter("engine.batch.fallback");
  fallbacks.add();
  obs::log_event(
      obs::LogLevel::kWarn, "engine.batch.fallback",
      {{"context", context},
       {"reason", reason != nullptr ? reason : "unknown"},
       {"rule", a.homogeneous() ? rules::describe(a.rule(0)) : "per-node"},
       {"cells", static_cast<std::uint64_t>(a.size())}});
}

/// The number of additional successor-table entries the control's budget
/// still admits (for reserving exactly the prefix a truncated build can
/// produce).
StateCode budget_capped_entries(const runtime::RunControl& control,
                                StateCode count) {
  const auto& budget = control.budget();
  const auto status = control.status();
  StateCode cap = count;
  if (budget.max_states != runtime::RunBudget::kUnlimited) {
    const std::uint64_t left =
        budget.max_states > status.states ? budget.max_states - status.states
                                          : 0;
    cap = std::min<StateCode>(cap, left);
  }
  if (budget.max_bytes != runtime::RunBudget::kUnlimited) {
    const std::uint64_t left =
        budget.max_bytes > status.bytes ? budget.max_bytes - status.bytes : 0;
    cap = std::min<StateCode>(cap, left / sizeof(StateCode));
  }
  return cap;
}

/// Serial budgeted build over an arbitrary code-step function. Charges one
/// state + 8 bytes per entry; on a stop, the computed prefix is returned.
FunctionalGraphBuild build_serial(std::uint32_t bits, const CodeStepFn& step,
                                  runtime::RunControl& control,
                                  const char* context) {
  TCA_SPAN("phase_space_build");
  tca::require_explicit_bits(bits, kMaxExplicitBits, context);
  const StateCode count = StateCode{1} << bits;
  FunctionalGraphBuild out;
  // Reserve only what the budget admits: a truncated build then fills its
  // prefix without doubling reallocations, and never pre-commits memory
  // the byte budget would refuse.
  const StateCode reserve = budget_capped_entries(control, count);
  runtime::fault::check_alloc(reserve * sizeof(StateCode));
  out.partial_succ.reserve(reserve);
  for (StateCode s = 0; s < count; ++s) {
    if (control.note_states() != runtime::StopReason::kNone ||
        control.note_bytes(sizeof(StateCode)) != runtime::StopReason::kNone) {
      out.states_built = s;
      out.status = control.status();
      publish_build_tallies(out.states_built);
      return out;
    }
    out.partial_succ.push_back(step(s));
  }
  out.states_built = count;
  out.status = control.status();
  out.graph = FunctionalGraph::from_table(bits, std::move(out.partial_succ));
  out.partial_succ.clear();
  publish_build_tallies(out.states_built);
  return out;
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
  publish_build_tallies(count);
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
  const StateCode count = StateCode{1} << bits;
  runtime::fault::check_alloc(count * sizeof(StateCode));
  BatchCodeStepper stepper(a);
  note_batch_fallback(stepper, a, "FunctionalGraph::synchronous");
  std::vector<StateCode> table(count);
  stepper.step_range(0, count, table.data());
  publish_build_tallies(count);
  return from_table(bits, std::move(table));
}

FunctionalGraph FunctionalGraph::synchronous_parallel(const core::Automaton& a,
                                                      core::ThreadPool& pool) {
  runtime::RunControl unlimited;
  auto build = build_synchronous_parallel(a, pool, unlimited);
  // Unlimited control: the build either completes or throws.
  return std::move(*build.graph);
}

FunctionalGraph FunctionalGraph::sweep(const core::Automaton& a,
                                       std::vector<core::NodeId> order) {
  TCA_SPAN("phase_space_build");
  const auto bits = static_cast<std::uint32_t>(a.size());
  tca::require_explicit_bits(bits, kMaxExplicitBits,
                             "FunctionalGraph::sweep");
  const StateCode count = StateCode{1} << bits;
  runtime::fault::check_alloc(count * sizeof(StateCode));
  BatchCodeStepper stepper(a, std::move(order));
  note_batch_fallback(stepper, a, "FunctionalGraph::sweep");
  std::vector<StateCode> table(count);
  stepper.step_range(0, count, table.data());
  publish_build_tallies(count);
  return from_table(bits, std::move(table));
}

FunctionalGraphBuild FunctionalGraph::build_synchronous(
    const core::Automaton& a, runtime::RunControl& control) {
  return build_serial(static_cast<std::uint32_t>(a.size()),
                      synchronous_code_step(a), control,
                      "FunctionalGraph::build_synchronous");
}

FunctionalGraphBuild FunctionalGraph::build_sweep(
    const core::Automaton& a, std::vector<core::NodeId> order,
    runtime::RunControl& control) {
  return build_serial(static_cast<std::uint32_t>(a.size()),
                      sweep_code_step(a, std::move(order)), control,
                      "FunctionalGraph::build_sweep");
}

FunctionalGraphBuild FunctionalGraph::build_synchronous_parallel(
    const core::Automaton& a, core::ThreadPool& pool,
    runtime::RunControl& control) {
  TCA_SPAN("phase_space_build");
  const auto bits = static_cast<std::uint32_t>(a.size());
  tca::require_explicit_bits(bits, kMaxExplicitBits,
                             "FunctionalGraph::build_synchronous_parallel");
  const StateCode count = StateCode{1} << bits;
  FunctionalGraphBuild out;

  // The parallel builder needs the whole table up front (chunks write into
  // disjoint slices); charge it before allocating.
  if (control.note_bytes(count * sizeof(StateCode)) !=
      runtime::StopReason::kNone) {
    out.status = control.status();
    return out;
  }
  runtime::fault::check_alloc(count * sizeof(StateCode));

  std::vector<StateCode> table(count);
  StateCode* data = table.data();
  runtime::RunControl* ctl = &control;
  // The batch decision is made once per build; workers then carry their
  // own stepper (plans + slices + fallback buffers are per-thread state).
  const auto support = core::batch_support(a);
  if (!support.ok) {
    publish_batch_fallback(a, support.reason,
                           "FunctionalGraph::build_synchronous_parallel");
  }
  // Each participant evaluates contiguous state ranges with its own
  // buffers: writes are disjoint, reads are to the shared immutable
  // automaton. The control is polled between chunks by the pool and every
  // 1024 states inside a chunk; each 1024-state block is 16 batch steps.
  //
  // Thread-safety discipline (docs/static-analysis.md): this builder owns
  // no lockable state, so there is nothing here for TCA_GUARDED_BY. The
  // invariants it relies on live elsewhere and ARE annotation-checked:
  // chunk handout and the join barrier in core::ThreadPool (its dispatch
  // state is TCA_GUARDED_BY its mutex), and cooperative stop via
  // RunControl's atomics. `data` stays race-free because parallel_for
  // hands out non-overlapping [begin, end) ranges — the chunk cursor
  // enforcing that is the pool's, not ours.
  const auto reason = pool.parallel_for(
      0, table.size(), /*align=*/1024,
      [&a, data, ctl](std::size_t begin, std::size_t end) {
        BatchCodeStepper stepper(a);
        for (std::size_t s = begin; s < end;) {
          const auto block = std::min<std::size_t>(1024, end - s);
          if (ctl->note_states(block) != runtime::StopReason::kNone) {
            return;  // abandon the rest of this chunk
          }
          stepper.step_range(s, block, data + s);
          s += block;
        }
      },
      &control);
  out.status = control.status();
  if (reason != runtime::StopReason::kNone || out.status.truncated()) {
    // Truncated parallel builds have holes (chunks are interleaved), so no
    // partial table is exposed — only the visit count.
    out.states_built = out.status.states;
    publish_build_tallies(out.states_built);
    return out;
  }
  out.states_built = count;
  out.graph = from_table(bits, std::move(table));
  publish_build_tallies(out.states_built);
  return out;
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a)
    : a_(&a), sweep_mode_(false), front_(a.size()), back_(a.size()) {
  const auto support = core::batch_support(a);
  if (support.ok) {
    stepper_ = core::make_wide_stepper(a);
  } else {
    reason_ = support.reason;
  }
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   std::vector<core::NodeId> order)
    : a_(&a),
      order_(std::move(order)),
      sweep_mode_(true),
      front_(a.size()),
      back_(a.size()) {
  const auto support = core::batch_support(a);
  if (support.ok) {
    stepper_ = core::make_wide_stepper(a);
  } else {
    reason_ = support.reason;
  }
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   core::BatchIsa isa)
    : a_(&a), sweep_mode_(false), front_(a.size()), back_(a.size()) {
  const auto support = core::batch_support(a);
  if (support.ok) {
    stepper_ = core::make_wide_stepper(a, isa);
  } else {
    reason_ = support.reason;
  }
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   std::vector<core::NodeId> order,
                                   core::BatchIsa isa)
    : a_(&a),
      order_(std::move(order)),
      sweep_mode_(true),
      front_(a.size()),
      back_(a.size()) {
  const auto support = core::batch_support(a);
  if (support.ok) {
    stepper_ = core::make_wide_stepper(a, isa);
  } else {
    reason_ = support.reason;
  }
}

BatchCodeStepper::BatchCodeStepper(const core::Automaton& a,
                                   runtime::EngineRung rung)
    : a_(&a),
      sweep_mode_(false),
      rung_(rung),
      front_(a.size()),
      back_(a.size()) {
  switch (rung) {
    case runtime::EngineRung::kWideSimd: {
      const auto support = core::batch_support(a);
      if (support.ok) {
        stepper_ = core::make_wide_stepper(a);
      } else {
        reason_ = support.reason;
      }
      break;
    }
    case runtime::EngineRung::kBatch64: {
      const auto support = core::batch_support(a);
      if (support.ok) {
        // The 64-lane bit-slice tier is compiled unconditionally, so
        // forcing kScalar never throws for a supported automaton.
        stepper_ = core::make_wide_stepper(a, core::BatchIsa::kScalar);
      } else {
        reason_ = support.reason;
      }
      break;
    }
    case runtime::EngineRung::kPacked:
      fast_scalar_ = true;
      break;
    case runtime::EngineRung::kScalar:
      break;
  }
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
  // Scalar fallback: identical to the per-code adapters below. The
  // kPacked rung takes the monomorphized kernel; results are bit-for-bit
  // the same either way.
  for (std::size_t j = 0; j < count; ++j) {
    front_ = core::Configuration::from_bits(first + j, n);
    if (sweep_mode_) {
      core::apply_sequence(*a_, front_, order_);
      succ[j] = front_.to_bits();
    } else if (fast_scalar_) {
      core::step_synchronous_fast(*a_, front_, back_);
      succ[j] = back_.to_bits();
    } else {
      core::step_synchronous(*a_, front_, back_);
      succ[j] = back_.to_bits();
    }
  }
}

void note_batch_fallback(const BatchCodeStepper& stepper,
                         const core::Automaton& a, const char* context) {
  if (stepper.batched()) return;
  publish_batch_fallback(a, stepper.fallback_reason(), context);
}

void batch_code_step(const core::Automaton& a, StateCode first,
                     std::size_t count, StateCode* succ) {
  BatchCodeStepper stepper(a);
  note_batch_fallback(stepper, a, "batch_code_step");
  stepper.step_range(first, count, succ);
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
