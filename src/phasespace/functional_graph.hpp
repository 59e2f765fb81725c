#pragma once
// Explicit phase spaces of deterministic CA (DESIGN.md S4).
//
// The paper's Section 2 views a CA as a discrete dynamical system whose
// phase space is the digraph on all 2^n global configurations with an edge
// x -> F(x). For a DETERMINISTIC update scheme (classical parallel CA, or a
// sequential CA with a fixed sweep order) every state has out-degree 1, so
// the phase space is a functional graph: disjoint cycles with trees hanging
// off them.
//
// Global configurations are encoded as uint64 state codes with bit i =
// cell i; explicit construction is limited to n <= 26 cells.
//
// One build engine: an automaton's successor table is always built by
// the sharded builder (phasespace/sharded_build.hpp).
//  * synchronous / sweep are its facades: flat table, one worker per
//    2^20 states (workers_for_states), unlimited control — they either
//    finish or throw;
//  * budgeted callers call build_synchronous_sharded /
//    build_sweep_sharded with a runtime::RunControl and get a
//    FunctionalGraphBuild back, which stops cleanly on budget exhaustion
//    or cancellation and says why; supervised callers call
//    supervised_synchronous_sharded.
// The FunctionalGraph(bits, step) constructor stays for arbitrary maps
// that are not automata (sds/word.cpp).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/automaton.hpp"
#include "core/batch_kernels.hpp"
#include "core/configuration.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/budget.hpp"
#include "runtime/supervisor.hpp"

namespace tca::phasespace {

// StateCode (encoded global configuration, bit i = cell i) now lives in
// successor_store.hpp, below this header.

/// Deterministic successor map over encoded states.
using CodeStepFn = std::function<StateCode(StateCode)>;

/// Hard cap on FLAT explicit enumeration (2^26 states x 8 bytes of
/// StateCode = 512 MiB). The disk cap, n=32, comes from
/// max_explicit_bits(StoreKind) in successor_store.hpp; this constant is
/// the kFlat instance, kept for the pre-store call sites.
inline constexpr std::uint32_t kMaxExplicitBits =
    max_explicit_bits(StoreKind::kFlat);

/// Worker threads for one multi-threaded pass over `count` states: one
/// per 2^20 states, capped at hardware_concurrency(), so up to 2^20
/// states run on the calling thread alone. classify and the service's
/// sharded builds both size their threads with it.
[[nodiscard]] unsigned workers_for_states(StateCode count);

/// ORs the successors succ(s), s in [first, last), into a shared image
/// bitmap (bit t set iff some s maps to t), one relaxed fetch_or per run
/// of successors sharing a word, skipped when the word already holds
/// them. classify's phase 1 and the table-free GoE census both fill
/// their bitmap with it, concurrently over disjoint source ranges: only
/// the bits are contended, and callers read the bitmap after a join
/// barrier.
template <class Succ>
void or_into_image(std::uint64_t* image, StateCode first, StateCode last,
                   const Succ& succ) {
  const auto flush = [image](std::uint64_t w, std::uint64_t mask) {
    std::atomic_ref<std::uint64_t> word(image[w]);
    if ((word.load(std::memory_order_relaxed) & mask) != mask) {
      word.fetch_or(mask, std::memory_order_relaxed);
    }
  };
  std::uint64_t run_word = 0;
  std::uint64_t run_mask = 0;
  for (StateCode s = first; s < last; ++s) {
    const StateCode t = succ(s);
    if ((t >> 6) != run_word && run_mask != 0) {
      flush(run_word, run_mask);
      run_mask = 0;
    }
    run_word = t >> 6;
    run_mask |= std::uint64_t{1} << (t & 63);
  }
  if (run_mask != 0) flush(run_word, run_mask);
}

struct FunctionalGraphBuild;

/// The full successor table of a deterministic map on n-bit states.
class FunctionalGraph {
 public:
  /// Builds succ[s] = step(s) for all s in [0, 2^bits).
  FunctionalGraph(std::uint32_t bits, const CodeStepFn& step);

  /// Wraps an externally computed successor table (size must be 2^bits).
  static FunctionalGraph from_table(std::uint32_t bits,
                                    std::vector<StateCode> succ);

  /// Wraps a completed SuccessorStore of any backend (the sharded /
  /// succinct / disk build surface, phasespace/sharded_build.hpp). The
  /// store must hold 2^bits() == num_entries() finalized successors;
  /// `bits` is validated against max_explicit_bits(store->kind()).
  static FunctionalGraph from_store(std::shared_ptr<SuccessorStore> store);

  /// Phase space of the classical parallel CA (synchronous global map F):
  /// the sharded builder on a flat table, workers_for_states(2^n) workers.
  static FunctionalGraph synchronous(const core::Automaton& a);

  /// Phase space of the SCA whose step is one full sweep of `order`, built
  /// the same way.
  static FunctionalGraph sweep(const core::Automaton& a,
                               std::vector<core::NodeId> order);

  [[nodiscard]] std::uint32_t bits() const noexcept { return bits_; }
  [[nodiscard]] StateCode num_states() const noexcept {
    return StateCode{1} << bits_;
  }
  /// Successor of s. Direct array indexing on the flat backend; a read of
  /// the disk store's mapping otherwise.
  [[nodiscard]] StateCode succ(StateCode s) const {
    return flat_ != nullptr ? flat_[s] : store_->get(s);
  }
  /// The storage backend (flat / disk) this graph reads from.
  [[nodiscard]] const SuccessorStore& store() const noexcept {
    return *store_;
  }
  /// The flat successor vector. Only the kFlat backend has one; throws
  /// tca::StateError otherwise — backend-generic consumers iterate via
  /// store().for_each_range() instead.
  [[nodiscard]] const std::vector<StateCode>& successors() const;

 private:
  FunctionalGraph() = default;  // for from_table / from_store

  std::uint32_t bits_ = 0;
  /// Shared, immutable-after-build storage: copying a FunctionalGraph
  /// shares the table instead of duplicating up to 512 MiB.
  std::shared_ptr<SuccessorStore> store_;
  /// Cached FlatStore table pointer so succ() stays one indexed load on
  /// the default backend.
  const StateCode* flat_ = nullptr;
};

/// Outcome of a budgeted phase-space build. `graph` is engaged iff the
/// build ran to completion; a truncated build reports counts only —
/// states_built is the number of states it stepped, and what the store
/// kept is ShardedBuild::stats.stored_states. Always well-formed —
/// budget exhaustion never throws.
struct FunctionalGraphBuild {
  std::optional<FunctionalGraph> graph;
  StateCode states_built = 0;
  runtime::RunStatus status;

  [[nodiscard]] bool complete() const noexcept { return graph.has_value(); }
  [[nodiscard]] bool truncated() const noexcept { return !complete(); }
};

/// Adapters from automata to encoded-state step functions.
[[nodiscard]] CodeStepFn synchronous_code_step(const core::Automaton& a);
[[nodiscard]] CodeStepFn sweep_code_step(const core::Automaton& a,
                                         std::vector<core::NodeId> order);

/// Amortized batch code stepping (docs/performance.md): fills successor
/// codes 64..512 lanes at a time through the bit-sliced engine at the
/// dispatched ISA tier (core/batch_kernels.hpp, core/batch_isa.hpp) when
/// the automaton is supported, and through the scalar from_bits / step /
/// to_bits path otherwise. The dispatch decision is made once at
/// construction; callers that enumerate full tables (phase-space builds,
/// the table-free Garden-of-Eden census, benches) construct one stepper per
/// thread and stream ranges through it. Results are bit-for-bit identical
/// across tiers and the scalar path.
class BatchCodeStepper {
 public:
  /// Synchronous mode: one parallel step per code.
  explicit BatchCodeStepper(const core::Automaton& a);

  /// Sweep mode: one full sequential sweep of `order` per code (the SCA
  /// phase-space map of FunctionalGraph::sweep).
  BatchCodeStepper(const core::Automaton& a, std::vector<core::NodeId> order);

  /// Forced-tier overloads (differential tests, the perf gates):
  /// bypass the TCA_BATCH_ISA dispatch and use exactly `isa`. Throw when
  /// the tier is unavailable on this host/build.
  BatchCodeStepper(const core::Automaton& a, core::BatchIsa isa);
  BatchCodeStepper(const core::Automaton& a, std::vector<core::NodeId> order,
                   core::BatchIsa isa);

  /// Degradation-ladder constructor (synchronous mode only): steps at
  /// exactly the requested rung. kWideSimd is the dispatched wide tier
  /// (scalar fallback when the automaton is unsupported — reason
  /// recorded), kBatch64 forces the always-available 64-lane bit-slice
  /// tier, and kScalar the generic reference stepper. All rungs are
  /// bit-for-bit identical; the lower ones trade speed for a smaller
  /// working set.
  BatchCodeStepper(const core::Automaton& a, runtime::EngineRung rung);

  /// succ[j] := F(first + j) for j in [0, count). `count` need not be a
  /// multiple of the tier width (ragged final batches are masked on
  /// store).
  void step_range(StateCode first, std::size_t count, StateCode* succ);

  /// False when the batch engine declined the automaton and every
  /// step_range runs scalar.
  [[nodiscard]] bool batched() const noexcept { return stepper_ != nullptr; }
  /// Stable reason string when !batched(), nullptr otherwise.
  [[nodiscard]] const char* fallback_reason() const noexcept {
    return reason_;
  }
  /// The ISA tier stepping runs at (kScalar covers both the 64-lane
  /// bit-slice tier and the non-batched scalar fallback).
  [[nodiscard]] core::BatchIsa isa() const noexcept {
    return stepper_ != nullptr ? stepper_->isa() : core::BatchIsa::kScalar;
  }
  /// The ladder rung this stepper was built for (kWideSimd unless the
  /// rung constructor was used).
  [[nodiscard]] runtime::EngineRung rung() const noexcept { return rung_; }

 private:
  /// Builds the wide stepper at `isa` (the dispatched tier when empty),
  /// or records why the batch engine declines the automaton.
  void init_batch(std::optional<core::BatchIsa> isa);

  const core::Automaton* a_;
  std::vector<core::NodeId> order_;
  bool sweep_mode_;
  std::unique_ptr<core::WideStepper> stepper_;
  const char* reason_ = nullptr;
  runtime::EngineRung rung_ = runtime::EngineRung::kWideSimd;
  core::Configuration front_;  // scalar fallback buffers
  core::Configuration back_;
};

/// Records a scalar fallback: bumps "engine.batch.fallback" and emits a
/// structured "engine.batch.fallback" warn event naming the context, the
/// reason, and the automaton — silent de-optimization shows up in run
/// manifests. Call once per build/census decision, not per step. No-op
/// when the stepper is batched.
void note_batch_fallback(const BatchCodeStepper& stepper,
                         const core::Automaton& a, const char* context);

}  // namespace tca::phasespace
