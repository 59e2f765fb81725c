#include "testing/oracles.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "aca/aca.hpp"
#include "aca/explorer.hpp"
#include "analysis/energy.hpp"
#include "core/batch_isa.hpp"
#include "core/batch_kernels.hpp"
#include "core/block_sequential.hpp"
#include "core/schedule.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "core/synchronous_fast.hpp"
#include "graph/builders.hpp"
#include "graph/properties.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/budget.hpp"
#include "runtime/fault.hpp"
#include "runtime/supervisor.hpp"
#include "service/handler.hpp"
#include "service/json_parse.hpp"
#include "service/query.hpp"

namespace tca::testing {
namespace {

using core::Automaton;
using core::Configuration;

/// Largest n whose phase space (2^n states) we enumerate explicitly.
constexpr std::uint32_t kExplicitBits = 12;

PropertyResult check_engines_agree(const TestCase& tc) {
  const auto a = tc.automaton();
  Configuration current = tc.configuration();
  Configuration generic(a.size()), fast(a.size());
  for (std::uint32_t t = 0; t < tc.steps; ++t) {
    core::step_synchronous(a, current, generic);
    core::step_synchronous_fast(a, current, fast);
    if (fast != generic) {
      return PropertyResult::fail(
          "step_synchronous_fast diverges from step_synchronous at step " +
          std::to_string(t) + ": " + fast.to_string() + " vs " +
          generic.to_string());
    }
    Configuration block = current;
    core::step_block_sequential(a, block,
                                core::BlockOrder::synchronous(a.size()));
    if (block != generic) {
      return PropertyResult::fail(
          "trivial-block block_sequential diverges from step_synchronous at "
          "step " + std::to_string(t) + ": " + block.to_string() + " vs " +
          generic.to_string());
    }
    current = generic;
  }
  return PropertyResult::pass();
}

PropertyResult check_sweep_consistency(const TestCase& tc) {
  const auto a = tc.automaton();
  std::mt19937_64 rng(tc.seed ^ 0x5eedf00dull);
  const auto order = core::random_permutation(a.size(), rng);

  Configuration via_sequence = tc.configuration();
  core::apply_sequence(a, via_sequence, order);

  Configuration via_blocks = tc.configuration();
  core::step_block_sequential(a, via_blocks,
                              core::BlockOrder::sequential(order));

  Configuration via_updates = tc.configuration();
  for (const auto v : order) core::update_node(a, via_updates, v);

  if (via_sequence != via_blocks) {
    return PropertyResult::fail(
        "apply_sequence vs singleton-block block_sequential: " +
        via_sequence.to_string() + " vs " + via_blocks.to_string());
  }
  if (via_sequence != via_updates) {
    return PropertyResult::fail("apply_sequence vs update_node chain: " +
                                via_sequence.to_string() + " vs " +
                                via_updates.to_string());
  }
  return PropertyResult::pass();
}

PropertyResult check_sca_no_cycle(const TestCase& tc) {
  if (!tc.rule.monotone_symmetric()) return PropertyResult::pass();
  const auto a = tc.automaton();
  std::mt19937_64 rng(tc.seed ^ 0xc0ffeeull);

  // Certificate 1 (exhaustive, n small): the one-sweep phase space of ANY
  // fixed permutation has no proper cycle — Theorem 1 over all 2^n starts.
  if (tc.n <= kExplicitBits) {
    const auto order = core::random_permutation(a.size(), rng);
    const auto cls = phasespace::classify(
        phasespace::FunctionalGraph::sweep(a, order));
    if (cls.max_period() > 1) {
      return PropertyResult::fail(
          "sequential sweep phase space has a proper cycle of period " +
          std::to_string(cls.max_period()));
    }
  }

  // Certificate 2 (trajectory): a bounded-fair random schedule converges
  // from the case's start configuration. A schedule needs a node to draw;
  // the empty automaton's one configuration is already a fixed point.
  if (a.size() == 0) return PropertyResult::pass();
  Configuration c = tc.configuration();
  core::RandomSweepSchedule schedule(a.size(), rng());
  if (!core::run_schedule_to_fixed_point(a, c, schedule, 100000).has_value()) {
    return PropertyResult::fail(
        "bounded-fair random schedule failed to reach a fixed point within "
        "100000 updates");
  }
  return PropertyResult::pass();
}

PropertyResult check_energy_descent(const TestCase& tc) {
  if (tc.rule.kind != RuleSpec::Kind::kKOfN) return PropertyResult::pass();
  const auto net = analysis::ThresholdNetwork::homogeneous(
      tc.space(), tc.rule.k, tc.memory == core::Memory::kWith);
  const auto a = net.automaton();
  if (a.size() == 0) return PropertyResult::pass();  // no node to update
  auto c = tc.configuration();
  std::mt19937_64 rng(tc.seed ^ 0xe4e26eull);
  for (std::uint32_t step = 0; step < 64; ++step) {
    const auto before = analysis::sequential_energy(net, c);
    const auto v = static_cast<core::NodeId>(rng() % a.size());
    if (core::update_node(a, c, v)) {
      const auto after = analysis::sequential_energy(net, c);
      if (after > before - 1) {
        return PropertyResult::fail(
            "changing update of node " + std::to_string(v) +
            " moved the Goles-Martinez energy from " +
            std::to_string(before) + " to " + std::to_string(after) +
            " (must drop by >= 1)");
      }
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_parallel_period(const TestCase& tc) {
  if (!tc.rule.monotone_symmetric() || tc.n > kExplicitBits) {
    return PropertyResult::pass();
  }
  const auto a = tc.automaton();
  const auto cls =
      phasespace::classify(phasespace::FunctionalGraph::synchronous(a));
  if (cls.max_period() > 2) {
    return PropertyResult::fail(
        "parallel threshold CA has an attractor of period " +
        std::to_string(cls.max_period()) + " (Proposition 1 bound is 2)");
  }
  return PropertyResult::pass();
}

PropertyResult check_bipartite_two_cycle(const TestCase& tc) {
  // Envelope: memoryless k-of-n with k <= min degree on a bipartite
  // substrate with both sides populated.
  if (tc.memory != core::Memory::kWithout ||
      tc.rule.kind != RuleSpec::Kind::kKOfN || tc.n == 0) {
    return PropertyResult::pass();
  }
  const auto g = tc.space();
  const auto coloring = graph::bipartition(g);
  if (!coloring.has_value()) return PropertyResult::pass();
  graph::NodeId min_deg = g.degree(0);
  for (graph::NodeId v = 1; v < tc.n; ++v) {
    min_deg = std::min(min_deg, g.degree(v));
  }
  if (min_deg < 1 || tc.rule.k > min_deg) return PropertyResult::pass();

  const auto a = tc.automaton();
  Configuration side0(tc.n), side1(tc.n);
  for (graph::NodeId v = 0; v < tc.n; ++v) {
    side0.set(v, (*coloring)[v] == 0 ? 1 : 0);
    side1.set(v, (*coloring)[v] == 1 ? 1 : 0);
  }
  if (side0 == side1) return PropertyResult::pass();  // one side empty

  const auto after_one = core::step_synchronous(a, side0);
  if (after_one != side1) {
    return PropertyResult::fail(
        "one parallel step from the side-0 indicator gave " +
        after_one.to_string() + ", expected the side-1 indicator " +
        side1.to_string());
  }
  const auto after_two = core::step_synchronous(a, after_one);
  if (after_two != side0) {
    return PropertyResult::fail(
        "bipartition indicator is not on a two-cycle: step^2 gave " +
        after_two.to_string() + ", expected " + side0.to_string());
  }
  return PropertyResult::pass();
}

PropertyResult check_aca_subsumption(const TestCase& tc) {
  const auto a = tc.automaton();
  // AcaSystem needs node states + channels to fit one 64-bit word; one
  // channel per non-self input slot = 2 * num_edges.
  const std::size_t state_bits = tc.n + 2 * tc.edges.size();
  if (tc.n == 0 || tc.n > 16 || state_bits > 63) return PropertyResult::pass();
  const aca::AcaSystem sys(a);

  const auto start = tc.configuration();
  const auto x0 = start.to_bits();

  // Classical parallel step == all-delivers-then-all-computes macro step.
  aca::AcaState s = sys.initial(x0);
  s = sys.synchronous_macro_step(s);
  const auto parallel = core::step_synchronous(a, start);
  if (sys.config_of(s) != parallel.to_bits()) {
    return PropertyResult::fail(
        "ACA synchronous macro step projects to " +
        std::to_string(sys.config_of(s)) + ", classical parallel step gives " +
        std::to_string(parallel.to_bits()));
  }

  // SCA chain == deliver-then-compute macro updates, node by node.
  std::mt19937_64 rng(tc.seed ^ 0xacaacaull);
  const auto order = core::random_permutation(a.size(), rng);
  aca::AcaState t = sys.initial(x0);
  Configuration sca = start;
  for (const auto v : order) {
    t = sys.sequential_macro_update(t, v);
    core::update_node(a, sca, v);
    if (sys.config_of(t) != sca.to_bits()) {
      return PropertyResult::fail(
          "ACA sequential macro updates diverge from the SCA chain after "
          "node " + std::to_string(v));
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_reach_subsumption(const TestCase& tc) {
  // Full reach-set exploration is exponential in global-state bits, so
  // only tiny systems qualify; everything else passes vacuously.
  const std::size_t state_bits = tc.n + 2 * tc.edges.size();
  if (tc.n == 0 || tc.n > 8 || state_bits > 63) return PropertyResult::pass();
  const auto a = tc.automaton();

  // Bounded exploration: on truncation the verdict's containment flags are
  // meaningless, so the oracle SKIPS (vacuous pass) rather than fails —
  // budget exhaustion is not a counterexample.
  runtime::RunBudget budget;
  budget.max_states = std::uint64_t{1} << 16;
  runtime::RunControl control(budget);
  const auto verdict =
      aca::compare_reach_sets(a, tc.configuration().to_bits(), control);
  if (verdict.truncated) return PropertyResult::pass();

  if (!verdict.contains_synchronous) {
    return PropertyResult::fail(
        "reach(CA) not contained in reach(ACA): |CA|=" +
        std::to_string(verdict.sync_total) + ", |ACA|=" +
        std::to_string(verdict.aca_total));
  }
  if (!verdict.contains_sequential) {
    return PropertyResult::fail(
        "reach(SCA) not contained in reach(ACA): |SCA|=" +
        std::to_string(verdict.seq_total) + ", |ACA|=" +
        std::to_string(verdict.aca_total));
  }
  return PropertyResult::pass();
}

PropertyResult check_budget_truncation(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();
  const auto a = tc.automaton();
  const auto full = phasespace::FunctionalGraph::synchronous(a);
  const std::uint64_t count = full.num_states();
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tca-trunc-oracle-" + std::to_string(::getpid()) + "-" +
       std::to_string(tc.seed) + "-" + std::to_string(tc.n));
  std::error_code ec;
  fs::remove_all(dir, ec);

  // A state budget of half the space must stop a disk build with
  // max-states, holding only whole shards and never more states than
  // the budget admitted.
  const std::uint64_t cap = count / 2;
  phasespace::ShardedBuildOptions options;
  options.store = phasespace::StoreKind::kDisk;
  options.disk_dir = dir.string();
  options.shard_states = phasespace::kPutAlign;
  options.workers = 1 + static_cast<unsigned>(tc.seed % 3);
  runtime::RunBudget budget;
  budget.max_states = cap;
  runtime::RunControl control(budget);
  auto cut = phasespace::build_synchronous_sharded(a, options, control);
  const std::uint64_t stored = cut.stats.stored_states;
  const auto verdict = [&]() -> PropertyResult {
    if (cut.complete() ||
        cut.build.status.stop_reason != runtime::StopReason::kMaxStates) {
      return PropertyResult::fail(
          "budget of " + std::to_string(cap) + "/" + std::to_string(count) +
          " states did not stop the build with max-states (got " +
          runtime::stop_reason_name(cut.build.status.stop_reason) + ")");
    }
    if (stored % phasespace::kPutAlign != 0 ||
        stored > cut.build.states_built || cut.build.states_built > cap) {
      return PropertyResult::fail(
          "truncated build stored " + std::to_string(stored) +
          " states and stepped " + std::to_string(cut.build.states_built) +
          "; want whole shards <= stepped <= the budget of " +
          std::to_string(cap));
    }
    // Resumed unbudgeted, the build skips exactly the stored shards and
    // ends bit-identical to the reference.
    cut.store.reset();  // close the partial store before reopening it
    options.resume = true;
    runtime::RunControl unlimited;
    const auto resumed =
        phasespace::build_synchronous_sharded(a, options, unlimited);
    if (!resumed.complete() || resumed.stats.resumed_states != stored) {
      return PropertyResult::fail(
          "resume after the cut resumed " +
          std::to_string(resumed.stats.resumed_states) + " states; the cut "
          "stored " + std::to_string(stored));
    }
    for (std::uint64_t s = 0; s < count; ++s) {
      if (resumed.build.graph->succ(s) != full.succ(s)) {
        return PropertyResult::fail(
            "resumed table diverges from the full table at state " +
            std::to_string(s));
      }
    }
    return PropertyResult::pass();
  }();
  fs::remove_all(dir, ec);
  return verdict;
}

PropertyResult check_batch_isa_agree(const TestCase& tc) {
  const auto a = tc.automaton();
  // Automata the batch engine declines are covered by the scalar-fallback
  // tests; the cross-ISA property is vacuous for them.
  if (!core::batch_support(a).ok || tc.n == 0) return PropertyResult::pass();

  // Lanes: the case's start configuration plus random perturbations —
  // enough to fill the widest tier's ragged top block.
  std::mt19937_64 rng(tc.seed ^ 0x51caull);
  std::vector<Configuration> in;
  in.push_back(tc.configuration());
  while (in.size() < 8 * 64 - 5) {
    Configuration c(tc.n);
    for (std::size_t i = 0; i < tc.n; ++i) {
      c.set(i, static_cast<core::State>(rng() & 1u));
    }
    in.push_back(c);
  }

  // Reference: the 64-lane scalar bit-slice engine.
  std::vector<Configuration> want(in.size(), Configuration(tc.n));
  {
    core::BatchStepper ref(a);
    core::BatchSlice src(tc.n);
    core::BatchSlice dst(tc.n);
    for (std::size_t done = 0; done < in.size(); done += 64) {
      const std::size_t take = std::min<std::size_t>(64, in.size() - done);
      src.load_configurations(
          std::span<const Configuration>(in.data() + done, take));
      ref.step(src, dst);
      dst.store_configurations(
          std::span<Configuration>(want.data() + done, take));
    }
  }

  for (unsigned i = 0; i < core::kNumBatchIsa; ++i) {
    const auto isa = static_cast<core::BatchIsa>(i);
    if (!core::isa_available(isa)) continue;
    const auto stepper = core::make_wide_stepper(a, isa);
    const unsigned w = stepper->lane_words();
    core::BatchSlice src(tc.n, w);
    core::BatchSlice dst(tc.n, w);
    std::vector<Configuration> got(in.size(), Configuration(tc.n));
    for (std::size_t done = 0; done < in.size(); done += 64 * w) {
      const std::size_t take =
          std::min<std::size_t>(64 * w, in.size() - done);
      src.load_configurations(
          std::span<const Configuration>(in.data() + done, take));
      stepper->step(src, dst);
      dst.store_configurations(
          std::span<Configuration>(got.data() + done, take));
    }
    for (std::size_t j = 0; j < in.size(); ++j) {
      if (got[j] != want[j]) {
        return PropertyResult::fail(
            "ISA tier " + std::string(core::isa_name(isa)) +
            " diverges from the 64-lane bit-slice engine at lane " +
            std::to_string(j) + ": " + got[j].to_string() + " vs " +
            want[j].to_string());
      }
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_supervised_equivalence(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();
  const auto a = tc.automaton();
  const auto reference = phasespace::FunctionalGraph::synchronous(a);

  // Supervised sharded build under one injected transient failure,
  // starting at a seed-rotated ladder rung with a seed-rotated worker
  // count: the supervisor must absorb the fault in exactly one retry and
  // the result must be bit-identical to the fault-free baseline — a
  // degraded/retried result IS the result.
  runtime::SupervisorOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::milliseconds{1};
  options.retry.seed = tc.seed;
  options.apply_backoff = false;  // record delays, never sleep in PBT
  options.start_rung =
      static_cast<runtime::EngineRung>(tc.seed % runtime::kEngineRungCount);
  phasespace::ShardedBuildOptions build;
  build.workers = 1 + static_cast<unsigned>((tc.seed >> 2) % 3);

  runtime::ScopedFaultPlan plan({.retry_transient_at = 1});
  const auto out = phasespace::supervised_synchronous_sharded(a, build, options);
  if (out.report.state != runtime::SupervisedState::kCompleted) {
    return PropertyResult::fail(
        "supervised build under one injected transient ended " +
        std::string(runtime::supervised_state_name(out.report.state)) +
        " (last error: " + out.report.last_error_what + ")");
  }
  if (out.report.attempts != 2) {
    return PropertyResult::fail(
        "expected exactly 2 attempts (1 injected failure + 1 success), got " +
        std::to_string(out.report.attempts));
  }
  if (!out.build.complete() ||
      out.build.build.graph->successors() != reference.successors()) {
    return PropertyResult::fail(
        "supervised successor table diverges from the fault-free baseline "
        "(start rung " +
        std::string(runtime::rung_name(options.start_rung)) + ")");
  }
  return PropertyResult::pass();
}

PropertyResult check_service_vs_library(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();

  // The service speaks circulant ring/line topologies, not arbitrary edge
  // lists, so the case's substrate is ignored; n, the rule, and the seed
  // drive coverage over query kind, topology, radius, and scheme instead.
  const std::uint64_t s = tc.seed;
  const std::uint32_t radius = 1 + static_cast<std::uint32_t>(s % 3);
  const bool ring = tc.n >= 2 * radius + 1 && ((s >> 2) & 1) == 0;
  const auto kind = static_cast<service::QueryKind>((s >> 3) % 4);
  const bool sweep = ((s >> 5) & 1) == 1;
  const std::uint32_t arity = 2 * radius + 1;
  const std::uint64_t num_states = std::uint64_t{1} << tc.n;

  std::string rule_json;
  switch (tc.rule.kind) {
    case RuleSpec::Kind::kMajority:
      rule_json = "\"majority\"";
      break;
    case RuleSpec::Kind::kMajorityTieOne:
      rule_json = "\"majority1\"";
      break;
    case RuleSpec::Kind::kParity:
      rule_json = "\"parity\"";
      break;
    case RuleSpec::Kind::kKOfN:
      rule_json = "{\"type\":\"kofn\",\"k\":" +
                  std::to_string(std::min<std::uint32_t>(tc.rule.k, 64)) + "}";
      break;
    case RuleSpec::Kind::kSymmetric:
      rule_json = "{\"type\":\"symmetric\",\"mask\":" +
                  std::to_string(tc.rule.bits &
                                 service::ServiceQuery::mask_bits(arity)) +
                  "}";
      break;
  }

  std::ostringstream qjson;
  qjson << "{\"kind\":\"" << service::query_kind_name(kind) << "\""
        << ",\"n\":" << tc.n << ",\"radius\":" << radius << ",\"topology\":\""
        << (ring ? "ring" : "line") << "\",\"rule\":" << rule_json;
  if (sweep) {
    // Rotate-by-one sweep order: a valid non-identity permutation for
    // n >= 2 (for n == 1 it IS the identity, which the service requires
    // to be spelled as an omitted order).
    qjson << ",\"scheme\":\"sweep\"";
    if (tc.n >= 2) {
      qjson << ",\"order\":[";
      for (std::uint32_t i = 0; i < tc.n; ++i) {
        qjson << (i ? "," : "") << (i + 1) % tc.n;
      }
      qjson << "]";
    }
  }
  if (kind == service::QueryKind::kPreimageCount) {
    qjson << ",\"target\":" << (tc.config_bits & (num_states - 1));
  }
  qjson << "}";

  const service::ServiceQuery query =
      service::ServiceQuery::from_json(service::parse_json(qjson.str()));

  // The library side: the raw phase-space primitives, none of the service
  // stack (no engine, no cache, no JSON round trip).
  const Automaton a = query.automaton();
  const phasespace::FunctionalGraph fg =
      sweep ? phasespace::FunctionalGraph::sweep(a, query.effective_order())
            : phasespace::FunctionalGraph::synchronous(a);

  // The service side: a full in-process handler, twice — the second
  // response must come from the cache and be byte-identical.
  service::RequestHandler handler{service::HandlerOptions{}};
  const std::string request =
      "{\"op\":\"query\",\"id\":1,\"query\":" + qjson.str() + "}";
  const std::string first = handler.handle(request);
  const std::string second = handler.handle(request);

  const service::JsonValue v1 = service::parse_json(first);
  if (v1.string_or("status", "") != "ok") {
    return PropertyResult::fail("service rejected " + qjson.str() + ": " +
                                first);
  }
  if (v1.string_or("source", "") != "computed") {
    return PropertyResult::fail("first response not computed: " + first);
  }
  const service::JsonValue v2 = service::parse_json(second);
  if (v2.string_or("source", "") != "memory-cache") {
    return PropertyResult::fail("second response not a cache hit: " + second);
  }
  const auto result_of = [](const std::string& response) {
    const std::size_t pos = response.find("\"result\":");
    return pos == std::string::npos
               ? std::string()
               : response.substr(pos + 9, response.size() - pos - 10);
  };
  if (result_of(first) != result_of(second)) {
    return PropertyResult::fail(
        "cached result is not byte-identical to the computed one");
  }

  const service::JsonValue* result = v1.find("result");
  if (result == nullptr) return PropertyResult::fail("response lacks result");
  const auto expect = [&](const char* field,
                          std::uint64_t want) -> PropertyResult {
    const std::uint64_t got = result->u64_or(field, ~std::uint64_t{0});
    if (got != want) {
      return PropertyResult::fail(std::string(field) + ": service says " +
                                  std::to_string(got) + ", library says " +
                                  std::to_string(want) + " for " +
                                  qjson.str());
    }
    return PropertyResult::pass();
  };

  switch (kind) {
    case service::QueryKind::kAttractorSummary: {
      const phasespace::Classification c = phasespace::classify(fg);
      for (const PropertyResult& r : {
               expect("num_states", fg.num_states()),
               expect("num_attractors", c.attractors.size()),
               expect("num_fixed_points", c.num_fixed_points),
               expect("num_cycle_states", c.num_cycle_states),
               expect("num_transient_states", c.num_transient_states),
               expect("num_gardens_of_eden", c.num_gardens_of_eden),
               expect("max_period", c.max_period()),
               expect("max_transient", c.max_transient),
           }) {
        if (!r.ok) return r;
      }
      break;
    }
    case service::QueryKind::kTransientDepth: {
      const phasespace::Classification c = phasespace::classify(fg);
      for (const PropertyResult& r : {
               expect("max_transient", c.max_transient),
               expect("num_transient_states", c.num_transient_states),
           }) {
        if (!r.ok) return r;
      }
      break;
    }
    case service::QueryKind::kGoeCensus: {
      const phasespace::Classification c = phasespace::classify(fg);
      for (const PropertyResult& r : {
               expect("gardens", c.num_gardens_of_eden),
               expect("scanned", fg.num_states()),
           }) {
        if (!r.ok) return r;
      }
      break;
    }
    case service::QueryKind::kPreimageCount: {
      // Explicit enumeration as the reference — for synchronous rings this
      // cross-validates the service's O(n) transfer-matrix path against
      // brute force.
      std::uint64_t count = 0;
      for (const phasespace::StateCode succ : fg.successors()) {
        count += succ == query.target ? 1 : 0;
      }
      return expect("preimage_count", count);
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_store_backend_agree(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();
  const auto a = tc.automaton();

  // Reference: the serial flat build and its classification.
  const auto reference = phasespace::FunctionalGraph::synchronous(a);
  const phasespace::Classification want = phasespace::classify(reference);

  // Seed-rotated build shape so the sweep covers worker counts, shard
  // sizes (ragged ones on the flat backend; disk rounds them up to
  // kPutAlign), and ladder rungs.
  phasespace::ShardedBuildOptions options;
  options.workers = 1 + static_cast<unsigned>(tc.seed % 3);
  options.shard_states = 1 + (tc.seed >> 2) % 130;
  options.rung =
      static_cast<runtime::EngineRung>(tc.seed % runtime::kEngineRungCount);

  // Every Garden-of-Eden census must count what classify counts.
  runtime::RunControl unlimited;
  const auto goe_differs = [&](const phasespace::GoeCensus& got) {
    return got.truncated || got.gardens != want.num_gardens_of_eden;
  };

  // `resumed`, when set, makes the build a resume that must skip exactly
  // that many already-stored states.
  const auto check_backend =
      [&](phasespace::StoreKind kind, const std::string& disk_dir,
          std::optional<std::uint64_t> resumed) -> PropertyResult {
    phasespace::ShardedBuildOptions opt = options;
    opt.store = kind;
    opt.disk_dir = disk_dir;
    opt.resume = resumed.has_value();
    runtime::RunControl control{runtime::RunBudget{}};
    const phasespace::ShardedBuild out =
        phasespace::build_synchronous_sharded(a, opt, control);
    if (!out.complete() || out.store == nullptr) {
      return PropertyResult::fail(
          std::string("unbudgeted sharded build on the ") +
          phasespace::store_kind_name(kind) + " backend did not complete");
    }
    if (resumed && out.stats.resumed_states != *resumed) {
      return PropertyResult::fail(
          "resumed disk build skipped " +
          std::to_string(out.stats.resumed_states) +
          " states, but the truncated build stored " +
          std::to_string(*resumed));
    }
    // Successor tables must be bit-identical entry by entry...
    PropertyResult verdict = PropertyResult::pass();
    out.store->for_each_range([&](phasespace::StateCode first, std::size_t n,
                                  const phasespace::StateCode* block) {
      for (std::size_t i = 0; i < n; ++i) {
        if (verdict.ok && block[i] != reference.succ(first + i)) {
          verdict = PropertyResult::fail(
              std::string(phasespace::store_kind_name(kind)) +
              " backend diverges from the flat serial table at state " +
              std::to_string(first + i) + ": " + std::to_string(block[i]) +
              " vs " + std::to_string(reference.succ(first + i)));
        }
      }
    });
    if (!verdict.ok) return verdict;
    // ... and so must the classify summary derived THROUGH the backend,
    // and the GoE census streamed back out of it.
    const phasespace::Classification got =
        phasespace::classify(*out.build.graph);
    if (got.num_fixed_points != want.num_fixed_points ||
        got.num_cycle_states != want.num_cycle_states ||
        got.num_transient_states != want.num_transient_states ||
        got.num_gardens_of_eden != want.num_gardens_of_eden ||
        got.max_period() != want.max_period() ||
        got.max_transient != want.max_transient ||
        got.attractors.size() != want.attractors.size() ||
        goe_differs(phasespace::count_gardens_of_eden(*out.store, unlimited))) {
      return PropertyResult::fail(
          std::string(phasespace::store_kind_name(kind)) +
          " backend classify summary or GoE census diverges from the flat one");
    }
    return PropertyResult::pass();
  };

  if (const PropertyResult r =
          check_backend(phasespace::StoreKind::kFlat, "", std::nullopt);
      !r.ok) {
    return r;
  }
  // The disk backend twice: a fresh build, then a build whose budget
  // trips halfway, resumed in the same directory.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tca-store-oracle-" + std::to_string(::getpid()) + "-" +
       std::to_string(tc.seed) + "-" + std::to_string(tc.n));
  std::error_code ec;
  fs::remove_all(dir, ec);
  PropertyResult r =
      check_backend(phasespace::StoreKind::kDisk, dir.string(), std::nullopt);
  fs::remove_all(dir, ec);
  if (!r.ok) return r;
  std::uint64_t stored = 0;
  {
    phasespace::ShardedBuildOptions opt = options;
    opt.store = phasespace::StoreKind::kDisk;
    opt.disk_dir = dir.string();
    runtime::RunBudget half_budget;
    half_budget.max_states = reference.num_states() / 2;
    runtime::RunControl half(half_budget);
    const phasespace::ShardedBuild cut =
        phasespace::build_synchronous_sharded(a, opt, half);
    if (cut.complete() || cut.store == nullptr) {
      fs::remove_all(dir, ec);
      return PropertyResult::fail(
          "a disk build on half the states' budget did not stop partway "
          "with its partial store");
    }
    stored = cut.stats.stored_states;
  }
  r = check_backend(phasespace::StoreKind::kDisk, dir.string(), stored);
  fs::remove_all(dir, ec);
  if (!r.ok) return r;

  // The table-free census at the same rung, workers and shard size...
  if (goe_differs(phasespace::count_gardens_of_eden(a, std::nullopt, options,
                                                    unlimited))) {
    return PropertyResult::fail(
        "the table-free GoE census diverges from classify's " +
        std::to_string(want.num_gardens_of_eden));
  }
  // ... and, when the substrate is a radius-r ring graph::ring(n, r) with
  // r <= 3, the independent transfer-matrix census.
  const std::uint32_t self = tc.memory == core::Memory::kWith ? 1u : 0u;
  for (std::uint32_t radius = 1; radius <= 3; ++radius) {
    if (tc.n < 2 * radius + 1 ||
        graph::ring(tc.n, radius).edges() != tc.space().edges()) {
      continue;
    }
    const phasespace::RingPreimageSolver solver(
        tc.rule.materialize(2 * radius + self), radius, tc.memory);
    if (phasespace::count_gardens_of_eden_ring(solver, tc.n) !=
        want.num_gardens_of_eden) {
      return PropertyResult::fail(
          "the radius-" + std::to_string(radius) +
          " transfer-matrix GoE census diverges from classify's " +
          std::to_string(want.num_gardens_of_eden));
    }
  }
  return PropertyResult::pass();
}

std::vector<Oracle> build_registry() {
  std::vector<Oracle> r;
  CaseOptions any;

  r.push_back({"engines-agree", "EnginesAgree", any, check_engines_agree});
  r.push_back({"sweep-consistency", "SweepConsistency", any,
               check_sweep_consistency});

  CaseOptions monotone;
  monotone.rules = CaseOptions::RuleClass::kMonotoneSymmetric;
  r.push_back({"sca-no-cycle", "ScaNoCycle", monotone, check_sca_no_cycle});
  r.push_back({"parallel-period-two", "ParallelPeriodAtMostTwo", monotone,
               check_parallel_period});

  CaseOptions threshold;
  threshold.rules = CaseOptions::RuleClass::kThreshold;
  r.push_back({"energy-descent", "EnergyDescent", threshold,
               check_energy_descent});

  CaseOptions bipartite;
  bipartite.substrate = CaseOptions::SubstrateClass::kBipartite;
  r.push_back({"bipartite-two-cycle", "BipartiteTwoCycle", bipartite,
               check_bipartite_two_cycle});

  CaseOptions tiny;
  tiny.substrate = CaseOptions::SubstrateClass::kTiny;
  r.push_back({"aca-subsumption", "AcaSubsumption", tiny,
               check_aca_subsumption});
  r.push_back({"reach-subsumption", "ReachSubsumption", tiny,
               check_reach_subsumption});
  r.push_back({"budget-truncation", "BudgetTruncation", any,
               check_budget_truncation});
  r.push_back({"batch-isa-agree", "BatchIsaAgree", any,
               check_batch_isa_agree});
  r.push_back({"supervised-equivalence", "SupervisedEquivalence", any,
               check_supervised_equivalence});
  r.push_back({"service-vs-library", "ServiceVsLibrary", any,
               check_service_vs_library});
  r.push_back({"store-backend-agree", "StoreBackendAgree", any,
               check_store_backend_agree});
  return r;
}

}  // namespace

const std::vector<Oracle>& oracles() {
  static const std::vector<Oracle> registry = build_registry();
  return registry;
}

const Oracle* find_oracle(std::string_view name) {
  for (const auto& o : oracles()) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

}  // namespace tca::testing
