#include "service/query.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/fnv.hpp"
#include "obs/json.hpp"
#include "phasespace/functional_graph.hpp"
#include "runtime/error.hpp"

namespace tca::service {
namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

[[noreturn]] void bad_query(const std::string& why) {
  throw InvalidArgumentError("query: " + why);
}

}  // namespace

const char* query_kind_name(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::kAttractorSummary: return "attractor-summary";
    case QueryKind::kTransientDepth: return "transient-depth";
    case QueryKind::kGoeCensus: return "goe-census";
    case QueryKind::kPreimageCount: return "preimage-count";
  }
  return "unknown";
}

rules::Rule ServiceRule::materialize(std::uint32_t arity) const {
  switch (type) {
    case Type::kMajority:
      return rules::MajorityRule{rules::MajorityTie::kZero};
    case Type::kMajorityTieOne:
      return rules::MajorityRule{rules::MajorityTie::kOne};
    case Type::kParity:
      return rules::ParityRule{};
    case Type::kKOfN:
      return rules::KOfNRule{k};
    case Type::kSymmetric: {
      rules::SymmetricRule r;
      r.accept.resize(arity + 1);
      for (std::uint32_t s = 0; s <= arity && s < 64; ++s) {
        r.accept[s] = static_cast<rules::State>((mask >> s) & 1u);
      }
      return r;
    }
    case Type::kWolfram:
      return rules::wolfram(code);
  }
  bad_query("unknown rule type");
}

std::string ServiceRule::token() const {
  switch (type) {
    case Type::kMajority: return "majority";
    case Type::kMajorityTieOne: return "majority1";
    case Type::kParity: return "parity";
    case Type::kKOfN: return "kofn:" + std::to_string(k);
    case Type::kSymmetric: return "sym:" + hex_u64(mask);
    case Type::kWolfram: return "wolfram:" + std::to_string(code);
  }
  return "unknown";
}

void ServiceQuery::validate() const {
  if (n == 0) bad_query("n must be >= 1");
  if (radius < 1 || radius > 3) bad_query("radius must be in [1, 3]");
  const std::uint32_t arity = 2 * radius + 1;
  if (topology == Topology::kRing && n < arity) {
    bad_query("ring requires n >= 2*radius + 1");
  }
  if (rule.type == ServiceRule::Type::kWolfram) {
    if (radius != 1) bad_query("wolfram rules require radius 1");
    if (rule.code > 255) bad_query("wolfram code must be in [0, 255]");
  }
  if (rule.type == ServiceRule::Type::kKOfN && rule.k > 64) {
    bad_query("kofn threshold must be in [0, 64]");
  }
  if (rule.type == ServiceRule::Type::kSymmetric &&
      (mask_bits(arity) | rule.mask) != mask_bits(arity)) {
    bad_query("symmetric mask has bits above arity (normalize with "
              "ServiceRule::mask for " +
              std::to_string(arity) + " inputs)");
  }
  if (scheme == Scheme::kSweep && !order.empty()) {
    if (order.size() != n) bad_query("sweep order must list all n nodes");
    std::vector<bool> seen(n, false);
    for (core::NodeId v : order) {
      if (v >= n || seen[v]) bad_query("sweep order is not a permutation");
      seen[v] = true;
    }
    // Canonical form: the identity order is spelled as an EMPTY order, so
    // the cache key of "sweep" and "sweep with order 0..n-1" coincide.
    bool identity = true;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (order[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) {
      bad_query("identity sweep order must be omitted (canonical form)");
    }
  }
  if (scheme == Scheme::kSynchronous && !order.empty()) {
    bad_query("synchronous scheme takes no order");
  }
  if (kind == QueryKind::kPreimageCount) {
    if (n > 63) bad_query("preimage requires n <= 63 (64-bit state codes)");
    if (target >= (std::uint64_t{1} << n)) {
      bad_query("target state code has bits above n");
    }
  } else if (target != 0) {
    bad_query("target is only meaningful for preimage-count");
  }
  if (needs_explicit_graph()) {
    // Validation caps at the FLAT ceiling, the default result backend.
    // Builds themselves are store-native (sharded, kDisk extents when
    // resumable), so raising this is a policy choice per backend.
    const std::string context = std::string("service: ") + query_kind_name(kind);
    require_explicit_bits(
        n, phasespace::max_explicit_bits(phasespace::StoreKind::kFlat),
        context.c_str());
  }
}

std::uint64_t ServiceQuery::mask_bits(std::uint32_t arity) noexcept {
  return arity >= 63 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (arity + 1)) - 1;
}

core::Automaton ServiceQuery::automaton() const {
  const core::Boundary boundary = topology == Topology::kRing
                                      ? core::Boundary::kRing
                                      : core::Boundary::kFixedZero;
  return core::Automaton::line(n, radius, boundary,
                               rule.materialize(2 * radius + 1),
                               core::Memory::kWith);
}

std::vector<core::NodeId> ServiceQuery::effective_order() const {
  if (!order.empty()) return order;
  std::vector<core::NodeId> id(n);
  std::iota(id.begin(), id.end(), core::NodeId{0});
  return id;
}

bool ServiceQuery::needs_explicit_graph() const noexcept {
  return !(kind == QueryKind::kPreimageCount && topology == Topology::kRing &&
           scheme == Scheme::kSynchronous);
}

std::string ServiceQuery::canonical_key() const {
  // Fixed field order, versioned prefix; bump "tcad1" on any change to the
  // serialization (stale disk entries then simply miss).
  std::string key = "tcad1;kind=";
  key += query_kind_name(kind);
  key += ";topo=";
  key += topology == Topology::kRing ? "ring" : "line";
  key += ";n=" + std::to_string(n);
  key += ";r=" + std::to_string(radius);
  key += ";rule=" + rule.token();
  key += ";scheme=";
  if (scheme == Scheme::kSynchronous) {
    key += "sync";
  } else {
    key += "sweep:";
    if (order.empty()) {
      key += "id";
    } else {
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i != 0) key += ',';
        key += std::to_string(order[i]);
      }
    }
  }
  if (kind == QueryKind::kPreimageCount) {
    key += ";target=" + hex_u64(target);
  }
  return key;
}

std::string ServiceQuery::digest() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    core::fnv1a64(canonical_key())));
  return buf;
}

ServiceQuery ServiceQuery::from_json(const JsonValue& v) {
  if (!v.is_object()) bad_query("request 'query' must be an object");
  ServiceQuery q;

  const std::string kind = v.string_or("kind", "");
  if (kind == "attractor-summary") {
    q.kind = QueryKind::kAttractorSummary;
  } else if (kind == "transient-depth") {
    q.kind = QueryKind::kTransientDepth;
  } else if (kind == "goe-census") {
    q.kind = QueryKind::kGoeCensus;
  } else if (kind == "preimage-count") {
    q.kind = QueryKind::kPreimageCount;
  } else {
    bad_query("unknown kind '" + kind + "'");
  }

  q.n = static_cast<std::uint32_t>(v.u64_or("n", 0));
  q.radius = static_cast<std::uint32_t>(v.u64_or("radius", 1));

  const std::string topo = v.string_or("topology", "ring");
  if (topo == "ring") {
    q.topology = Topology::kRing;
  } else if (topo == "line") {
    q.topology = Topology::kLine;
  } else {
    bad_query("unknown topology '" + topo + "'");
  }

  // "rule" is either a shorthand string ("majority", "parity", ...) or an
  // object {"type": ..., "k"/"mask"/"code": ...}.
  const JsonValue* rule = v.find("rule");
  std::string rule_type = "majority";
  if (rule != nullptr && rule->is_string()) {
    rule_type = rule->as_string();
  } else if (rule != nullptr && rule->is_object()) {
    rule_type = rule->string_or("type", "majority");
  } else if (rule != nullptr && !rule->is_null()) {
    bad_query("'rule' must be a string or an object");
  }
  if (rule_type == "majority") {
    q.rule.type = ServiceRule::Type::kMajority;
  } else if (rule_type == "majority1") {
    q.rule.type = ServiceRule::Type::kMajorityTieOne;
  } else if (rule_type == "parity") {
    q.rule.type = ServiceRule::Type::kParity;
  } else if (rule_type == "kofn") {
    q.rule.type = ServiceRule::Type::kKOfN;
    q.rule.k = static_cast<std::uint32_t>(
        rule != nullptr && rule->is_object() ? rule->u64_or("k", 1) : 1);
  } else if (rule_type == "symmetric") {
    q.rule.type = ServiceRule::Type::kSymmetric;
    q.rule.mask =
        rule != nullptr && rule->is_object() ? rule->u64_or("mask", 0) : 0;
    // Normalize: bits above the arity can never fire; strip them so every
    // spelling of the same rule shares one cache key.
    q.rule.mask &= mask_bits(2 * q.radius + 1);
  } else if (rule_type == "wolfram") {
    q.rule.type = ServiceRule::Type::kWolfram;
    q.rule.code = static_cast<std::uint32_t>(
        rule != nullptr && rule->is_object() ? rule->u64_or("code", 0) : 0);
  } else {
    bad_query("unknown rule type '" + rule_type + "'");
  }

  const std::string scheme = v.string_or("scheme", "synchronous");
  if (scheme == "synchronous") {
    q.scheme = Scheme::kSynchronous;
  } else if (scheme == "sweep") {
    q.scheme = Scheme::kSweep;
  } else {
    bad_query("unknown scheme '" + scheme + "'");
  }

  if (const JsonValue* order = v.find("order");
      order != nullptr && !order->is_null()) {
    if (q.scheme != Scheme::kSweep) {
      bad_query("'order' is only meaningful with scheme 'sweep'");
    }
    for (const JsonValue& item : order->as_array()) {
      q.order.push_back(static_cast<core::NodeId>(item.as_u64()));
    }
    // Canonicalize an explicitly spelled identity order to the empty one
    // before validate() (which rejects non-canonical identity spellings
    // on directly constructed queries).
    bool identity = q.order.size() == q.n;
    for (std::size_t i = 0; identity && i < q.order.size(); ++i) {
      identity = q.order[i] == i;
    }
    if (identity) q.order.clear();
  }

  q.target = v.u64_or("target", 0);
  q.validate();
  return q;
}

std::string QueryResult::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("kind", query_kind_name(kind));
  w.kv("num_states", num_states);
  switch (kind) {
    case QueryKind::kAttractorSummary:
      w.kv("num_attractors", num_attractors);
      w.kv("num_fixed_points", num_fixed_points);
      w.kv("num_cycle_states", num_cycle_states);
      w.kv("num_transient_states", num_transient_states);
      w.kv("num_gardens_of_eden", num_gardens_of_eden);
      w.kv("max_period", max_period);
      w.kv("max_transient", max_transient);
      w.key("cycle_lengths").begin_array();
      for (const auto& [length, count] : cycle_lengths) {
        w.begin_object();
        w.kv("length", length);
        w.kv("count", count);
        w.end_object();
      }
      w.end_array();
      break;
    case QueryKind::kTransientDepth:
      w.kv("max_transient", max_transient);
      w.kv("num_transient_states", num_transient_states);
      break;
    case QueryKind::kGoeCensus:
      w.kv("gardens", gardens);
      w.kv("scanned", scanned);
      break;
    case QueryKind::kPreimageCount:
      w.kv("preimage_count", preimage_count);
      w.kv("is_garden_of_eden", is_garden_of_eden);
      w.kv("method", method);
      break;
  }
  w.end_object();
  return std::move(w).str();
}

}  // namespace tca::service
