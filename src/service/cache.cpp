#include "service/cache.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/error.hpp"

namespace tca::service {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kQuarantineSuffix = ".quarantined";

/// Renames a failed-validation cache file out of the candidate set,
/// preserving it for forensics — the CheckpointStore discipline
/// (runtime/ckpt_store.cpp). Never deletes; never throws.
void quarantine(const std::string& path, ErrorCode code) noexcept {
  static obs::Counter& quarantined =
      obs::counter("service.cache.quarantined");
  std::string target = path + std::string(kQuarantineSuffix);
  std::error_code ec;
  for (std::uint32_t n = 1; fs::exists(target, ec); ++n) {
    target = path + std::string(kQuarantineSuffix) + "." + std::to_string(n);
  }
  fs::rename(path, target, ec);
  if (ec) return;  // the file vanished or the fs refused; nothing to do
  quarantined.add();
  obs::log_event(obs::LogLevel::kWarn, "service.cache.quarantined",
                 {{"path", path},
                  {"quarantined_as", target},
                  {"code", error_code_name(code)}});
}

}  // namespace

ResultCache::ResultCache(CacheOptions options) : options_([&] {
  options.max_entries = std::max<std::size_t>(options.max_entries, 1);
  return options;
}()) {}

std::optional<CacheHit> ResultCache::lookup(const ServiceQuery& query) {
  static obs::Counter& hits = obs::counter("service.cache.hit");
  static obs::Counter& misses = obs::counter("service.cache.miss");
  static obs::Counter& disk_hits = obs::counter("service.cache.disk_hit");

  const std::string key = query.canonical_key();
  LockGuard lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    touch(it->second);
    hits.add();
    return CacheHit{it->second->result_json, CacheTier::kMemory};
  }
  if (!options_.disk_dir.empty()) {
    const std::string path = disk_path(query);
    if (std::optional<std::string> json = disk_lookup(key, path)) {
      insert_locked(key, *json);  // promote
      disk_hits.add();
      return CacheHit{std::move(*json), CacheTier::kDisk};
    }
  }
  misses.add();
  return std::nullopt;
}

std::optional<std::string> ResultCache::peek(const std::string& key) const {
  LockGuard lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second->result_json;
}

void ResultCache::insert(const ServiceQuery& query,
                         const std::string& result_json) {
  const std::string key = query.canonical_key();
  LockGuard lock(mu_);
  insert_locked(key, result_json);
  if (!options_.disk_dir.empty()) {
    disk_insert(key, result_json, disk_path(query));
  }
}

std::size_t ResultCache::size() const {
  LockGuard lock(mu_);
  return lru_.size();
}

std::vector<std::string> ResultCache::keys_by_recency() const {
  LockGuard lock(mu_);
  std::vector<std::string> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.push_back(e.key);
  return out;
}

std::string ResultCache::disk_path(const ServiceQuery& query) const {
  if (options_.disk_dir.empty()) return "";
  return (fs::path(options_.disk_dir) / (query.digest() + ".tcac")).string();
}

void ResultCache::touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ResultCache::insert_locked(const std::string& key,
                                const std::string& result_json) {
  static obs::Counter& evictions = obs::counter("service.cache.evict");
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->result_json = result_json;
    touch(it->second);
    return;
  }
  lru_.push_front(Entry{key, result_json});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > options_.max_entries) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions.add();
  }
}

std::optional<std::string> ResultCache::disk_lookup(const std::string& key,
                                                    const std::string& path) {
  runtime::Checkpoint ckpt;
  try {
    ckpt = runtime::load_checkpoint(path);
  } catch (const tca::Error& e) {
    // kIo = absent or unreadable: an ordinary miss. Anything else means
    // the file EXISTS but fails validation — preserve it for forensics
    // and stop consulting it.
    if (e.code() != ErrorCode::kIo) quarantine(path, e.code());
    return std::nullopt;
  }
  const std::size_t nl = ckpt.payload.find('\n');
  if (nl == std::string::npos) {
    quarantine(path, ErrorCode::kCheckpointCorrupt);
    return std::nullopt;
  }
  // The embedded canonical key makes a 64-bit digest collision (or a file
  // dropped in under the wrong name) a detected miss, not a wrong answer.
  if (ckpt.payload.compare(0, nl, key) != 0) {
    quarantine(path, ErrorCode::kCheckpointCorrupt);
    return std::nullopt;
  }
  return ckpt.payload.substr(nl + 1);
}

void ResultCache::disk_insert(const std::string& key,
                              const std::string& result_json,
                              const std::string& path) {
  static obs::Counter& writes = obs::counter("service.cache.disk_write");
  static obs::Counter& errors = obs::counter("service.cache.disk_error");
  std::error_code ec;
  fs::create_directories(options_.disk_dir, ec);
  runtime::Checkpoint ckpt;
  ckpt.payload = key + "\n" + result_json;
  try {
    runtime::save_checkpoint(path, ckpt);
    writes.add();
  } catch (const tca::Error& e) {
    errors.add();
    obs::log_event(obs::LogLevel::kWarn, "service.cache.disk_error",
                   {{"path", path}, {"code", error_code_name(e.code())}});
  }
}

}  // namespace tca::service
