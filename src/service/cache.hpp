#pragma once
// Content-addressed result cache for the tcad daemon (docs/service.md).
//
// Phase-space answers are pure functions of their canonical query key
// (service/query.hpp), which makes caching sound by construction: no
// invalidation, no TTLs — an entry is valid forever or its key was wrong.
// Two tiers:
//
//  * MEMORY: an LRU over full canonical keys. Keys, not digests, so a
//    64-bit FNV collision can degrade to a miss but never serve the wrong
//    result.
//  * DISK (optional): one file per entry named by the key's FNV-1a digest,
//    written with the checkpoint framing of runtime/checkpoint.hpp — the
//    same magic/checksum/atomic-rename discipline long sweeps already
//    trust. The payload embeds the full canonical key on its first line;
//    a digest collision or tampered file is detected on read and the file
//    is QUARANTINED (renamed `<file>.quarantined[.n]`, never deleted),
//    exactly like runtime::CheckpointStore.
//
// Counters (docs/observability.md): service.cache.{hit,miss,evict,
// disk_hit,disk_write,disk_error,quarantined}. "hit" is a memory-tier
// hit; a disk hit counts as disk_hit only (and promotes into memory).
//
// Thread safety: one mutex guards both tiers; disk reads/writes happen
// under it. That serializes rare multi-kilobyte file I/O against hot
// memory hits — acceptable at service request rates, and it keeps the
// promote-into-LRU step atomic with the read (no torn promotions).

#include <cstddef>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/annotations.hpp"
#include "service/query.hpp"

namespace tca::service {

struct CacheOptions {
  /// Memory-tier capacity in entries (>= 1 enforced).
  std::size_t max_entries = 4096;
  /// Disk-tier directory; empty disables the disk tier. Created on first
  /// write if absent.
  std::string disk_dir;
};

/// Where a lookup was satisfied.
enum class CacheTier : std::uint8_t { kMemory = 0, kDisk };

struct CacheHit {
  std::string result_json;
  CacheTier tier = CacheTier::kMemory;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Memory tier first, then disk. A disk hit is promoted into memory.
  [[nodiscard]] std::optional<CacheHit> lookup(const ServiceQuery& query);
  /// The memory-tier entry under a canonical key, without counting,
  /// promoting or touching it.
  [[nodiscard]] std::optional<std::string> peek(const std::string& key) const;

  /// Inserts (or refreshes) the result under the query's canonical key;
  /// writes through to the disk tier when enabled. Disk write failures
  /// are counted and logged, never thrown — the cache is an accelerator,
  /// not a dependency.
  void insert(const ServiceQuery& query, const std::string& result_json);

  /// Entries currently in the memory tier.
  [[nodiscard]] std::size_t size() const;

  /// Memory-tier canonical keys, most recently used first (test hook for
  /// asserting LRU eviction order).
  [[nodiscard]] std::vector<std::string> keys_by_recency() const;

  /// Disk path an entry for `query` would use ("" when the disk tier is
  /// off). Exposed for tests that corrupt entries on purpose.
  [[nodiscard]] std::string disk_path(const ServiceQuery& query) const;

 private:
  struct Entry {
    std::string key;
    std::string result_json;
  };
  using LruList = std::list<Entry>;

  void touch(LruList::iterator it) TCA_REQUIRES(mu_);
  void insert_locked(const std::string& key, const std::string& result_json)
      TCA_REQUIRES(mu_);
  /// nullopt on miss; quarantines undecodable or mismatched files.
  [[nodiscard]] std::optional<std::string> disk_lookup(
      const std::string& key, const std::string& path) TCA_REQUIRES(mu_);
  void disk_insert(const std::string& key, const std::string& result_json,
                   const std::string& path) TCA_REQUIRES(mu_);

  const CacheOptions options_;

  mutable Mutex mu_;
  LruList lru_ TCA_GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_
      TCA_GUARDED_BY(mu_);
};

}  // namespace tca::service
