#pragma once
// Pluggable successor storage for explicit phase spaces
// (docs/performance.md "successor storage hierarchy").
//
// A FunctionalGraph used to BE a flat std::vector<StateCode>: 8 bytes per
// state, 512 MiB at the n=26 cap, and nothing past that. This header
// splits "what the successor of state s is" from "where that byte lives"
// so the same builders, classifiers and censuses run against two
// backends:
//
//   kFlat    the original vector — fastest random access, 64 bits/state.
//   kDisk    n-bit-packed extents spilled to a data file through the
//            checkpoint framing's FNV-1a digests, with a CheckpointStore
//            manifest for crash-safe resume; sequential read-back streams
//            via pread in bounded RAM and random access lazily mmaps, so
//            n=27-32 tables fit. (The Garden-of-Eden census needs no
//            table at all: see sharded_build.hpp.)
//
// Write protocol: builders produce disjoint [first, first + count) ranges
// of 64-bit successor codes and put_range() them into the store.
// Concurrent put_range calls on DISJOINT ranges are safe on both
// backends. The disk backend additionally requires ranges aligned to
// kPutAlign entries, which never share a byte (kPutAlign * n bits is a
// whole number of bytes for every n) — see DiskStore.
//
// Read protocol: get(s) is random access; for_each_range streams the
// whole table front to back in bounded blocks and is the iteration
// surface classification and censuses use so they work on both backends.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace tca::phasespace {

/// Encoded global configuration (bit i = cell i). Lives here so the
/// storage layer is below functional_graph.hpp; re-exported there.
using StateCode = std::uint64_t;

/// Which successor-storage backend a store (or a build request) uses.
enum class StoreKind : std::uint8_t {
  kFlat,  ///< std::vector<StateCode>, 64 bits/state
  kDisk,  ///< n-bit-packed extents on disk, digest-verified
};

/// Stable lowercase name ("flat", "disk") for logs/manifests.
[[nodiscard]] const char* store_kind_name(StoreKind kind) noexcept;

/// Per-backend explicit-enumeration cap (the generalization of the old
/// kMaxExplicitBits): flat tables stop at n=26 (2^26 states x 8 bytes =
/// 512 MiB), disk extents at n=32 (32 bits/state = 16 GiB on disk,
/// streamed back in bounded RAM).
[[nodiscard]] constexpr std::uint32_t max_explicit_bits(
    StoreKind kind) noexcept {
  switch (kind) {
    case StoreKind::kFlat: return 26;
    case StoreKind::kDisk: return 32;
  }
  return 26;
}

/// Ranges whose first entry and length are multiples of this never share
/// a disk byte with a neighboring range (512 * n bits is a multiple of 64
/// for every n), so aligned writers pwrite disjoint bytes with zero
/// contention. Disk shard sizes are rounded up to multiples of this.
inline constexpr StateCode kPutAlign = 512;

/// Abstract successor table of a deterministic map on `bits()`-bit
/// states. Immutable once finalized; all reads are then safe from any
/// thread.
class SuccessorStore {
 public:
  virtual ~SuccessorStore() = default;

  [[nodiscard]] virtual StoreKind kind() const noexcept = 0;
  [[nodiscard]] std::uint32_t bits() const noexcept { return bits_; }
  /// Total entry capacity. Equal to 2^bits() for stores backing a
  /// FunctionalGraph; unit tests may size a store smaller to probe wide
  /// bit widths without 2^n allocations.
  [[nodiscard]] StateCode num_entries() const noexcept { return entries_; }

  /// Successor of state s (random access). The disk backend lazily mmaps
  /// its data file on first call; prefer for_each_range for full scans.
  [[nodiscard]] virtual StateCode get(StateCode s) const = 0;

  /// Stores src[0 .. count) as the successors of [first, first + count).
  /// Safe to call concurrently on disjoint ranges (see the write
  /// protocol above). Throws tca::StateError on out-of-range writes.
  virtual void put_range(StateCode first, std::size_t count,
                         const StateCode* src) = 0;

  /// Decodes entries [first, first + count) into dst (sequential bulk
  /// read; the disk backend serves this with pread, no mmap growth).
  virtual void read_range(StateCode first, std::size_t count,
                          StateCode* dst) const = 0;

  /// Flushes and seals the store (disk: data fsync + manifest write).
  /// Reads before finalize() see only the caller's own writes reliably;
  /// builders finalize before handing the store to classification.
  virtual void finalize() {}

  /// Bytes of RAM the store itself pins (excludes transient read
  /// buffers). The disk backend reports its mmap window when mapped.
  [[nodiscard]] virtual std::uint64_t resident_bytes() const noexcept = 0;

  /// The flat vector when this store is kFlat, nullptr otherwise (the
  /// zero-copy bridge for FunctionalGraph::successors()).
  [[nodiscard]] virtual const std::vector<StateCode>* flat_table()
      const noexcept {
    return nullptr;
  }

  /// Streams the whole table front to back as bounded blocks:
  /// fn(first, count, block) with block[j] = successor of first + j.
  /// Works identically on every backend; O(block) transient memory.
  void for_each_range(
      const std::function<void(StateCode first, std::size_t count,
                               const StateCode* block)>& fn) const;

 protected:
  SuccessorStore(std::uint32_t bits, StateCode entries)
      : bits_(bits), entries_(entries) {}

  std::uint32_t bits_;
  StateCode entries_;
};

/// The original backend: one flat std::vector<StateCode>.
class FlatStore final : public SuccessorStore {
 public:
  /// Empty store of 2^bits entries (default-initialized to 0).
  explicit FlatStore(std::uint32_t bits);
  /// Wraps an externally built table (size must be 2^bits).
  FlatStore(std::uint32_t bits, std::vector<StateCode> table);

  [[nodiscard]] StoreKind kind() const noexcept override {
    return StoreKind::kFlat;
  }
  [[nodiscard]] StateCode get(StateCode s) const override {
    return table_[s];
  }
  void put_range(StateCode first, std::size_t count,
                 const StateCode* src) override;
  void read_range(StateCode first, std::size_t count,
                  StateCode* dst) const override;
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept override {
    return table_.capacity() * sizeof(StateCode);
  }
  [[nodiscard]] const std::vector<StateCode>* flat_table()
      const noexcept override {
    return &table_;
  }
  /// The writable table, for builders that step shards straight into it
  /// (disjoint ranges, like put_range) instead of staging and copying.
  [[nodiscard]] StateCode* data() noexcept { return table_.data(); }

 private:
  std::vector<StateCode> table_;
};

/// Disk-backed streaming backend. Layout under `dir`:
///
///   succ.dat        n-bit-packed entries at their natural bit offsets
///                   (entry s at bits [s*n, (s+1)*n)), written with
///                   pwrite per extent
///   manifest.ckpt   CheckpointStore-rotated manifest listing every
///                   spilled extent as "extent=<first>,<count>,<fnv64>"
///                   over the extent's packed bytes
///
/// put_range requires kPutAlign alignment (first % 512 == 0, and count %
/// 512 == 0 unless the range ends at num_entries) so concurrent extents
/// touch disjoint whole bytes; unaligned writes throw tca::StateError.
/// finalize() fsyncs the data file then writes the manifest — an extent
/// is durable-and-trusted only once a manifest naming it lands. Before
/// that, put_range re-saves the manifest (without fsync) each time the
/// extent count reaches a power of two, so a killed build loses at most
/// half of its finished extents at O(log extents) manifest writes.
///
/// resume() (before any put_range) loads the newest valid manifest,
/// re-reads every listed extent and KEEPS only those whose bytes still
/// match their recorded digest — a torn or corrupted spill (SIGKILL
/// mid-pwrite, bit rot) is dropped and simply rebuilt by the caller.
class DiskStore final : public SuccessorStore {
 public:
  /// Opens (creating if needed) the store directory. `entries` = 0 means
  /// 2^bits; smaller values are for unit tests that probe wide widths
  /// without the full file. Throws tca::InvalidArgumentError when `bits`
  /// exceeds max_explicit_bits(kDisk) (the one-window decode is exact
  /// only up to there), and tca::CheckpointError(kIo) when the directory
  /// or data file cannot be created.
  DiskStore(std::uint32_t bits, std::string dir, StateCode entries = 0);
  ~DiskStore() override;

  [[nodiscard]] StoreKind kind() const noexcept override {
    return StoreKind::kDisk;
  }
  [[nodiscard]] StateCode get(StateCode s) const override;
  void put_range(StateCode first, std::size_t count,
                 const StateCode* src) override;
  void read_range(StateCode first, std::size_t count,
                  StateCode* dst) const override;
  void finalize() override;
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept override;

  /// One recorded spill: entries [first, first + count).
  struct Extent {
    StateCode first = 0;
    StateCode count = 0;
    std::uint64_t digest = 0;  ///< FNV-1a 64 of the packed bytes
  };

  /// Recovers previously spilled extents (call before any put_range):
  /// loads the newest valid manifest and revalidates every extent
  /// against the data file, dropping mismatches. Returns the surviving
  /// extents, sorted by first (empty when nothing usable is on disk).
  [[nodiscard]] std::vector<Extent> resume();

  /// True once recorded extents cover [0, num_entries) exactly.
  [[nodiscard]] bool complete() const;

  /// Total packed payload bytes spilled by this instance (the
  /// "store.spill_bytes" ablation counter input).
  [[nodiscard]] std::uint64_t spilled_bytes() const noexcept;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  [[nodiscard]] const std::uint8_t* map_for_reads() const;
  /// Writes the current extent list as the manifest; `seal` fsyncs the
  /// data file first and marks the store finalized.
  void write_manifest(bool seal);
  [[nodiscard]] std::uint64_t data_bytes() const noexcept;

  std::string dir_;
  std::string data_path_;
  int fd_ = -1;
  /// Lazy read-only mapping. The first get() maps under the ledger's
  /// map mutex and publishes the pointer (and map_bytes_) with a release
  /// store, so concurrent readers of a finalized store never race on it.
  mutable std::atomic<const std::uint8_t*> map_{nullptr};
  mutable std::uint64_t map_bytes_ = 0;
  std::uint64_t value_mask_ = 0;

  // Extent ledger (guarded by mu_ in the .cpp via a pimpl-free mutex).
  struct Ledger;
  std::unique_ptr<Ledger> ledger_;
};

/// Factory: an empty store of 2^bits entries of the requested backend.
/// `disk_dir` is required for kDisk (tca::InvalidArgumentError
/// otherwise) and ignored for kFlat. Validates `bits` against
/// max_explicit_bits(kind).
[[nodiscard]] std::shared_ptr<SuccessorStore> make_store(
    StoreKind kind, std::uint32_t bits, const std::string& disk_dir = {});

}  // namespace tca::phasespace
