#include "phasespace/successor_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <utility>

#include "core/contracts.hpp"
#include "core/fnv.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/ckpt_store.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::phasespace {
namespace {

/// Max entries one for_each_range / read-back block decodes at a time.
constexpr std::size_t kStreamBlock = 4096;

/// Entry count of a `bits`-bit disk store (`entries` = 0 means 2^bits).
/// Rejects widths past the disk cap first: there the one-window decode
/// of get() and unpack_entries would return wrong values, not throw.
/// Zero bits is the empty automaton: one entry whose only value is 0,
/// stored in no payload bits.
[[nodiscard]] StateCode checked_entries(std::uint32_t bits,
                                        StateCode entries) {
  tca::require_explicit_bits(bits, max_explicit_bits(StoreKind::kDisk),
                             "DiskStore");
  return entries == 0 ? (StateCode{1} << bits) : entries;
}

void check_put_range(StateCode first, std::size_t count, StateCode entries,
                     const char* who) {
  if (first > entries || count > entries - first) {
    throw tca::StateError(std::string(who) + ": put_range [" +
                              std::to_string(first) + ", " +
                              std::to_string(first + count) +
                              ") exceeds capacity " + std::to_string(entries),
                          tca::ErrorCode::kOutOfRange);
  }
}

/// Packs count n-bit values into a byte stream starting at bit offset 0
/// (stream bit k lives in byte k>>3 at position k&7, so entry s of a
/// store sits at bits [s*n, (s+1)*n) — the disk backend's data format).
void pack_entries(const StateCode* src, std::size_t count, std::uint32_t n,
                  std::uint64_t mask, std::uint8_t* dst) {
  std::uint64_t acc = 0;
  std::uint32_t accbits = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = src[i] & mask;
    acc |= v << accbits;
    accbits += n;
    if (accbits >= 64) {
      for (int b = 0; b < 8; ++b) {
        dst[out++] = static_cast<std::uint8_t>(acc >> (8 * b));
      }
      accbits -= 64;
      acc = accbits != 0 ? v >> (n - accbits) : 0;
    }
  }
  for (; accbits > 0; accbits -= std::min(accbits, 8u)) {
    dst[out++] = static_cast<std::uint8_t>(acc);
    acc >>= 8;
  }
}

/// Unpacks count n-bit values from a byte stream, the first starting at
/// bit offset `bit0` (< 8) within src. src must extend 8 bytes past the
/// last byte actually touched by a value's low bit (callers over-read
/// from a buffer sized for that). Each value is read through one
/// unaligned 64-bit window shifted by at most 7, which is exact only
/// while n + 7 <= 64; DiskStore caps n at max_explicit_bits(kDisk) = 32.
void unpack_entries(const std::uint8_t* src, std::size_t count,
                    std::uint32_t n, std::uint64_t mask, StateCode* dst,
                    std::uint32_t bit0) {
  std::uint64_t bit = bit0;
  for (std::size_t i = 0; i < count; ++i, bit += n) {
    const std::size_t byte = static_cast<std::size_t>(bit >> 3);
    const auto sh = static_cast<std::uint32_t>(bit & 7);
    std::uint64_t window = 0;
    for (int b = 7; b >= 0; --b) {
      window = (window << 8) | src[byte + static_cast<std::size_t>(b)];
    }
    dst[i] = (window >> sh) & mask;
  }
}

}  // namespace

const char* store_kind_name(StoreKind kind) noexcept {
  switch (kind) {
    case StoreKind::kFlat: return "flat";
    case StoreKind::kDisk: return "disk";
  }
  return "flat";
}

void SuccessorStore::for_each_range(
    const std::function<void(StateCode, std::size_t, const StateCode*)>& fn)
    const {
  // The flat backend streams zero-copy; the others decode per block.
  if (const std::vector<StateCode>* flat = flat_table()) {
    for (StateCode s = 0; s < entries_; s += kStreamBlock) {
      const auto count = static_cast<std::size_t>(
          std::min<StateCode>(kStreamBlock, entries_ - s));
      fn(s, count, flat->data() + s);
    }
    return;
  }
  std::vector<StateCode> block(
      std::min<StateCode>(kStreamBlock, std::max<StateCode>(entries_, 1)));
  for (StateCode s = 0; s < entries_; s += kStreamBlock) {
    const auto count = static_cast<std::size_t>(
        std::min<StateCode>(kStreamBlock, entries_ - s));
    read_range(s, count, block.data());
    fn(s, count, block.data());
  }
}

// --- FlatStore ----------------------------------------------------------

FlatStore::FlatStore(std::uint32_t bits)
    : SuccessorStore(bits, StateCode{1} << bits) {
  runtime::fault::check_alloc(entries_ * sizeof(StateCode));
  table_.resize(entries_);
}

FlatStore::FlatStore(std::uint32_t bits, std::vector<StateCode> table)
    : SuccessorStore(bits, StateCode{1} << bits), table_(std::move(table)) {
  if (table_.size() != entries_) {
    throw tca::InvalidArgumentError(
        "FlatStore: table has " + std::to_string(table_.size()) +
            " entries, expected 2^" + std::to_string(bits),
        tca::ErrorCode::kSizeMismatch);
  }
}

TCA_HOT_PATH void FlatStore::put_range(StateCode first, std::size_t count,
                                       const StateCode* src) {
  check_put_range(first, count, entries_, "FlatStore");
  std::memcpy(table_.data() + first, src, count * sizeof(StateCode));
}

void FlatStore::read_range(StateCode first, std::size_t count,
                           StateCode* dst) const {
  std::memcpy(dst, table_.data() + first, count * sizeof(StateCode));
}

// --- DiskStore ----------------------------------------------------------

struct DiskStore::Ledger {
  std::mutex mu;
  std::vector<Extent> extents;
  std::uint64_t spilled_bytes = 0;
  bool finalized = false;
  /// Serialises manifest writes (doubling checkpoints and finalize), and
  /// each writer snapshots the ledger under it, so an older extent list
  /// never lands over a newer one.
  std::mutex manifest_mu;
  std::mutex map_mu;  // one-shot lazy mmap
};

namespace {

/// Packed byte extent of entries [first, first + count) at width n.
/// Alignment (first % kPutAlign == 0) makes the start byte-exact.
[[nodiscard]] std::uint64_t extent_byte_offset(StateCode first,
                                               std::uint32_t n) {
  return first * n / 8;
}

[[nodiscard]] std::uint64_t extent_byte_count(StateCode first,
                                              StateCode count,
                                              std::uint32_t n) {
  const std::uint64_t first_bit = first * static_cast<std::uint64_t>(n);
  const std::uint64_t end_bit = (first + count) * static_cast<std::uint64_t>(n);
  return ((end_bit + 7) / 8) - (first_bit / 8);
}

void pwrite_all(int fd, const std::uint8_t* buf, std::uint64_t count,
                std::uint64_t offset, const char* what) {
  while (count > 0) {
    const ssize_t n = ::pwrite(fd, buf, count, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw tca::CheckpointError(
          std::string("DiskStore: ") + what + " failed: " +
              std::strerror(errno),
          tca::ErrorCode::kIo);
    }
    buf += n;
    count -= static_cast<std::uint64_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

[[nodiscard]] bool pread_all(int fd, std::uint8_t* buf, std::uint64_t count,
                             std::uint64_t offset) {
  while (count > 0) {
    const ssize_t n = ::pread(fd, buf, count, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {  // short file: treat the hole as zeros
      std::memset(buf, 0, count);
      return true;
    }
    buf += n;
    count -= static_cast<std::uint64_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

constexpr const char* kManifestMagic = "tca-succ-store v1";

}  // namespace

DiskStore::DiskStore(std::uint32_t bits, std::string dir, StateCode entries)
    : SuccessorStore(bits, checked_entries(bits, entries)),
      dir_(std::move(dir)),
      value_mask_((std::uint64_t{1} << bits) - 1),
      ledger_(new Ledger) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw tca::CheckpointError(
        "DiskStore: cannot create directory " + dir_ + ": " + ec.message(),
        tca::ErrorCode::kIo);
  }
  data_path_ = (fs::path(dir_) / "succ.dat").string();
  // O_CREAT without O_TRUNC: an existing data file is what resume() reads.
  fd_ = ::open(data_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw tca::CheckpointError(
        "DiskStore: cannot open " + data_path_ + ": " + std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  // Extend (never shrink) to full size so unwritten holes read as zeros
  // and the mmap window is fixed. Sparse, so no up-front disk cost.
  struct stat st {};
  if (::fstat(fd_, &st) == 0 &&
      static_cast<std::uint64_t>(st.st_size) < data_bytes()) {
    if (::ftruncate(fd_, static_cast<off_t>(data_bytes())) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw tca::CheckpointError(
          "DiskStore: cannot size " + data_path_ + ": " + std::strerror(err),
          tca::ErrorCode::kIo);
    }
  }
}

DiskStore::~DiskStore() {
  if (const std::uint8_t* map = map_.load(std::memory_order_acquire)) {
    ::munmap(const_cast<std::uint8_t*>(map), map_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t DiskStore::data_bytes() const noexcept {
  // +8 guard bytes so the unaligned 64-bit window of get()/unpack never
  // runs off the mapping.
  return (static_cast<std::uint64_t>(entries_) * bits_ + 7) / 8 + 8;
}

const std::uint8_t* DiskStore::map_for_reads() const {
  std::lock_guard<std::mutex> lock(ledger_->map_mu);
  if (const std::uint8_t* map = map_.load(std::memory_order_acquire)) {
    return map;  // another reader mapped first
  }
  void* p = ::mmap(nullptr, data_bytes(), PROT_READ, MAP_SHARED, fd_, 0);
  if (p == MAP_FAILED) {
    throw tca::CheckpointError(
        "DiskStore: mmap of " + data_path_ + " failed: " +
            std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  map_bytes_ = data_bytes();
  const auto* map = static_cast<const std::uint8_t*>(p);
  map_.store(map, std::memory_order_release);
  return map;
}

StateCode DiskStore::get(StateCode s) const {
  const std::uint8_t* map = map_.load(std::memory_order_acquire);
  if (map == nullptr) map = map_for_reads();
  const std::uint64_t bit = s * bits_;
  const auto byte = static_cast<std::size_t>(bit >> 3);
  const auto sh = static_cast<std::uint32_t>(bit & 7);
  std::uint64_t window = 0;
  for (int b = 7; b >= 0; --b) {
    window = (window << 8) | map[byte + static_cast<std::size_t>(b)];
  }
  return (window >> sh) & value_mask_;
}

void DiskStore::put_range(StateCode first, std::size_t count,
                          const StateCode* src) {
  check_put_range(first, count, entries_, "DiskStore");
  if (count == 0) return;
  if (first % kPutAlign != 0 ||
      (count % kPutAlign != 0 && first + count != entries_)) {
    throw tca::StateError(
        "DiskStore: put_range [" + std::to_string(first) + ", " +
            std::to_string(first + count) + ") is not kPutAlign(512)-aligned"
            " — concurrent extents must own disjoint whole bytes",
        tca::ErrorCode::kInvalidState);
  }
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    if (ledger_->finalized) {
      throw tca::StateError("DiskStore: put_range after finalize()",
                            tca::ErrorCode::kInvalidState);
    }
  }
  const std::uint64_t bytes = extent_byte_count(first, count, bits_);
  std::vector<std::uint8_t> packed(static_cast<std::size_t>(bytes), 0);
  pack_entries(src, count, bits_, value_mask_, packed.data());
  pwrite_all(fd_, packed.data(), bytes, extent_byte_offset(first, bits_),
             "extent pwrite");
  const std::uint64_t digest = core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(packed.data()),
      static_cast<std::size_t>(bytes)));
  bool checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->extents.push_back(Extent{first, count, digest});
    ledger_->spilled_bytes += bytes;
    const std::size_t extents = ledger_->extents.size();
    checkpoint = (extents & (extents - 1)) == 0;
  }
  static obs::Counter& spill = obs::counter("store.spill_bytes");
  spill.add(bytes);
  // Re-save the manifest each time the extent count doubles, so a killed
  // build keeps at least half of its finished extents for resume().
  if (checkpoint) write_manifest(/*seal=*/false);
}

void DiskStore::read_range(StateCode first, std::size_t count,
                           StateCode* dst) const {
  if (count == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t first_bit = first * static_cast<std::uint64_t>(bits_);
  const std::uint64_t byte0 = first_bit / 8;
  // +8 guard for the unaligned 64-bit decode window.
  const std::uint64_t bytes = extent_byte_count(first, count, bits_) + 8;
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes), 0);
  if (!pread_all(fd_, buf.data(), bytes, byte0)) {
    throw tca::CheckpointError(
        "DiskStore: pread of " + data_path_ + " failed: " +
            std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  unpack_entries(buf.data(), count, bits_, value_mask_, dst,
                 static_cast<std::uint32_t>(first_bit & 7));
  static obs::Counter& readback_us = obs::counter("store.readback_us");
  readback_us.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

void DiskStore::finalize() { write_manifest(/*seal=*/true); }

void DiskStore::write_manifest(bool seal) {
  const std::lock_guard<std::mutex> save(ledger_->manifest_mu);
  std::vector<Extent> extents;
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    // A sealed manifest already lists every extent.
    if (!seal && ledger_->finalized) return;
    if (seal) ledger_->finalized = true;
    extents = ledger_->extents;
  }
  // Only the seal fsyncs: an unsealed manifest may name extents whose
  // bytes never reached the disk, and resume() digest-checks each one.
  if (seal && ::fsync(fd_) != 0) {
    throw tca::CheckpointError(
        "DiskStore: fsync of " + data_path_ + " failed: " +
            std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  std::string payload = std::string(kManifestMagic) + "\nbits=" +
                        std::to_string(bits_) + "\nentries=" +
                        std::to_string(entries_) + "\n";
  for (const Extent& e : extents) {
    payload += "extent=" + std::to_string(e.first) + "," +
               std::to_string(e.count) + "," + std::to_string(e.digest) +
               "\n";
  }
  runtime::CheckpointStore manifest(
      (std::filesystem::path(dir_) / "manifest.ckpt").string());
  runtime::Checkpoint ckpt;
  ckpt.payload = std::move(payload);
  manifest.save(ckpt);
}

std::vector<DiskStore::Extent> DiskStore::resume() {
  static obs::Counter& kept_ctr = obs::counter("store.resume.kept");
  static obs::Counter& dropped_ctr = obs::counter("store.resume.dropped");
  runtime::CheckpointStore manifest(
      (std::filesystem::path(dir_) / "manifest.ckpt").string());
  const auto recovery = manifest.load_latest();
  if (!recovery) return {};

  // Parse: magic line, bits=, entries=, then extent= lines.
  std::vector<Extent> listed;
  const std::string& payload = recovery->checkpoint.payload;
  std::size_t pos = 0;
  int line_no = 0;
  bool header_ok = true;
  while (pos < payload.size() && header_ok) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    const std::string_view line(payload.data() + pos, nl - pos);
    ++line_no;
    if (line_no == 1) {
      header_ok = line == kManifestMagic;
    } else if (line_no == 2) {
      header_ok = line == "bits=" + std::to_string(bits_);
    } else if (line_no == 3) {
      header_ok = line == "entries=" + std::to_string(entries_);
    } else if (line.rfind("extent=", 0) == 0) {
      Extent e;
      const std::string_view body = line.substr(7);
      const std::size_t c1 = body.find(',');
      const std::size_t c2 =
          c1 == std::string_view::npos ? c1 : body.find(',', c1 + 1);
      if (c2 == std::string_view::npos) {
        header_ok = false;
        break;
      }
      const auto parse = [](std::string_view s, std::uint64_t& out) {
        out = 0;
        if (s.empty()) return false;
        for (const char c : s) {
          if (c < '0' || c > '9') return false;
          out = out * 10 + static_cast<std::uint64_t>(c - '0');
        }
        return true;
      };
      if (!parse(body.substr(0, c1), e.first) ||
          !parse(body.substr(c1 + 1, c2 - c1 - 1), e.count) ||
          !parse(body.substr(c2 + 1), e.digest) || e.count == 0 ||
          e.first > entries_ || e.count > entries_ - e.first) {
        header_ok = false;
        break;
      }
      listed.push_back(e);
    } else if (!line.empty()) {
      header_ok = false;
    }
    pos = nl + 1;
  }
  if (!header_ok) {
    obs::log_event(obs::LogLevel::kWarn, "store.resume.rejected",
                   {{"dir", dir_}, {"reason", "manifest mismatch"}});
    return {};
  }

  // Revalidate every listed extent against the data file; a torn or
  // corrupted spill fails its digest and is dropped (the caller rebuilds
  // that range).
  std::vector<Extent> kept;
  std::uint64_t dropped = 0;
  for (const Extent& e : listed) {
    const std::uint64_t bytes = extent_byte_count(e.first, e.count, bits_);
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes), 0);
    if (!pread_all(fd_, buf.data(), bytes,
                   extent_byte_offset(e.first, bits_))) {
      ++dropped;
      continue;
    }
    const std::uint64_t digest = core::fnv1a64(std::string_view(
        reinterpret_cast<const char*>(buf.data()),
        static_cast<std::size_t>(bytes)));
    if (digest != e.digest) {
      ++dropped;
      continue;
    }
    kept.push_back(e);
  }
  std::sort(kept.begin(), kept.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->extents = kept;
  }
  kept_ctr.add(kept.size());
  dropped_ctr.add(dropped);
  if (dropped != 0) {
    obs::log_event(obs::LogLevel::kWarn, "store.resume.dropped",
                   {{"dir", dir_},
                    {"kept", static_cast<std::uint64_t>(kept.size())},
                    {"dropped", dropped}});
  }
  return kept;
}

bool DiskStore::complete() const {
  std::vector<Extent> extents;
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    extents = ledger_->extents;
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  StateCode covered = 0;
  for (const Extent& e : extents) {
    if (e.first != covered) return false;
    covered += e.count;
  }
  return covered == entries_;
}

std::uint64_t DiskStore::spilled_bytes() const noexcept {
  std::lock_guard<std::mutex> lock(ledger_->mu);
  return ledger_->spilled_bytes;
}

std::uint64_t DiskStore::resident_bytes() const noexcept {
  // The mmap window is an upper bound (pages fault in on demand); the
  // pread streaming path pins nothing here.
  return map_.load(std::memory_order_acquire) != nullptr ? map_bytes_ : 0;
}

// --- factory ------------------------------------------------------------

std::shared_ptr<SuccessorStore> make_store(StoreKind kind, std::uint32_t bits,
                                           const std::string& disk_dir) {
  tca::require_explicit_bits(bits, max_explicit_bits(kind), "make_store");
  switch (kind) {
    case StoreKind::kFlat:
      return std::make_shared<FlatStore>(bits);
    case StoreKind::kDisk:
      if (disk_dir.empty()) {
        throw tca::InvalidArgumentError(
            "make_store: StoreKind::kDisk requires a disk_dir");
      }
      return std::make_shared<DiskStore>(bits, disk_dir);
  }
  throw tca::InvalidArgumentError("make_store: unknown StoreKind");
}

}  // namespace tca::phasespace
