// SuccessorStore backends (docs/performance.md "successor storage
// hierarchy"): the disk backend's n-bit byte format round-tripped at the
// width boundaries, digest-gated resume, and the factory/validation
// surface. Shard-level parallel-write exactness lives
// in sharded_build_test.cpp; cross-backend agreement on real phase
// spaces is the store-backend-agree PBT oracle.

#include "phasespace/successor_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/contracts.hpp"
#include "runtime/error.hpp"

namespace tca::phasespace {
namespace {

namespace fs = std::filesystem;

/// Deterministic n-bit value pattern exercising 0, the all-ones mask,
/// and mixed bit patterns at every position.
std::vector<StateCode> boundary_pattern(std::uint32_t bits,
                                        std::size_t count) {
  const StateCode mask =
      bits >= 64 ? ~StateCode{0} : (StateCode{1} << bits) - 1;
  std::vector<StateCode> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0: v[i] = 0; break;
      case 1: v[i] = mask; break;  // 2^n - 1: every payload bit set
      case 2: v[i] = (0x9E3779B97F4A7C15ull * (i + 1)) & mask; break;
      default: v[i] = StateCode{1} << (i % bits); break;
    }
  }
  return v;
}

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(fs::temp_directory_path() /
              (std::string("tca-store-test-") + tag + "-" +
               std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// --- flat --------------------------------------------------------------

TEST(FlatStore, WrapsExternallyBuiltTable) {
  std::vector<StateCode> table{3, 2, 1, 0};
  FlatStore store(2, std::move(table));
  EXPECT_EQ(store.kind(), StoreKind::kFlat);
  EXPECT_EQ(store.num_entries(), 4u);
  EXPECT_EQ(store.get(0), 3u);
  EXPECT_EQ(store.get(3), 0u);
  ASSERT_NE(store.flat_table(), nullptr);
  EXPECT_EQ(store.flat_table()->size(), 4u);
  // for_each_range on a flat store is zero-copy over the vector.
  store.for_each_range(
      [&](StateCode first, std::size_t count, const StateCode* block) {
        EXPECT_EQ(first, 0u);
        EXPECT_EQ(count, 4u);
        EXPECT_EQ(block, store.flat_table()->data());
      });
}

// --- disk: n-bit codec at the width boundaries ------------------------

TEST(DiskStore, RoundTripsBoundaryWidths) {
  // n=1 (minimum, 8 entries/byte), n=26 (the flat cap), n=27 (past it),
  // n=32 (the disk cap). Capacity is kept small: the bit-packing logic is
  // identical at any entry count.
  for (const std::uint32_t bits : {1u, 26u, 27u, 32u}) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    TempDir dir("widths");
    constexpr std::size_t kEntries = 1031;  // prime: every byte phase hit
    DiskStore store(bits, dir.path().string(), kEntries);
    EXPECT_EQ(store.bits(), bits);
    EXPECT_EQ(store.num_entries(), kEntries);

    const std::vector<StateCode> want = boundary_pattern(bits, kEntries);
    store.put_range(0, kEntries, want.data());
    store.finalize();

    // Random access...
    for (std::size_t i = 0; i < kEntries; ++i) {
      ASSERT_EQ(store.get(i), want[i]) << "entry " << i;
    }
    // ...bulk decode, including an unaligned interior window (at n=27
    // entry 517 starts 7 bits into its byte)...
    std::vector<StateCode> got(kEntries, ~StateCode{0});
    store.read_range(0, kEntries, got.data());
    EXPECT_EQ(got, want);
    std::vector<StateCode> window(63, ~StateCode{0});
    store.read_range(517, 63, window.data());
    for (std::size_t i = 0; i < 63; ++i) {
      ASSERT_EQ(window[i], want[517 + i]) << "window entry " << i;
    }
    // ...and the streaming surface all censuses use.
    std::size_t streamed = 0;
    store.for_each_range(
        [&](StateCode first, std::size_t count, const StateCode* block) {
          for (std::size_t j = 0; j < count; ++j) {
            ASSERT_EQ(block[j], want[first + j]);
          }
          streamed += count;
        });
    EXPECT_EQ(streamed, kEntries);
  }
}

TEST(DiskStore, ExtremeValuesAtFirstAndLastEntry) {
  for (const std::uint32_t bits : {1u, 26u, 27u, 32u}) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    TempDir dir("extremes");
    const StateCode mask = (StateCode{1} << bits) - 1;
    DiskStore store(bits, dir.path().string(), 257);
    std::vector<StateCode> v(257, 0);
    v.front() = mask;  // 2^n - 1 in the first slot
    v.back() = mask;   // and in the last (guard-byte adjacency)
    store.put_range(0, v.size(), v.data());
    store.finalize();
    EXPECT_EQ(store.get(0), mask);
    EXPECT_EQ(store.get(256), mask);
    for (std::size_t i = 1; i < 256; ++i) ASSERT_EQ(store.get(i), 0u);
    std::vector<StateCode> got(257, ~StateCode{0});
    store.read_range(0, got.size(), got.data());
    EXPECT_EQ(got, v);
  }
}

TEST(DiskStore, RejectsWidthsPastTheDiskCap) {
  // Past n=32 the one-window decode of get() and read_range would return
  // wrong entries for some widths, so the constructor refuses them all.
  TempDir dir("too-wide");
  for (const std::uint32_t bits : {33u, 63u}) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    EXPECT_THROW(DiskStore(bits, dir.path().string(), 1024),
                 tca::InvalidArgumentError);
  }
}

TEST(DiskStore, RejectsOutOfRangeWrites) {
  TempDir dir("range");
  DiskStore store(8, dir.path().string(), 100);
  std::vector<StateCode> v(8, 0);
  EXPECT_THROW(store.put_range(96, 8, v.data()), tca::StateError);
}

TEST(DiskStore, SpillsAlignedExtentsAndReadsThemBack) {
  TempDir dir("basic");
  constexpr std::uint32_t kBits = 13;
  constexpr std::size_t kEntries = 3 * kPutAlign + 100;  // ragged tail
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);

  DiskStore store(kBits, dir.path().string(), kEntries);
  for (std::size_t at = 0; at < kEntries; at += kPutAlign) {
    const std::size_t n = std::min<std::size_t>(kPutAlign, kEntries - at);
    store.put_range(at, n, want.data() + at);
  }
  EXPECT_TRUE(store.complete());
  EXPECT_GT(store.spilled_bytes(), 0u);
  store.finalize();

  std::vector<StateCode> got(kEntries, ~StateCode{0});
  store.read_range(0, kEntries, got.data());
  EXPECT_EQ(got, want);
  EXPECT_EQ(store.get(0), want[0]);
  EXPECT_EQ(store.get(kEntries - 1), want[kEntries - 1]);
}

TEST(DiskStore, ConcurrentFirstGetsOnAFinalizedStore) {
  // The first get() maps the data file; racing first readers (a
  // multi-threaded classify over a disk-backed graph) must agree on one
  // mapping and all read the right entries.
  TempDir dir("concurrent-get");
  constexpr std::uint32_t kBits = 11;
  constexpr std::size_t kEntries = std::size_t{1} << kBits;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  DiskStore store(kBits, dir.path().string(), kEntries);
  store.put_range(0, kEntries, want.data());
  store.finalize();

  constexpr unsigned kReaders = 4;
  std::vector<std::size_t> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    TCA_JOINED_BEFORE_SCOPE_EXIT("joined right after the spawn loop");
    readers.emplace_back([&store, &want, &mismatches, r] {
      for (std::size_t i = 0; i < kEntries; ++i) {
        const std::size_t s = (i * (2 * r + 1) + r) % kEntries;
        if (store.get(s) != want[s]) ++mismatches[r];
      }
    });
  }
  for (std::thread& t : readers) t.join();
  for (unsigned r = 0; r < kReaders; ++r) {
    EXPECT_EQ(mismatches[r], 0u) << "reader " << r;
  }
  EXPECT_GT(store.resident_bytes(), 0u);
}

TEST(DiskStore, RejectsUnalignedAndPostFinalizeWrites) {
  TempDir dir("align");
  DiskStore store(10, dir.path().string(), 2 * kPutAlign);
  std::vector<StateCode> v(kPutAlign, 0);
  // Misaligned first entry.
  EXPECT_THROW(store.put_range(7, kPutAlign, v.data()), tca::StateError);
  // Interior range with a ragged count (only the FINAL range may be).
  EXPECT_THROW(store.put_range(0, 100, v.data()), tca::StateError);
  store.put_range(0, kPutAlign, v.data());
  store.put_range(kPutAlign, kPutAlign, v.data());
  store.finalize();
  EXPECT_THROW(store.put_range(0, kPutAlign, v.data()), tca::StateError);
}

TEST(DiskStore, ResumeKeepsDigestValidExtentsOnly) {
  TempDir dir("resume");
  constexpr std::uint32_t kBits = 11;
  constexpr std::size_t kEntries = 4 * kPutAlign;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    // Simulated crash mid-build: only 3 of 4 extents spilled, then
    // finalize (the sharded builder finalizes truncated disk builds for
    // exactly this resume path).
    for (std::size_t at = 0; at < 3 * kPutAlign; at += kPutAlign) {
      store.put_range(at, kPutAlign, want.data() + at);
    }
    store.finalize();
    EXPECT_FALSE(store.complete());
  }
  // Corrupt one byte inside the SECOND extent's packed bytes (a torn
  // pwrite / bit rot survivor).
  {
    const fs::path data = dir.path() / "succ.dat";
    std::fstream f(data, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const std::uint64_t byte =
        (std::uint64_t{kPutAlign} * kBits) / 8 + 5;  // inside extent 2
    f.seekg(static_cast<std::streamoff>(byte));
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(byte));
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  const std::vector<DiskStore::Extent> kept = reopened.resume();
  // Extents 1 and 3 revalidate; the corrupted extent 2 is dropped.
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].first, 0u);
  EXPECT_EQ(kept[1].first, 2 * kPutAlign);
  EXPECT_FALSE(reopened.complete());
  // Rebuilding exactly the dropped + missing ranges completes the store
  // with the original contents.
  reopened.put_range(kPutAlign, kPutAlign, want.data() + kPutAlign);
  reopened.put_range(3 * kPutAlign, kPutAlign, want.data() + 3 * kPutAlign);
  EXPECT_TRUE(reopened.complete());
  reopened.finalize();
  std::vector<StateCode> got(kEntries);
  reopened.read_range(0, kEntries, got.data());
  EXPECT_EQ(got, want);
}

TEST(DiskStore, ResumeSurvivesTruncatedDataFile) {
  TempDir dir("truncated");
  constexpr std::uint32_t kBits = 9;
  constexpr std::size_t kEntries = 2 * kPutAlign;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    store.put_range(0, kPutAlign, want.data());
    store.put_range(kPutAlign, kPutAlign, want.data() + kPutAlign);
    store.finalize();
  }
  // SIGKILL-style torn state: the data file lost its tail but the
  // manifest still names both extents.
  fs::resize_file(dir.path() / "succ.dat",
                  (std::uint64_t{kPutAlign} * kBits) / 8 + 10);
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  const auto kept = reopened.resume();
  // The torn second extent reads back short (zero-filled) and fails its
  // digest; only the intact first extent survives.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].first, 0u);
  EXPECT_EQ(kept[0].count, kPutAlign);
}

TEST(DiskStore, UnfinalizedStoreKeepsAtLeastHalfItsExtents) {
  // A killed build never reaches finalize(); the manifest re-saved at
  // every doubling of the extent count must still name at least half of
  // the finished extents.
  TempDir dir("killed");
  constexpr std::uint32_t kBits = 10;
  constexpr std::size_t kExtents = 13;  // last doubling save at 8
  constexpr std::size_t kEntries = 16 * kPutAlign;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    for (std::size_t i = 0; i < kExtents; ++i) {
      store.put_range(i * kPutAlign, kPutAlign, want.data() + i * kPutAlign);
    }
    // Destroyed without finalize(), as by SIGKILL mid-build.
  }
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  const std::vector<DiskStore::Extent> kept = reopened.resume();
  EXPECT_GE(2 * kept.size(), kExtents);
  EXPECT_LE(kept.size(), kExtents);
  for (const DiskStore::Extent& e : kept) {
    ASSERT_EQ(e.count, kPutAlign);
    std::vector<StateCode> got(kPutAlign);
    reopened.read_range(e.first, kPutAlign, got.data());
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           want.begin() + static_cast<std::ptrdiff_t>(e.first)))
        << "extent at " << e.first;
  }
}

TEST(DiskStore, ResumeOnEmptyDirectoryIsEmpty) {
  TempDir dir("empty");
  DiskStore store(8, dir.path().string(), kPutAlign);
  EXPECT_TRUE(store.resume().empty());
  EXPECT_FALSE(store.complete());
}

// --- factory / caps ----------------------------------------------------

TEST(MakeStore, EnforcesPerBackendCaps) {
  EXPECT_THROW((void)make_store(StoreKind::kFlat, 27),
               tca::InvalidArgumentError);
  EXPECT_THROW((void)make_store(StoreKind::kDisk, 33, "/tmp/x"),
               tca::InvalidArgumentError);
  EXPECT_THROW((void)make_store(StoreKind::kDisk, 20),
               tca::InvalidArgumentError);  // no directory
  EXPECT_EQ(max_explicit_bits(StoreKind::kFlat), 26u);
  EXPECT_EQ(max_explicit_bits(StoreKind::kDisk), 32u);
}

TEST(MakeStore, BuildsEachBackend) {
  TempDir dir("factory");
  const auto flat = make_store(StoreKind::kFlat, 4);
  EXPECT_EQ(flat->kind(), StoreKind::kFlat);
  EXPECT_EQ(flat->num_entries(), 16u);
  const auto disk = make_store(StoreKind::kDisk, 4, dir.path().string());
  EXPECT_EQ(disk->kind(), StoreKind::kDisk);
  EXPECT_EQ(std::string(store_kind_name(StoreKind::kFlat)), "flat");
  EXPECT_EQ(std::string(store_kind_name(StoreKind::kDisk)), "disk");
}

}  // namespace
}  // namespace tca::phasespace
