// Generational checkpoint store (src/runtime/ckpt_store.hpp,
// docs/robustness.md): keep-last-K rotation, recovery across the full
// corruption matrix from checkpoint_corruption_test, and the quarantine
// contract — a file that fails validation is RENAMED out of the candidate
// set, never deleted, so forensics always have the corrupt bytes.

#include "runtime/ckpt_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::runtime {
namespace {

namespace fs = std::filesystem;

class CkptStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test, per-process directory: the per-case and whole-binary
    // (`_suite`) ctest entries run concurrently under `ctest -j`.
    dir_ = fs::temp_directory_path() /
           ("tca_ckpt_store_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    head_ = (dir_ / "state.ckpt").string();
  }

  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] Checkpoint make(const std::string& payload) const {
    Checkpoint ck;
    ck.payload = payload;
    return ck;
  }

  [[nodiscard]] std::string read_file(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void write_file(const std::string& path, const std::string& blob) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  /// Files in the store directory, sorted — quarantine assertions need the
  /// whole picture, not just the store's own view.
  [[nodiscard]] std::vector<std::string> dir_listing() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  fs::path dir_;
  std::string head_;
};

TEST_F(CkptStoreTest, FirstSaveCreatesOnlyTheHead) {
  CheckpointStore store(head_, {.keep_generations = 3});
  store.save(make("gen0"));
  EXPECT_EQ(dir_listing(), (std::vector<std::string>{"state.ckpt"}));
  EXPECT_EQ(store.generations(), (std::vector<std::string>{head_}));
}

TEST_F(CkptStoreTest, SavesRotateNewestFirstAndPruneBeyondK) {
  CheckpointStore store(head_, {.keep_generations = 3});
  for (int i = 0; i < 5; ++i) {
    store.save(make("gen" + std::to_string(i)));
  }
  // 5 saves, keep 3: head (gen4) + .g4 (gen3) + .g3 (gen2); .g1/.g2 pruned.
  EXPECT_EQ(dir_listing(), (std::vector<std::string>{
                               "state.ckpt", "state.ckpt.g3",
                               "state.ckpt.g4"}));
  EXPECT_EQ(store.generations(),
            (std::vector<std::string>{head_, head_ + ".g4", head_ + ".g3"}));
  EXPECT_EQ(load_checkpoint(head_).payload, "gen4");
  EXPECT_EQ(load_checkpoint(head_ + ".g4").payload, "gen3");
  EXPECT_EQ(load_checkpoint(head_ + ".g3").payload, "gen2");
}

TEST_F(CkptStoreTest, KeepGenerationsClampsToOne) {
  CheckpointStore store(head_, {.keep_generations = 0});
  store.save(make("a"));
  store.save(make("b"));
  // keep==1 retains only the head; the rotated .g1 is pruned immediately.
  EXPECT_EQ(dir_listing(), (std::vector<std::string>{"state.ckpt"}));
  EXPECT_EQ(load_checkpoint(head_).payload, "b");
}

TEST_F(CkptStoreTest, LoadLatestPrefersAHealthyHead) {
  CheckpointStore store(head_, {.keep_generations = 3});
  store.save(make("old"));
  store.save(make("new"));
  const auto recovery = store.load_latest();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint.payload, "new");
  EXPECT_EQ(recovery->path, head_);
  EXPECT_FALSE(recovery->from_generation);
  EXPECT_EQ(recovery->quarantined, 0u);
}

TEST_F(CkptStoreTest, EmptyStoreLoadsNothing) {
  CheckpointStore store(head_, {.keep_generations = 3});
  EXPECT_EQ(store.load_latest(), std::nullopt);
}

TEST_F(CkptStoreTest, MissingHeadFallsBackWithoutQuarantine) {
  CheckpointStore store(head_, {.keep_generations = 3});
  store.save(make("old"));
  store.save(make("new"));
  fs::remove(head_);
  const auto recovery = store.load_latest();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint.payload, "old");
  EXPECT_EQ(recovery->path, head_ + ".g1");
  EXPECT_TRUE(recovery->from_generation);
  EXPECT_EQ(recovery->quarantined, 0u)
      << "a missing file is skipped, not quarantined";
}

// The corruption matrix from checkpoint_corruption_test, replayed against
// the store: every damage class must quarantine the head and recover the
// previous generation.
class CkptStoreCorruptionTest : public CkptStoreTest {
 protected:
  void SetUp() override {
    CkptStoreTest::SetUp();
    CheckpointStore store(head_, {.keep_generations = 3});
    store.save(make("good-old"));
    store.save(make("good-new"));
  }

  /// Damages the head with `mutate`, then asserts: recovery lands on .g1,
  /// the damaged head is renamed to .quarantined (bytes preserved), and a
  /// warn event fires.
  void expect_quarantined_recovery(
      const std::function<std::string(std::string)>& mutate) {
    const std::string damaged = mutate(read_file(head_));
    write_file(head_, damaged);

    obs::Counter& quarantined_c = obs::counter("ckpt_store.quarantined");
    const auto q_before = quarantined_c.value();
    std::vector<obs::LogRecord> events;
    obs::ScopedLogSink sink(
        [&](const obs::LogRecord& r) { events.push_back(r); });

    CheckpointStore store(head_, {.keep_generations = 3});
    const auto recovery = store.load_latest();
    ASSERT_TRUE(recovery.has_value());
    EXPECT_EQ(recovery->checkpoint.payload, "good-old");
    EXPECT_TRUE(recovery->from_generation);
    EXPECT_EQ(recovery->quarantined, 1u);

    EXPECT_FALSE(fs::exists(head_)) << "damaged head must be renamed away";
    const std::string quarantine_path = head_ + ".quarantined";
    ASSERT_TRUE(fs::exists(quarantine_path));
    EXPECT_EQ(read_file(quarantine_path), damaged)
        << "quarantine must preserve the corrupt bytes for forensics";
    EXPECT_EQ(quarantined_c.value(), q_before + 1);

    bool warned = false;
    for (const auto& r : events) {
      if (r.event == "ckpt_store.quarantined" &&
          r.level == obs::LogLevel::kWarn) {
        warned = true;
      }
    }
    EXPECT_TRUE(warned);
  }
};

TEST_F(CkptStoreCorruptionTest, BitFlippedHeadRecoversFromGeneration) {
  expect_quarantined_recovery([](std::string blob) {
    blob[blob.size() - 3] = static_cast<char>(blob[blob.size() - 3] ^ 0x01);
    return blob;
  });
}

TEST_F(CkptStoreCorruptionTest, TruncatedHeadRecoversFromGeneration) {
  expect_quarantined_recovery(
      [](std::string blob) { return blob.substr(0, blob.size() - 7); });
}

TEST_F(CkptStoreCorruptionTest, PaddedHeadRecoversFromGeneration) {
  expect_quarantined_recovery(
      [](std::string blob) { return blob + "trailing junk"; });
}

TEST_F(CkptStoreCorruptionTest, BadMagicHeadRecoversFromGeneration) {
  expect_quarantined_recovery([](std::string blob) {
    blob[0] = 'X';
    return blob;
  });
}

TEST_F(CkptStoreCorruptionTest, WrongVersionHeadRecoversFromGeneration) {
  expect_quarantined_recovery([](std::string blob) {
    const std::string tag = "TCA-CKPT v1";
    blob.replace(0, tag.size(), "TCA-CKPT v9");
    return blob;
  });
}

TEST_F(CkptStoreCorruptionTest, GarbageHeadRecoversFromGeneration) {
  expect_quarantined_recovery(
      [](std::string) { return std::string("not a checkpoint at all\n"); });
}

TEST_F(CkptStoreCorruptionTest, EverythingCorruptQuarantinesAllAndFails) {
  // Damage the head AND the only generation: nothing validates, both are
  // quarantined, nothing is deleted.
  write_file(head_, "garbage head");
  write_file(head_ + ".g1", "garbage gen");
  CheckpointStore store(head_, {.keep_generations = 3});
  EXPECT_EQ(store.load_latest(), std::nullopt);
  EXPECT_FALSE(fs::exists(head_));
  EXPECT_FALSE(fs::exists(head_ + ".g1"));
  EXPECT_TRUE(fs::exists(head_ + ".quarantined"));
  EXPECT_TRUE(fs::exists(head_ + ".g1.quarantined"));
}

TEST_F(CkptStoreCorruptionTest, RepeatQuarantinesGetDistinctNames) {
  write_file(head_, "garbage one");
  CheckpointStore store(head_, {.keep_generations = 3});
  ASSERT_TRUE(store.load_latest().has_value());  // recovered from .g1
  write_file(head_, "garbage two");
  ASSERT_TRUE(store.load_latest().has_value());
  EXPECT_TRUE(fs::exists(head_ + ".quarantined"));
  EXPECT_TRUE(fs::exists(head_ + ".quarantined.1"))
      << "a second quarantine of the same path must not clobber the first";
  EXPECT_EQ(read_file(head_ + ".quarantined"), "garbage one");
  EXPECT_EQ(read_file(head_ + ".quarantined.1"), "garbage two");
}

TEST_F(CkptStoreCorruptionTest, QuarantinedFilesLeaveTheCandidateSet) {
  write_file(head_, "garbage head");
  CheckpointStore store(head_, {.keep_generations = 3});
  ASSERT_TRUE(store.load_latest().has_value());
  // The quarantined file is invisible to generations() and to saves.
  EXPECT_EQ(store.generations(), (std::vector<std::string>{head_ + ".g1"}));
  store.save(make("fresh"));
  const auto recovery = store.load_latest();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint.payload, "fresh");
  EXPECT_FALSE(recovery->from_generation);
  EXPECT_TRUE(fs::exists(head_ + ".quarantined"))
      << "saving again must never touch quarantined files";
}

TEST_F(CkptStoreTest, InjectedReadCorruptionDrivesRecovery) {
  // The fault plan's read knob reports the (intact) head as corrupt — the
  // store must quarantine it and recover generation data, proving the
  // whole recovery path without hand-crafted file damage.
  CheckpointStore store(head_, {.keep_generations = 3});
  store.save(make("old"));
  store.save(make("new"));
  ScopedFaultPlan plan({.checkpoint_read_corrupt_at = 1});
  const auto recovery = store.load_latest();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint.payload, "old");
  EXPECT_TRUE(recovery->from_generation);
  EXPECT_EQ(recovery->quarantined, 1u);
  EXPECT_TRUE(fs::exists(head_ + ".quarantined"));
}

TEST_F(CkptStoreTest, InjectedWriteFailureLeavesStoreConsistent) {
  CheckpointStore store(head_, {.keep_generations = 3});
  store.save(make("good"));
  {
    ScopedFaultPlan plan({.checkpoint_write_at = 1});
    EXPECT_THROW(store.save(make("doomed")), CheckpointError);
  }
  // The failed save already rotated the old head; recovery still finds it.
  const auto recovery = store.load_latest();
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->checkpoint.payload, "good");
  // And the store keeps working after the fault.
  store.save(make("after"));
  EXPECT_EQ(load_checkpoint(head_).payload, "after");
}

TEST_F(CkptStoreTest, RecoveryCounterTracksFallbacks) {
  obs::Counter& recoveries = obs::counter("ckpt_store.recoveries");
  CheckpointStore store(head_, {.keep_generations = 3});
  store.save(make("a"));
  store.save(make("b"));
  const auto before = recoveries.value();
  ASSERT_TRUE(store.load_latest().has_value());
  EXPECT_EQ(recoveries.value(), before) << "healthy head is not a recovery";
  fs::remove(head_);
  ASSERT_TRUE(store.load_latest().has_value());
  EXPECT_EQ(recoveries.value(), before + 1);
}

}  // namespace
}  // namespace tca::runtime
