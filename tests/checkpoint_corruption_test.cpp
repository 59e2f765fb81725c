// Corruption-mode coverage for the checkpoint loader
// (src/runtime/checkpoint.cpp): each damage class must be rejected with
// its own DISTINCT tca::ErrorCode — truncation, payload corruption, and
// version mismatch are different operational situations (retry, delete,
// migrate) and must be distinguishable. Also asserts the observability
// contract: every rejection bumps "checkpoint.load_failures" and emits a
// "checkpoint.rejected" event.

#include "runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
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

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test, per-process: ctest runs each case (and the `_suite`
    // binary) as its own process, concurrently under `ctest -j`.
    dir_ = fs::temp_directory_path() /
           ("tca_ckpt_corruption_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "state.ckpt").string();
    Checkpoint ck;
    ck.payload = "sweep=demo\ndone=exp1|PASS|all good\n";
    save_checkpoint(path_, ck);
  }

  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void write_file(const std::string& blob) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  /// Expects load_checkpoint to throw CheckpointError with exactly `code`,
  /// and the rejection to be observable (counter + structured event).
  void expect_rejection(ErrorCode code) const {
    obs::Counter& failures = obs::counter("checkpoint.load_failures");
    const std::uint64_t before = failures.value();
    std::vector<obs::LogRecord> captured;
    obs::ScopedLogSink sink(
        [&](const obs::LogRecord& r) { captured.push_back(r); });
    try {
      (void)load_checkpoint(path_);
      FAIL() << "expected CheckpointError(" << error_code_name(code) << ")";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), code) << e.what();
    }
    EXPECT_EQ(failures.value(), before + 1);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].event, "checkpoint.rejected");
    EXPECT_EQ(try_load_checkpoint(path_), std::nullopt)
        << "try_load must map the failure to nullopt";
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(CheckpointCorruptionTest, IntactCheckpointRoundTrips) {
  const Checkpoint ck = load_checkpoint(path_);
  EXPECT_EQ(ck.version, kCheckpointVersion);
  EXPECT_EQ(ck.payload, "sweep=demo\ndone=exp1|PASS|all good\n");
}

TEST_F(CheckpointCorruptionTest, TruncatedPayloadIsDistinct) {
  const std::string blob = read_file();
  ASSERT_GT(blob.size(), 7u);
  write_file(blob.substr(0, blob.size() - 7));
  expect_rejection(ErrorCode::kCheckpointTruncated);
}

TEST_F(CheckpointCorruptionTest, PaddedPayloadIsAlsoTruncationClass) {
  write_file(read_file() + "trailing junk");
  expect_rejection(ErrorCode::kCheckpointTruncated);
}

TEST_F(CheckpointCorruptionTest, BitFlippedPayloadIsCorrupt) {
  std::string blob = read_file();
  // Flip one bit in the payload (well past the framing header).
  blob[blob.size() - 3] = static_cast<char>(blob[blob.size() - 3] ^ 0x01);
  write_file(blob);
  expect_rejection(ErrorCode::kCheckpointCorrupt);
}

TEST_F(CheckpointCorruptionTest, WrongVersionIsDistinct) {
  std::string blob = read_file();
  const std::string tag = "TCA-CKPT v1";
  ASSERT_EQ(blob.rfind(tag, 0), 0u);
  blob.replace(0, tag.size(), "TCA-CKPT v9");
  write_file(blob);
  expect_rejection(ErrorCode::kCheckpointVersion);
}

TEST_F(CheckpointCorruptionTest, BadMagicIsCorrupt) {
  std::string blob = read_file();
  blob[0] = 'X';
  write_file(blob);
  expect_rejection(ErrorCode::kCheckpointCorrupt);
}

TEST_F(CheckpointCorruptionTest, GarbageFileIsCorrupt) {
  write_file("not a checkpoint at all\n");
  expect_rejection(ErrorCode::kCheckpointCorrupt);
}

TEST_F(CheckpointCorruptionTest, MissingFileIsIoNotCorruption) {
  fs::remove(path_);
  try {
    (void)load_checkpoint(path_);
    FAIL() << "expected CheckpointError(kIo)";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  EXPECT_EQ(try_load_checkpoint(path_), std::nullopt);
}

// Regression for the save-side error path (found by the static-analysis
// burn-down, PR 5): a failed WRITE used to strand `<path>.tmp` on disk,
// violating the durability contract "old complete checkpoint or new
// complete checkpoint, and nothing else". The fault plan's
// checkpoint_write_at knob makes the k-th save's write fail after the tmp
// file exists — exactly the shape of a disk filling up mid-write.
TEST_F(CheckpointCorruptionTest, FailedWriteRemovesTmpAndKeepsOldCheckpoint) {
  const std::string before = read_file();
  const std::string tmp = path_ + ".tmp";
  {
    ScopedFaultPlan plan({.checkpoint_write_at = 1});
    Checkpoint ck;
    ck.payload = "sweep=demo\ndone=exp2|PASS|newer\n";
    try {
      save_checkpoint(path_, ck);
      FAIL() << "expected CheckpointError(kIo)";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIo);
    }
  }
  EXPECT_FALSE(fs::exists(tmp)) << "failed write must clean up its tmp file";
  EXPECT_EQ(read_file(), before) << "old checkpoint must survive untouched";
  const auto resumed = try_load_checkpoint(path_);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->payload, "sweep=demo\ndone=exp1|PASS|all good\n");
}

// The fault knob fires exactly once: the save after the failed one
// succeeds and replaces the checkpoint atomically.
TEST_F(CheckpointCorruptionTest, SaveAfterFailedWriteSucceeds) {
  ScopedFaultPlan plan({.checkpoint_write_at = 1});
  Checkpoint ck;
  ck.payload = "second attempt\n";
  EXPECT_THROW(save_checkpoint(path_, ck), CheckpointError);
  save_checkpoint(path_, ck);
  const auto loaded = load_checkpoint(path_);
  EXPECT_EQ(loaded.payload, "second attempt\n");
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

// The fault plan's read knob makes load_checkpoint reject an INTACT file
// as checksum-corrupt — same ErrorCode, same counter, same event as real
// bit rot — and fires exactly once, so the identical load then succeeds.
// This is the hook the chaos sweep and the generational store's recovery
// tests inject read-path corruption through without damaging any bytes.
TEST_F(CheckpointCorruptionTest, InjectedReadCorruptionFiresOnce) {
  obs::Counter& failures = obs::counter("checkpoint.load_failures");
  const std::uint64_t before = failures.value();
  ScopedFaultPlan plan({.checkpoint_read_corrupt_at = 1});
  try {
    (void)load_checkpoint(path_);
    FAIL() << "expected injected CheckpointError(kCheckpointCorrupt)";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCheckpointCorrupt) << e.what();
  }
  EXPECT_EQ(failures.value(), before + 1)
      << "injected corruption must be as observable as real corruption";
  // The knob is consumed and the file was never actually damaged: the
  // identical load now succeeds.
  const Checkpoint ck = load_checkpoint(path_);
  EXPECT_EQ(ck.payload, "sweep=demo\ndone=exp1|PASS|all good\n");
}

TEST_F(CheckpointCorruptionTest, InjectedReadCorruptionTargetsTheKthLoad) {
  ScopedFaultPlan plan({.checkpoint_read_corrupt_at = 2});
  EXPECT_NO_THROW((void)load_checkpoint(path_));
  EXPECT_THROW((void)load_checkpoint(path_), CheckpointError);
  EXPECT_NO_THROW((void)load_checkpoint(path_));
}

// The three corruption codes really are three different values (the whole
// point of the distinct-code contract).
TEST(CheckpointErrorCodes, AreDistinct) {
  EXPECT_NE(ErrorCode::kCheckpointTruncated, ErrorCode::kCheckpointCorrupt);
  EXPECT_NE(ErrorCode::kCheckpointTruncated, ErrorCode::kCheckpointVersion);
  EXPECT_NE(ErrorCode::kCheckpointCorrupt, ErrorCode::kCheckpointVersion);
  EXPECT_STREQ(error_code_name(ErrorCode::kCheckpointTruncated),
               "checkpoint-truncated");
}

}  // namespace
}  // namespace tca::runtime
