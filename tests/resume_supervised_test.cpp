// The kill-and-resume contract as a ctest binary (docs/robustness.md): a
// checkpointing sweep child process is SIGKILLed mid-run, restarted, and
// must resume from its generational store and produce a summary
// bit-identical to an uninterrupted run — including when the head
// checkpoint it left behind is corrupted, in which case recovery falls
// back to an older generation and quarantines the head, and when the
// only checkpoint is truncated, in which case the rerun starts from
// scratch and still converges to the same summary.
//
// This binary owns main(): when invoked as `... --child <workdir>
// [--slow]` it IS the sweep child (the dispatch happens before gtest ever
// sees argv), otherwise it runs the test suite, re-executing itself via
// fork/exec as the child under test. POSIX-only.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/automaton.hpp"
#include "phasespace/sharded_build.hpp"
#include "runtime/ckpt_store.hpp"

namespace {

namespace fs = std::filesystem;

constexpr int kItems = 6;  // majority rings n = 4 .. 9

std::string g_self_path;  // the test binary, re-executed as the child

// ---------------------------------------------------------------------------
// Child mode: a miniature checkpointing sweep. One deterministic result
// line per item, a CheckpointStore save after every item, and the final
// summary written only when all items are done. Every run appends its
// starting position to runs.log so the parent can prove a resume actually
// resumed instead of silently starting over.

std::string item_line(int item) {
  const std::size_t n = static_cast<std::size_t>(4 + item);
  const auto a = tca::core::Automaton::line(
      n, 1, tca::core::Boundary::kRing, tca::rules::majority(),
      tca::core::Memory::kWith);
  tca::runtime::RunControl control;
  const std::uint64_t gardens =
      tca::phasespace::count_gardens_of_eden(
          a, std::nullopt, tca::phasespace::ShardedBuildOptions{}, control)
          .gardens;
  std::ostringstream line;
  line << "n=" << n << "|gardens=" << gardens;
  return line.str();
}

int run_child(const std::string& workdir, bool slow) {
  using tca::runtime::Checkpoint;
  using tca::runtime::CheckpointStore;

  CheckpointStore store((fs::path(workdir) / "resume.ckpt").string(),
                        {.keep_generations = 3});
  std::vector<std::string> lines;
  if (const auto recovery = store.load_latest()) {
    std::istringstream payload(recovery->checkpoint.payload);
    for (std::string line; std::getline(payload, line);) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  {
    std::ofstream log(fs::path(workdir) / "runs.log", std::ios::app);
    log << "start done=" << lines.size() << "\n";
  }

  for (int item = static_cast<int>(lines.size()); item < kItems; ++item) {
    lines.push_back(item_line(item));
    Checkpoint ck;
    for (const std::string& line : lines) ck.payload += line + "\n";
    store.save(ck);
    if (slow) {
      // Leave the parent a wide window to observe the store and SIGKILL
      // this process between items.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  }

  std::ofstream summary(fs::path(workdir) / "summary.txt",
                        std::ios::trunc);
  for (const std::string& line : lines) summary << line << "\n";
  return summary ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Parent-side helpers.

pid_t spawn_child(const std::string& workdir, bool slow) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  std::string self = g_self_path;
  std::string child_flag = "--child";
  std::string dir = workdir;
  std::string slow_flag = "--slow";
  std::vector<char*> argv = {self.data(), child_flag.data(), dir.data()};
  if (slow) argv.push_back(slow_flag.data());
  argv.push_back(nullptr);
  execv(self.c_str(), argv.data());
  _exit(127);  // exec failed
}

[[nodiscard]] int wait_for_exit(pid_t pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

/// Polls until `path` exists (up to ~15 s). False on timeout.
[[nodiscard]] bool wait_for_file(const fs::path& path) {
  for (int i = 0; i < 1500; ++i) {
    if (fs::exists(path)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The "start done=<k>" positions recorded by every child run, in order.
[[nodiscard]] std::vector<int> run_starts(const fs::path& workdir) {
  std::istringstream log(read_file(workdir / "runs.log"));
  std::vector<int> starts;
  for (std::string line; std::getline(log, line);) {
    const std::string prefix = "start done=";
    if (line.rfind(prefix, 0) == 0) {
      starts.push_back(std::atoi(line.c_str() + prefix.size()));
    }
  }
  return starts;
}

class ResumeSupervisedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test, per-process directory: the per-case and whole-binary
    // (`_suite`) ctest entries run concurrently under `ctest -j`.
    root_ = fs::temp_directory_path() /
            ("tca_resume_supervised_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    // The fault-free reference summary, computed once per fixture setup.
    const fs::path base = make_workdir("baseline");
    ASSERT_EQ(wait_for_exit(spawn_child(base.string(), false)), 0);
    baseline_ = read_file(base / "summary.txt");
    ASSERT_FALSE(baseline_.empty());
  }

  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] fs::path make_workdir(const std::string& name) const {
    const fs::path dir = root_ / name;
    fs::create_directories(dir);
    return dir;
  }

  fs::path root_;
  std::string baseline_;
};

TEST_F(ResumeSupervisedTest, KillMidSweepThenResumeIsBitIdentical) {
  const fs::path dir = make_workdir("kill_resume");
  const pid_t pid = spawn_child(dir.string(), true);
  ASSERT_GT(pid, 0);
  // The head checkpoint appearing means at least one item is durable.
  ASSERT_TRUE(wait_for_file(dir / "resume.ckpt")) << "child never saved";
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  const int status = wait_for_exit(pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Second run: must pick up from the store, not start over.
  ASSERT_EQ(wait_for_exit(spawn_child(dir.string(), false)), 0);
  const auto starts = run_starts(dir);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_GE(starts[1], 1) << "the resumed run must see the killed run's work";
  EXPECT_EQ(read_file(dir / "summary.txt"), baseline_)
      << "kill-and-resume must be bit-identical to an uninterrupted run";
}

TEST_F(ResumeSupervisedTest, CorruptHeadAfterKillRecoversFromGeneration) {
  const fs::path dir = make_workdir("corrupt_head");
  const pid_t pid = spawn_child(dir.string(), true);
  ASSERT_GT(pid, 0);
  // Wait for the SECOND save (the first rotation) so an older generation
  // exists to fall back to, then kill and damage the head.
  ASSERT_TRUE(wait_for_file(dir / "resume.ckpt.g1")) << "no rotation yet";
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  (void)wait_for_exit(pid);

  const fs::path head = dir / "resume.ckpt";
  ASSERT_TRUE(fs::exists(head));
  std::string blob = read_file(head);
  ASSERT_GT(blob.size(), 3u);
  blob[blob.size() - 3] = static_cast<char>(blob[blob.size() - 3] ^ 0x01);
  {
    std::ofstream out(head, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  ASSERT_EQ(wait_for_exit(spawn_child(dir.string(), false)), 0);
  const auto starts = run_starts(dir);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_GE(starts[1], 1)
      << "recovery must come from the previous generation, not from scratch";
  EXPECT_EQ(read_file(dir / "summary.txt"), baseline_)
      << "recovering from an older generation must still converge to the "
         "identical summary";
  EXPECT_TRUE(fs::exists(dir / "resume.ckpt.quarantined"))
      << "the corrupt head must be quarantined, not deleted";
}

TEST_F(ResumeSupervisedTest, TruncatedOnlyCheckpointRestartsFromScratch) {
  const fs::path dir = make_workdir("truncated");
  ASSERT_EQ(wait_for_exit(spawn_child(dir.string(), false)), 0);

  // Keep only the head, then chop its tail: the payload is shorter than
  // its framed byte count (kCheckpointTruncated), so no generation
  // validates.
  const fs::path head = dir / "resume.ckpt";
  for (const std::string& path :
       tca::runtime::CheckpointStore(head.string()).generations()) {
    if (path != head.string()) fs::remove(path);
  }
  const std::string blob = read_file(head);
  ASSERT_GT(blob.size(), 7u);
  {
    std::ofstream out(head, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size() - 7));
  }

  ASSERT_EQ(wait_for_exit(spawn_child(dir.string(), false)), 0);
  const auto starts = run_starts(dir);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1], 0) << "a truncated checkpoint must not be resumed";
  EXPECT_EQ(read_file(dir / "summary.txt"), baseline_)
      << "the from-scratch rerun must match the uninterrupted run";
  EXPECT_TRUE(fs::exists(dir / "resume.ckpt.quarantined"));
}

TEST_F(ResumeSupervisedTest, UninterruptedRerunIsANoOpResume) {
  // Running the child again over a COMPLETED store must resume at the end,
  // recompute nothing, and rewrite the identical summary.
  const fs::path dir = make_workdir("noop");
  ASSERT_EQ(wait_for_exit(spawn_child(dir.string(), false)), 0);
  ASSERT_EQ(wait_for_exit(spawn_child(dir.string(), false)), 0);
  const auto starts = run_starts(dir);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1], kItems);
  EXPECT_EQ(read_file(dir / "summary.txt"), baseline_);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string_view(argv[1]) == "--child") {
    bool slow = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--slow") slow = true;
    }
    return run_child(argv[2], slow);
  }
  ::testing::InitGoogleTest(&argc, argv);
  std::error_code ec;
  const auto self = fs::read_symlink("/proc/self/exe", ec);
  g_self_path = ec ? argv[0] : self.string();
  return RUN_ALL_TESTS();
}
