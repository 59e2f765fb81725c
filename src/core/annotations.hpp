#pragma once
// Clang thread-safety annotations (docs/static-analysis.md).
//
// The paper's whole point is that update order changes outcomes
// (Theorem 1 / Proposition 1), so every place this codebase shares
// mutable state across threads — the thread pool, the metrics registry,
// the log sink, the trace buffer — must have its locking discipline
// written down where the compiler can check it. These macros expand to
// Clang's thread-safety attributes under `-Wthread-safety
// -Wthread-safety-beta` and to nothing everywhere else, so GCC builds
// are unaffected.
//
// Conventions (enforced by review + the static-analysis CI job):
//  * every mutable field shared across threads is either a std::atomic
//    (with its memory_order justified in docs/memory_model.md, which
//    scripts/tca_analyze.py cross-verifies) or TCA_GUARDED_BY a named
//    tca::Mutex;
//  * functions that must be called with a lock held say so with
//    TCA_REQUIRES(mu) instead of a comment;
//  * raw std::mutex / std::lock_guard are reserved for code that cannot
//    use the wrappers (none today); new code uses tca::Mutex +
//    tca::LockGuard so the analysis sees every acquire/release;
//  * TCA_NO_THREAD_SAFETY_ANALYSIS is a last resort and needs a comment
//    explaining why the analysis cannot follow the code.

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define TCA_TSA__(x) __attribute__((x))
#else
#define TCA_TSA__(x)  // no-op: GCC/MSVC have no thread-safety analysis
#endif

#define TCA_CAPABILITY(x) TCA_TSA__(capability(x))
#define TCA_SCOPED_CAPABILITY TCA_TSA__(scoped_lockable)
#define TCA_GUARDED_BY(x) TCA_TSA__(guarded_by(x))
#define TCA_PT_GUARDED_BY(x) TCA_TSA__(pt_guarded_by(x))
#define TCA_REQUIRES(...) TCA_TSA__(requires_capability(__VA_ARGS__))
#define TCA_REQUIRES_SHARED(...) \
  TCA_TSA__(requires_shared_capability(__VA_ARGS__))
#define TCA_ACQUIRE(...) TCA_TSA__(acquire_capability(__VA_ARGS__))
#define TCA_ACQUIRE_SHARED(...) TCA_TSA__(acquire_shared_capability(__VA_ARGS__))
#define TCA_RELEASE(...) TCA_TSA__(release_capability(__VA_ARGS__))
#define TCA_TRY_ACQUIRE(...) TCA_TSA__(try_acquire_capability(__VA_ARGS__))
#define TCA_EXCLUDES(...) TCA_TSA__(locks_excluded(__VA_ARGS__))
#define TCA_ASSERT_CAPABILITY(x) TCA_TSA__(assert_capability(x))
#define TCA_RETURN_CAPABILITY(x) TCA_TSA__(lock_returned(x))
#define TCA_NO_THREAD_SAFETY_ANALYSIS TCA_TSA__(no_thread_safety_analysis)

namespace tca {

/// std::mutex with the `capability` attribute so TCA_GUARDED_BY /
/// TCA_REQUIRES can name it. Same cost and semantics as std::mutex.
class TCA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TCA_ACQUIRE() { mu_.lock(); }
  void unlock() TCA_RELEASE() { mu_.unlock(); }
  bool try_lock() TCA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class LockGuard;
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock over a tca::Mutex (the analysis-aware std::unique_lock).
/// Always holds the lock for its whole lifetime; condition-variable waits
/// release and reacquire inside CondVar::wait, which the analysis models
/// conservatively as "held throughout" — exactly the discipline the
/// guarded fields need anyway.
class TCA_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) TCA_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~LockGuard() TCA_RELEASE() = default;

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with tca::Mutex/LockGuard. No predicate
/// overload on purpose: callers write the `while (!pred) wait(lock);`
/// loop inline so the analysis sees the guarded reads under the lock
/// (lambda bodies do not inherit the caller's capability set).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(LockGuard& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tca
