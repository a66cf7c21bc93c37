#ifndef RDFREF_COMMON_SYNCHRONIZATION_H_
#define RDFREF_COMMON_SYNCHRONIZATION_H_

#include <condition_variable>
#include <mutex>

/// \file
/// \brief The only place in rdfref that may name std::mutex.
///
/// Every lock in the repository goes through the capability-annotated
/// wrappers below so Clang's Thread Safety Analysis (TSA) can prove, at
/// compile time, that every access to a `RDFREF_GUARDED_BY(mu_)` field
/// happens with `mu_` held and that every `RDFREF_REQUIRES(mu_)` method is
/// only called under the lock. The CI `static-analysis` job builds with
/// `-Wthread-safety -Werror=thread-safety`; `tools/rdfref_check.py` rejects
/// raw `std::mutex` / `std::condition_variable` / `std::lock_guard` /
/// `std::unique_lock` anywhere else in `src/`.
///
/// On compilers without the attributes (GCC), the annotation macros expand
/// to nothing and the wrappers compile to the std primitives they wrap —
/// zero overhead, no behavioural difference.
///
/// Conventions (DESIGN.md §8):
///  - every mutex-protected field is annotated `RDFREF_GUARDED_BY(mu_)`;
///  - private helpers that expect the lock held are annotated
///    `RDFREF_REQUIRES(mu_)` and suffixed `...Locked`;
///  - public methods that take the lock themselves are annotated
///    `RDFREF_EXCLUDES(mu_)` when they would deadlock if re-entered;
///  - a false positive is silenced with `RDFREF_NO_THREAD_SAFETY_ANALYSIS`
///    on the narrowest function possible, with a comment saying why.

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside Clang)
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define RDFREF_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define RDFREF_THREAD_ANNOTATION_(x)  // no-op
#endif

/// Marks a type as a lock (a "capability" in TSA terms).
#define RDFREF_CAPABILITY(name) RDFREF_THREAD_ANNOTATION_(capability(name))
/// Marks a RAII type whose lifetime equals a critical section.
#define RDFREF_SCOPED_CAPABILITY RDFREF_THREAD_ANNOTATION_(scoped_lockable)
/// Field may only be accessed while `mu` is held.
#define RDFREF_GUARDED_BY(mu) RDFREF_THREAD_ANNOTATION_(guarded_by(mu))
/// Pointee may only be accessed while `mu` is held.
#define RDFREF_PT_GUARDED_BY(mu) RDFREF_THREAD_ANNOTATION_(pt_guarded_by(mu))
/// Caller must hold `mu` (exclusively) to call this function.
#define RDFREF_REQUIRES(...) \
  RDFREF_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Caller must hold `mu` at least shared to call this function.
#define RDFREF_REQUIRES_SHARED(...) \
  RDFREF_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
/// Function acquires `mu` and returns with it held.
#define RDFREF_ACQUIRE(...) \
  RDFREF_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RDFREF_ACQUIRE_SHARED(...) \
  RDFREF_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
/// Function releases `mu`.
#define RDFREF_RELEASE(...) \
  RDFREF_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RDFREF_RELEASE_SHARED(...) \
  RDFREF_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
/// Caller must NOT hold `mu` (the function takes it itself; re-entry would
/// self-deadlock).
#define RDFREF_EXCLUDES(...) \
  RDFREF_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Dynamic assertion that the calling thread holds `mu`.
#define RDFREF_ASSERT_HELD(...) \
  RDFREF_THREAD_ANNOTATION_(assert_capability(__VA_ARGS__))
/// Return value is the lock guarding this object.
#define RDFREF_RETURN_CAPABILITY(x) \
  RDFREF_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch for TSA false positives — always pair with a comment.
#define RDFREF_NO_THREAD_SAFETY_ANALYSIS \
  RDFREF_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace rdfref {
namespace common {

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// \brief A std::mutex the Thread Safety Analysis can reason about.
///
/// Prefer the RAII guards (MutexLock / CondVar::Wait) over Lock/Unlock;
/// the explicit pair exists for the rare hand-over-hand pattern (the
/// ThreadPool worker loop) and is equally annotated.
class RDFREF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RDFREF_ACQUIRE() { mu_.lock(); }
  void Unlock() RDFREF_RELEASE() { mu_.unlock(); }
  bool TryLock() RDFREF_THREAD_ANNOTATION_(try_acquire_capability(true)) {
    return mu_.try_lock();
  }

  /// \brief Tells the analysis (not the runtime) that the lock is held —
  /// for callbacks that are documented to run under a lock the analysis
  /// cannot see across.
  void AssertHeld() const RDFREF_ASSERT_HELD() {}

  /// \brief The wrapped primitive, for CondVar only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// \brief RAII exclusive lock: `MutexLock lock(&mu_);`.
class RDFREF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) RDFREF_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RDFREF_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Reader lock alias. rdfref's Mutex is exclusive-only (the guarded
/// sections are all short map/counter updates where a shared mode buys
/// nothing), so this is MutexLock under a name that documents read-only
/// intent at the call site — and gives reads a distinct type to migrate if
/// a shared mutex ever pays for itself.
class RDFREF_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(Mutex* mu) RDFREF_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~ReaderMutexLock() RDFREF_RELEASE() { mu_->Unlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// \brief Condition variable over common::Mutex.
///
/// Wait() is annotated RDFREF_REQUIRES(*mu): the analysis checks the lock
/// is held at the call, and (like std::condition_variable) the lock is
/// held again when Wait returns. Always wait in a predicate loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// \brief Atomically releases *mu and blocks; re-acquires before
  /// returning. Spurious wakeups happen: loop on the predicate.
  void Wait(Mutex* mu) RDFREF_REQUIRES(*mu) {
    std::unique_lock<std::mutex> lock(mu->native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the lock
  }

  /// \brief Waits until `pred()` is true (handles spurious wakeups).
  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) RDFREF_REQUIRES(*mu) {
    while (!pred()) Wait(mu);
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace common
}  // namespace rdfref

#endif  // RDFREF_COMMON_SYNCHRONIZATION_H_
