// SMP synchronization primitives for the enforcement hot path.
//
// The reference monitor's read paths (store guards, CALL checks, writer-set
// probes) vastly outnumber its write paths (grant/revoke, instance-principal
// creation, table growth), so everything here is built around read-mostly
// structures:
//
//   * Spinlock — writer-side mutual exclusion. Bounded spin with pause, then
//     yield: on oversubscribed hosts (fewer cores than simulated CPUs) a
//     preempted lock holder must not make waiters burn their own timeslice.
//   * SeqCount — the seqlock protocol's sequence counter. Readers probe data
//     with relaxed atomic loads and retry when a writer intervened; writers
//     (already serialized by a Spinlock) bump the count around mutation.
//     All data accesses on both sides go through relaxed atomics, so the
//     protocol is clean under -fsanitize=thread, not just "correct in
//     practice".
//   * EpochReclaimer — a quiescent-state-based (RCU-style) grace-period
//     reclaimer. Lock-free readers may hold internal pointers (retired flat
//     table slot arrays, dropped instance principals) only between two
//     quiescent states; writers that unpublish such memory Retire() it and
//     the reclaimer frees it once every registered reader has passed a
//     quiescent state afterwards.
//   * RelaxedCell — a single-writer statistics counter readable from any
//     thread. The store(load+1) increment compiles to a plain add (no lock
//     prefix), so per-shard counters cost exactly what the plain uint64_t
//     they replace cost, while cross-thread reads stay race-free.
//
// Per-CPU sharding: simulated CPUs (src/kernel/smp.h) get shard indices
// 1..kMaxCpuShards-1; the host main thread is shard 0. Per-(CPU, principal)
// enforcement state and per-CPU guard counters index by ThisShardIndex() so
// hot-path state never bounces between cores.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/compiler.h"

namespace lxfi {

// --- per-CPU shard index -----------------------------------------------------

// Shard 0 is the host main thread (and every thread that never calls
// SetThisShardIndex); simulated CPUs are assigned 1..kMaxCpuShards-1.
inline constexpr int kMaxCpuShards = 8;

inline thread_local int tls_shard_index = 0;

inline int ThisShardIndex() { return tls_shard_index; }
inline void SetThisShardIndex(int shard) { tls_shard_index = shard; }

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// --- RelaxedCell -------------------------------------------------------------

// Single-writer counter with race-free cross-thread reads. The increment is
// deliberately a relaxed load + relaxed store (not fetch_add): each cell has
// exactly one writer (its shard's CPU), so the non-atomic-RMW semantics are
// exact, and the compiler emits a plain increment with no lock prefix —
// single-core behavior and bench numbers are unchanged.
class RelaxedCell {
 public:
  RelaxedCell() = default;
  RelaxedCell(const RelaxedCell&) = delete;
  RelaxedCell& operator=(const RelaxedCell&) = delete;

  void operator++() { Add(1); }
  void Add(uint64_t delta) {
    v_.store(v_.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
  RelaxedCell& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return value(); }

 private:
  std::atomic<uint64_t> v_{0};
};

// --- Spinlock ----------------------------------------------------------------

class Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void lock() {
    while (flag_.exchange(1, std::memory_order_acquire) != 0) {
      int spins = 0;
      while (flag_.load(std::memory_order_relaxed) != 0) {
        if (LXFI_UNLIKELY(++spins > 128)) {
          // Oversubscribed host: the holder may be preempted; get out of
          // its way instead of spinning through our quantum.
          std::this_thread::yield();
          spins = 0;
        } else {
          CpuRelax();
        }
      }
    }
  }

  bool try_lock() { return flag_.exchange(1, std::memory_order_acquire) == 0; }

  void unlock() { flag_.store(0, std::memory_order_release); }

 private:
  std::atomic<uint32_t> flag_{0};
};

using SpinGuard = std::lock_guard<Spinlock>;

// Takes the lock only when `engage` is true: structures that are
// single-threaded until an SMP subsystem switches them over use this to
// keep their pre-SMP fast paths lock-free.
class OptionalSpinGuard {
 public:
  OptionalSpinGuard(Spinlock& lock, bool engage) : lock_(engage ? &lock : nullptr) {
    if (lock_ != nullptr) {
      lock_->lock();
    }
  }
  ~OptionalSpinGuard() {
    if (lock_ != nullptr) {
      lock_->unlock();
    }
  }

  OptionalSpinGuard(const OptionalSpinGuard&) = delete;
  OptionalSpinGuard& operator=(const OptionalSpinGuard&) = delete;

 private:
  Spinlock* lock_;
};

// --- SeqCount ----------------------------------------------------------------

// Sequence counter for seqlock-style read-mostly data. Writers must already
// be serialized (the counter does not provide writer exclusion). Protocol:
//
//   writer:  WriteBegin(); <relaxed-atomic stores to data>; WriteEnd();
//   reader:  do { s = ReadBegin(); <relaxed-atomic loads of data>; }
//            while (!ReadValidate(s));
//
// Readers never block writers; a reader that overlaps a write simply retries.
class SeqCount {
 public:
  SeqCount() = default;
  SeqCount(const SeqCount&) = delete;
  SeqCount& operator=(const SeqCount&) = delete;

  uint64_t ReadBegin() const {
    uint64_t s = seq_.load(std::memory_order_acquire);
    int spins = 0;
    while (LXFI_UNLIKELY(s & 1)) {  // write in progress
      if (++spins > 128) {
        std::this_thread::yield();
        spins = 0;
      } else {
        CpuRelax();
      }
      s = seq_.load(std::memory_order_acquire);
    }
    return s;
  }

  bool ReadValidate(uint64_t begin) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq_.load(std::memory_order_relaxed) == begin;
  }

  void WriteBegin() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }

  void WriteEnd() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  uint64_t raw() const { return seq_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> seq_{0};
};

// --- EpochReclaimer ----------------------------------------------------------

// Quiescent-state-based reclamation. Reader threads Register() once and call
// Quiesce() at points where they hold no references into reclaimable
// structures (the per-CPU run-queue loop does this between work items; long
// benchmark loops call EpochQuiescePoint() every batch). A writer that
// unpublishes memory calls Retire() with a deleter; the deleter runs only
// after every registered reader has quiesced past the retirement epoch.
// With no registered readers (single-threaded mode) retirement reclaims
// immediately.
class EpochReclaimer {
 public:
  static constexpr int kMaxReaders = 64;

  class Reader {
   public:
    Reader() = default;

   private:
    friend class EpochReclaimer;
    std::atomic<uint64_t> seen_{0};
    std::atomic<bool> active_{false};
    std::atomic<bool> idle_{false};
  };

  // Process-wide instance: retired memory is process-wide state, and
  // simulated CPUs from any kernel share it.
  static EpochReclaimer& Global();

  // Registers the calling context as a reader, initially quiesced. Returns
  // nullptr if all kMaxReaders slots are taken (callers then fall back to
  // locked reads; the simulated-CPU cap is far below kMaxReaders).
  Reader* Register();
  void Unregister(Reader* reader);

  void Quiesce(Reader* reader) {
    reader->seen_.store(epoch_.load(std::memory_order_acquire), std::memory_order_release);
  }

  // An idle reader (blocked waiting for work, holding no references) is
  // excluded from grace-period computation — the analogue of RCU's idle
  // state, without which Synchronize() would wait on a sleeping CPU forever.
  // Must only be entered from a quiescent point; leaving idle re-quiesces.
  void SetIdle(Reader* reader, bool idle) {
    if (!idle) {
      reader->idle_.store(false, std::memory_order_release);
      Quiesce(reader);
    } else {
      Quiesce(reader);
      reader->idle_.store(true, std::memory_order_release);
    }
  }

  // Defers `deleter` until a grace period has elapsed; may opportunistically
  // run other ready deleters.
  void Retire(std::function<void()> deleter);

  // Runs every deleter whose grace period has elapsed; returns how many ran.
  size_t TryReclaim();

  // Waits for a full grace period (all currently-active readers quiesce),
  // then reclaims. Writers use this when a caller must be able to assume
  // no reader still observes pre-retirement state (teardown, tests).
  void Synchronize();

  size_t pending() const;

 private:
  uint64_t MinSeen() const;

  std::atomic<uint64_t> epoch_{1};
  std::array<Reader, kMaxReaders> readers_;

  struct Retired {
    uint64_t epoch;
    std::function<void()> deleter;
  };
  mutable std::mutex mu_;  // guards retired_ only
  std::vector<Retired> retired_;
};

// Thread-local reader slot for simulated-CPU threads (set by
// kern::CpuSet; null on threads that never registered).
inline thread_local EpochReclaimer::Reader* tls_epoch_reader = nullptr;

// Announces a quiescent state for the calling thread, if it is a registered
// reader. Safe (and a no-op) anywhere else.
inline void EpochQuiescePoint() {
  if (tls_epoch_reader != nullptr) {
    EpochReclaimer::Global().Quiesce(tls_epoch_reader);
  }
}

}  // namespace lxfi
