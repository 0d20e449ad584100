// Violation containment and module microreboot (ViolationPolicy::kQuarantine).
//
// Turns a violation from a diagnostic into a bounded, attributed recovery
// sequence:
//   1. Quarantine — the offending module's principals are sealed (arena +
//      slab partition; the span check then denies on every CPU), its shared-heap
//      fallback objects are revoked, the module is flagged so every dispatch
//      path (VFS filter chain, mount/fstype probes, file ops) fails fast with
//      -EIO, and its filters are dropped from the live snapshot chain.
//   2. Microreboot — from the loader thread, the module is force-unloaded
//      (bulk arena teardown absorbs a throwing exit), its leaked VFS
//      registrations are purged, and it is re-initialized under a bounded
//      retry-with-backoff.
//   3. Probation / circuit breaker — a rebooted module that re-violates
//      within its probation window is retired permanently: quarantined again
//      but never rebooted.
//
// Threading: OnViolation runs on whichever CPU faulted (it only touches
// thread-safe runtime state and the containment map under its own lock);
// DrainPendingReboots must run on the loader thread, because module
// load/unload and the subsystem maps are loader-thread-only.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/base/sync.h"
#include "src/kernel/module.h"
#include "src/lxfi/violation.h"

namespace lxfi {

class Principal;
class Runtime;

struct ContainmentOptions {
  // Microreboot retry budget per quarantine (attempts at LoadModule).
  int max_reboot_attempts = 3;
  // Simulated backoff before attempt n: backoff_start_ns << (n - 1). The
  // harness is a simulation, so the delay is accounted, not slept.
  uint64_t backoff_start_ns = 1000;
  // Probation window after a successful reboot: a re-violation inside it
  // trips the circuit breaker (permanent retirement).
  uint64_t probation_ns = 1'000'000'000;
};

enum class ModuleHealth {
  kHealthy,      // never violated (or probation expired without incident)
  kQuarantined,  // contained; microreboot pending or in progress
  kProbation,    // rebooted; re-violation within the window retires it
  kRetired,      // circuit breaker tripped or reboot budget exhausted
};

const char* ModuleHealthName(ModuleHealth health);

class Containment {
 public:
  Containment(Runtime* runtime, ContainmentOptions options = {});

  Containment(const Containment&) = delete;
  Containment& operator=(const Containment&) = delete;

  // Violation entry point (Runtime::RaiseViolation under kQuarantine).
  // Attributes the fault to `p`'s module and quarantines it; decides
  // retirement for probation re-violators. Reentrancy-guarded: a violation
  // raised while containment itself is running (e.g. out of a rebooted
  // module's init) returns immediately and lets the policy throw.
  void OnViolation(Principal* p, ViolationKind kind, uint64_t fault_addr);

  // Executes pending microreboots (loader thread only). A module whose
  // mounts still hold open files is left pending — its handles fail fast
  // and drain through Close; call again after traffic quiesces. Returns the
  // number of successful reboots this call performed.
  size_t DrainPendingReboots();

  bool HasPendingReboots() const;
  ModuleHealth HealthOf(const std::string& module_name) const;

  // Counters (any thread).
  uint64_t quarantines() const { return quarantines_.load(std::memory_order_relaxed); }
  uint64_t reboots() const { return reboots_.load(std::memory_order_relaxed); }
  uint64_t retired() const { return retired_.load(std::memory_order_relaxed); }
  // Accumulated simulated backoff (accounted, not slept).
  uint64_t backoff_ns() const { return backoff_ns_.load(std::memory_order_relaxed); }
  // Successful reboot count for one module (0 if never quarantined).
  uint64_t RebootsOf(const std::string& module_name) const;

 private:
  struct Entry {
    ModuleHealth health = ModuleHealth::kHealthy;
    kern::ModuleDef def;  // retained copy: reload outlives the Module object
    uint32_t victim_trace_id = 0;
    uint64_t reboots = 0;
    uint64_t probation_deadline_ns = 0;
    bool reboot_pending = false;
  };

  // Seals every principal of the module, revokes fallback objects, flags the
  // module, and drops its filters. Runs outside mu_ (only thread-safe
  // runtime state); the caller has already claimed the transition under mu_.
  uint64_t QuarantineModule(kern::Module* module, Principal* victim);

  Runtime* runtime_;
  ContainmentOptions options_;
  mutable Spinlock mu_;  // guards entries_
  std::unordered_map<std::string, Entry> entries_;
  std::atomic<uint64_t> quarantines_{0};
  std::atomic<uint64_t> reboots_{0};
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> backoff_ns_{0};
};

}  // namespace lxfi
