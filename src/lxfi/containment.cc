#include "src/lxfi/containment.h"

#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/cap.h"
#include "src/lxfi/cap_table.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/runtime.h"

namespace lxfi {
namespace {

// Reentrancy guard: containment work (sealing, forced unload, re-init) can
// itself raise violations — a rebooted module's init violating, a teardown
// path touching sealed memory. Those must not recurse into containment; the
// policy's throw still fires and the drain loop's retry handles it.
thread_local bool tls_in_containment = false;

struct ReentrancyScope {
  ReentrancyScope() { tls_in_containment = true; }
  ~ReentrancyScope() { tls_in_containment = false; }
};

}  // namespace

const char* ModuleHealthName(ModuleHealth health) {
  switch (health) {
    case ModuleHealth::kHealthy:
      return "healthy";
    case ModuleHealth::kQuarantined:
      return "quarantined";
    case ModuleHealth::kProbation:
      return "probation";
    case ModuleHealth::kRetired:
      return "retired";
  }
  return "?";
}

Containment::Containment(Runtime* runtime, ContainmentOptions options)
    : runtime_(runtime), options_(options) {}

void Containment::OnViolation(Principal* p, ViolationKind kind, uint64_t fault_addr) {
  (void)fault_addr;
  if (tls_in_containment || p == nullptr) {
    return;  // unattributable, or containment itself faulted: just throw
  }
  ReentrancyScope scope;
  ModuleCtx* mc = p->module();
  kern::Module* kmod = mc->kmod();
  bool breaker = false;
  {
    SpinGuard guard(mu_);
    Entry& e = entries_[kmod->name()];
    switch (e.health) {
      case ModuleHealth::kQuarantined:
      case ModuleHealth::kRetired:
        return;  // another CPU already claimed this quarantine
      case ModuleHealth::kProbation:
        // Circuit breaker: a re-violation inside the probation window means
        // the reboot did not fix it — retire permanently, no more reboots.
        breaker = MonotonicNowNs() < e.probation_deadline_ns;
        break;
      case ModuleHealth::kHealthy:
        break;
    }
    e.health = breaker ? ModuleHealth::kRetired : ModuleHealth::kQuarantined;
    e.def = kmod->def();  // retained: the reload outlives the Module object
    e.victim_trace_id = p->trace_id();
    e.reboot_pending = !breaker;
  }
  uint64_t revoked = QuarantineModule(kmod, p);
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  TRACE_EVENT(TraceEvent::kQuarantine, p->trace_id(), static_cast<uint64_t>(kind), revoked);
  if (breaker) {
    retired_.fetch_add(1, std::memory_order_relaxed);
    TRACE_EVENT(TraceEvent::kRebootFailed, p->trace_id(), 0, 1);
    LXFI_LOG_WARN("lxfi containment: module %s retired (re-violation in probation)",
                  kmod->name().c_str());
  } else {
    LXFI_LOG_WARN("lxfi containment: module %s quarantined (%s), microreboot pending",
                  kmod->name().c_str(), ViolationKindName(kind));
  }
}

uint64_t Containment::QuarantineModule(kern::Module* module, Principal* victim) {
  // Flag first: every dispatch path (filter chain, walk, mount, file ops)
  // reads this lock-free, so in-flight calls start failing fast with -EIO
  // before any state below is torn down.
  module->set_quarantined(true);
  ModuleCtx* mc = victim->module();
  kern::SlabAllocator& slab = runtime_->kernel()->slab();
  mc->ForEachPrincipal([&](Principal* p) {
    p->SealArena();  // fails the span check closed; fresh allocations fail
    if (p->heap_partition() != Principal::kNoHeap) {
      slab.SealPartition(p->heap_partition());
      TRACE_EVENT(TraceEvent::kHeapSeal, p->trace_id(), p->arena_lo(), p->arena_hi());
    }
  });
  // Shared-heap fallback objects (exhausted partition slots) sit outside the
  // arena spans, so the seal cannot reach them: revoke each one explicitly.
  auto fallbacks = mc->TakeArenaFallbacks();
  for (const auto& rec : fallbacks) {
    runtime_->writer_set().ClearRange(rec.addr, rec.size);
    runtime_->RevokeEverywhere(Capability::Write(rec.addr, rec.size));
  }
  // Drop the module's filters from the live dispatch snapshots — new filter
  // runs never see them; in-flight runs hit the quarantined check instead.
  kern::Vfs* vfs = runtime_->kernel()->GetSubsystem<kern::Vfs>();
  if (vfs != nullptr) {
    vfs->filters().UnregisterModule(module);
  }
  return fallbacks.size();
}

size_t Containment::DrainPendingReboots() {
  ReentrancyScope scope;
  std::vector<std::string> pending;
  {
    SpinGuard guard(mu_);
    for (const auto& [name, e] : entries_) {
      if (e.reboot_pending) {
        pending.push_back(name);
      }
    }
  }
  size_t performed = 0;
  kern::Kernel* kernel = runtime_->kernel();
  kern::Vfs* vfs = kernel->GetSubsystem<kern::Vfs>();
  for (const std::string& name : pending) {
    kern::Module* old = kernel->FindModule(name);
    if (old != nullptr) {
      if (vfs != nullptr) {
        vfs->filters().UnregisterModule(old);  // idempotent with quarantine
        if (vfs->ForceUnmountModule(old) > 0) {
          // Open handles still reference the module's mounts. They fail
          // fast with -EIO and drain through Close; stay pending and let
          // the caller drain again after traffic quiesces.
          continue;
        }
      }
      // Structures the quarantine and forced unmount retired (filter
      // snapshots, mount entries, superblocks) may still have lock-free
      // readers; wait out a grace period before the bulk teardown frees
      // what they point into.
      EpochReclaimer::Global().Synchronize();
      kernel->ForceUnloadModule(old);
      if (vfs != nullptr) {
        // Registrations the quarantined module could not be dispatched to
        // undo would make the re-registration fail with -EEXIST.
        vfs->PurgeFilesystemsOf(old);
      }
    }
    kern::ModuleDef def;
    uint32_t victim_trace_id = 0;
    {
      SpinGuard guard(mu_);
      Entry& e = entries_[name];
      def = e.def;
      victim_trace_id = e.victim_trace_id;
    }
    // Bounded retry-with-backoff: the backoff is accounted (simulated time),
    // not slept — the harness asserts on its growth, not wall-clock stalls.
    kern::Module* fresh = nullptr;
    int attempt = 0;
    while (attempt < options_.max_reboot_attempts && fresh == nullptr) {
      ++attempt;
      backoff_ns_.fetch_add(options_.backoff_start_ns << (attempt - 1),
                            std::memory_order_relaxed);
      try {
        fresh = kernel->LoadModule(def);
      } catch (...) {
        fresh = nullptr;  // init violated or threw; LoadModule cleaned up
      }
    }
    SpinGuard guard(mu_);
    Entry& e = entries_[name];
    e.reboot_pending = false;
    if (fresh != nullptr) {
      e.health = ModuleHealth::kProbation;
      e.probation_deadline_ns = MonotonicNowNs() + options_.probation_ns;
      ++e.reboots;
      reboots_.fetch_add(1, std::memory_order_relaxed);
      ++performed;
      TRACE_EVENT(TraceEvent::kMicroreboot, victim_trace_id, static_cast<uint64_t>(attempt),
                  e.reboots);
    } else {
      e.health = ModuleHealth::kRetired;
      retired_.fetch_add(1, std::memory_order_relaxed);
      TRACE_EVENT(TraceEvent::kRebootFailed, victim_trace_id, static_cast<uint64_t>(attempt), 1);
      LXFI_LOG_ERROR("lxfi containment: module %s retired (%d reboot attempts failed)",
                     name.c_str(), attempt);
    }
  }
  return performed;
}

bool Containment::HasPendingReboots() const {
  SpinGuard guard(mu_);
  for (const auto& [name, e] : entries_) {
    if (e.reboot_pending) {
      return true;
    }
  }
  return false;
}

ModuleHealth Containment::HealthOf(const std::string& module_name) const {
  SpinGuard guard(mu_);
  auto it = entries_.find(module_name);
  if (it == entries_.end()) {
    return ModuleHealth::kHealthy;
  }
  // An expired probation decays to healthy: the next violation is a fresh
  // quarantine, not a breaker trip.
  if (it->second.health == ModuleHealth::kProbation &&
      MonotonicNowNs() >= it->second.probation_deadline_ns) {
    return ModuleHealth::kHealthy;
  }
  return it->second.health;
}

uint64_t Containment::RebootsOf(const std::string& module_name) const {
  SpinGuard guard(mu_);
  auto it = entries_.find(module_name);
  return it == entries_.end() ? 0 : it->second.reboots;
}

}  // namespace lxfi
