// Principals and per-module principal state (§3.1).
//
// A module is split into principals named by pointer values (the address of
// the socket / net_device / block device the instance serves). Two special
// principals exist per module:
//   shared — capabilities every principal in the module may use (initial
//            imports, module sections); checks fall back to it.
//   global — implicitly owns the union of all the module's capabilities;
//            code manipulating cross-instance state switches to it.
// A logical principal can have several names (pci_dev vs net_device);
// lxfi_princ_alias maps a new name onto an existing principal.
//
// SMP model: a Principal owns one capability table (mutated under the
// per-principal Spinlock in concurrent mode, probed lock-free by any CPU)
// plus one EnforcementContext counter shard per simulated CPU, so hot-path
// counters never bounce between cores. ModuleCtx keeps an RCU-style
// published snapshot of its instance-principal list: creators publish a new
// snapshot under the module lock, concurrent revokers and ownership chains
// iterate the snapshot lock-free, and superseded snapshots (and dropped
// principals) are reclaimed through the quiescent-state EpochReclaimer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/sync.h"
#include "src/base/trace.h"
#include "src/lxfi/cap_table.h"
#include "src/lxfi/enforcement_context.h"

namespace kern {
class Module;
}

namespace lxfi {

class Runtime;

enum class PrincipalKind {
  kInstance,
  kShared,
  kGlobal,
};

class ModuleCtx;

class Principal {
 public:
  Principal(ModuleCtx* module, PrincipalKind kind, uintptr_t name)
      : module_(module), kind_(kind), name_(name) {}

  ModuleCtx* module() const { return module_; }
  PrincipalKind kind() const { return kind_; }
  uintptr_t name() const { return name_; }
  // Process-unique id minted at construction: the attribution key trace
  // records and the violation flight recorder carry (0 = trusted kernel).
  uint32_t trace_id() const { return trace_id_; }

  CapTable& caps() { return caps_; }
  const CapTable& caps() const { return caps_; }

  // Serializes capability-table mutation (and the writer-page record) in
  // concurrent mode; lock-free probes never take it.
  Spinlock& lock() { return lock_; }

  // Pages this principal has already been recorded for in the global
  // WriterSet. Guarded by lock(); lets the per-packet grant path skip the
  // global writer-set lock once a page is recorded (steady state). Valid
  // only for the WriterSet clear generation it was recorded under —
  // Runtime::Grant flushes it when the generation moved (ClearRange /
  // RemoveWriter erased attribution these records would otherwise hide).
  FlatSet& writer_pages() { return writer_pages_; }
  uint64_t writer_pages_gen() const { return writer_pages_gen_; }
  void set_writer_pages_gen(uint64_t gen) { writer_pages_gen_ = gen; }

  // The per-CPU enforcement shard (guard counters, crossing metrics) the
  // runtime hot paths count into. A shard is written only by its CPU.
  EnforcementContext& ctx() { return shards_[ThisShardIndex()]; }
  const EnforcementContext& ctx() const { return shards_[ThisShardIndex()]; }
  EnforcementContext& ctx(int shard) { return shards_[shard]; }

  // --- partitioned-heap span -------------------------------------------------
  // The principal's heap-partition span [arena_lo_, arena_hi_): ownership of
  // the principal's own allocations as a pure address-range property. The
  // store guard reads both bounds with relaxed loads; the three-compare form
  // below is safe against any publish interleaving, because a half-published
  // span — one bound still at its at-rest sentinel (lo=~0, hi=0) — can only
  // *shrink* the accepted range to empty, never widen it.
  static constexpr int kNoHeap = -1;

  void PublishArena(int partition, uintptr_t lo, uintptr_t hi) {
    heap_partition_ = partition;
    arena_lo_.store(lo, std::memory_order_release);
    arena_hi_.store(hi, std::memory_order_release);
  }
  // Sealing fails the span check closed: every later WRITE check on the
  // span denies, on any CPU that observes the store.
  void SealArena() { arena_sealed_.store(true, std::memory_order_release); }
  void ResetArena() {
    heap_partition_ = kNoHeap;
    arena_hi_.store(0, std::memory_order_release);
    arena_lo_.store(UINTPTR_MAX, std::memory_order_release);
    arena_sealed_.store(false, std::memory_order_release);
  }

  bool ArenaContains(uintptr_t addr, size_t size) const {
    uintptr_t lo = arena_lo_.load(std::memory_order_relaxed);
    uintptr_t hi = arena_hi_.load(std::memory_order_relaxed);
    return addr >= lo && addr < hi && size <= hi - addr;
  }
  bool arena_sealed() const { return arena_sealed_.load(std::memory_order_relaxed); }
  bool has_arena() const { return arena_hi_.load(std::memory_order_relaxed) != 0; }
  uintptr_t arena_lo() const { return arena_lo_.load(std::memory_order_relaxed); }
  uintptr_t arena_hi() const { return arena_hi_.load(std::memory_order_relaxed); }
  int heap_partition() const { return heap_partition_; }

  // Allocations that silently fell back to the shared heap because the
  // principal's partition slot was exhausted (or no slot could be carved) —
  // each one weakens isolation, so it is counted, traced (kArenaFallback)
  // and revoked at quarantine time like arena memory.
  void NoteArenaFallback() { arena_fallbacks_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t arena_fallbacks() const { return arena_fallbacks_.load(std::memory_order_relaxed); }

  std::string DebugName() const;

 private:
  ModuleCtx* module_;
  PrincipalKind kind_;
  uintptr_t name_;  // primary name (0 for shared/global)
  uint32_t trace_id_ = MintPrincipalTraceId();
  // Heap-partition span, read on the store-guard fast path (sentinel values
  // fail every contains check). heap_partition_ is written once at publish
  // time from the allocating context.
  std::atomic<uintptr_t> arena_lo_{UINTPTR_MAX};
  std::atomic<uintptr_t> arena_hi_{0};
  std::atomic<bool> arena_sealed_{false};
  std::atomic<uint64_t> arena_fallbacks_{0};
  int heap_partition_ = kNoHeap;
  CapTable caps_;
  Spinlock lock_;
  FlatSet writer_pages_;
  uint64_t writer_pages_gen_ = 0;  // guarded by lock_
  EnforcementContext shards_[kMaxCpuShards];
};

// Per-loaded-module LXFI state.
class ModuleCtx {
 public:
  ModuleCtx(Runtime* runtime, kern::Module* kmod);
  ~ModuleCtx();

  Runtime* runtime() const { return runtime_; }
  kern::Module* kmod() const { return kmod_; }
  const std::string& name() const;

  // Switches this module's principal state into SMP mode: capability tables
  // retire replaced slot arrays through `reclaimer`, instance creation
  // publishes snapshots, and ownership probes go lock-free. Must be called
  // before any concurrent access (Runtime does it at module load).
  void EnableConcurrent(EpochReclaimer* reclaimer);
  bool concurrent() const { return reclaimer_ != nullptr; }

  Principal* shared() { return &shared_; }
  Principal* global() { return &global_; }

  // Finds the principal for `name`, creating an instance principal on first
  // use (instances come into existence when first named, e.g. by a
  // principal() annotation selecting a socket pointer). Lock-free on the
  // (overwhelmingly common) hit path in concurrent mode.
  Principal* GetOrCreate(uintptr_t name);
  Principal* Lookup(uintptr_t name) const;

  // lxfi_princ_alias: binds `alias` to the principal currently named
  // `existing` (§3.3). Fails (returns false) when `existing` is unknown.
  bool Alias(uintptr_t existing, uintptr_t alias);

  // Drops an instance principal and its capabilities (e.g. socket release).
  // In concurrent mode the principal's memory is reclaimed only after a
  // grace period, so in-flight lock-free probes stay safe.
  void DropInstance(uintptr_t name);

  // All instance principals (no shared/global). Not safe against concurrent
  // instance creation; use only from quiescent contexts (setup, teardown,
  // diagnostics). Enforcement paths iterate the published snapshot instead.
  const std::vector<std::unique_ptr<Principal>>& instances() const { return instances_; }

  // Capability ownership honoring shared/global semantics:
  //  - `p` owns the cap directly, or
  //  - the module's shared principal owns it, or
  //  - `p` is the global principal and *any* principal of the module owns it.
  bool Owns(const Principal* p, const Capability& cap) const;

  // WRITE and CALL ownership with the same fallback chain, without building
  // a Capability (the store-guard and CALL-check slow paths).
  bool OwnsWrite(const Principal* p, uintptr_t addr, size_t size) const;
  bool OwnsCall(const Principal* p, uintptr_t target) const;

  // Lock-free variants for SMP enforcement: identical fallback chain, but
  // every table probe is seqlock-validated and the global-principal case
  // walks the published instance snapshot.
  bool OwnsConcurrent(const Principal* p, const Capability& cap) const;
  bool OwnsWriteConcurrent(const Principal* p, uintptr_t addr, size_t size) const;
  bool OwnsCallConcurrent(const Principal* p, uintptr_t target) const;

 private:
  // Shared self -> shared -> (global: instances) fallback chain; `probe`
  // tests one principal's table. Defined in principal.cc.
  template <typename Probe>
  bool OwnsChain(const Principal* p, Probe&& probe) const;
  template <typename Probe>
  bool OwnsChainConcurrent(const Principal* p, Probe&& probe) const;

 public:

  // Revokes `cap` from every principal of this module; returns true if any
  // principal held it. In concurrent mode each affected principal is
  // revoked under its own lock, pre-filtered by a lock-free probe.
  bool RevokeEverywhere(const Capability& cap);

  // --- heap-partition bookkeeping -------------------------------------------
  // Partitions carved for this module's principals. Records outlive dropped
  // instance principals (a socket that dies with live allocations orphans
  // its slot), so module unload can sweep every slot the module ever owned
  // in bulk.
  struct HeapPartitionRecord {
    int id;
    uintptr_t lo;
    uintptr_t hi;
  };
  void RecordHeapPartition(int id, uintptr_t lo, uintptr_t hi) {
    SpinGuard guard(mu_);
    heap_partitions_.push_back(HeapPartitionRecord{id, lo, hi});
  }
  void ForgetHeapPartition(int id) {
    SpinGuard guard(mu_);
    for (auto it = heap_partitions_.begin(); it != heap_partitions_.end(); ++it) {
      if (it->id == id) {
        heap_partitions_.erase(it);
        return;
      }
    }
  }
  std::vector<HeapPartitionRecord> TakeHeapPartitions() {
    SpinGuard guard(mu_);
    std::vector<HeapPartitionRecord> out;
    out.swap(heap_partitions_);
    return out;
  }

  // --- shared-heap fallback bookkeeping --------------------------------------
  // Objects a principal allocated on the *shared* heap because its partition
  // slot was exhausted. Containment revokes exactly these at quarantine time
  // (the arena sweep cannot see them), so the fallback path does not become
  // an isolation hole.
  struct ArenaFallbackRecord {
    Principal* owner;
    uintptr_t addr;
    size_t size;
  };
  void RecordArenaFallback(Principal* owner, uintptr_t addr, size_t size) {
    SpinGuard guard(mu_);
    arena_fallbacks_.push_back(ArenaFallbackRecord{owner, addr, size});
  }
  std::vector<ArenaFallbackRecord> TakeArenaFallbacks() {
    SpinGuard guard(mu_);
    std::vector<ArenaFallbackRecord> out;
    out.swap(arena_fallbacks_);
    return out;
  }

  // Visits shared, global, then every live instance principal, serialized
  // against concurrent instance creation by the module lock. Safe from any
  // thread (containment quarantines from the faulting CPU); `fn` must not
  // create or drop principals.
  template <typename Fn>
  void ForEachPrincipal(Fn&& fn) {
    fn(&shared_);
    fn(&global_);
    SpinGuard guard(mu_);
    for (const auto& inst : instances_) {
      fn(inst.get());
    }
  }

 private:
  struct InstanceSnapshot {
    std::vector<Principal*> items;
  };

  const InstanceSnapshot* AcquireSnapshot() const {
    return __atomic_load_n(&inst_snapshot_, __ATOMIC_ACQUIRE);
  }
  // Rebuilds and publishes the snapshot from instances_; caller holds mu_
  // (or is single-threaded). Retires the old snapshot.
  void PublishSnapshot();

  Runtime* runtime_;
  kern::Module* kmod_;
  Principal shared_;
  Principal global_;
  mutable Spinlock mu_;  // guards instances_ / by_name_ mutation
  std::vector<std::unique_ptr<Principal>> instances_;
  FlatTable<Principal*> by_name_;
  InstanceSnapshot* inst_snapshot_ = nullptr;
  EpochReclaimer* reclaimer_ = nullptr;
  std::vector<HeapPartitionRecord> heap_partitions_;  // guarded by mu_
  std::vector<ArenaFallbackRecord> arena_fallbacks_;  // guarded by mu_
};

}  // namespace lxfi
