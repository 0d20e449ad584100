// Concurrent-enforcement stress tests (run under TSan in CI).
//
// The contract under test (docs/smp_enforcement.md): capability checks may
// run lock-free on any simulated CPU while grants/revokes proceed; a check
// that began before a revoke returned may pass with the old capability, but
// once a thread has observed — through ordinary release/acquire
// synchronization — that a revoke has returned, no check on any CPU may
// pass for the revoked capability. Plus a grant/revoke/
// instance-churn storm that exercises rehash + grace-period reclamation
// under concurrent readers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sync.h"
#include "src/kernel/kernel.h"
#include "src/kernel/smp.h"
#include "src/lxfi/cap.h"
#include "src/lxfi/runtime.h"
#include "tests/testbench.h"

namespace {

constexpr uintptr_t kPoolBase = 0x7f6000000000ull;

struct ConcurrentRig {
  ConcurrentRig() {
    lxfi::RuntimeOptions options;
    options.policy = lxfi::ViolationPolicy::kCount;
    options.concurrent_enforcement = true;
    bench = std::make_unique<lxfitest::Bench>(/*isolated=*/true, options);
    kern::ModuleDef def;
    def.name = "stress";
    module = bench->kernel->LoadModule(std::move(def));
    EXPECT_NE(module, nullptr);
    mc = bench->rt->CtxOf(module);
  }

  lxfi::Runtime* rt() { return bench->rt.get(); }

  std::unique_ptr<lxfitest::Bench> bench;
  kern::Module* module = nullptr;
  lxfi::ModuleCtx* mc = nullptr;
};

// One checker per CPU spins on OwnsWriteFast/OwnsCallFast — the exact
// paths the store guard and CALL check use — while the main thread
// grants and revokes in phases. Phase protocol: phase = 2*round+1 after the
// round's grant returned, 2*round+2 after its revoke returned. A checker
// that loads phase == revoked(round) *before* checking must see the check
// fail; a single stale pass is a revocation-fence bug.
TEST(ConcurrentEnforcement, RevokeFenceNeverPassesAfterReturn) {
  ConcurrentRig rig;
  lxfi::Principal* p = rig.mc->GetOrCreate(0xabc0);
  constexpr int kCpus = 3;
  constexpr uint64_t kRounds = 150;
  kern::CpuSet cpus(rig.bench->kernel.get(), kCpus);

  std::atomic<uint64_t> phase{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale_passes{0};
  std::atomic<uint64_t> acked[kCpus] = {};

  auto write_addr = [](uint64_t round) { return kPoolBase + round * 0x1000; };
  auto call_addr = [](uint64_t round) { return 0xffffffff81700000ull + round * 0x100; };

  for (int c = 0; c < kCpus; ++c) {
    cpus.RunOn(c, [&, c] {
      uint64_t iters = 0;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t ph = phase.load(std::memory_order_acquire);
        if (ph == 0) {
          kern::CpuSet::QuiescePoint();
          continue;
        }
        uint64_t round = (ph - 1) / 2;
        bool revoked_phase = (ph & 1) == 0;
        bool wok = rig.rt()->OwnsWriteFast(p, write_addr(round), 8);
        bool cok = rig.rt()->OwnsCallFast(p, call_addr(round));
        if (revoked_phase) {
          // The revoke for `round` returned before we loaded `ph`; the
          // tables may no longer say yes.
          if (wok || cok) {
            stale_passes.fetch_add(1);
          }
          acked[c].store(ph, std::memory_order_release);
        } else if (wok && cok) {
          // Saw the granted state; tell the driver we exercised it.
          acked[c].store(ph, std::memory_order_release);
        }
        if ((++iters & 255) == 0) {
          kern::CpuSet::QuiescePoint();
        }
      }
    });
  }

  auto wait_all_acked = [&](uint64_t target) {
    for (int c = 0; c < kCpus; ++c) {
      while (acked[c].load(std::memory_order_acquire) < target) {
        std::this_thread::yield();
      }
    }
  };

  for (uint64_t round = 0; round < kRounds; ++round) {
    lxfi::Capability wcap = lxfi::Capability::Write(write_addr(round), 64);
    lxfi::Capability ccap = lxfi::Capability::Call(call_addr(round));
    rig.rt()->Grant(p, wcap);
    rig.rt()->Grant(p, ccap);
    phase.store(2 * round + 1, std::memory_order_release);
    wait_all_acked(2 * round + 1);  // every CPU passed it
    rig.rt()->RevokeEverywhere(wcap);
    rig.rt()->RevokeEverywhere(ccap);
    phase.store(2 * round + 2, std::memory_order_release);
    wait_all_acked(2 * round + 2);  // every CPU observed it fail
  }
  stop.store(true, std::memory_order_release);
  cpus.Barrier();
  EXPECT_EQ(stale_passes.load(), 0u);
}

// Storm: one mutator (main thread) hammers grants, overlapping revokes,
// instance-principal creation and drops — forcing table growth, backward
// shifts, snapshot republication and grace-period reclamation — while every
// CPU probes the same principals lock-free, including the global principal
// whose ownership chain walks the instance snapshot. The assertions are
// (a) nothing crashes or races (TSan), and (b) after a final barrier the
// table agrees with a replayed reference.
TEST(ConcurrentEnforcement, GrantRevokeInstanceStorm) {
  ConcurrentRig rig;
  lxfi::Principal* shared = rig.mc->shared();
  lxfi::Principal* global = rig.mc->global();
  constexpr int kCpus = 3;
  constexpr int kSlots = 64;
  kern::CpuSet cpus(rig.bench->kernel.get(), kCpus);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checks_done{0};
  for (int c = 0; c < kCpus; ++c) {
    cpus.RunOn(c, [&, c] {
      lxfi::Rng rng(1000 + c);
      uint64_t iters = 0;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t slot = rng.Below(kSlots);
        uintptr_t addr = kPoolBase + slot * 0x800;
        // Both the plain-principal path and the global chain (snapshot walk).
        rig.rt()->OwnsWriteFast(shared, addr, 16);
        rig.rt()->OwnsWriteFast(global, addr, 16);
        rig.rt()->OwnsCallFast(shared, 0xffffffff81780000ull + slot * 0x100);
        checks_done.fetch_add(1, std::memory_order_relaxed);
        if ((++iters & 127) == 0) {
          kern::CpuSet::QuiescePoint();
        }
      }
    });
  }

  lxfi::Rng rng(7);
  std::vector<bool> granted(kSlots, false);
  for (int iter = 0; iter < 4000; ++iter) {
    uint64_t slot = rng.Below(kSlots);
    uintptr_t addr = kPoolBase + slot * 0x800;
    switch (rng.Below(4)) {
      case 0:
        rig.rt()->Grant(shared, lxfi::Capability::Write(addr, 128));
        granted[slot] = true;
        break;
      case 1:
        rig.rt()->RevokeEverywhere(lxfi::Capability::Write(addr, 128));
        granted[slot] = false;
        break;
      case 2: {  // instance churn: create, grant, drop
        uintptr_t name = 0xcafe0000 + rng.Below(16);
        lxfi::Principal* inst = rig.mc->GetOrCreate(name);
        rig.rt()->Grant(inst, lxfi::Capability::Call(0xffffffff81790000ull + name));
        if (rng.Below(2) == 0) {
          rig.rt()->DropPrincipal(rig.module, reinterpret_cast<const void*>(name));
        }
        break;
      }
      default:
        rig.rt()->Grant(shared, lxfi::Capability::Call(0xffffffff81780000ull + slot * 0x100));
        break;
    }
    if ((iter & 63) == 0) {
      std::this_thread::yield();  // let checkers overlap on small hosts
    }
  }
  // Keep the final table state live until every CPU has demonstrably probed
  // it concurrently (a fast mutator on a single-core host could otherwise
  // finish before the checkers ever ran).
  while (checks_done.load(std::memory_order_acquire) < 3000) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  cpus.Barrier();
  EXPECT_GT(checks_done.load(), 0u);

  // Quiescent now: the table must agree with the replayed grant/revoke log.
  for (int slot = 0; slot < kSlots; ++slot) {
    uintptr_t addr = kPoolBase + slot * 0x800;
    EXPECT_EQ(shared->caps().CheckWrite(addr, 128), granted[slot]) << "slot " << slot;
  }
}

// Partitioned-heap storm: the mutator churns per-instance heap arenas —
// carve, allocate, free, seal, drain, teardown+recycle — while every CPU
// hammers the arena-span fast path (OwnsWriteFast's first compare) on the
// live principal. The assertions are (a) nothing crashes or races under
// TSan (torn span publishes must be harmless: the sentinel protocol makes a
// half-visible span fail every contains check), and (b) once a walker has
// observed — through the phase release/acquire edge — that the seal
// returned, no span check may still answer yes: the quarantine fails closed
// across CPUs.
TEST(ConcurrentEnforcement, ArenaAllocSealTeardownStorm) {
  ConcurrentRig rig;
  rig.rt()->EnablePartitionedHeaps();
  constexpr int kCpus = 3;
  constexpr uint64_t kRounds = 60;
  kern::CpuSet cpus(rig.bench->kernel.get(), kCpus);

  std::atomic<uint64_t> phase{0};
  std::atomic<lxfi::Principal*> target{nullptr};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale_passes{0};
  std::atomic<uint64_t> span_probes{0};
  std::atomic<uint64_t> acked[kCpus] = {};

  for (int c = 0; c < kCpus; ++c) {
    cpus.RunOn(c, [&, c] {
      uint64_t iters = 0;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t ph = phase.load(std::memory_order_acquire);
        uint64_t state = ph == 0 ? 2 : (ph - 1) % 3;
        if (state == 2) {  // parked: the principal may be mid-teardown
          acked[c].store(ph, std::memory_order_release);
          kern::CpuSet::QuiescePoint();
          continue;
        }
        lxfi::Principal* p = target.load(std::memory_order_acquire);
        if (p == nullptr) {
          kern::CpuSet::QuiescePoint();
          continue;
        }
        uintptr_t addr = p->arena_lo() + (iters % 1024) * 64;
        bool wok = rig.rt()->OwnsWriteFast(p, addr, 8);
        span_probes.fetch_add(1, std::memory_order_relaxed);
        if (state == 0) {  // live: the span must satisfy the fast path
          if (wok) {
            acked[c].store(ph, std::memory_order_release);
          }
        } else {  // sealed before we loaded ph: must fail closed
          if (wok) {
            stale_passes.fetch_add(1);
          }
          acked[c].store(ph, std::memory_order_release);
        }
        if ((++iters & 127) == 0) {
          kern::CpuSet::QuiescePoint();
        }
      }
    });
  }

  auto wait_all_acked = [&](uint64_t want) {
    for (int c = 0; c < kCpus; ++c) {
      while (acked[c].load(std::memory_order_acquire) < want) {
        std::this_thread::yield();
      }
    }
  };

  for (uint64_t round = 0; round < kRounds; ++round) {
    uintptr_t name = 0xa11c0000 + round;
    lxfi::Principal* inst = rig.mc->GetOrCreate(name);
    std::vector<void*> objs;
    {
      lxfi::ScopedPrincipal as_inst(rig.rt(), inst);
      for (int i = 0; i < 16; ++i) {
        void* p = rig.rt()->PartitionedAlloc(64);
        ASSERT_NE(p, nullptr);
        objs.push_back(p);
      }
    }
    ASSERT_TRUE(inst->has_arena());
    target.store(inst, std::memory_order_release);
    phase.store(3 * round + 1, std::memory_order_release);
    wait_all_acked(3 * round + 1);  // every CPU hit the live span
    // Alloc/free churn racing the walkers' span probes.
    {
      lxfi::ScopedPrincipal as_inst(rig.rt(), inst);
      for (int i = 0; i < 8; ++i) {
        rig.bench->kernel->slab().Free(objs[i]);
        objs[i] = rig.rt()->PartitionedAlloc(48);
        ASSERT_NE(objs[i], nullptr);
      }
    }
    rig.rt()->SealPrincipalHeap(inst);
    phase.store(3 * round + 2, std::memory_order_release);
    wait_all_acked(3 * round + 2);  // every CPU observed fail-closed
    // Park the walkers, then drain and tear down (recycles the slot).
    target.store(nullptr, std::memory_order_release);
    phase.store(3 * round + 3, std::memory_order_release);
    wait_all_acked(3 * round + 3);
    for (void* p : objs) {
      rig.bench->kernel->slab().Free(p);
    }
    rig.rt()->DropPrincipal(rig.module, reinterpret_cast<const void*>(name));
  }
  stop.store(true, std::memory_order_release);
  cpus.Barrier();
  EXPECT_EQ(stale_passes.load(), 0u);
  EXPECT_GT(span_probes.load(), 0u);
  // Every slot went back on the free list: a fresh partition still carves.
  EXPECT_NE(rig.bench->kernel->slab().CreatePartition(), kern::SlabAllocator::kNoPartition);
}

}  // namespace
