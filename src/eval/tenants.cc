#include "src/eval/tenants.h"

#include <cstdio>
#include <cstring>
#include <deque>
#include <vector>

#include "src/base/clock.h"
#include "src/base/string_util.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"
#include "src/kernel/smp.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"
#include "src/modules/ramfs/ramfs.h"

namespace eval {
namespace {

// Per-worker user-space staging window (disjoint, like fsperf's).
constexpr uintptr_t kUserWindow = 0x8000;
uintptr_t UserBase(int worker) { return 0x1000 + static_cast<uintptr_t>(worker) * kUserWindow; }

// Per-worker counters; workers touch only their own slot, aggregated after
// the barrier.
struct WorkerStats {
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t violations = 0;
  uint64_t max_op_ns = 0;
};

}  // namespace

struct TenantsHarness::Impl {
  TenantsConfig config;
  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  std::unique_ptr<lxfi::Containment> containment;
  std::unique_ptr<kern::CpuSet> cpus;
  kern::Vfs* vfs = nullptr;
  // Stable storage: VfsFilter::scope and filter_name are retained as
  // const char* by the modules, and the containment map keys reloads by
  // module name — a deque never reallocates its strings.
  std::deque<std::string> mounts;
  std::deque<std::string> scopes;
  std::deque<std::string> filter_names;
};

TenantsHarness::TenantsHarness(const TenantsConfig& config) : impl_(new Impl()) {
  Impl* im = impl_.get();
  im->config = config;
  if (config.tenants < 2) {
    kern::Panic("tenants harness: need at least two tenants");
  }
  im->kernel = std::make_unique<kern::Kernel>(256ull << 20);
  lxfi::RuntimeOptions ro;
  ro.policy = lxfi::ViolationPolicy::kQuarantine;
  ro.concurrent_enforcement = config.cpus > 0;
  ro.partitioned_heaps = true;
  im->rt = std::make_unique<lxfi::Runtime>(im->kernel.get(), ro);
  lxfi::InstallKernelApi(im->kernel.get(), im->rt.get());
  im->containment = std::make_unique<lxfi::Containment>(im->rt.get());
  im->rt->set_containment(im->containment.get());
  im->vfs = kern::GetVfs(im->kernel.get());

  if (im->kernel->LoadModule(mods::RamfsModuleDef()) == nullptr) {
    kern::Panic("tenants harness: ramfs failed to load");
  }
  for (int t = 0; t < config.tenants; ++t) {
    im->mounts.push_back(lxfi::StrFormat("/t%d", t));
    im->scopes.push_back(lxfi::StrFormat("t%d", t));
    if (im->vfs->Mount("ramfs", im->mounts.back().c_str()) == nullptr) {
      kern::Panic("tenants harness: tenant mount failed");
    }
  }
  for (int t = 0; t < config.tenants; ++t) {
    im->filter_names.push_back(lxfi::StrFormat("flt%d", t));
    mods::FsFilterConfig fc;
    fc.module_name = im->filter_names.back();
    fc.filter_name = im->filter_names.back().c_str();
    fc.priority = t;
    fc.scope = im->scopes[t].c_str();
    if (im->kernel->LoadModule(mods::FsFilterModuleDef(fc)) == nullptr) {
      kern::Panic("tenants harness: tenant filter failed to load");
    }
  }
  if (config.cpus > 0) {
    im->kernel->slab().EnableSmpCache();
    im->cpus = std::make_unique<kern::CpuSet>(im->kernel.get(), config.cpus);
  }
}

TenantsHarness::~TenantsHarness() {
  impl_->cpus.reset();  // CPU threads drain before kernel/runtime teardown
}

lxfi::Runtime* TenantsHarness::runtime() const { return impl_->rt.get(); }
lxfi::Containment* TenantsHarness::containment() const { return impl_->containment.get(); }
kern::Kernel* TenantsHarness::kernel() const { return impl_->kernel.get(); }
kern::Vfs* TenantsHarness::vfs() const { return impl_->vfs; }

kern::Module* TenantsHarness::FilterModule(int tenant) const {
  return impl_->kernel->FindModule(impl_->filter_names[tenant]);
}

std::shared_ptr<mods::FsFilterState> TenantsHarness::FilterState(int tenant) const {
  kern::Module* m = FilterModule(tenant);
  return m == nullptr ? nullptr : mods::GetFsFilter(*m);
}

const std::string& TenantsHarness::FilterName(int tenant) const {
  return impl_->filter_names[tenant];
}

const std::string& TenantsHarness::MountPath(int tenant) const {
  return impl_->mounts[tenant];
}

void TenantsHarness::ArmRogue(int tenant) {
  auto rogue = FilterState(tenant);
  auto neighbour = FilterState((tenant + 1) % impl_->config.tenants);
  if (rogue == nullptr || neighbour == nullptr) {
    kern::Panic("tenants harness: cannot arm a missing filter");
  }
  rogue->probe_target = &neighbour->priv->pre_count[0];
  rogue->probe = mods::FsFilterProbe::kScribbleTarget;
}

void TenantsHarness::DisarmRogue(int tenant) {
  auto rogue = FilterState(tenant);
  if (rogue != nullptr) {
    rogue->probe = mods::FsFilterProbe::kNone;
  }
}

namespace {

// One tenant's churn round: create+write, stat, unlink — every op timed
// individually (the containment story is about bounded latency for healthy
// tenants, so the worst op matters, not just the mean).
void DriveTenant(kern::Vfs* vfs, const std::string& mount, const TenantsConfig& cfg, int worker,
                 bool quiesce, WorkerStats* st) {
  char path[64];
  const uintptr_t ubuf = UserBase(worker);
  uint64_t tick = 0;
  auto op = [&](auto&& body) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    bool ok = false;
    try {
      ok = body();
    } catch (const lxfi::LxfiViolation&) {
      ++st->violations;
    }
    uint64_t dt = lxfi::MonotonicNowNs() - t0;
    if (dt > st->max_op_ns) {
      st->max_op_ns = dt;
    }
    ++st->ops;
    if (!ok) {
      ++st->errors;
    }
    if (quiesce && (++tick & 63) == 0) {
      kern::CpuSet::QuiescePoint();
    }
  };
  for (uint64_t f = 0; f < cfg.files; ++f) {
    std::snprintf(path, sizeof(path), "%s/f%llu", mount.c_str(),
                  static_cast<unsigned long long>(f));
    op([&] {
      int err = 0;
      kern::File* file = vfs->Open(path, kern::kOCreate, &err);
      if (file == nullptr) {
        return false;
      }
      bool ok = vfs->Write(file, ubuf, cfg.file_bytes) == static_cast<int64_t>(cfg.file_bytes);
      vfs->Close(file);
      return ok;
    });
  }
  for (uint64_t f = 0; f < cfg.files; ++f) {
    std::snprintf(path, sizeof(path), "%s/f%llu", mount.c_str(),
                  static_cast<unsigned long long>(f));
    op([&] {
      kern::VfsStat vst;
      return vfs->Stat(path, &vst) == 0;
    });
  }
  for (uint64_t f = 0; f < cfg.files; ++f) {
    std::snprintf(path, sizeof(path), "%s/f%llu", mount.c_str(),
                  static_cast<unsigned long long>(f));
    op([&] { return vfs->Unlink(path) == 0; });
  }
}

}  // namespace

TenantsResult TenantsHarness::RunChurn() {
  Impl* im = impl_.get();
  const TenantsConfig& cfg = im->config;
  const int nworkers = cfg.cpus > 0 ? cfg.cpus : 1;
  for (int w = 0; w < nworkers; ++w) {
    std::memset(im->kernel->user().UserPtr(UserBase(w)), 0xA5, cfg.file_bytes);
  }

  // Tenant partition: worker w owns the healthy tenants with t % nworkers ==
  // w; the rogue tenant is the main thread's alone.
  auto tenants_of = [&](int w) {
    std::vector<int> mine;
    for (int t = 0; t < cfg.tenants; ++t) {
      if (t != cfg.rogue && t % nworkers == w) {
        mine.push_back(t);
      }
    }
    return mine;
  };

  std::vector<WorkerStats> stats(nworkers);
  TenantsResult result;
  uint64_t wall0 = lxfi::MonotonicNowNs();
  kern::Vfs* vfs = im->vfs;

  auto healthy_loop = [this, vfs, &cfg, &tenants_of, &stats](int w, bool quiesce) {
    for (uint32_t r = 0; r < cfg.rounds; ++r) {
      for (int t : tenants_of(w)) {
        DriveTenant(vfs, MountPath(t), cfg, w, quiesce, &stats[w]);
      }
    }
  };
  if (cfg.cpus > 0) {
    for (int w = 0; w < nworkers; ++w) {
      im->cpus->RunOn(w, [healthy_loop, w] { healthy_loop(w, /*quiesce=*/true); });
    }
  }

  // Module load/unload storm (main = loader thread): half before the rogue
  // injection, half after, so reboots race real loader traffic.
  auto storm = [&](int count) {
    for (int s = 0; s < count; ++s) {
      mods::FsFilterConfig sc;
      sc.module_name = "storm";
      sc.filter_name = "storm";
      sc.priority = 1 << 20;  // behind every tenant filter
      sc.scope = im->scopes[0].c_str();
      kern::Module* m = im->kernel->LoadModule(mods::FsFilterModuleDef(sc));
      if (m != nullptr) {
        im->kernel->UnloadModule(m);
      }
    }
  };
  storm(cfg.storm_loads / 2);

  if (cfg.rogue >= 0) {
    ArmRogue(cfg.rogue);
    const std::string& mount = MountPath(cfg.rogue);
    bool quarantined = false;
    for (int i = 0; i < 1000 && !quarantined; ++i) {
      try {
        kern::VfsStat vst;
        if (vfs->Stat(mount.c_str(), &vst) == -kern::kEio) {
          ++result.rogue_failfast;
        }
      } catch (const lxfi::LxfiViolation&) {
        quarantined = true;  // the probe fired; containment ran inside
      }
    }
    if (!quarantined) {
      kern::Panic("tenants harness: rogue probe never violated");
    }
    // The fix: a microreboot only helps if the fault does not come right
    // back, so disarm before draining (the probe state is shared across the
    // module's reloads).
    DisarmRogue(cfg.rogue);
    for (int spins = 0; im->containment->HasPendingReboots() && spins < 100; ++spins) {
      im->containment->DrainPendingReboots();
    }
    // Recovery proof: the rogue tenant's mount serves again, through the
    // freshly re-registered filter.
    for (int i = 0; i < 16; ++i) {
      kern::VfsStat vst;
      if (vfs->Stat(mount.c_str(), &vst) == 0) {
        ++result.rogue_recovered_ops;
      }
    }
  }
  storm(cfg.storm_loads - cfg.storm_loads / 2);

  if (cfg.cpus > 0) {
    im->cpus->Barrier();
  } else {
    healthy_loop(0, /*quiesce=*/false);
  }
  result.wall_ns = lxfi::MonotonicNowNs() - wall0;

  for (const WorkerStats& ws : stats) {
    result.healthy_ops += ws.ops;
    result.healthy_errors += ws.errors;
    result.healthy_violations += ws.violations;
    if (ws.max_op_ns > result.max_op_ns) {
      result.max_op_ns = ws.max_op_ns;
    }
  }
  result.violations = im->rt->violation_count();
  result.quarantines = im->containment->quarantines();
  result.reboots = im->containment->reboots();
  result.retired = im->containment->retired();
  for (const auto& pm : lxfi::LxfiStats::Collect(*im->rt)) {
    result.arena_fallbacks += pm.arena_fallbacks;
  }
  return result;
}

}  // namespace eval
