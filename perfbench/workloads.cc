#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <stdexcept>

#include "src/kernel/block/block.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/nicsim.h"
#include "src/kernel/net/skbuff.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/guards.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"
#include "src/modules/dm/dm_modules.h"
#include "src/modules/e1000/e1000.h"
#include "src/modules/fsfilter/fsfilter.h"
#include "src/modules/jexfs/jexfs.h"
#include "src/modules/jexfs/jexfs_format.h"
#include "src/modules/ramfs/ramfs.h"

namespace perfbench {
namespace {

// splitmix64: the benchmark's own generator, so the inputs a seed produces
// never depend on code under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

constexpr size_t kArenaBytes = 256ull << 20;
constexpr uint16_t kProto = 0x0800;
constexpr uint32_t kFrameBytes = 64;
constexpr uint32_t kPayloads = 64;

// fs_tenants: 128 mounts, 4 files per visit, 4 rounds of visits per cycle.
constexpr int kTenants = 128;
constexpr int kFilesPerVisit = 4;
constexpr int kTenantRounds = 4;
// fs_block: a 1024-block jexfs; the inode table has 32 slots, so a batch
// holds at most 24 files. Files stay within 4 blocks (fsperf's block size).
constexpr uint64_t kDiskBlocks = 1024;
constexpr int kBlockRounds = 8;
constexpr uint32_t kIoChunk = 512;

// User-space layout: the seeded content pool, then a read-back buffer.
constexpr uintptr_t kContentBase = 0x10000;
constexpr uint32_t kContentBytes = 64 * 1024;
constexpr uintptr_t kReadBase = 0x40000;

// A seeded name of 6..18 characters; the plan-wide index suffix keeps
// names unique within a directory.
uint32_t AddName(Plan* plan, Rng& rng, char tag) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string name(1, tag);
  int len = 4 + static_cast<int>(rng.Below(9));
  for (int i = 0; i < len; ++i) {
    name.push_back(kAlphabet[rng.Below(sizeof(kAlphabet) - 1)]);
  }
  name.push_back('-');
  name += std::to_string(plan->names.size());
  plan->names.push_back(std::move(name));
  return static_cast<uint32_t>(plan->names.size() - 1);
}

void FillContent(Plan* plan, Rng& rng) {
  plan->content.resize(kContentBytes);
  for (uint8_t& b : plan->content) {
    b = static_cast<uint8_t>(rng.Next());
  }
}

// One file's identity: name, size and where its bytes sit in the pool.
FsOp SeededFile(Plan* plan, Rng& rng, char tag, uint32_t min_size, uint32_t max_size) {
  FsOp f;
  f.name = AddName(plan, rng, tag);
  f.size = min_size + rng.Below(max_size - min_size + 1);
  f.content = rng.Below(kContentBytes - f.size + 1);
  return f;
}

void Push(Plan* plan, FsOp op, FsOpKind kind) {
  op.kind = kind;
  plan->ops.push_back(op);
}

void Stage(kern::Kernel* kernel, const Plan& plan) {
  std::memcpy(kernel->user().UserPtr(kContentBase), plan.content.data(), plan.content.size());
}

void Require(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("perfbench set-up failed: ") + what);
  }
}

// Kernel, runtime and API install: the first two boot phases, shared by
// every workload.
struct Boot {
  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  std::unique_ptr<lxfi::Containment> containment;

  Boot(bool enforced, lxfi::RuntimeOptions options, bool contain, SetupTimes* t) {
    uint64_t t0 = NowNs();
    kernel = std::make_unique<kern::Kernel>(kArenaBytes);
    if (enforced) {
      rt = std::make_unique<lxfi::Runtime>(kernel.get(), options);
      if (contain) {
        containment = std::make_unique<lxfi::Containment>(rt.get());
        rt->set_containment(containment.get());
      }
    }
    uint64_t t1 = NowNs();
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    uint64_t t2 = NowNs();
    t->kernel_ns += t1 - t0;
    t->api_ns += t2 - t1;
  }

  void ReadRuntime(Counters* c) const {
    if (rt == nullptr) {
      return;
    }
    for (const auto& pm : lxfi::LxfiStats::Collect(*rt)) {
      c->crossings += pm.crossings;
      c->crossing_ns += pm.crossing_ns;
      c->write_checks += pm.write_checks;
      c->write_memo_hits += pm.write_memo_hits;
      c->arena_span_hits += pm.arena_span_hits;
      c->call_checks += pm.call_checks;
      c->call_memo_hits += pm.call_memo_hits;
      c->pre_checks += pm.pre_checks;
      c->pre_memo_hits += pm.pre_memo_hits;
      c->arena_fallbacks += pm.arena_fallbacks;
      ++c->principals;
    }
    const lxfi::GuardStats& g = rt->guards();
    c->guard_actions = g.count(lxfi::GuardType::kAnnotationAction);
    c->guard_action_ns = g.time_ns(lxfi::GuardType::kAnnotationAction);
    c->mem_write_ns = g.time_ns(lxfi::GuardType::kMemWrite);
    c->indcalls = g.count(lxfi::GuardType::kIndCallAll);
    c->indcalls_full = g.count(lxfi::GuardType::kIndCallFull);
    c->revokes = rt->revoke_everywhere_count();
  }

  bool NoViolations(std::string* why) const {
    if (rt != nullptr && rt->violation_count() != 0) {
      *why += " violations=" + std::to_string(rt->violation_count());
      return false;
    }
    return true;
  }
};

// Runs `body` as one op: any exception (a violation, a kernel panic) is a
// failed op, not a crashed benchmark.
template <typename Body>
bool Guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception&) {
    return false;
  }
}

// --- net_tx -------------------------------------------------------------------

class NetTxRig final : public Rig {
 public:
  NetTxRig(const Plan& plan, bool enforced, bool traced, SetupTimes* t)
      : plan_(plan), boot_(enforced, Options(traced), /*contain=*/false, t) {
    kern::Kernel* k = boot_.kernel.get();
    uint64_t t0 = NowNs();
    hw_ = mods::PlugInE1000Device(k, /*irq=*/5);
    Require(k->LoadModule(mods::E1000ModuleDef()) != nullptr, "e1000 load");
    stack_ = kern::GetNetStack(k);
    dev_ = stack_->DevByIndex(1);
    Require(dev_ != nullptr, "e1000 netdev");
    t->modules_ns += NowNs() - t0;
    hw_->SetTxSink([this](const uint8_t* frame, uint16_t len) { OnWire(frame, len); });
    frames_before_ = hw_->frames_tx();
  }

  bool Op(uint64_t k, Spans* spans) override {
    uint32_t which = static_cast<uint32_t>(k % plan_.payloads.size());
    bool ok = Guarded([&] {
      kern::Kernel* kernel = boot_.kernel.get();
      kern::SkBuff* skb = nullptr;
      {
        SpanTimer span(spans, Call::kAlloc);
        skb = kern::AllocSkb(kernel, kFrameBytes);
        if (skb != nullptr) {
          std::memcpy(kern::SkbPut(skb, kFrameBytes), plan_.payloads[which].data(), kFrameBytes);
          skb->protocol = kProto;
        }
      }
      if (skb == nullptr) {
        return false;
      }
      int rc = 0;
      {
        SpanTimer span(spans, Call::kXmit);
        rc = stack_->DevQueueXmit(dev_, skb);
      }
      ++xmits_;
      if (rc == kern::kNetdevTxBusy) {
        ++tx_busy_;
        kern::FreeSkb(kernel, skb);
        return false;
      }
      if (rc != kern::kNetdevTxOk) {
        return false;
      }
      expected_.push_back(which);
      return true;
    });
    if ((k & 15) == 15) {
      SpanTimer span(spans, Call::kTxClean);
      ok = Guarded([&] { return hw_->ProcessTx() >= 0; }) && ok;
    }
    return ok;
  }

  bool Verify(std::string* why) override {
    bool ok = Guarded([&] { return hw_->ProcessTx() >= 0; });
    uint64_t delivered = hw_->frames_tx() - frames_before_;
    if (!ok || delivered != queued() || !expected_.empty() || mismatches_ != 0) {
      *why += " net_tx: delivered=" + std::to_string(delivered) +
              " queued=" + std::to_string(queued()) +
              " mismatched=" + std::to_string(mismatches_);
      ok = false;
    }
    return boot_.NoViolations(why) && ok;
  }

  Counters Read() const override {
    Counters c;
    boot_.ReadRuntime(&c);
    c.xmits = xmits_;
    c.tx_busy = tx_busy_;
    return c;
  }

 private:
  static lxfi::RuntimeOptions Options(bool traced) {
    lxfi::RuntimeOptions o;
    o.guard_timing = traced;
    return o;
  }

  // The wire: every transmitted frame must be the next queued payload.
  void OnWire(const uint8_t* frame, uint16_t len) {
    if (expected_.empty() || len != kFrameBytes ||
        std::memcmp(frame, plan_.payloads[expected_.front()].data(), kFrameBytes) != 0) {
      ++mismatches_;
    }
    if (!expected_.empty()) {
      expected_.pop_front();
    }
  }

  uint64_t queued() const { return xmits_ - tx_busy_; }

  const Plan& plan_;
  Boot boot_;
  kern::NicHw* hw_ = nullptr;
  kern::NetStack* stack_ = nullptr;
  kern::NetDevice* dev_ = nullptr;
  uint64_t frames_before_ = 0;
  uint64_t xmits_ = 0;
  uint64_t tx_busy_ = 0;
  uint64_t mismatches_ = 0;
  std::deque<uint32_t> expected_;
};

// --- VFS ops shared by fs_tenants and fs_block ----------------------------------

class FsRig : public Rig {
 protected:
  FsRig(const Plan& plan, bool enforced, lxfi::RuntimeOptions options, bool contain,
        SetupTimes* t)
      : plan_(plan), boot_(enforced, options, contain, t) {}

  kern::Vfs* vfs() const { return vfs_; }

  // Writes the file's bytes from the staged pool in `chunk`-byte calls.
  bool WriteAll(kern::File* f, const FsOp& op, uint32_t chunk, Spans* spans) {
    for (uint32_t off = 0; off < op.size; off += chunk) {
      uint32_t n = std::min(chunk, op.size - off);
      SpanTimer span(spans, Call::kWrite);
      if (vfs_->Write(f, kContentBase + op.content + off, n) != static_cast<int64_t>(n)) {
        return false;
      }
    }
    return true;
  }

  bool Close(kern::File* f, Spans* spans) {
    SpanTimer span(spans, Call::kClose);
    return vfs_->Close(f) == 0;
  }

  kern::File* OpenExisting(const char* path, Spans* spans) {
    SpanTimer span(spans, Call::kOpen);
    int err = 0;
    return vfs_->Open(path, 0, &err);
  }

  kern::File* Create(const char* path, Spans* spans) {
    SpanTimer span(spans, Call::kCreate);
    int err = 0;
    return vfs_->Open(path, kern::kOCreate, &err);
  }

  // Reads the whole file back and compares it with the bytes written.
  bool ReadBack(const char* path, const FsOp& op, Spans* spans) {
    kern::File* f = OpenExisting(path, spans);
    if (f == nullptr) {
      return false;
    }
    uint64_t got = 0;
    bool ok = true;
    while (got <= op.size) {
      int64_t n;
      {
        SpanTimer span(spans, Call::kRead);
        n = vfs_->Read(f, kReadBase + got, kIoChunk);
      }
      if (n <= 0) {
        ok = n == 0;
        break;
      }
      got += static_cast<uint64_t>(n);
    }
    ok = Close(f, spans) && ok && got == op.size &&
         std::memcmp(boot_.kernel->user().UserPtr(kReadBase), plan_.content.data() + op.content,
                     op.size) == 0;
    return ok;
  }

  bool StatSize(const char* path, const FsOp& op, Spans* spans) {
    SpanTimer span(spans, Call::kStat);
    kern::VfsStat st;
    return vfs_->Stat(path, &st) == 0 && st.size == op.size;
  }

  bool Unlink(const char* path, Spans* spans) {
    SpanTimer span(spans, Call::kUnlink);
    return vfs_->Unlink(path) == 0;
  }

  void ReadVfs(Counters* c) const {
    boot_.ReadRuntime(c);
    c->lookup_dispatches = vfs_->lookup_dispatches();
    c->dcache_retries = vfs_->dcache().seqlock_retries();
  }

  const Plan& plan_;
  Boot boot_;
  kern::Vfs* vfs_ = nullptr;
};

// --- fs_tenants -------------------------------------------------------------------

class TenantsRig final : public FsRig {
 public:
  TenantsRig(const Plan& plan, bool enforced, bool traced, SetupTimes* t)
      : FsRig(plan, enforced, Options(traced), /*contain=*/true, t) {
    kern::Kernel* k = boot_.kernel.get();
    vfs_ = kern::GetVfs(k);
    uint64_t t0 = NowNs();
    Require(k->LoadModule(mods::RamfsModuleDef()) != nullptr, "ramfs load");
    uint64_t t1 = NowNs();
    for (int i = 0; i < plan.tenants; ++i) {
      scopes_.push_back(std::string("t").append(std::to_string(i)));
      mounts_.push_back(std::string("/").append(scopes_.back()));
      Require(vfs_->Mount("ramfs", mounts_.back().c_str()) != nullptr, "tenant mount");
    }
    uint64_t t2 = NowNs();
    for (int i = 0; i < plan.tenants; ++i) {
      filters_.push_back(std::string("flt").append(std::to_string(i)));
      mods::FsFilterConfig fc;
      fc.module_name = filters_.back();
      fc.filter_name = filters_.back().c_str();
      fc.priority = i;
      fc.scope = scopes_[i].c_str();
      Require(k->LoadModule(mods::FsFilterModuleDef(fc)) != nullptr, "tenant filter load");
    }
    uint64_t t3 = NowNs();
    t->modules_ns += (t1 - t0) + (t3 - t2);
    t->mount_ns += t2 - t1;
    Stage(k, plan);
  }

  bool Op(uint64_t k, Spans* spans) override {
    const FsOp& op = plan_.ops[k % plan_.ops.size()];
    char path[64];
    std::snprintf(path, sizeof(path), "%s/%s", mounts_[op.tenant].c_str(),
                  plan_.names[op.name].c_str());
    return Guarded([&] {
      switch (op.kind) {
        case kOpCreateWrite: {
          kern::File* f = Create(path, spans);
          if (f == nullptr) {
            return false;
          }
          bool ok = WriteAll(f, op, op.size, spans);
          return Close(f, spans) && ok;
        }
        case kOpRead:
          return ReadBack(path, op, spans);
        case kOpStat:
          return StatSize(path, op, spans);
        case kOpUnlink:
          return Unlink(path, spans);
        default:
          return false;
      }
    });
  }

  bool Verify(std::string* why) override { return boot_.NoViolations(why); }

  Counters Read() const override {
    Counters c;
    ReadVfs(&c);
    for (const std::string& name : filters_) {
      kern::Module* m = boot_.kernel->FindModule(name);
      auto st = m == nullptr ? nullptr : mods::GetFsFilter(*m);
      if (st == nullptr) {
        continue;
      }
      for (int op = 0; op < static_cast<int>(kern::VfsOp::kCount); ++op) {
        c.filter_hooks += st->pre_count(static_cast<kern::VfsOp>(op)) +
                          st->post_count(static_cast<kern::VfsOp>(op));
      }
    }
    return c;
  }

 private:
  static lxfi::RuntimeOptions Options(bool traced) {
    lxfi::RuntimeOptions o;
    o.policy = lxfi::ViolationPolicy::kQuarantine;
    o.partitioned_heaps = true;
    o.guard_timing = traced;
    return o;
  }

  // Stable storage: filter scope and name strings are retained by the
  // modules as const char*.
  std::deque<std::string> mounts_;
  std::deque<std::string> scopes_;
  std::deque<std::string> filters_;
};

// --- fs_block -----------------------------------------------------------------------

class BlockRig final : public FsRig {
 public:
  BlockRig(const Plan& plan, bool enforced, bool traced, SetupTimes* t)
      : FsRig(plan, enforced, Options(traced), /*contain=*/false, t) {
    kern::Kernel* k = boot_.kernel.get();
    vfs_ = kern::GetVfs(k);
    block_ = kern::GetBlockLayer(k);
    uint64_t t0 = NowNs();
    raw_ = block_->CreateRamDisk("pbdisk0", kDiskBlocks);
    Require(raw_ != nullptr, "ramdisk");
    Require(k->LoadModule(mods::DmCryptModuleDef()) != nullptr, "dm-crypt load");
    top_ = block_->DmCreate("pbcrypt0", "crypt", raw_, "perfbench-key");
    Require(top_ != nullptr, "dm-crypt target");
    uint64_t t1 = NowNs();
    MkfsThroughTop();
    uint64_t t2 = NowNs();
    Require(k->LoadModule(mods::JexfsModuleDef("jexfs", top_->name)) != nullptr,
                 "jexfs load");
    uint64_t t3 = NowNs();
    Require(vfs_->Mount("jexfs", "/mnt") != nullptr, "jexfs mount");
    uint64_t t4 = NowNs();
    t->modules_ns += (t1 - t0) + (t3 - t2);
    t->mount_ns += (t2 - t1) + (t4 - t3);
    pc_ = kern::GetPageCache(k);
    Stage(k, plan);
  }

  bool Op(uint64_t k, Spans* spans) override {
    const FsOp& op = plan_.ops[k % plan_.ops.size()];
    char path[64];
    std::snprintf(path, sizeof(path), "/mnt/%s", plan_.names[op.name].c_str());
    return Guarded([&] {
      switch (op.kind) {
        case kOpCreate: {
          kern::File* f = Create(path, spans);
          return f != nullptr && Close(f, spans);
        }
        case kOpWrite: {
          kern::File* f = OpenExisting(path, spans);
          if (f == nullptr) {
            return false;
          }
          bool ok = WriteAll(f, op, kIoChunk, spans);
          return Close(f, spans) && ok;
        }
        case kOpFsync: {
          kern::File* f = OpenExisting(path, spans);
          if (f == nullptr) {
            return false;
          }
          bool ok;
          {
            SpanTimer span(spans, Call::kFsync);
            ok = vfs_->Fsync(f) == 0;
          }
          return Close(f, spans) && ok;
        }
        case kOpRead:
          return ReadBack(path, op, spans);
        case kOpStat:
          return StatSize(path, op, spans);
        case kOpRename: {
          char npath[64];
          std::snprintf(npath, sizeof(npath), "/mnt/%s", plan_.names[op.new_name].c_str());
          SpanTimer span(spans, Call::kRename);
          return vfs_->Rename(path, npath) == 0;
        }
        case kOpUnlink:
          return Unlink(path, spans);
        default:
          return false;
      }
    });
  }

  // Unmounts (jexfs checkpoints its journal and syncs) and runs fsck over
  // the image read back through the dm-crypt device.
  bool Verify(std::string* why) override {
    bool ok = boot_.NoViolations(why);
    std::string err;
    bool fsck = Guarded([&] {
      if (vfs_->Unmount("/mnt") != 0) {
        err = "unmount failed";
        return false;
      }
      std::vector<uint8_t> img(kDiskBlocks * mods::kJexBlockSize);
      for (uint64_t s = 0; s < kDiskBlocks; ++s) {
        kern::Bio bio;
        bio.sector = s;
        bio.size = mods::kJexBlockSize;
        bio.data = img.data() + s * mods::kJexBlockSize;
        if (block_->SubmitBio(top_, &bio) != 0 || bio.status != 0) {
          err = "image read failed";
          return false;
        }
      }
      return mods::JexFsck(img.data(), kDiskBlocks, &err);
    });
    if (!fsck) {
      *why += " fs_block fsck: " + err;
    }
    return ok && fsck;
  }

  Counters Read() const override {
    Counters c;
    ReadVfs(&c);
    c.pc_hits = pc_->hits();
    c.pc_misses = pc_->misses();
    c.writebacks = pc_->writebacks();
    c.bios = raw_->reads + raw_->writes;
    return c;
  }

 private:
  static lxfi::RuntimeOptions Options(bool traced) {
    lxfi::RuntimeOptions o;
    o.partitioned_heaps = true;
    o.guard_timing = traced;
    return o;
  }

  // mkfs from trusted code, written through the dm-crypt device so the
  // mount finds a correctly encrypted disk.
  void MkfsThroughTop() {
    std::vector<uint8_t> img(kDiskBlocks * mods::kJexBlockSize);
    Require(mods::JexMkfs(img.data(), kDiskBlocks), "mkfs");
    for (uint64_t s = 0; s < kDiskBlocks; ++s) {
      kern::Bio bio;
      bio.sector = s;
      bio.size = mods::kJexBlockSize;
      bio.data = img.data() + s * mods::kJexBlockSize;
      bio.write = true;
      Require(block_->SubmitBio(top_, &bio) == 0 && bio.status == 0, "mkfs write");
    }
  }

  kern::BlockLayer* block_ = nullptr;
  kern::BlockDevice* raw_ = nullptr;
  kern::BlockDevice* top_ = nullptr;
  kern::PageCache* pc_ = nullptr;
};

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "net_tx") {
    *out = Workload::kNetTx;
  } else if (name == "fs_tenants") {
    *out = Workload::kFsTenants;
  } else if (name == "fs_block") {
    *out = Workload::kFsBlock;
  } else {
    return false;
  }
  return true;
}

const char* CallName(Call call) {
  static const char* const kNames[kCalls] = {"alloc", "xmit", "txclean", "create",
                                             "open",  "write", "fsync", "read",
                                             "stat",  "rename", "unlink", "close"};
  return kNames[static_cast<int>(call)];
}

Plan MakePlan(Workload workload, uint64_t seed) {
  Plan plan;
  plan.workload = workload;
  Rng rng(seed);
  switch (workload) {
    case Workload::kNetTx:
      for (uint32_t i = 0; i < kPayloads; ++i) {
        std::vector<uint8_t> frame(kFrameBytes);
        for (uint8_t& b : frame) {
          b = static_cast<uint8_t>(rng.Next());
        }
        frame[0] = static_cast<uint8_t>(kProto & 0xff);
        frame[1] = static_cast<uint8_t>(kProto >> 8);
        plan.payloads.push_back(std::move(frame));
      }
      break;
    case Workload::kFsTenants: {
      plan.tenants = kTenants;
      FillContent(&plan, rng);
      std::vector<int> order(kTenants);
      for (int r = 0; r < kTenantRounds; ++r) {
        for (int i = 0; i < kTenants; ++i) {
          order[i] = i;
        }
        for (int i = kTenants - 1; i > 0; --i) {
          std::swap(order[i], order[rng.Below(static_cast<uint32_t>(i + 1))]);
        }
        for (int tenant : order) {
          FsOp files[kFilesPerVisit];
          for (FsOp& f : files) {
            f = SeededFile(&plan, rng, 'f', 64, 2048);
            f.tenant = static_cast<uint16_t>(tenant);
          }
          for (FsOpKind kind : {kOpCreateWrite, kOpRead, kOpStat, kOpUnlink}) {
            for (const FsOp& f : files) {
              Push(&plan, f, kind);
            }
          }
        }
      }
      break;
    }
    case Workload::kFsBlock: {
      FillContent(&plan, rng);
      for (int r = 0; r < kBlockRounds; ++r) {
        std::vector<FsOp> files(16 + rng.Below(9));  // 16..24 files
        for (FsOp& f : files) {
          f = SeededFile(&plan, rng, 'f', 256, 4 * kIoChunk);
          f.new_name = AddName(&plan, rng, 'g');
        }
        for (FsOpKind kind : {kOpCreate, kOpWrite, kOpFsync, kOpRead, kOpStat, kOpRename}) {
          for (const FsOp& f : files) {
            Push(&plan, f, kind);
          }
        }
        for (FsOp f : files) {
          f.name = f.new_name;
          Push(&plan, f, kOpUnlink);
        }
      }
      break;
    }
  }
  return plan;
}

std::unique_ptr<Rig> MakeRig(const Plan& plan, bool enforced, bool traced, SetupTimes* times) {
  switch (plan.workload) {
    case Workload::kNetTx:
      return std::make_unique<NetTxRig>(plan, enforced, traced, times);
    case Workload::kFsTenants:
      return std::make_unique<TenantsRig>(plan, enforced, traced, times);
    case Workload::kFsBlock:
      return std::make_unique<BlockRig>(plan, enforced, traced, times);
  }
  return nullptr;
}

}  // namespace perfbench
