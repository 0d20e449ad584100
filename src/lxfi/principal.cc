#include "src/lxfi/principal.h"

#include "src/base/string_util.h"
#include "src/kernel/module.h"

namespace lxfi {

std::string Principal::DebugName() const {
  const std::string& mod = module_->name();
  switch (kind_) {
    case PrincipalKind::kShared:
      return mod + "::<shared>";
    case PrincipalKind::kGlobal:
      return mod + "::<global>";
    case PrincipalKind::kInstance:
      return StrFormat("%s::%#llx", mod.c_str(), static_cast<unsigned long long>(name_));
  }
  return mod + "::?";
}

ModuleCtx::ModuleCtx(Runtime* runtime, kern::Module* kmod)
    : runtime_(runtime),
      kmod_(kmod),
      shared_(this, PrincipalKind::kShared, 0),
      global_(this, PrincipalKind::kGlobal, 0) {
  PublishSnapshot();
}

ModuleCtx::~ModuleCtx() {
  // Unload runs from a quiescent context (no concurrent enforcement against
  // a module being torn down); the last snapshot can be freed in place.
  delete inst_snapshot_;
}

const std::string& ModuleCtx::name() const { return kmod_->name(); }

void ModuleCtx::EnableConcurrent(EpochReclaimer* reclaimer) {
  reclaimer_ = reclaimer;
  shared_.caps().SetReclaimer(reclaimer);
  global_.caps().SetReclaimer(reclaimer);
  by_name_.SetReclaimer(reclaimer);
  for (auto& inst : instances_) {
    inst->caps().SetReclaimer(reclaimer);
  }
}

void ModuleCtx::PublishSnapshot() {
  auto* fresh = new InstanceSnapshot();
  fresh->items.reserve(instances_.size());
  for (const auto& inst : instances_) {
    fresh->items.push_back(inst.get());
  }
  InstanceSnapshot* old = inst_snapshot_;
  __atomic_store_n(&inst_snapshot_, fresh, __ATOMIC_RELEASE);
  if (old != nullptr) {
    if (reclaimer_ != nullptr) {
      reclaimer_->Retire([old] { delete old; });
    } else {
      delete old;
    }
  }
}

Principal* ModuleCtx::GetOrCreate(uintptr_t name) {
  if (reclaimer_ != nullptr) {
    // Lock-free hit path: per-crossing principal() resolution lands here on
    // every kernel->module call, and the principal almost always exists.
    Principal* found = nullptr;
    if (by_name_.FindValueConcurrent(name, &found)) {
      return found;
    }
    SpinGuard guard(mu_);
    if (Principal* const* raced = by_name_.Find(name)) {
      return *raced;
    }
    instances_.push_back(std::make_unique<Principal>(this, PrincipalKind::kInstance, name));
    Principal* p = instances_.back().get();
    p->caps().SetReclaimer(reclaimer_);
    by_name_.Insert(name, p);
    PublishSnapshot();
    TRACE_EVENT(TraceEvent::kPrincipalCreate, p->trace_id(), name, 0);
    return p;
  }
  if (Principal* const* found = by_name_.Find(name)) {
    return *found;
  }
  instances_.push_back(std::make_unique<Principal>(this, PrincipalKind::kInstance, name));
  Principal* p = instances_.back().get();
  by_name_.Insert(name, p);
  PublishSnapshot();
  TRACE_EVENT(TraceEvent::kPrincipalCreate, p->trace_id(), name, 0);
  return p;
}

Principal* ModuleCtx::Lookup(uintptr_t name) const {
  Principal* const* found = by_name_.Find(name);
  return found == nullptr ? nullptr : *found;
}

bool ModuleCtx::Alias(uintptr_t existing, uintptr_t alias) {
  SpinGuard guard(mu_);
  Principal* const* found = by_name_.Find(existing);
  if (found == nullptr) {
    return false;
  }
  by_name_.Insert(alias, *found);
  return true;
}

void ModuleCtx::DropInstance(uintptr_t name) {
  std::unique_ptr<Principal> doomed;
  {
    SpinGuard guard(mu_);
    Principal* const* found = by_name_.Find(name);
    if (found == nullptr) {
      return;
    }
    Principal* p = *found;
    // Remove all names bound to this principal.
    by_name_.EraseIf([p](uint64_t, Principal* const& bound) { return bound == p; });
    for (auto it = instances_.begin(); it != instances_.end(); ++it) {
      if (it->get() == p) {
        doomed = std::move(*it);
        instances_.erase(it);
        break;
      }
    }
    PublishSnapshot();
  }
  if (doomed == nullptr) {
    return;
  }
  TRACE_EVENT(TraceEvent::kPrincipalDrop, doomed->trace_id(), name, 0);
  if (reclaimer_ != nullptr) {
    // Lock-free probes may still hold the principal until their next
    // quiescent state; its capability tables die with it after the grace
    // period.
    Principal* raw = doomed.release();
    reclaimer_->Retire([raw] { delete raw; });
  }
}

// The one copy of the ownership fallback chain (§3.1): the principal itself,
// then the module's shared principal, then — for the global principal — the
// union over every instance. `probe` answers "does this table satisfy the
// query" for one principal.
template <typename Probe>
bool ModuleCtx::OwnsChain(const Principal* p, Probe&& probe) const {
  if (probe(*p)) {
    return true;
  }
  if (p != &shared_ && probe(shared_)) {
    return true;
  }
  if (p->kind() == PrincipalKind::kGlobal) {
    for (const auto& inst : instances_) {
      if (probe(*inst)) {
        return true;
      }
    }
  }
  return false;
}

// Concurrent flavor: same chain, but the global-principal case iterates the
// published snapshot so it cannot race instance creation.
template <typename Probe>
bool ModuleCtx::OwnsChainConcurrent(const Principal* p, Probe&& probe) const {
  if (probe(*p)) {
    return true;
  }
  if (p != &shared_ && probe(shared_)) {
    return true;
  }
  if (p->kind() == PrincipalKind::kGlobal) {
    const InstanceSnapshot* snap = AcquireSnapshot();
    for (const Principal* inst : snap->items) {
      if (probe(*inst)) {
        return true;
      }
    }
  }
  return false;
}

// Heap-partition span as a chain step, with a definitive answer either way:
// a principal's unsealed partition span satisfies WRITE queries exactly like
// a granted range would, and a *sealed* span denies without consulting the
// principal's table — the quarantined heap fails closed even where
// per-object kmalloc grants still sit in the table. Folding the span into
// the chain (not just the store-guard fast path) keeps the cap-table slow
// path and the arena fast path giving identical allow/deny answers by
// construction — the slow path is the differential reference.
enum class ArenaAnswer { kAllow, kDeny, kNotMine };

static ArenaAnswer ArenaWriteProbe(const Principal& q, uintptr_t addr, size_t size) {
  if (!q.ArenaContains(addr, size)) {
    return ArenaAnswer::kNotMine;
  }
  return q.arena_sealed() ? ArenaAnswer::kDeny : ArenaAnswer::kAllow;
}

// One principal's WRITE answer: its span, else its table.
template <bool kConcurrent>
static bool PrincipalOwnsWrite(const Principal& q, uintptr_t addr, size_t size) {
  switch (ArenaWriteProbe(q, addr, size)) {
    case ArenaAnswer::kAllow:
      return true;
    case ArenaAnswer::kDeny:
      return false;
    case ArenaAnswer::kNotMine:
      break;
  }
  return kConcurrent ? q.caps().CheckWriteConcurrent(addr, size) : q.caps().CheckWrite(addr, size);
}

bool ModuleCtx::Owns(const Principal* p, const Capability& cap) const {
  if (cap.kind == CapKind::kWrite) {
    return OwnsWrite(p, cap.addr, cap.size);
  }
  return OwnsChain(p, [&cap](const Principal& q) { return q.caps().Check(cap); });
}

bool ModuleCtx::OwnsWrite(const Principal* p, uintptr_t addr, size_t size) const {
  return OwnsChain(p, [&](const Principal& q) { return PrincipalOwnsWrite<false>(q, addr, size); });
}

bool ModuleCtx::OwnsCall(const Principal* p, uintptr_t target) const {
  return OwnsChain(p, [target](const Principal& q) { return q.caps().CheckCall(target); });
}

bool ModuleCtx::OwnsConcurrent(const Principal* p, const Capability& cap) const {
  if (cap.kind == CapKind::kWrite) {
    return OwnsWriteConcurrent(p, cap.addr, cap.size);
  }
  return OwnsChainConcurrent(p, [&cap](const Principal& q) { return q.caps().CheckConcurrent(cap); });
}

bool ModuleCtx::OwnsWriteConcurrent(const Principal* p, uintptr_t addr, size_t size) const {
  return OwnsChainConcurrent(
      p, [&](const Principal& q) { return PrincipalOwnsWrite<true>(q, addr, size); });
}

bool ModuleCtx::OwnsCallConcurrent(const Principal* p, uintptr_t target) const {
  return OwnsChainConcurrent(
      p, [target](const Principal& q) { return q.caps().CheckCallConcurrent(target); });
}

bool ModuleCtx::RevokeEverywhere(const Capability& cap) {
  if (reclaimer_ == nullptr) {
    bool any = shared_.caps().Revoke(cap);
    any |= global_.caps().Revoke(cap);
    for (auto& inst : instances_) {
      any |= inst->caps().Revoke(cap);
    }
    return any;
  }
  // SMP path: pre-filter each principal lock-free so the common per-packet
  // transfer locks only the one principal that actually holds the
  // capability. The removal is a seqlock write section (inside
  // CapTable::Revoke), so any probe that begins after this revoke returns
  // validates only against the post-removal table: a returned revoke is
  // never passed.
  auto revoke_one = [&cap](Principal* p) {
    if (!p->caps().MightHoldConcurrent(cap)) {
      return false;
    }
    SpinGuard guard(p->lock());
    return p->caps().Revoke(cap);
  };
  bool any = revoke_one(&shared_);
  any |= revoke_one(&global_);
  const InstanceSnapshot* snap = AcquireSnapshot();
  for (Principal* inst : snap->items) {
    any |= revoke_one(inst);
  }
  return any;
}

}  // namespace lxfi
