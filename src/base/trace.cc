#include "src/base/trace.h"

namespace lxfi {

const char* TraceEventName(TraceEvent event) {
  switch (event) {
    case TraceEvent::kNone:
      return "none";
    case TraceEvent::kGuardEnter:
      return "guard-enter";
    case TraceEvent::kGuardExit:
      return "guard-exit";
    case TraceEvent::kViolation:
      return "violation";
    case TraceEvent::kCapGrant:
      return "cap-grant";
    case TraceEvent::kCapRevoke:
      return "cap-revoke";
    case TraceEvent::kCapTransfer:
      return "cap-transfer";
    case TraceEvent::kEpochRetire:
      return "epoch-retire";
    case TraceEvent::kEpochReclaim:
      return "epoch-reclaim";
    case TraceEvent::kModuleLoad:
      return "module-load";
    case TraceEvent::kModuleUnload:
      return "module-unload";
    case TraceEvent::kPrincipalCreate:
      return "principal-create";
    case TraceEvent::kPrincipalDrop:
      return "principal-drop";
    case TraceEvent::kPrincipalAlias:
      return "principal-alias";
    case TraceEvent::kHeapSeal:
      return "heap-seal";
    case TraceEvent::kDcacheHit:
      return "dcache-hit";
    case TraceEvent::kDcacheMiss:
      return "dcache-miss";
    case TraceEvent::kDcacheRetry:
      return "dcache-retry";
    case TraceEvent::kPagecacheHit:
      return "pagecache-hit";
    case TraceEvent::kPagecacheMiss:
      return "pagecache-miss";
    case TraceEvent::kPagecacheRetry:
      return "pagecache-retry";
    case TraceEvent::kBioSubmit:
      return "bio-submit";
    case TraceEvent::kBioComplete:
      return "bio-complete";
    case TraceEvent::kQuarantine:
      return "quarantine";
    case TraceEvent::kMicroreboot:
      return "microreboot";
    case TraceEvent::kRebootFailed:
      return "reboot-failed";
    case TraceEvent::kArenaFallback:
      return "arena-fallback";
    case TraceEvent::kCount:
      break;
  }
  return "?";
}

uint32_t MintPrincipalTraceId() {
  // Process-wide: trace ids must stay unique across
  // runtimes so a merged trace stream attributes unambiguously.
  static std::atomic<uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

void TraceEmit(TraceEvent event, uint32_t principal, uint64_t arg0, uint64_t arg1) {
  TraceBuffer::Global().Emit(event, principal, arg0, arg1);
}

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer instance;
  return instance;
}

size_t TraceBuffer::Drain(std::vector<TraceRecord>* out) {
  SpinGuard guard(drain_mu_);
  size_t drained = 0;
  for (Shard& shard : shards_) {
    // Acquire the head once: everything the writer published before that
    // store is visible. Records appended after this snapshot wait for the
    // next drain — the epoch-safe cut.
    uint64_t head = shard.head.load(std::memory_order_acquire);
    uint64_t tail = shard.tail.load(std::memory_order_relaxed);
    for (uint64_t i = tail; i != head; ++i) {
      out->push_back(shard.slots[i & (kRingCapacity - 1)]);
      ++drained;
    }
    // Release the tail: the writer's acquire load sees the slots are free
    // only after our reads of them completed.
    shard.tail.store(head, std::memory_order_release);
  }
  return drained;
}

size_t TraceBuffer::DrainInto(TraceRecord* out, size_t max) {
  SpinGuard guard(drain_mu_);
  size_t drained = 0;
  for (Shard& shard : shards_) {
    uint64_t head = shard.head.load(std::memory_order_acquire);
    uint64_t tail = shard.tail.load(std::memory_order_relaxed);
    while (tail != head && drained < max) {
      out[drained++] = shard.slots[tail & (kRingCapacity - 1)];
      ++tail;
    }
    shard.tail.store(tail, std::memory_order_release);
    if (drained == max) {
      break;
    }
  }
  return drained;
}

void TraceBuffer::ResetForTest() {
  SpinGuard guard(drain_mu_);
  for (Shard& shard : shards_) {
    shard.tail.store(shard.head.load(std::memory_order_acquire), std::memory_order_release);
    shard.drops = 0;
  }
}

}  // namespace lxfi
