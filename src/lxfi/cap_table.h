// Per-principal capability tables (§5).
//
// One hash structure per capability kind. WRITE capabilities are identified
// by an address *range*; to keep lookups constant-time the table inserts each
// range into every 4 KiB-masked bucket it covers (the paper masks the low 12
// bits of the address when computing hash keys), so a containment query
// probes exactly one bucket. The paper found this beats a balanced tree for
// the ≤page-sized objects kernel modules manipulate; bench_captable measures
// that claim against an ordered interval map and against the node-based
// std::unordered_map layout this table replaced.
//
// All three structures are open-addressing flat tables (src/base/flat_table.h):
// WRITE ranges live in an interleaved FlatRangeMap (bucket key and range in
// one 32-byte slot; a bucket covered by several ranges owns several slots on
// one probe chain), CALL and REF in FlatSets, so the common probe touches
// one short run of contiguous memory. Each query has one probe; the tables
// pick its plain or seqlock-validated body from whether SetReclaimer ran.
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/hash.h"
#include "src/lxfi/cap.h"

namespace lxfi {

class CapTable {
 public:
  static constexpr uintptr_t kBucketShift = 12;

  CapTable() = default;

  // --- WRITE --------------------------------------------------------------
  void GrantWrite(uintptr_t addr, size_t size);
  // Removes all WRITE ranges overlapping [addr, addr+size); returns true if
  // anything was removed.
  bool RevokeWriteOverlapping(uintptr_t addr, size_t size);
  // True iff some granted range fully contains [addr, addr+size).
  // Inline: this is the store-guard probe, called on every module write.
  bool CheckWrite(uintptr_t addr, size_t size) const {
    if (size == 0) {
      return true;  // vacuously allowed: [addr, addr) contains no byte
    }
    return write_buckets_.FindContaining(BucketKey(BucketOf(addr)), addr, RangeEnd(addr, size));
  }
  // Enumerates distinct granted ranges, deduplicated and sorted by
  // (addr, size) — deterministic for snapshots and writer-set seeding.
  std::vector<Capability> WriteRanges() const;

  // --- CALL ---------------------------------------------------------------
  void GrantCall(uintptr_t target) { call_.Insert(target); }
  bool RevokeCall(uintptr_t target) { return call_.Erase(target); }
  bool CheckCall(uintptr_t target) const { return call_.Contains(target); }

  // --- REF ----------------------------------------------------------------
  void GrantRef(RefTypeId type, uintptr_t addr) { ref_.Insert(RefKey(type, addr)); }
  bool RevokeRef(RefTypeId type, uintptr_t addr) { return ref_.Erase(RefKey(type, addr)); }
  bool CheckRef(RefTypeId type, uintptr_t addr) const { return ref_.Contains(RefKey(type, addr)); }

  // --- generic ------------------------------------------------------------
  void Grant(const Capability& cap);
  bool Check(const Capability& cap) const;
  // Revokes `cap` (range-overlap semantics for WRITE); returns true if held.
  bool Revoke(const Capability& cap);

  void Clear();

  // --- SMP read-mostly mode -------------------------------------------------
  // Attaches the grace-period reclaimer to all three tables; after this,
  // every Check* probe above runs its seqlock-validated body and is safe
  // against concurrent mutation (which must itself be serialized by the
  // owning principal's lock).
  void SetReclaimer(EpochReclaimer* reclaimer) {
    write_buckets_.SetReclaimer(reclaimer);
    call_.SetReclaimer(reclaimer);
    ref_.SetReclaimer(reclaimer);
  }

  // Revoke pre-filter: true when this table might hold state that
  // Revoke(cap) would remove. Lock-free once a reclaimer is attached, so
  // RevokeEverywhere only locks principals that can actually be affected; a
  // false positive costs a locked no-op revoke, a false negative can only
  // happen for a capability granted concurrently with the revoke (the two
  // were unordered anyway).
  bool MightHold(const Capability& cap) const;

  size_t write_count() const;
  size_t call_count() const { return call_.size(); }
  size_t ref_count() const { return ref_.size(); }

 private:
  static uint64_t RefKey(RefTypeId type, uintptr_t addr) {
    return HashCombine(type, static_cast<uint64_t>(addr));
  }

  static uintptr_t BucketOf(uintptr_t addr) { return addr >> kBucketShift; }

  // FlatRangeMap keys must be non-zero; bucket 0 (user-space base) is real.
  static uint64_t BucketKey(uintptr_t bucket) { return bucket + 1; }

  // End of [addr, addr+size), saturated so a range touching the top of the
  // address space cannot wrap to bucket 0 and strand stale copies.
  static uintptr_t RangeEnd(uintptr_t addr, size_t size) {
    uintptr_t end = addr + size;
    return end < addr ? ~uintptr_t{0} : end;
  }

  // bucket -> ranges that intersect the bucket's 4 KiB span, stored
  // interleaved (key and range in one slot) so the store-guard probe is a
  // single dependent load chain.
  FlatRangeMap write_buckets_;
  FlatSet call_;
  FlatSet ref_;
};

}  // namespace lxfi
