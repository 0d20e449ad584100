// Per-(CPU, principal) enforcement counters (§4–§5, Figure 13).
//
// The reference monitor's hot path — a store guard on every module write, a
// CALL check on every boundary crossing — answers every check from the
// principal's capability state: its heap-partition span first, then the
// flat capability tables (seqlock-validated under concurrent_enforcement).
// Nothing caches a positive answer, so a revoke is final the moment it
// returns. This record holds what the hot path does count: guard counters
// and the per-principal crossing metrics, cheap enough to keep always-on
// and the raw material for the Figure 13 breakdown and lxfi_stats.
//
// Sharding (SMP): each Principal owns one EnforcementContext per simulated
// CPU (lxfi::kMaxCpuShards; Principal::ctx() indexes by ThisShardIndex()).
// A shard is written only by its CPU, so the counters never bounce between
// cores; they are single-writer RelaxedCells so cross-CPU aggregation reads
// are race-free. The shared capability table itself lives on the Principal
// (see principal.h), guarded by the per-principal writer lock with
// lock-free concurrent probes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/base/compiler.h"
#include "src/base/sync.h"

namespace lxfi {

struct alignas(kCacheLineSize) EnforcementContext {
  // Guard counters (always on; single-writer per shard, race-free reads).
  RelaxedCell write_checks;
  // Store guards satisfied by the principal's own heap-partition span (the
  // partitioned-heaps fast path, resolved before any table probe).
  RelaxedCell arena_span_hits;
  RelaxedCell call_checks;

  // Per-principal crossing metrics (lxfi_stats): wrapper entries attributed
  // to this principal, total crossing nanoseconds, and a log2 latency
  // histogram. They live here — in the per-(CPU, principal) shard the
  // crossing's CALL check already touched — so enabling metrics adds no new
  // cache miss to the hot path. Updated by Runtime::WrapperExit only when
  // LxfiStats collection is enabled.
  static constexpr size_t kCrossingHistBuckets = 16;
  RelaxedCell crossings;
  RelaxedCell crossing_ns;
  RelaxedCell crossing_hist[kCrossingHistBuckets];

  static size_t CrossingBucket(uint64_t ns) {
    // Bucket k holds crossings with ns in [2^k, 2^(k+1)); 0 ns lands in 0,
    // everything >= 2^15 ns (32.8 µs) saturates into the last bucket.
    size_t bucket = 0;
    while (ns > 1 && bucket + 1 < kCrossingHistBuckets) {
      ns >>= 1;
      ++bucket;
    }
    return bucket;
  }

  void CountCrossing(uint64_t ns) {
    ++crossings;
    crossing_ns.Add(ns);
    ++crossing_hist[CrossingBucket(ns)];
  }
};

}  // namespace lxfi
