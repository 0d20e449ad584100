// Per-principal metrics registry (lxfi_stats).
//
// The raw material lives in the per-(CPU, principal) EnforcementContext
// shards the enforcement hot paths already touch: guard counters, arena-span
// hits, and — when collection is enabled — crossing counts with a log2
// latency histogram (updated by Runtime::WrapperExit against the attributed
// principal's shard, so the hot path gains no new cache misses). This file
// is the read side: a quiescent snapshot walk over every module's
// principals, summed across shards, plus a JSON dump in the shared bench
// schema ({"bench": tag, "results": [...]}) so CI merges it into
// bench_results.json, and so the lxfi_stats kernel export can hand it to a
// monitoring module under enforcement.
//
// Enable gate: same static-key discipline as TRACE_EVENT — one relaxed
// load + predictable branch per crossing when off (timing costs two clock
// reads per crossing when on, which is why it is not always-on).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/lxfi/enforcement_context.h"

namespace lxfi {

class Runtime;

class LxfiStats {
 public:
  static bool EnabledRelaxed() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_seq_cst); }

  // One principal's metrics, summed over its per-CPU shards. Not a
  // linearizable snapshot (RelaxedCell discipline); read after a barrier /
  // join for exact totals, like every other stats surface here.
  struct PrincipalMetrics {
    std::string name;
    uint32_t id = 0;
    uint64_t crossings = 0;
    uint64_t crossing_ns = 0;
    uint64_t hist[EnforcementContext::kCrossingHistBuckets] = {};
    uint64_t write_checks = 0;
    uint64_t arena_span_hits = 0;
    uint64_t call_checks = 0;
    // Always 0: the WRITE, CALL and pre-check memos these counted are gone
    // (every check probes the tables). Kept because perfbench still sums
    // them into its memo-hit fractions; DumpJson omits them.
    uint64_t write_memo_hits = 0;
    uint64_t call_memo_hits = 0;
    uint64_t pre_checks = 0;
    uint64_t pre_memo_hits = 0;
    // Allocations that fell back to the shared heap because the principal's
    // partition slot was exhausted (Principal::arena_fallbacks; each one is
    // also a kArenaFallback trace event and a containment revocation).
    uint64_t arena_fallbacks = 0;
  };

  static std::vector<PrincipalMetrics> Collect(const Runtime& rt);

  // JSON snapshot: per-principal rows, per-guard-type rows from GuardStats,
  // and one trace row (drops, violation count). `tag` becomes the "bench"
  // key so --stats artifacts merge cleanly next to throughput rows.
  static std::string DumpJson(const Runtime& rt, const std::string& tag = "lxfi_stats");

 private:
  static inline std::atomic<bool> enabled_{false};
};

}  // namespace lxfi
