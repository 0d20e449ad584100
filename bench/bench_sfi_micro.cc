// Figure 11: SFI microbenchmarks (hotlist, lld, MD5) — code-size delta and
// slowdown under LXFI instrumentation. Paper: 1.14x/0%, 1.12x/11%, 1.15x/2%.
//
// Plus the store-guard ablation: the per-check cost of the WRITE-capability
// probe on a netperf-style working set (skb headers, payload buffers, device
// state), comparing the node-based std::unordered_map layout the seed
// shipped, the flat open-addressing CapTable the runtime store guard probes
// (src/lxfi/runtime.cc CheckWriteBody), and its seqlock-validated SMP read
// path.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/json_out.h"
#include "bench/paired_timing.h"
#include "bench/std_baseline.h"
#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/trace.h"
#include "src/eval/sfi_micro.h"
#include "src/kernel/kernel.h"
#include "src/kernel/module.h"
#include "src/lxfi/runtime.h"

namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

void RunStoreGuardAblation(lxfibench::JsonWriter* json) {
  // Netperf-style working set: a ring of sk_buff-like objects — a small
  // header and a ~2 KiB payload each — plus device/socket state. Guard
  // traffic has strong temporal locality: each packet's header and payload
  // are checked several times (field stores, then the copy loop).
  constexpr int kRing = 64;
  constexpr uintptr_t kBase = 0x7f4200000000ull;
  constexpr size_t kHeader = 256;
  constexpr size_t kPayload = 2048;
  constexpr uint64_t kChecks = 4u << 20;

  lxfi::CapTable flat;
  bench::StdCapTable node;
  auto header_addr = [&](int i) { return kBase + static_cast<uintptr_t>(i) * 8192; };
  auto payload_addr = [&](int i) { return header_addr(i) + 4096; };
  for (int i = 0; i < kRing; ++i) {
    flat.GrantWrite(header_addr(i), kHeader);
    flat.GrantWrite(payload_addr(i), kPayload);
    node.GrantWrite(header_addr(i), kHeader);
    node.GrantWrite(payload_addr(i), kPayload);
  }

  // The shared principal holds the skb grants; the instance principal holds
  // its own (private device state) ranges, so every skb check walks the
  // instance → shared fallback chain with a real miss probe first,
  // exactly like ModuleCtx::OwnsWrite on the real store-guard path.
  lxfi::CapTable flat_instance;
  bench::StdCapTable node_instance;
  constexpr uintptr_t kPrivBase = 0x7f4300000000ull;
  for (int i = 0; i < kRing; ++i) {
    uintptr_t priv = kPrivBase + static_cast<uintptr_t>(i) * 4096;
    flat_instance.GrantWrite(priv, 512);
    node_instance.GrantWrite(priv, 512);
  }

  // Per-packet guard stream (Figure 13 counts the guards per packet): two
  // header field stores, then the payload copy loop checking 256-byte
  // chunks.
  struct Query {
    uintptr_t addr;
    size_t size;
  };
  std::vector<Query> stream;
  stream.reserve(1 << 16);
  lxfi::Rng rng(42);
  while (stream.size() + 10 <= (1 << 16)) {
    int i = static_cast<int>(rng.Below(kRing));
    stream.push_back({header_addr(i) + 16, 8});
    stream.push_back({header_addr(i) + 64, 8});
    for (size_t off = 0; off + 256 <= kPayload; off += 256) {
      stream.push_back({payload_addr(i) + off, 256});
    }
  }
  size_t n = stream.size();

  uint64_t sink = 0;
  auto time_ns = [&](auto&& check) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    size_t q = 0;
    for (uint64_t c = 0; c < kChecks; ++c) {
      sink += check(stream[q]);
      q = q + 1 == n ? 0 : q + 1;
    }
    return static_cast<double>(lxfi::MonotonicNowNs() - t0) / kChecks;
  };

  auto std_check = [&](const Query& q) {
    return node_instance.CheckWrite(q.addr, q.size) || node.CheckWrite(q.addr, q.size);
  };
  auto flat_check = [&](const Query& q) {
    return flat_instance.CheckWrite(q.addr, q.size) || flat.CheckWrite(q.addr, q.size);
  };
  // The SMP read path on one core: same tables, probed through the
  // seqlock-validated concurrent entry points (what every store guard pays
  // when concurrent_enforcement is on). The delta vs the plain flat row is
  // the single-core cost of SMP-safety.
  auto seq_check = [&](const Query& q) {
    return flat_instance.CheckWriteConcurrent(q.addr, q.size) ||
           flat.CheckWriteConcurrent(q.addr, q.size);
  };
  // Warm, then measure.
  time_ns(std_check);
  double t_std = time_ns(std_check);
  time_ns(flat_check);
  double t_flat = time_ns(flat_check);
  time_ns(seq_check);
  double t_seq = time_ns(seq_check);

  std::printf("=== Store-guard ablation (netperf-style WRITE checks) ===\n");
  std::printf("%-34s %12s %10s\n", "configuration", "ns/check", "speedup");
  std::printf("%-34s %12.2f %9.2fx\n", "std::unordered_map buckets", t_std, 1.0);
  std::printf("%-34s %12.2f %9.2fx\n", "flat table (open-addressing)", t_flat, t_std / t_flat);
  std::printf("%-34s %12.2f %9.2fx\n", "flat, seqlock read path (SMP)", t_seq, t_std / t_seq);
  std::printf("(sink %llu)\n\n", static_cast<unsigned long long>(sink % 7));

  if (json != nullptr) {
    struct {
      const char* name;
      double ns;
    } rows[] = {
        {"std_unordered_map", t_std},
        {"flat_table", t_flat},
        {"flat_seqlock", t_seq},
    };
    for (const auto& r : rows) {
      json->AddRow(r.name).Set("ns_per_check", r.ns).Set("speedup_vs_std", t_std / r.ns);
    }
  }
}

// Arena-vs-captable ablation: the same own-heap store stream resolved two
// ways — the partitioned-heap arena span compare and the flat-table probe
// the store guard falls back to without a partition. Module stores into
// their own kmalloc'd objects are the common case the arena targets, and a
// real module touches *many* objects: the stream goes round-robin over 32
// own-heap objects, each a separate grant in the table, while the arena
// answers every one with the same two-word span compare. Both paths go
// through the real Runtime entry point (OwnsWriteFast), and the cap-table
// slow path is the differential reference: fast and slow must return
// identical allow/deny answers on every probe, including deny cases (span
// straddle, foreign address, unmapped) — asserted, not assumed.
void RunArenaAblation(lxfibench::JsonWriter* json) {
  constexpr int kObjects = 32;  // power of two: stream index is a mask
  constexpr size_t kObjBytes = 192;
  constexpr uint64_t kChecks = 4u << 20;

  // Partitioned runtime: the module's allocations land in its own arena slot.
  kern::Kernel arena_kernel;
  lxfi::RuntimeOptions popts;
  popts.partitioned_heaps = true;
  lxfi::Runtime arena_rt(&arena_kernel, popts);
  kern::ModuleDef adef;
  adef.name = "heapmod";
  kern::Module* amod = arena_kernel.LoadModule(std::move(adef));
  Require(amod != nullptr, "arena kernel failed to load heapmod");
  lxfi::Principal* ap = arena_rt.CtxOf(amod)->shared();
  std::vector<uintptr_t> arena_objs;
  {
    lxfi::ScopedPrincipal as(&arena_rt, ap);
    for (int i = 0; i < kObjects; ++i) {
      void* obj = arena_rt.PartitionedAlloc(kObjBytes);
      Require(obj != nullptr, "arena allocation failed");
      arena_objs.push_back(reinterpret_cast<uintptr_t>(obj));
    }
  }
  Require(ap->has_arena(), "partitioned runtime did not carve an arena");

  // Pre-partition runtime: same object population on the shared slab, one
  // per-object WRITE grant each — what kmalloc's transfer annotation left in
  // the flat table before this PR.
  kern::Kernel flat_kernel;
  lxfi::Runtime flat_rt(&flat_kernel, lxfi::RuntimeOptions{});
  kern::ModuleDef fdef;
  fdef.name = "heapmod";
  kern::Module* fmod = flat_kernel.LoadModule(std::move(fdef));
  Require(fmod != nullptr, "flat kernel failed to load heapmod");
  lxfi::Principal* fp = flat_rt.CtxOf(fmod)->shared();
  std::vector<uintptr_t> flat_objs;
  for (int i = 0; i < kObjects; ++i) {
    void* obj = flat_kernel.slab().Alloc(kObjBytes);
    uintptr_t addr = reinterpret_cast<uintptr_t>(obj);
    flat_objs.push_back(addr);
    flat_rt.Grant(fp, lxfi::Capability::Write(addr, kObjBytes));
  }

  // Differential reference first: the arena fast path and the cap-table slow path must agree on every probe.
  struct Probe {
    uintptr_t addr;
    size_t size;
  };
  std::vector<Probe> probes;
  for (uintptr_t o : arena_objs) {
    probes.push_back({o + 8, 8});                     // own-heap object: allow
  }
  probes.push_back({ap->arena_lo(), 1});              // span start: allow
  probes.push_back({ap->arena_hi() - 8, 8});          // span end: allow
  probes.push_back({ap->arena_hi() - 4, 8});          // straddles span end: deny
  probes.push_back({ap->arena_hi() + 4096, 16});      // past the span: deny
  probes.push_back({0x4b1d00000000ull, 8});           // unmapped: deny
  bool saw_allow = false, saw_deny = false;
  for (const Probe& pr : probes) {
    bool fast = arena_rt.OwnsWriteFast(ap, pr.addr, pr.size);
    bool slow = arena_rt.Owns(ap, lxfi::Capability::Write(pr.addr, pr.size));
    Require(fast == slow, "arena fast path and cap-table slow path disagree");
    (fast ? saw_allow : saw_deny) = true;
  }
  Require(saw_allow && saw_deny, "differential probes must cover allow AND deny");

  uint64_t sink = 0;
  auto time_ns = [&](auto&& check) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < kChecks; ++i) {
      sink += check(i);
    }
    return static_cast<double>(lxfi::MonotonicNowNs() - t0) / kChecks;
  };
  // Warm once, then best-of-three: the speedup line below is asserted, so
  // damp host scheduling noise the way the other microbenches do.
  auto best = [&](auto&& check) {
    time_ns(check);
    double t = time_ns(check);
    for (int rep = 0; rep < 2; ++rep) {
      t = std::min(t, time_ns(check));
    }
    return t;
  };

  auto arena_check = [&](uint64_t i) {
    return arena_rt.OwnsWriteFast(ap, arena_objs[i & (kObjects - 1)] + 16, 8);
  };
  auto table_probe = [&](uint64_t i) {
    return flat_rt.OwnsWriteFast(fp, flat_objs[i & (kObjects - 1)] + 16, 8);
  };

  double t_arena = best(arena_check);
  double t_probe = best(table_probe);
  for (uint64_t i = 0; i < 64; ++i) {  // the streams really do allow
    Require(arena_check(i) && table_probe(i),
            "own-heap store stream must be allowed in every configuration");
  }

  std::printf("=== Arena-vs-captable ablation (own-heap stores, %d objects) ===\n", kObjects);
  std::printf("%-40s %12s %10s\n", "configuration", "ns/check", "speedup");
  std::printf("%-40s %12.2f %9.2fx\n", "arena span compare", t_arena, t_probe / t_arena);
  std::printf("%-40s %12.2f %9.2fx\n", "flat-table probe, per-object grants", t_probe, 1.0);
  std::printf("(speedups relative to the flat-table probe; sink %llu)\n",
              static_cast<unsigned long long>(sink % 7));
  std::printf("\narena fast path is %.2fx vs the flat-table probe on the same own-heap\n"
              "stream (target: >= 1.5x)\n\n",
              t_probe / t_arena);
  Require(t_probe / t_arena >= 1.5,
          "arena fast path must be >= 1.5x vs the cap-table probe on own-heap stores");

  if (json != nullptr) {
    json->Meta("arena_objects", static_cast<double>(kObjects));
    json->AddRow("arena_span_compare")
        .Set("ns_per_check", t_arena)
        .Set("speedup_vs_table_probe", t_probe / t_arena);
    json->AddRow("flat_table_probe").Set("ns_per_check", t_probe);
  }
}

// Trace-overhead gate: the observability contract is that a compiled-in but
// *disabled* tracepoint costs one relaxed load and a predictable branch — so
// a thin crossing-representative loop body (four WRITE-capability probes on
// one object, the table step of a wrapper crossing's store guards) with two
// disabled TRACE_EVENTs must stay within 3% of the same body without them.
// The body is kept thin on purpose: the thinner it is, the smaller the
// tracepoint cost the 3% bound lets through. Plain and gated repetitions
// alternate and the gate decides on the median of the per-pair ratios
// (bench/paired_timing.h), so host drift between repetitions does not read
// as tracepoint cost. Asserted here, not just reported, so CI fails the
// moment someone fattens the disabled path. The enabled row is reported
// alongside for the record.
void RunTraceOverheadGate(lxfibench::JsonWriter* json) {
  constexpr int kObjects = 16;
  constexpr size_t kObjBytes = 256;
  constexpr uint64_t kChecks = 1u << 18;
  constexpr int kPairs = 61;

  lxfi::CapTable table;
  constexpr uintptr_t kBase = 0x7f4500000000ull;
  uintptr_t objs[kObjects];
  for (int i = 0; i < kObjects; ++i) {
    objs[i] = kBase + static_cast<uintptr_t>(i) * 4096;
    table.GrantWrite(objs[i], kObjBytes);
  }

  // One "crossing": a couple of header-field stores plus two payload-chunk
  // stores on the same object — the guard stream a wrapper body generates.
  const lxfi::CapTable* t = &table;
  const uintptr_t* obj = objs;
  auto body = [t, obj](uint64_t i) -> uint64_t {
    uintptr_t o = obj[i & (kObjects - 1)];
    return static_cast<uint64_t>(t->CheckWrite(o + 8, 8)) + t->CheckWrite(o + 32, 8) +
           t->CheckWrite(o + 64, 64) + t->CheckWrite(o + 128, 64);
  };
  auto plain_op = [body](uint64_t i) { return body(i); };
  auto gated_op = [body](uint64_t i) {
    TRACE_EVENT(lxfi::TraceEvent::kGuardEnter, 1, i, 0);
    uint64_t allowed = body(i);
    TRACE_EVENT(lxfi::TraceEvent::kGuardExit, 1, i, 0);
    return allowed;
  };

  // The loop's own state (the op's captures, the running allowed-count)
  // lives in locals whose address never escapes, published to `sink` once
  // per repetition. Kept in memory reachable from outside, it would be
  // reloaded after every tracepoint — the emit branch is a call the
  // compiler must assume writes such memory — which is a cost of the
  // harness, not of the disabled tracepoint this gate prices.
  uint64_t sink = 0;
  auto time_ns = [&sink](auto op) {
    uint64_t allowed = 0;
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < kChecks; ++i) {
      allowed += op(i);
    }
    uint64_t t1 = lxfi::MonotonicNowNs();
    sink += allowed;
    return static_cast<double>(t1 - t0) / kChecks;
  };

  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();
  lxfibench::PairedResult gate = lxfibench::PairedRatio(
      kPairs, [&] { return time_ns(plain_op); }, [&] { return time_ns(gated_op); });

  // Enabled row: same body with live emission, drained by the emitting
  // thread every ring's worth (the flight-recorder steady state).
  lxfi::TraceBuffer::SetEnabled(true);
  std::vector<lxfi::TraceRecord> scratch;
  auto enabled_op = [&](uint64_t i) {
    uint64_t allowed = gated_op(i);
    if ((i & (lxfi::TraceBuffer::kRingCapacity / 2 - 1)) == 0) {
      scratch.clear();
      lxfi::TraceBuffer::Global().Drain(&scratch);
    }
    return allowed;
  };
  time_ns(enabled_op);  // warm
  double t_enabled = time_ns(enabled_op);
  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();

  double overhead_pct = (gate.ratio - 1.0) * 100.0;
  std::printf("=== Trace-overhead gate (crossing-representative body) ===\n");
  std::printf("%-40s %12s\n", "configuration", "ns/crossing");
  std::printf("%-40s %12.2f\n", "no tracepoints", gate.a_ns);
  std::printf("%-40s %12.2f  (%+.2f%%, median of %d paired ratios)\n",
              "2 tracepoints, disabled", gate.b_ns, overhead_pct, kPairs);
  std::printf("%-40s %12.2f\n", "2 tracepoints, enabled + drain", t_enabled);
  std::printf("(sink %llu; gate: disabled <= 3%%)\n\n",
              static_cast<unsigned long long>(sink % 7));
  Require(gate.ratio <= 1.03,
          "disabled tracepoints must stay within 3% of the untraced crossing body");

  if (json != nullptr) {
    json->AddRow("trace_off_baseline").Set("ns_per_crossing", gate.a_ns);
    json->AddRow("trace_compiled_disabled")
        .Set("ns_per_crossing", gate.b_ns)
        .Set("overhead_pct", overhead_pct);
    json->AddRow("trace_enabled").Set("ns_per_crossing", t_enabled);
  }
}

}  // namespace

int main(int argc, char** argv) {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
      return 2;
    }
  }
  lxfibench::JsonWriter json("bench_sfi_micro");
  lxfibench::JsonWriter* jp = json_path != nullptr ? &json : nullptr;

  RunStoreGuardAblation(jp);
  RunArenaAblation(jp);
  RunTraceOverheadGate(jp);
  std::printf("=== Figure 11: SFI microbenchmarks ===\n");
  std::printf("%-10s %14s %10s %14s\n", "benchmark", "d-code-size", "slowdown", "paper");

  struct Row {
    eval::MicroResult result;
    const char* paper;
  };
  // Take the best (min) of a few repetitions per benchmark to damp host
  // scheduling noise, like any microbenchmark harness.
  auto best = [](eval::MicroResult (*fn)(int)) {
    eval::MicroResult best_result = fn(1);
    for (int i = 0; i < 2; ++i) {
      eval::MicroResult r = fn(1);
      if (r.instrumented_ns / r.base_ns < best_result.instrumented_ns / best_result.base_ns) {
        best_result = r;
      }
    }
    return best_result;
  };

  Row rows[] = {
      {best(eval::RunHotlist), "1.14x / 0%"},
      {best(eval::RunLld), "1.12x / 11%"},
      {best(eval::RunMd5), "1.15x / 2%"},
  };
  for (const Row& row : rows) {
    std::printf("%-10s %13.2fx %9.1f%% %14s\n", row.result.name.c_str(),
                row.result.code_size_ratio, row.result.SlowdownPct(), row.paper);
    if (jp != nullptr) {
      jp->AddRow("figure11_" + row.result.name)
          .Set("code_size_ratio", row.result.code_size_ratio)
          .Set("slowdown_pct", row.result.SlowdownPct());
    }
  }
  std::printf("\nshape check: hotlist ~0%% (reads are uninstrumented) < MD5 (hoisted\n"
              "checks) < lld (per-store checks on pointer writes).\n");
  if (json_path != nullptr) {
    json.WriteFile(json_path);
  }
  return 0;
}
