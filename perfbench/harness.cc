// Host-normalised benchmark harness (see README.md).
//
//   lxfi_perfbench --workload net_tx|fs_tenants|fs_block --seed N
//                  --seconds S --trace 0|1
//
// Single-threaded. Windows of about 20 ms alternate between the enforced
// kernel (E), the stock kernel (S) and the frozen ref loop (R) in cycles
// [R E R S R] [R S R E R] ..., one cycle per CPU in turn, so every E and S
// window is bracketed by two R windows on the same CPU. Each E window's cost
// is divided by the mean ns/op of its two R neighbours and converted back to
// natural units at kRefNominalNs. The last line of stdout is the JSON
// result; the lines before it are diagnostics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "ref.h"
#include "src/lxfi/lxfi_stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kWindowNs = 20'000'000;
constexpr uint64_t kWarmupNs = 300'000'000;
constexpr int kSetups = 61;
constexpr uint64_t kSetupRefNs = 10'000'000;
constexpr size_t kMaxWindowOps = 1 << 19;

struct Args {
  Workload workload = Workload::kNetTx;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = ParseWorkload(val, &a->workload);
      a->workload_name = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a->seconds > 0 && a->seconds <= 3600;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace && argc == 9;
}

// Linear-interpolated quantile of a sample (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Mean of the middle 80% of a sample. The host alternates between phases in
// which the enforced path runs at two distinct speeds relative to ref, so
// the per-window ratios are bimodal; a median jumps between the modes as
// their shares shift from run to run, while a trimmed mean moves in
// proportion to the shares and still drops stray windows.
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

struct Window {
  uint64_t ops = 0;
  uint64_t ns = 0;
  double ns_per_op() const {
    return ops == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(ops);
  }
};

// Runs `op` back to back until `budget_ns` has passed or `max_ops` ops ran,
// recording each op's latency. Every side runs through this same loop, so
// the clock read per op costs E, S and R alike.
template <typename Op>
Window RunWindow(Op&& op, uint64_t budget_ns, uint64_t max_ops, std::vector<uint32_t>* lat) {
  lat->clear();
  const uint64_t start = NowNs();
  const uint64_t end = budget_ns > UINT64_MAX - start ? UINT64_MAX : start + budget_ns;
  uint64_t prev = start;
  uint64_t n = 0;
  while (n < max_ops) {
    op();
    uint64_t t = NowNs();
    lat->push_back(static_cast<uint32_t>(std::min<uint64_t>(t - prev, UINT32_MAX)));
    prev = t;
    ++n;
    if (t >= end) {
      break;
    }
  }
  return Window{n, prev - start};
}

// One side's rig and its position in the op sequence.
struct Side {
  std::unique_ptr<Rig> rig;
  uint64_t cursor = 0;
  uint64_t failed = 0;

  void Op(Spans* spans) {
    if (!rig->Op(cursor++, spans)) {
      ++failed;
    }
  }
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), plan_(MakePlan(args.workload, args.seed)) {
    lat_.reserve(kMaxWindowOps);
  }

  int Run() {
    RunSetups();
    SetupTimes ignored;
    enforced_.rig = MakeRig(plan_, /*enforced=*/true, /*traced=*/false, &ignored);
    stock_.rig = MakeRig(plan_, /*enforced=*/false, /*traced=*/false, &ignored);
    RunWindows();
    Check(enforced_, "enforced");
    Check(stock_, "stock");
    if (args_.trace) {
      RunTraced();
    }
    Report();
    return 0;
  }

 private:
  Window Ref(uint64_t budget_ns = kWindowNs) {
    return RunWindow([this] { ref_.Op(); }, budget_ns, kMaxWindowOps, &lat_);
  }

  // The guest scheduler keeps a thread on one vCPU for seconds, and each
  // vCPU sees its own neighbours on the host. Visiting every allowed CPU in
  // turn, one cycle each, keeps a single busy core from deciding a run.
  void MoveToNextCpu() {
    if (cpus_.empty()) {
      cpu_set_t allowed;
      CPU_ZERO(&allowed);
      if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
          if (CPU_ISSET(c, &allowed)) {
            cpus_.push_back(c);
          }
        }
      }
    }
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  void Check(Side& side, const char* name) {
    std::string why;
    if (!side.rig->Verify(&why)) {
      correct_ = false;
      std::printf("check failed (%s):%s\n", name, why.c_str());
    }
    attempted_ += side.cursor;
    failed_ += side.failed;
  }

  // Repeated cold set-ups of the enforced kernel, each normalised by the
  // mean of the ref windows just before and after it.
  void RunSetups() {
    for (int i = 0; i < kSetups; ++i) {
      MoveToNextCpu();
      double r_prev = Ref(kSetupRefNs).ns_per_op();
      SetupTimes t;
      auto rig = MakeRig(plan_, /*enforced=*/true, /*traced=*/false, &t);
      double r_next = Ref(kSetupRefNs).ns_per_op();
      double r = 0.5 * (r_prev + r_next);
      setup_raw_ns_.push_back(static_cast<double>(t.total()));
      setup_ref_.push_back(static_cast<double>(t.total()) / r);
      phase_ref_["setup.kernel_s"].push_back(static_cast<double>(t.kernel_ns) / r);
      phase_ref_["setup.api_install_s"].push_back(static_cast<double>(t.api_ns) / r);
      phase_ref_["setup.modules_s"].push_back(static_cast<double>(t.modules_ns) / r);
      phase_ref_["setup.mount_s"].push_back(static_cast<double>(t.mount_ns) / r);
      rig.reset();
    }
  }

  void RunWindows() {
    auto e_op = [this] { enforced_.Op(nullptr); };
    auto s_op = [this] { stock_.Op(nullptr); };
    // Warm-up: caches, slabs and lazy set-up settle before timing.
    for (uint64_t t0 = NowNs(); NowNs() - t0 < kWarmupNs;) {
      RunWindow(e_op, kWindowNs, kMaxWindowOps, &lat_);
      RunWindow(s_op, kWindowNs, kMaxWindowOps, &lat_);
      Ref();
    }
    const uint64_t budget = static_cast<uint64_t>(args_.seconds * 1e9);
    const uint64_t start = NowNs();
    std::vector<uint32_t> held;
    held.reserve(kMaxWindowOps);
    for (uint64_t cycle = 0; NowNs() - start < budget; ++cycle) {
      MoveToNextCpu();
      double r_prev = Ref().ns_per_op();
      r_nsop_.push_back(r_prev);
      for (int half = 0; half < 2; ++half) {
        bool enforced = (cycle + half) % 2 == 0;
        Window w = enforced ? RunWindow(e_op, kWindowNs, kMaxWindowOps, &lat_)
                            : RunWindow(s_op, kWindowNs, kMaxWindowOps, &lat_);
        std::swap(held, lat_);
        double r_next = Ref().ns_per_op();
        r_nsop_.push_back(r_next);
        double r = 0.5 * (r_prev + r_next);
        r_prev = r_next;
        if (enforced) {
          e_nsop_.push_back(w.ns_per_op());
          e_ratio_.push_back(w.ns_per_op() / r);
          std::vector<double> lat(held.begin(), held.end());
          double p50 = Quantile(lat, 0.50);
          double p99 = Quantile(lat, 0.99);
          e_p50_.push_back(p50 / r);
          e_p99_.push_back(p99 / r);
          e_raw_p50_.push_back(p50);
          e_raw_p99_.push_back(p99);
        } else {
          s_nsop_.push_back(w.ns_per_op());
          s_ratio_.push_back(w.ns_per_op() / r);
        }
      }
    }
  }

  // A fresh enforced kernel with guard timing and lxfi_stats on runs a
  // fixed op count from the start of the sequence, in chunks bracketed by
  // ref windows. Counts repeat exactly for a given seed.
  void RunTraced() {
    SetupTimes ignored;
    Side traced;
    traced.rig = MakeRig(plan_, /*enforced=*/true, /*traced=*/true, &ignored);
    const uint64_t chunk = TraceChunkOps();
    const uint64_t chunks = TraceOps() / chunk;
    Spans spans;
    std::vector<double> call_ref[kCalls];
    std::vector<double> chunk_ratio;
    lxfi::LxfiStats::SetEnabled(true);
    Counters first = traced.rig->Read();
    Counters prev = first;
    double r_prev = Ref().ns_per_op();
    for (uint64_t c = 0; c < chunks; ++c) {
      Window w = RunWindow([&] { traced.Op(&spans); }, UINT64_MAX, chunk, &lat_);
      Counters now = traced.rig->Read();
      double r_next = Ref().ns_per_op();
      double r = 0.5 * (r_prev + r_next);
      r_prev = r_next;
      chunk_ratio.push_back(w.ns_per_op() / r);
      // Counter-side times, normalised per chunk.
      crossing_ref_ += static_cast<double>(now.crossing_ns - prev.crossing_ns) / r;
      guard_ref_ += static_cast<double>(now.guard_action_ns - prev.guard_action_ns) / r;
      write_check_ref_ += static_cast<double>(now.mem_write_ns - prev.mem_write_ns) / r;
      prev = now;
      for (int i = 0; i < kCalls; ++i) {
        for (uint64_t ns : spans.ns[i]) {
          call_ref[i].push_back(static_cast<double>(ns) / r);
        }
        spans.ns[i].clear();
      }
    }
    lxfi::LxfiStats::SetEnabled(false);
    traced_ops_ = traced.cursor;
    delta_ = Diff(prev, first);
    principals_ = prev.principals;
    traced_throughput_ = 1e9 / (TrimmedMean(chunk_ratio) * kRefNominalNs);
    for (int i = 0; i < kCalls; ++i) {
      call_spans_[i] = std::move(call_ref[i]);
    }
    Check(traced, "traced");
  }

  uint64_t TraceChunkOps() const {
    return args_.workload == Workload::kNetTx ? 8192 : 256;
  }
  uint64_t TraceOps() const {
    switch (args_.workload) {
      case Workload::kNetTx:
        return 32 * 8192;
      case Workload::kFsTenants:
        return plan_.cycle();  // every tenant visited in all four rounds
      case Workload::kFsBlock:
        return 16 * 256;
    }
    return 0;
  }

  static Counters Diff(const Counters& a, const Counters& b) {
    Counters d;
    d.crossings = a.crossings - b.crossings;
    d.write_checks = a.write_checks - b.write_checks;
    d.write_memo_hits = a.write_memo_hits - b.write_memo_hits;
    d.arena_span_hits = a.arena_span_hits - b.arena_span_hits;
    d.call_checks = a.call_checks - b.call_checks;
    d.call_memo_hits = a.call_memo_hits - b.call_memo_hits;
    d.pre_checks = a.pre_checks - b.pre_checks;
    d.pre_memo_hits = a.pre_memo_hits - b.pre_memo_hits;
    d.arena_fallbacks = a.arena_fallbacks - b.arena_fallbacks;
    d.guard_actions = a.guard_actions - b.guard_actions;
    d.indcalls = a.indcalls - b.indcalls;
    d.indcalls_full = a.indcalls_full - b.indcalls_full;
    d.revokes = a.revokes - b.revokes;
    d.lookup_dispatches = a.lookup_dispatches - b.lookup_dispatches;
    d.dcache_retries = a.dcache_retries - b.dcache_retries;
    d.filter_hooks = a.filter_hooks - b.filter_hooks;
    d.pc_hits = a.pc_hits - b.pc_hits;
    d.pc_misses = a.pc_misses - b.pc_misses;
    d.writebacks = a.writebacks - b.writebacks;
    d.bios = a.bios - b.bios;
    d.xmits = a.xmits - b.xmits;
    d.tx_busy = a.tx_busy - b.tx_busy;
    return d;
  }

  static double Frac(uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }

  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };

  double Throughput() const { return 1e9 / (TrimmedMean(e_ratio_) * kRefNominalNs); }

  std::vector<Metric> EndToEnd() const {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"throughput_ops_s", Throughput(), "ops/s"},
        {"latency_p50_us", TrimmedMean(e_p50_) * kRefNominalNs / 1e3, "us"},
        {"latency_p99_us", TrimmedMean(e_p99_) * kRefNominalNs / 1e3, "us"},
        {"setup_s", TrimmedMean(setup_ref_) * kRefNominalNs / 1e9, "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
    };
  }

  std::vector<Metric> PerLayer() const {
    const double ops = static_cast<double>(std::max<uint64_t>(traced_ops_, 1));
    const Counters& d = delta_;
    auto per_op = [ops](uint64_t n) { return static_cast<double>(n) / ops; };
    std::vector<Metric> m = {
        {"lxfi.overhead_x", TrimmedMean(e_ratio_) / TrimmedMean(s_ratio_), "x"},
        {"kernel.stock_cost", TrimmedMean(s_ratio_), "ref"},
        {"lxfi.crossings_per_op", per_op(d.crossings), "count"},
        {"lxfi.crossing_ns_per_op", crossing_ref_ * kRefNominalNs / ops, "ns"},
        {"lxfi.guard_actions_per_op", per_op(d.guard_actions), "count"},
        {"lxfi.guard_ns_per_op", guard_ref_ * kRefNominalNs / ops, "ns"},
        {"lxfi.write_checks_per_op", per_op(d.write_checks), "count"},
        {"lxfi.write_check_ns_per_op", write_check_ref_ * kRefNominalNs / ops, "ns"},
        {"lxfi.write_memo_hit_frac", Frac(d.write_memo_hits, d.write_checks), "fraction"},
        {"lxfi.arena_span_hit_frac", Frac(d.arena_span_hits, d.write_checks), "fraction"},
        {"lxfi.call_memo_hit_frac", Frac(d.call_memo_hits, d.call_checks), "fraction"},
        {"lxfi.pre_memo_hit_frac", Frac(d.pre_memo_hits, d.pre_checks), "fraction"},
        {"lxfi.indcalls_per_op", per_op(d.indcalls), "count"},
        {"lxfi.indcall_slow_frac", Frac(d.indcalls_full, d.indcalls), "fraction"},
        {"lxfi.revokes_per_op", per_op(d.revokes), "count"},
        {"lxfi.principals", static_cast<double>(principals_), "count"},
        {"kernel.kmalloc.arena_fallbacks_per_op", per_op(d.arena_fallbacks), "count"},
        {"kernel.net.alloc_ns", SpanMean(Call::kAlloc), "ns"},
        {"kernel.net.xmit_ns", SpanMean(Call::kXmit), "ns"},
        {"kernel.net.txclean_ns", SpanMean(Call::kTxClean), "ns"},
        {"kernel.net.tx_busy_frac", Frac(d.tx_busy, d.xmits), "fraction"},
    };
    for (Call c : {Call::kCreate, Call::kOpen, Call::kWrite, Call::kFsync, Call::kRead,
                   Call::kStat, Call::kRename, Call::kUnlink, Call::kClose}) {
      const auto& v = call_spans_[static_cast<int>(c)];
      std::string base = std::string("kernel.fs.") + CallName(c);
      m.push_back({base + "_us_p50", Quantile(v, 0.50) * kRefNominalNs / 1e3, "us"});
      m.push_back({base + "_us_p99", Quantile(v, 0.99) * kRefNominalNs / 1e3, "us"});
    }
    m.push_back({"kernel.fs.lookup_dispatches_per_op", per_op(d.lookup_dispatches), "count"});
    m.push_back({"kernel.fs.dcache_retries_per_op", per_op(d.dcache_retries), "count"});
    m.push_back({"modules.fsfilter.hooks_per_op", per_op(d.filter_hooks), "count"});
    m.push_back({"kernel.fs.pagecache_hit_frac", Frac(d.pc_hits, d.pc_hits + d.pc_misses),
                 "fraction"});
    m.push_back({"kernel.fs.writebacks_per_op", per_op(d.writebacks), "count"});
    m.push_back({"kernel.block.bios_per_op", per_op(d.bios), "count"});
    for (const auto& [name, values] : phase_ref_) {
      m.push_back({name, TrimmedMean(values) * kRefNominalNs / 1e9, "s"});
    }
    m.push_back({"trace.overhead_ops_s", Throughput() - traced_throughput_, "ops/s"});
    m.push_back({"fail_frac", Frac(failed_, attempted_), "fraction"});
    return m;
  }

  double SpanMean(Call c) const {
    const auto& v = call_spans_[static_cast<int>(c)];
    double sum = 0;
    for (double x : v) {
      sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size()) * kRefNominalNs;
  }

  void Report() {
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args_.workload_name.c_str(), static_cast<unsigned long long>(args_.seed),
                args_.seconds, args_.trace ? 1 : 0);
    std::printf("host: ref ns/op p10=%.1f p50=%.1f p90=%.1f (nominal %.1f); windows ref=%zu "
                "enforced=%zu stock=%zu; setups=%d\n",
                Quantile(r_nsop_, 0.10), Quantile(r_nsop_, 0.50), Quantile(r_nsop_, 0.90),
                kRefNominalNs, r_nsop_.size(), e_ratio_.size(), s_ratio_.size(), kSetups);
    std::printf("ratios: enforced/ref p25=%.4f p50=%.4f p75=%.4f trimmed-mean=%.4f; "
                "stock/ref trimmed-mean=%.4f\n",
                Quantile(e_ratio_, 0.25), Quantile(e_ratio_, 0.50), Quantile(e_ratio_, 0.75),
                TrimmedMean(e_ratio_), TrimmedMean(s_ratio_));
    std::vector<Metric> e2e = EndToEnd();
    double raw[] = {1e9 / TrimmedMean(e_nsop_), TrimmedMean(e_raw_p50_) / 1e3,
                    TrimmedMean(e_raw_p99_) / 1e3, TrimmedMean(setup_raw_ns_) / 1e9,
                    e2e[4].value};
    for (size_t i = 0; i < e2e.size(); ++i) {
      std::printf("  %-18s %14.6g %-6s (raw %.6g)\n", e2e[i].name.c_str(), e2e[i].value,
                  e2e[i].unit, raw[i]);
    }
    std::printf("  %-18s %14.6g        (%llu of %llu ops; stock raw %.6g ops/s)\n", "fail_frac",
                Frac(failed_, attempted_), static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_), 1e9 / TrimmedMean(s_nsop_));
    std::vector<Metric> out = e2e;
    if (args_.trace) {
      out = PerLayer();
      std::printf("traced pass: %llu ops, %.6g ops/s at nominal ref speed\n",
                  static_cast<unsigned long long>(traced_ops_), traced_throughput_);
      for (const Metric& m : out) {
        std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
      }
    }
    std::string json = "{\"correct\": ";
    json += correct_ && failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", out[i].name.c_str(),
                    std::isfinite(out[i].value) ? out[i].value : 0.0, out[i].unit);
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  const Args args_;
  const Plan plan_;
  RefLoop ref_;
  std::vector<uint32_t> lat_;
  std::vector<int> cpus_;
  size_t next_cpu_ = 0;
  Side enforced_;
  Side stock_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  std::vector<double> setup_ref_;
  std::vector<double> setup_raw_ns_;
  std::map<std::string, std::vector<double>> phase_ref_;
  std::vector<double> r_nsop_, e_nsop_, s_nsop_, e_ratio_, s_ratio_;
  // Per E window: op latency p50/p99, normalised and raw.
  std::vector<double> e_p50_, e_p99_, e_raw_p50_, e_raw_p99_;

  uint64_t traced_ops_ = 0;
  Counters delta_;
  uint64_t principals_ = 0;
  double traced_throughput_ = 0;
  double crossing_ref_ = 0, guard_ref_ = 0, write_check_ref_ = 0;
  std::vector<double> call_spans_[kCalls];
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload net_tx|fs_tenants|fs_block --seed N --seconds S "
                 "--trace 0|1\n",
                 argv[0]);
    return 2;
  }
  try {
    perfbench::Bench bench(args);
    return bench.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
