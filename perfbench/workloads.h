// The three benchmark workloads. Each builds a kernel (enforced or stock)
// from the repository's public API, runs one op of its seeded sequence
// per Op() call, and exposes the layer counters the traced pass reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

enum class Workload { kNetTx, kFsTenants, kFsBlock };
bool ParseWorkload(const std::string& name, Workload* out);

// Public calls into a layer that the traced pass times as spans.
enum class Call : int {
  kAlloc,    // AllocSkb (+ payload fill)
  kXmit,     // NetStack::DevQueueXmit
  kTxClean,  // NicHw::ProcessTx (TX interrupt, e1000 TX clean)
  kCreate,   // Vfs::Open with O_CREAT
  kOpen,     // Vfs::Open of an existing file
  kWrite,
  kFsync,
  kRead,
  kStat,
  kRename,
  kUnlink,
  kClose,
  kCount,
};
const char* CallName(Call call);
inline constexpr int kCalls = static_cast<int>(Call::kCount);

// Raw span durations of the current traced chunk, per call type. The harness
// normalises and drains them after each chunk.
struct Spans {
  std::vector<uint64_t> ns[kCalls];
};

class SpanTimer {
 public:
  SpanTimer(Spans* spans, Call call) : spans_(spans), call_(call), t0_(spans ? NowNs() : 0) {}
  ~SpanTimer() {
    if (spans_ != nullptr) {
      spans_->ns[static_cast<int>(call_)].push_back(NowNs() - t0_);
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  Spans* spans_;
  Call call_;
  uint64_t t0_;
};

// Boot-path phases of one set-up, raw ns.
struct SetupTimes {
  uint64_t kernel_ns = 0;   // Kernel (+ Runtime, Containment) construction
  uint64_t api_ns = 0;      // InstallKernelApi
  uint64_t modules_ns = 0;  // device plug/creation and module loads
  uint64_t mount_ns = 0;    // mkfs and mounts

  uint64_t total() const { return kernel_ns + api_ns + modules_ns + mount_ns; }
};

// Counter readouts from the layers' public surfaces; the traced pass diffs
// two snapshots.
struct Counters {
  uint64_t crossings = 0;
  uint64_t crossing_ns = 0;
  uint64_t write_checks = 0;
  uint64_t write_memo_hits = 0;
  uint64_t arena_span_hits = 0;
  uint64_t call_checks = 0;
  uint64_t call_memo_hits = 0;
  uint64_t pre_checks = 0;
  uint64_t pre_memo_hits = 0;
  uint64_t arena_fallbacks = 0;
  uint64_t principals = 0;
  uint64_t guard_actions = 0;
  uint64_t guard_action_ns = 0;
  uint64_t mem_write_ns = 0;
  uint64_t indcalls = 0;
  uint64_t indcalls_full = 0;
  uint64_t revokes = 0;
  uint64_t lookup_dispatches = 0;
  uint64_t dcache_retries = 0;
  uint64_t filter_hooks = 0;
  uint64_t pc_hits = 0;
  uint64_t pc_misses = 0;
  uint64_t writebacks = 0;
  uint64_t bios = 0;
  uint64_t xmits = 0;
  uint64_t tx_busy = 0;
};

// Seeded inputs of one run. Rigs receive only these, never the seed.
struct FsOp {
  uint8_t kind = 0;       // FsOpKind
  uint16_t tenant = 0;    // fs_tenants mount index
  uint32_t name = 0;      // index into Plan::names
  uint32_t new_name = 0;  // rename target
  uint32_t size = 0;      // file bytes
  uint32_t content = 0;   // offset of the file's bytes in Plan::content
};

enum FsOpKind : uint8_t {
  kOpCreateWrite,  // fs_tenants: create and write in one op
  kOpCreate,
  kOpWrite,
  kOpFsync,
  kOpRead,
  kOpStat,
  kOpRename,
  kOpUnlink,
};

struct Plan {
  Workload workload = Workload::kNetTx;
  int tenants = 0;
  std::vector<std::vector<uint8_t>> payloads;  // net_tx frames, cycled
  std::vector<FsOp> ops;                       // fs_* op sequence, cycled
  std::vector<std::string> names;
  std::vector<uint8_t> content;  // staged into user space at kContentBase

  // One full cycle of the sequence; a traced pass covering whole cycles
  // runs every op kind in its seeded proportion.
  uint64_t cycle() const { return ops.empty() ? payloads.size() : ops.size(); }
};

Plan MakePlan(Workload workload, uint64_t seed);

class Rig {
 public:
  virtual ~Rig() = default;
  // Runs op `k` of the plan. False when the op failed or its output
  // check (read-back bytes, stat size, TX busy) did not match.
  virtual bool Op(uint64_t k, Spans* spans) = 0;
  // End-of-run output checks; appends the reason of each failure to `why`.
  virtual bool Verify(std::string* why) = 0;
  virtual Counters Read() const = 0;
};

// Builds a rig: `enforced` attaches an LXFI runtime (stock otherwise, via
// InstallKernelApi(kernel, nullptr)); `traced` turns on guard timing.
std::unique_ptr<Rig> MakeRig(const Plan& plan, bool enforced, bool traced, SetupTimes* times);

}  // namespace perfbench
