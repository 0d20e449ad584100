// Annotation pipeline benchmarks.
//
// Part 1 — Figure 9: annotated functions / function-pointer types per
// module, all vs unique, plus the capability-iterator count (§8.2).
//
// Part 2 — compiled guard cost: ns per wrapper crossing pair and per
// guard-program evaluation of the GuardProgram the registration-time
// compile pass produced (pre-check memo included). With --json PATH the
// rows are also written in the shared bench schema (the CI bench-smoke job
// uploads that file as an artifact).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/json_out.h"
#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/eval/annotation_stats.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"

namespace {

struct Fixture {
  Fixture() {
    kernel = std::make_unique<kern::Kernel>();
    rt = std::make_unique<lxfi::Runtime>(kernel.get());
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    kern::ModuleDef def;
    def.name = "benchmod";
    def.imports = {"printk", "kmalloc", "kfree", "spin_lock", "spin_unlock"};
    def.init = [this](kern::Module& m) -> int {
      module = &m;
      kmalloc = lxfi::GetImport<void*, size_t>(m, "kmalloc");
      kfree = lxfi::GetImport<void, void*>(m, "kfree");
      spin_lock = lxfi::GetImport<void, uintptr_t*>(m, "spin_lock");
      spin_unlock = lxfi::GetImport<void, uintptr_t*>(m, "spin_unlock");
      lock = static_cast<uintptr_t*>(kmalloc(sizeof(uintptr_t)));
      obj = kmalloc(128);
      return 0;
    };
    kernel->LoadModule(std::move(def));
  }

  lxfi::Principal* shared() { return rt->CtxOf(module)->shared(); }

  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::Module* module = nullptr;
  std::function<void*(size_t)> kmalloc;
  std::function<void(void*)> kfree;
  std::function<void(uintptr_t*)> spin_lock;
  std::function<void(uintptr_t*)> spin_unlock;
  uintptr_t* lock = nullptr;
  void* obj = nullptr;  // 128-byte scratch the expr-heavy checks target
};

// ns per iteration of `body`, best of 3 measured passes after one warmup.
template <typename Fn>
double TimeNs(uint64_t iters, Fn&& body) {
  double best = 0;
  for (int rep = 0; rep < 4; ++rep) {
    uint64_t t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < iters; ++i) {
      body();
    }
    double ns = static_cast<double>(lxfi::MonotonicNowNs() - t0) / static_cast<double>(iters);
    if (rep == 1 || (rep > 1 && ns < best)) {
      best = ns;
    }
  }
  return best;
}

struct Row {
  std::string name;
  double ns = 0;
};

// The workloads. Each runs module-privileged so the wrappers take the full
// enforcement path.
double RunWorkload(Fixture& f, int which, uint64_t iters) {
  lxfi::ScopedPrincipal as_module(f.rt.get(), f.shared());
  switch (which) {
    case 0:  // check-action crossing pair: spin_lock's pre(check(write, lock, 8))
      return TimeNs(iters, [&] {
        f.spin_lock(f.lock);
        f.spin_unlock(f.lock);
      });
    case 1:  // transfer-action crossing pair: kmalloc/kfree capability flow
      return TimeNs(iters, [&] {
        void* p = f.kmalloc(128);
        f.kfree(p);
      });
    default: {  // guard evaluation only: pre+post of an expression-heavy set
      const lxfi::GuardProgram& prog = *f.rt->annotations().Find("bench_expr_fn")->program;
      uint64_t args[3] = {reinterpret_cast<uint64_t>(f.obj), 64, 3};
      lxfi::CallEnv env;
      env.mc = f.rt->CtxOf(f.module);
      env.principal = f.shared();
      env.kernel_to_module = false;
      env.args = args;
      env.nargs = 3;
      env.ret = 0;
      env.what = "bench_expr_fn";
      return TimeNs(iters, [&] {
        f.rt->RunGuards(prog, env, /*post=*/false);
        f.rt->RunGuards(prog, env, /*post=*/true);
      });
    }
  }
}

std::vector<Row> RunGuardCost() {
  Fixture f;
  // An expression-heavy pure-check set for the action-only row: two
  // conditionals, arithmetic, and two inline checks per pre+post evaluation.
  const char* kExprText =
      "pre(if ((b + 8) > (c - 1)) check(write, a, 64)) "
      "pre(check(write, a + 8, 8)) "
      "post(if (return <= b) check(write, a, 16))";
  lxfi::Status st = f.rt->annotations().Register("bench_expr_fn", {"a", "b", "c"}, kExprText);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_expr_fn registration failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  const char* kNames[] = {
      "wrapper crossing: check action (spin_lock pair)",
      "wrapper crossing: transfer actions (kmalloc/kfree)",
      "guard eval only: expr-heavy pre+post",
  };
  constexpr uint64_t kIters[] = {400000, 150000, 400000};
  std::vector<Row> rows;
  for (int w = 0; w < 3; ++w) {
    rows.push_back(Row{kNames[w], RunWorkload(f, w, kIters[w])});
  }
  return rows;
}

void PrintGuardCost(const std::vector<Row>& rows) {
  std::printf("=== Compiled guard cost ===\n");
  std::printf("%-52s %12s\n", "workload", "ns");
  for (const Row& r : rows) {
    std::printf("%-52s %12.1f\n", r.name.c_str(), r.ns);
  }
  std::printf("\n");
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  lxfibench::JsonWriter json("bench_annotations");
  json.Meta("mode", "compiled_guard_cost");
  for (const Row& r : rows) {
    json.AddRow(r.name).Set("ns", r.ns);
  }
  json.WriteFile(path);
}

}  // namespace

int main(int argc, char** argv) {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::vector<Row> rows = RunGuardCost();
  PrintGuardCost(rows);
  if (json_path != nullptr) {
    WriteJson(rows, json_path);
  }

  eval::AnnotationSurvey survey = eval::RunAnnotationSurvey();
  std::printf("=== Figure 9: annotation effort per module ===\n");
  std::printf("%s", eval::FormatSurveyTable(survey).c_str());
  std::printf(
      "\nshape check: similar modules share most annotations (unique << all),\n"
      "matching the paper's observation that supporting a new module gets cheaper\n"
      "as more modules are annotated.\n");
  return 0;
}
