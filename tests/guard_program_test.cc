// The annotation compile pass (guard_program.h): golden disassemblies of the
// compiler's output, revocation finality for the checks the guards run, and
// a differential property test that drives randomly generated annotation sets
// through both the compiled GuardProgram and the AST-interpreter oracle
// (guard_oracle.h) and demands identical capability effects, violation
// records, and principal selection.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/annotation_parser.h"
#include "src/lxfi/guard_program.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/guard_oracle.h"

namespace {

// The differential tests provoke violations on purpose (counting policy);
// their WARN lines are noise here.
[[maybe_unused]] const bool kQuietLogs = [] {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);
  return true;
}();

using lxfi::Capability;
using lxfi::CompileAnnotations;
using lxfi::GuardProgram;
using lxfi::ParseAnnotations;

std::unique_ptr<lxfi::AnnotationSet> MustParse(const std::string& name,
                                               std::vector<std::string> params,
                                               const std::string& text) {
  std::string error;
  auto set = ParseAnnotations(name, params, text, &error);
  EXPECT_NE(set, nullptr) << error;
  return set;
}

// --- golden disassemblies ----------------------------------------------------

TEST(GuardCompiler, DisassemblyNdoStartXmit) {
  auto set = MustParse("net_device_ops::ndo_start_xmit", {"skb", "dev"},
                       "principal(dev) pre(transfer(skb_caps(skb))) "
                       "post(if (return == 16) transfer(skb_caps(skb)))");
  auto prog = CompileAnnotations(*set, nullptr);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->Disassemble(),
            "guard program 'net_device_ops::ndo_start_xmit' ahash=0x300da23142e5823b ops=9 "
            "principal=expr\n"
            "pre:\n"
            "   0: push_arg   0  ; skb\n"
            "   1: transfer iter skb_caps\n"
            "post:\n"
            "   2: push_ret\n"
            "   3: push_const #0  ; 16\n"
            "   4: eq\n"
            "   5: jz         -> 8\n"
            "   6: push_arg   0  ; skb\n"
            "   7: transfer iter skb_caps\n"
            "principal-expr:\n"
            "   8: push_arg   1  ; dev\n");
}

TEST(GuardCompiler, DisassemblyKmalloc) {
  auto set =
      MustParse("kmalloc", {"size"}, "post(if (return != 0) transfer(write, return, size))");
  auto prog = CompileAnnotations(*set, nullptr);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->Disassemble(),
            "guard program 'kmalloc' ahash=0x9026e4df8100c1e6 ops=7 principal=none\n"
            "pre:\n"
            "post:\n"
            "   0: push_ret\n"
            "   1: push_const #0  ; 0\n"
            "   2: ne\n"
            "   3: jz         -> 7\n"
            "   4: push_ret\n"
            "   5: push_arg   0  ; size\n"
            "   6: transfer write, size\n");
}

TEST(GuardCompiler, DisassemblySpinLockPureCheck) {
  auto set = MustParse("spin_lock", {"lock"}, "pre(check(write, lock, 8))");
  auto prog = CompileAnnotations(*set, nullptr);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->Disassemble(),
            "guard program 'spin_lock' ahash=0x665a74bcd13d0dc4 ops=3 principal=none\n"
            "pre:\n"
            "   0: push_arg   0  ; lock\n"
            "   1: push_const #0  ; 8\n"
            "   2: check    write, size\n"
            "post:\n");
}

// Every annotation the kernel API registers lowers to a program (Register
// refuses sets the compiler rejects, and the API panics on a refusal).
TEST(GuardCompiler, EntireKernelApiSurfaceCompiles) {
  kern::Kernel kernel;
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);
  size_t count = 0;
  for (const auto& [name, set] : rt.annotations().all()) {
    ASSERT_NE(set->program, nullptr) << name;
    // Compile-time iterator resolution: the API installs iterators before
    // annotations, so every slot must already be bound.
    for (size_t i = 0; i < set->program->iter_slot_count(); ++i) {
      EXPECT_NE(set->program->IterFn(i, nullptr), nullptr)
          << name << " slot " << set->program->IterName(i);
    }
    ++count;
  }
  EXPECT_GT(count, 40u);
}

// --- test rig ---------------------------------------------------------------

// A kernel+runtime pair in counting-violation mode, with a module loaded and
// a deterministic capability iterator registered. Two rigs — one driven by
// the compiled programs, one by the oracle — receive identical stimuli in
// the differential tests.
struct Rig {
  Rig() {
    lxfi::RuntimeOptions opt;
    opt.policy = lxfi::ViolationPolicy::kCount;
    kernel = std::make_unique<kern::Kernel>();
    rt = std::make_unique<lxfi::Runtime>(kernel.get(), opt);
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    // Deterministic iterator: emits caps that depend only on the argument
    // value, so both rigs see identical capabilities.
    rt->iterators().Register("obj_caps", [](lxfi::CapIterContext& ctx, uint64_t arg) {
      if (arg == 0) {
        return;
      }
      uintptr_t base = static_cast<uintptr_t>(arg) & ~uintptr_t{0xff};
      ctx.Emit(Capability::Write(base, 256));
      ctx.Emit(Capability::Ref("obj", reinterpret_cast<const void*>(arg)));
    });
    kern::ModuleDef def;
    def.name = "diffmod";
    def.imports = {"printk"};
    def.init = [](kern::Module&) { return 0; };
    module = kernel->LoadModule(std::move(def));
    EXPECT_NE(module, nullptr);
    mc = rt->CtxOf(module);
  }

  lxfi::Principal* shared() { return mc->shared(); }

  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::Module* module = nullptr;
  lxfi::ModuleCtx* mc = nullptr;
};

// Fake object space well above kUserSpaceTop (every module principal holds
// WRITE for user space) and away from the host stack.
constexpr uintptr_t kObjBase = 0x510000000000ull;

// Which evaluator a shot runs through.
enum class Engine { kCompiled, kOracle };

// One wrapper-crossing-shaped stimulus against one rig; returns a transcript
// of everything observable so the two rigs can be diffed.
std::string RunShot(Rig& rig, const std::string& name, const uint64_t* args, size_t nargs,
                    uint64_t ret, bool kernel_to_module, Engine engine = Engine::kCompiled) {
  const lxfi::AnnotationSet* set = rig.rt->annotations().Find(name);
  EXPECT_NE(set, nullptr);
  const lxfi::GuardProgram& prog = *set->program;
  guard_oracle::Interpreter oracle(rig.rt.get());
  lxfi::CallEnv env;
  env.mc = rig.mc;
  env.kernel_to_module = kernel_to_module;
  env.args = args;
  env.nargs = nargs;
  env.ret = ret;
  env.what = name.c_str();
  const bool compiled = engine == Engine::kCompiled;
  lxfi::Principal* p = rig.shared();
  if (kernel_to_module) {
    p = compiled ? rig.rt->SelectCalleePrincipal(prog, rig.mc, env)
                 : oracle.SelectCalleePrincipal(*set, rig.mc, env);
  }
  env.principal = p;
  size_t violations_before = rig.rt->violation_count();
  for (bool post : {false, true}) {
    if (compiled) {
      rig.rt->RunGuards(prog, env, post);
    } else {
      oracle.RunActions(*set, env, post);
    }
  }
  std::string out = "principal=" + p->DebugName() + "\n";
  const auto& violations = rig.rt->violations();
  for (size_t i = violations_before; i < violations.size(); ++i) {
    out += std::string(ViolationKindName(violations[i].kind)) + ": " + violations[i].details + "\n";
  }
  out += rig.rt->DumpState();
  return out;
}

// --- random annotation generator -------------------------------------------

class AnnotationGen {
 public:
  explicit AnnotationGen(lxfi::Rng* rng) : rng_(rng) {}

  std::string GenSet() {
    std::string out;
    bool have_principal = false;
    int n = static_cast<int>(rng_->Range(1, 3));
    for (int i = 0; i < n; ++i) {
      if (!out.empty()) {
        out += " ";
      }
      switch (rng_->Below(4)) {
        case 0:
          out += "pre(" + GenAction(0, false) + ")";
          break;
        case 1:
        case 2:
          out += "post(" + GenAction(0, true) + ")";
          break;
        case 3:
          if (!have_principal) {
            have_principal = true;
            switch (rng_->Below(3)) {
              case 0:
                out += "principal(global)";
                break;
              case 1:
                out += "principal(shared)";
                break;
              default:
                out += "principal(" + GenExpr(0, false) + ")";
                break;
            }
          } else {
            out += "pre(" + GenAction(0, false) + ")";
          }
          break;
      }
    }
    return out;
  }

 private:
  std::string GenExpr(int depth, bool post) {
    if (depth < 3 && rng_->Chance(0.35)) {
      static const char* kOps[] = {"+", "-", "<", ">", "<=", ">=", "==", "!="};
      const char* op = kOps[rng_->Below(8)];
      return "(" + GenExpr(depth + 1, post) + " " + op + " " + GenExpr(depth + 1, post) + ")";
    }
    if (depth < 3 && rng_->Chance(0.1)) {
      return "-" + GenExpr(depth + 1, post);
    }
    switch (rng_->Below(post ? 4u : 3u)) {
      case 0:
        return std::to_string(rng_->Below(100));
      case 1:
        return rng_->Chance(0.5) ? "a" : "b";
      case 2:
        return "c";
      default:
        return "return";
    }
  }

  std::string GenAction(int depth, bool post) {
    if (depth < 2 && rng_->Chance(0.3)) {
      return "if (" + GenExpr(0, post) + ") " + GenAction(depth + 1, post);
    }
    static const char* kActs[] = {"check", "copy", "transfer"};
    std::string act = kActs[rng_->Below(3)];
    switch (rng_->Below(4)) {
      case 0: {
        // Sizes stay literal: an expression-valued size could go negative and
        // turn into a near-2^64 grant, which both evaluators would dutifully
        // walk page by page.
        std::string caps = "write, " + GenExpr(0, post);
        if (rng_->Chance(0.6)) {
          caps += ", " + std::to_string(rng_->Range(1, 512));
        }
        return act + "(" + caps + ")";
      }
      case 1:
        return act + "(call, " + GenExpr(0, post) + ")";
      case 2:
        return act + "(ref(struct obj), " + GenExpr(0, post) + ")";
      default:
        return act + "(obj_caps(" + GenExpr(0, post) + "))";
    }
  }

  lxfi::Rng* rng_;
};

// --- differential property test ---------------------------------------------

TEST(GuardDifferential, RandomAnnotationSetsMatchInterpreter) {
  lxfi::Rng rng(2011);
  AnnotationGen gen(&rng);
  Rig compiled;
  Rig interp;

  // Seed both rigs with identical capabilities so checks can succeed.
  for (int i = 0; i < 8; ++i) {
    uintptr_t base = kObjBase + static_cast<uintptr_t>(i) * 0x1000;
    compiled.rt->Grant(compiled.shared(), Capability::Write(base, 0x400));
    interp.rt->Grant(interp.shared(), Capability::Write(base, 0x400));
  }

  std::vector<std::string> params = {"a", "b", "c"};
  for (int iter = 0; iter < 250; ++iter) {
    std::string text = gen.GenSet();
    std::string name = "diff_fn_" + std::to_string(iter);
    lxfi::Status st1 = compiled.rt->annotations().Register(name, params, text);
    lxfi::Status st2 = interp.rt->annotations().Register(name, params, text);
    ASSERT_TRUE(st1.ok() && st2.ok()) << text;
    const lxfi::AnnotationSet* cset = compiled.rt->annotations().Find(name);
    ASSERT_NE(cset, nullptr);
    ASSERT_NE(cset->program, nullptr) << "generator output must compile: " << text;

    for (int shot = 0; shot < 3; ++shot) {
      // Arguments mix plausible object addresses with small integers; drawn
      // once, replayed into both rigs.
      uint64_t args[3];
      for (uint64_t& a : args) {
        a = rng.Chance(0.6)
                ? kObjBase + rng.Below(8) * 0x1000 + rng.Below(4) * 0x100
                : rng.Below(64);
      }
      uint64_t ret = rng.Chance(0.5) ? args[0] : rng.Below(32);
      bool kernel_to_module = rng.Chance(0.5);
      std::string got = RunShot(compiled, name, args, 3, ret, kernel_to_module);
      std::string want = RunShot(interp, name, args, 3, ret, kernel_to_module, Engine::kOracle);
      ASSERT_EQ(got, want) << "divergence on '" << text << "' shot " << shot << "\n"
                           << cset->program->Disassemble();
    }
  }
}

// --- revocation finality -----------------------------------------------------

// No check caches an answer: a WRITE or CALL capability, or a pure-check pre
// section, that just passed is denied on the very next check once the
// capability is revoked, and a failing check fails again when repeated.
TEST(RevokeFinality, PassedCheckDeniedOnNextCheckAfterRevoke) {
  constexpr uintptr_t kObj = kObjBase + 0x9000;
  constexpr uintptr_t kTarget = 0xffffffff81234500ull;
  static const uint64_t kLockArgs[1] = {kObj};
  struct Case {
    const char* what;
    Capability cap;
    // Runs the check once; true when it passed.
    std::function<bool(Rig&)> check;
  };
  const Case cases[] = {
      {"write", Capability::Write(kObj, 64),
       [](Rig& rig) { return rig.rt->OwnsWriteFast(rig.shared(), kObj + 8, 8); }},
      {"call", Capability::Call(kTarget),
       [](Rig& rig) { return rig.rt->OwnsCallFast(rig.shared(), kTarget); }},
      {"pre-section", Capability::Write(kObj, 64),
       [](Rig& rig) {
         size_t before = rig.rt->violation_count();
         RunShot(rig, "rf_lock", kLockArgs, 1, 0, /*kernel_to_module=*/false);
         return rig.rt->violation_count() == before;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Rig rig;
    ASSERT_TRUE(
        rig.rt->annotations().Register("rf_lock", {"lock"}, "pre(check(write, lock, 8))").ok());
    // A kernel->module pre pass is a no-op (checks only enforce when the
    // module side grants), even for a range the principal does not own...
    size_t before = rig.rt->violation_count();
    RunShot(rig, "rf_lock", kLockArgs, 1, 0, /*kernel_to_module=*/true);
    EXPECT_EQ(rig.rt->violation_count(), before);
    // ...and the module->kernel check that follows still runs and fails.
    EXPECT_FALSE(c.check(rig));

    rig.rt->Grant(rig.shared(), c.cap);
    EXPECT_TRUE(c.check(rig));
    EXPECT_TRUE(c.check(rig));
    rig.rt->RevokeEverywhere(c.cap);
    EXPECT_FALSE(c.check(rig)) << "passed on the first check after the revoke returned";
    EXPECT_FALSE(c.check(rig)) << "a failing check must fail again when repeated";
  }
}

// --- iterator resolution ----------------------------------------------------

TEST(GuardProgram, LateIteratorRegistrationResolvesLazily) {
  Rig rig;
  // Annotation registered (and compiled) before its iterator exists.
  ASSERT_TRUE(rig.rt->annotations().Register("late_fn", {"a"}, "pre(check(late_caps(a)))").ok());
  const lxfi::AnnotationSet* set = rig.rt->annotations().Find("late_fn");
  ASSERT_NE(set->program, nullptr);
  EXPECT_EQ(set->program->IterFn(0, nullptr), nullptr);

  uint64_t args[1] = {kObjBase};
  size_t before = rig.rt->violation_count();
  RunShot(rig, "late_fn", args, 1, 0, false);
  EXPECT_EQ(rig.rt->violation_count(), before + 1) << "unknown iterator must raise";

  // Register the iterator afterwards; the compiled program resolves lazily.
  rig.rt->iterators().Register("late_caps", [](lxfi::CapIterContext& ctx, uint64_t arg) {
    ctx.Emit(Capability::Write(static_cast<uintptr_t>(arg), 8));
  });
  rig.rt->Grant(rig.shared(), Capability::Write(kObjBase, 64));
  before = rig.rt->violation_count();
  RunShot(rig, "late_fn", args, 1, 0, false);
  EXPECT_EQ(rig.rt->violation_count(), before);
}

// A set beyond the compiler's limits — here an expression one level deeper
// than the evaluator stack holds — is refused at registration: there is no
// other engine that could run it.
TEST(GuardProgram, RegisterRejectsSetBeyondCompilerLimits) {
  // n nested additions keep n + 1 values on the evaluator stack.
  auto nested = [](size_t n) {
    std::string expr = "a";
    for (size_t i = 0; i < n; ++i) {
      expr = "(a + " + expr + ")";
    }
    return "pre(check(write, " + expr + ", 8))";
  };
  const std::string too_deep = nested(GuardProgram::kMaxStack);
  std::string error;
  auto parsed = ParseAnnotations("deep_fn", {"a"}, too_deep, &error);
  ASSERT_NE(parsed, nullptr) << "the parser accepts it: " << error;
  EXPECT_EQ(CompileAnnotations(*parsed, nullptr), nullptr);

  Rig rig;
  lxfi::Status st = rig.rt->annotations().Register("deep_fn", {"a"}, too_deep);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("exceed the guard compiler's limits"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(rig.rt->annotations().Find("deep_fn"), nullptr);
  // At exactly the stack bound the set compiles and registers.
  EXPECT_TRUE(rig.rt->annotations()
                  .Register("max_fn", {"a"}, nested(GuardProgram::kMaxStack - 1))
                  .ok());
}

// An import wrapper binds its compiled program at wrap time; crossings
// through it apply the program's transfer and check actions.
TEST(GuardProgram, WrapperCrossingsRunBoundProgram) {
  auto kernel = std::make_unique<kern::Kernel>();
  auto rt = std::make_unique<lxfi::Runtime>(kernel.get());
  lxfi::InstallKernelApi(kernel.get(), rt.get());

  kern::Module* module = nullptr;
  std::function<void*(size_t)> kmalloc;
  std::function<void(void*)> kfree;
  std::function<void(uintptr_t*)> spin_lock;
  kern::ModuleDef def;
  def.name = "xmod";
  def.imports = {"kmalloc", "kfree", "spin_lock"};
  def.init = [&](kern::Module& m) -> int {
    module = &m;
    kmalloc = lxfi::GetImport<void*, size_t>(m, "kmalloc");
    kfree = lxfi::GetImport<void, void*>(m, "kfree");
    spin_lock = lxfi::GetImport<void, uintptr_t*>(m, "spin_lock");
    return 0;
  };
  ASSERT_NE(kernel->LoadModule(std::move(def)), nullptr);

  lxfi::Principal* shared = rt->CtxOf(module)->shared();
  lxfi::ScopedPrincipal as_module(rt.get(), shared);
  void* p = kmalloc(128);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(rt->Owns(shared, Capability::Write(p, 128)));
  spin_lock(static_cast<uintptr_t*>(p));
  kfree(p);
  EXPECT_FALSE(rt->Owns(shared, Capability::Write(p, 128)));
  EXPECT_EQ(rt->violation_count(), 0u);
}

}  // namespace
