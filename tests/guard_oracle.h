// Test oracle: an AST interpreter over annotation sets.
//
// The runtime has one engine — the GuardProgram the registration-time
// compile pass produces (guard_program.h). This header keeps the reference
// the differential property test (guard_program_test.cc) pits against it:
// a direct walk of the parsed AST (recursive expression evaluation with
// string-compared operators, a capability vector per caplist). Every
// materialized capability goes through Runtime::ApplyOneCap, the same
// per-capability core the compiled engine calls, so the two share action
// semantics and violation messages and differ only in how they get from
// annotation text to capabilities.
#pragma once

#include <cstdint>

#include "src/lxfi/annotation.h"
#include "src/lxfi/cap.h"
#include "src/lxfi/cap_iterator.h"
#include "src/lxfi/runtime.h"

namespace guard_oracle {

class Interpreter {
 public:
  explicit Interpreter(lxfi::Runtime* rt) : rt_(rt) {}

  // Applies the pre (post=false) or post (post=true) actions of `set`, in
  // declared order.
  void RunActions(const lxfi::AnnotationSet& set, const lxfi::CallEnv& env, bool post) {
    lxfi::Annotation::Kind want =
        post ? lxfi::Annotation::Kind::kPost : lxfi::Annotation::Kind::kPre;
    for (const lxfi::Annotation& a : set.annotations) {
      if (a.kind == want && a.action != nullptr) {
        ApplyAction(*a.action, env, post);
      }
    }
  }

  // The callee principal of a kernel->module call: the first principal()
  // annotation, the shared principal when there is none.
  lxfi::Principal* SelectCalleePrincipal(const lxfi::AnnotationSet& set, lxfi::ModuleCtx* mc,
                                         const lxfi::CallEnv& env) const {
    for (const lxfi::Annotation& a : set.annotations) {
      if (a.kind != lxfi::Annotation::Kind::kPrincipal) {
        continue;
      }
      switch (a.principal_target) {
        case lxfi::Annotation::PrincipalTarget::kGlobal:
          return mc->global();
        case lxfi::Annotation::PrincipalTarget::kShared:
          return mc->shared();
        case lxfi::Annotation::PrincipalTarget::kExpr:
          return mc->GetOrCreate(static_cast<uintptr_t>(EvalExpr(*a.principal_expr, env)));
      }
    }
    return mc->shared();
  }

 private:
  int64_t EvalExpr(const lxfi::Expr& expr, const lxfi::CallEnv& env) const {
    switch (expr.kind) {
      case lxfi::Expr::Kind::kInt:
        return expr.value;
      case lxfi::Expr::Kind::kArg:
        if (expr.arg_index < 0 || static_cast<size_t>(expr.arg_index) >= env.nargs) {
          return 0;
        }
        return static_cast<int64_t>(env.args[expr.arg_index]);
      case lxfi::Expr::Kind::kReturn:
        return static_cast<int64_t>(env.ret);
      case lxfi::Expr::Kind::kNeg:
        return -EvalExpr(*expr.lhs, env);
      case lxfi::Expr::Kind::kBinary: {
        int64_t a = EvalExpr(*expr.lhs, env);
        int64_t b = EvalExpr(*expr.rhs, env);
        if (expr.op == "+") {
          return a + b;
        }
        if (expr.op == "-") {
          return a - b;
        }
        if (expr.op == "<") {
          return a < b;
        }
        if (expr.op == ">") {
          return a > b;
        }
        if (expr.op == "<=") {
          return a <= b;
        }
        if (expr.op == ">=") {
          return a >= b;
        }
        if (expr.op == "==") {
          return a == b;
        }
        if (expr.op == "!=") {
          return a != b;
        }
        return 0;
      }
    }
    return 0;
  }

  // Materializes the capabilities one caplist names into `out`.
  void ResolveCaps(const lxfi::CapListSpec& spec, const lxfi::CallEnv& env, lxfi::CapVec* out) {
    if (spec.is_iterator) {
      const lxfi::CapIterator* iter = rt_->iterators().Find(spec.iterator_name);
      if (iter == nullptr) {
        rt_->RaiseViolation(lxfi::ViolationKind::kCapCheck, "unknown capability iterator '" +
                                                                spec.iterator_name + "' in " +
                                                                env.what);
        return;
      }
      lxfi::CapIterContext ctx(rt_->kernel());
      (*iter)(ctx, static_cast<uint64_t>(EvalExpr(*spec.iterator_arg, env)));
      for (const lxfi::Capability& cap : ctx.caps()) {
        out->push_back(cap);
      }
      return;
    }
    auto addr = static_cast<uintptr_t>(EvalExpr(*spec.ptr, env));
    switch (spec.kind) {
      case lxfi::CapKind::kWrite: {
        // Default size is one pointer-sized object.
        size_t size = spec.size != nullptr ? static_cast<size_t>(EvalExpr(*spec.size, env))
                                           : sizeof(uintptr_t);
        out->push_back(lxfi::Capability::Write(addr, size));
        break;
      }
      case lxfi::CapKind::kCall:
        out->push_back(lxfi::Capability::Call(addr));
        break;
      case lxfi::CapKind::kRef:
        out->push_back(lxfi::Capability::Ref(lxfi::RefType(spec.ref_type_name), addr));
        break;
    }
  }

  void ApplyAction(const lxfi::Action& action, const lxfi::CallEnv& env, bool post) {
    if (action.op == lxfi::Action::Op::kIf) {
      if (EvalExpr(*action.cond, env) != 0) {
        ApplyAction(*action.then, env, post);
      }
      return;
    }
    lxfi::CapVec caps;
    ResolveCaps(action.caps, env, &caps);
    bool from_module = env.kernel_to_module == post;
    for (const lxfi::Capability& cap : caps) {
      rt_->ApplyOneCap(action.op, cap, env, from_module);
    }
  }

  lxfi::Runtime* rt_;
};

}  // namespace guard_oracle
