// Copyright (c) 1993-style CORAL reproduction authors.

#include "src/vm/vm.h"

#include <memory>
#include <vector>

#include "src/core/builtins.h"
#include "src/core/eval_context.h"

namespace coral::vm {

namespace {

class Executor {
 public:
  Executor(const RunInput& in, TupleSink* sink, RunStats* st)
      : in_(in),
        prog_(*in.prog),
        sink_(sink),
        st_(st),
        regs_(prog_.nregs, nullptr),
        cand_(prog_.levels.size()),
        head_buf_(prog_.head.size(), nullptr) {}

  RunResult Run() {
    const bool ok = RunLevel(0);
    if (expired_) return RunResult::kDeadlineExceeded;
    return ok ? RunResult::kOk : RunResult::kFallback;
  }

 private:
  const Arg* OperandValue(const Operand& o) const {
    return o.is_const ? prog_.consts[o.index] : regs_[o.index];
  }

  /// Mirrors the interpreter's comparison builtins exactly: arithmetic
  /// faults fail the goal silently; `=`/`\=` on ground canonical terms
  /// are pointer (in)equality; the others use the total term order.
  bool EvalTest(const Instr& c) {
    auto ea = EvalArith(OperandValue(c.a), nullptr, in_.factory);
    if (!ea.ok()) return false;
    auto eb = EvalArith(OperandValue(c.b), nullptr, in_.factory);
    if (!eb.ok()) return false;
    const Arg* ta = ea->term;
    const Arg* tb = eb->term;
    switch (c.cmp) {
      case CmpOp::kEq: return ta == tb;
      case CmpOp::kNe: return ta != tb;
      case CmpOp::kLt: return CompareArgs(ta, tb) < 0;
      case CmpOp::kGt: return CompareArgs(ta, tb) > 0;
      case CmpOp::kLe: return CompareArgs(ta, tb) <= 0;
      case CmpOp::kGe: return CompareArgs(ta, tb) >= 0;
    }
    return false;
  }

  /// One candidate at level `li`. Returns false only on abort (fallback
  /// or expired deadline); a failed check just skips the candidate.
  bool Step(const Level& lv, size_t li, const Tuple* t) {
    ++st_->tuples;
    // Deadline poll, amortized over ~1k candidates so the common case
    // costs one branch.
    if ((st_->tuples & 1023u) == 0 && EvalDeadlineExpired()) {
      expired_ = true;
      return false;
    }
    if (!t->IsGround()) return false;
    const uint32_t end = lv.first_check + lv.num_checks;
    for (uint32_t i = lv.first_check; i < end; ++i) {
      const Instr& c = prog_.code[i];
      if (c.op == Op::kUnifyArg) {
        ++st_->ops.unify_arg;
        const Arg* v = t->arg(c.col);
        switch (c.mode) {
          case UnifyMode::kMatchConst:
            if (v != prog_.consts[c.a.index]) return true;
            break;
          case UnifyMode::kLoadReg:
            regs_[c.a.index] = v;
            break;
          case UnifyMode::kCheckReg:
            if (v != regs_[c.a.index]) return true;
            break;
        }
      } else {
        ++st_->ops.test_builtin;
        if (!EvalTest(c)) return true;
      }
    }
    return RunLevel(li + 1);
  }

  bool RunLevel(size_t li) {
    if (li == prog_.levels.size()) {
      ++st_->solutions;
      ++st_->ops.project;
      for (size_t i = 0; i < prog_.head.size(); ++i) {
        head_buf_[i] = OperandValue(prog_.head[i]);
      }
      const Tuple* t = in_.factory->MakeTuple(head_buf_);
      ++st_->ops.insert;
      st_->changed = sink_->Emit(t) || st_->changed;
      return true;
    }
    const Level& lv = prog_.levels[li];
    auto [from, to] = in_.windows[lv.lit];
    if (from >= to) return true;

    if (lv.scan == Op::kProbeIndex) {
      HashRelation* h = in_.hash_rels[li];
      if (h != nullptr) {
        key_buf_.clear();
        for (const Operand& o : lv.key_srcs) {
          key_buf_.push_back(OperandValue(o));
        }
        std::vector<const Tuple*>& cand = cand_[li];
        cand.clear();
        if (h->ProbeArgs(lv.key_cols, key_buf_, from, to, &cand)) {
          ++st_->ops.probe_index;
          for (const Tuple* t : cand) {
            if (!Step(lv, li, t)) return false;
          }
          return true;
        }
      }
      // Planned index absent on the bound relation: scan the window and
      // let the per-column checks filter (Select's superset contract).
      ++st_->ops.probe_scan_fallbacks;
      ++st_->ops.scan_full;
    } else if (lv.scan == Op::kScanDelta) {
      ++st_->ops.scan_delta;
    } else {
      ++st_->ops.scan_full;
    }
    std::unique_ptr<TupleIterator> it = in_.rels[li]->ScanRange(from, to);
    while (const Tuple* t = it->Next()) {
      if (!Step(lv, li, t)) return false;
    }
    // A failing storage scan falls back too: the interpreter re-runs the
    // application and surfaces the error through its Status plumbing.
    return it->status().ok();
  }

  const RunInput& in_;
  const RuleProgram& prog_;
  TupleSink* sink_;
  RunStats* st_;
  std::vector<const Arg*> regs_;
  std::vector<std::vector<const Tuple*>> cand_;
  std::vector<const Arg*> head_buf_;
  std::vector<const Arg*> key_buf_;
  bool expired_ = false;
};

}  // namespace

RunResult Execute(const RunInput& in, TupleSink* sink, RunStats* out) {
  return Executor(in, sink, out).Run();
}

}  // namespace coral::vm
