// Copyright (c) 1993-style CORAL reproduction authors.
// Incremental view maintenance for completed save-module instances
// (docs/MAINTENANCE.md). Non-recursive ("counting") SCCs carry a support
// count per derived tuple — the number of rule-body derivations — and
// base deltas are propagated as count increments/decrements, deleting a
// tuple exactly when its count reaches zero. Recursive SCCs use
// delete-rederive (DRed): an overestimate of deletions is cascaded over
// the pre-update state, candidates that survive a rederivation probe are
// kept, and the SCC's semi-naive fixpoint is resumed from the
// pre-maintenance marks to close insertions transitively (save modules
// compile every internal literal with a delta version, so lower-stratum
// deltas flow through the resumed windows automatically).
//
// State reconstruction: ApplyUpdate mutates base relations before
// Maintain runs, so during a pass the pre-update ("old") contents of a
// changed base predicate are reconstructed as live \ plus ∪ minus, and
// the half-updated ("mid") state as live \ plus. Internal relations are
// still old until the pass itself touches them.

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/database.h"
#include "src/core/join.h"
#include "src/core/module_eval.h"
#include "src/core/module_manager.h"
#include "src/core/update.h"
#include "src/data/unify.h"
#include "src/rel/hash_relation.h"
#include "src/rel/memory_relation.h"
#include "src/rewrite/existential.h"
#include "src/util/logging.h"

namespace coral {

namespace {

/// Builtins whose evaluation has side effects; re-running them during a
/// maintenance pass would repeat the effects, so such modules fall back
/// to invalidation.
bool IsSideEffectingBuiltin(const std::string& name) {
  return name == "assert" || name == "retract" || name == "write" ||
         name == "writeln";
}

}  // namespace

/// One maintenance pass over one completed MaterializedInstance. Owns the
/// per-predicate delta lists threaded between SCCs; reads/writes the
/// instance's relations, marks, and support counts through friendship.
class MaintenancePass {
 public:
  MaintenancePass(MaterializedInstance* inst, UpdateResult* result)
      : inst_(inst), db_(inst->db_), result_(result) {}

  Status Run(const UpdateDelta& delta);

 private:
  /// The net delta of one predicate, as both list (for join positions)
  /// and set (for filtering). plus and minus are disjoint.
  struct PredDelta {
    std::vector<const Tuple*> plus;
    std::vector<const Tuple*> minus;
    std::unordered_set<const Tuple*> plus_set;
    std::unordered_set<const Tuple*> minus_set;
  };

  /// Which snapshot a non-delta body position is evaluated against.
  enum class BodyState {
    kNew,  // live contents
    kMid,  // live \ plus (old minus the deletions already applied)
    kOld,  // live \ plus ∪ minus (pre-update contents)
  };

  const RewrittenProgram& prog() const { return *inst_->prog_; }
  const std::vector<SccPlan>& sccs() const {
    return inst_->prog_->seminaive.sccs;
  }

  PredDelta* FindDelta(const PredRef& p) {
    auto it = deltas_.find(p);
    return it == deltas_.end() ? nullptr : &it->second;
  }
  PredDelta& DeltaFor(const PredRef& p) { return deltas_[p]; }

  /// The stored relation a body literal scans: module-internal first,
  /// else the registered base relation (created empty if absent, so an
  /// update mentioning a never-asserted predicate still evaluates).
  Relation* StoredRel(const PredRef& p) const {
    Relation* rel = inst_->internal(p);
    if (rel != nullptr) return rel;
    return db_->GetOrCreateBaseRelation(p);
  }

  /// True when the literal scans a stored relation (internal or base) —
  /// as opposed to a builtin. CanMaintain already excluded negation,
  /// module calls, and side-effecting builtins.
  bool IsStored(const Literal& lit) const {
    PredRef p = lit.pred_ref();
    if (inst_->internal(p) != nullptr) return true;
    return db_->builtins()->Find(p.sym->name, p.arity) == nullptr;
  }

  /// Magic seeds (and defensively pinned zero-count tuples) are
  /// engine-fed: maintenance never deletes them.
  bool Pinned(const PredRef& p, const Tuple* t) const {
    auto it = inst_->engine_seeds_.find(p);
    return it != inst_->engine_seeds_.end() && it->second.count(t) > 0;
  }

  /// The distinct rules of one SCC plan (its versions share rule
  /// indices), in deterministic order.
  std::vector<uint32_t> SccRules(const SccPlan& plan) const {
    std::set<uint32_t> idx;
    for (const RuleVersion& v : plan.versions) idx.insert(v.rule_index);
    for (const RuleVersion& v : plan.once) idx.insert(v.rule_index);
    return std::vector<uint32_t>(idx.begin(), idx.end());
  }

  bool SccIsRecursive(const SccPlan& plan) const {
    std::unordered_set<PredRef, PredRefHash> members(plan.preds.begin(),
                                                     plan.preds.end());
    for (uint32_t ri : SccRules(plan)) {
      for (const Literal& lit : prog().rules[ri].body) {
        if (members.count(lit.pred_ref()) > 0) return true;
      }
    }
    return false;
  }

  /// True when some stored body predicate of the SCC has a pending delta.
  bool SccAffected(const SccPlan& plan) {
    for (uint32_t ri : SccRules(plan)) {
      for (const Literal& lit : prog().rules[ri].body) {
        if (!IsStored(lit)) continue;
        PredDelta* d = FindDelta(lit.pred_ref());
        if (d != nullptr && (!d->plus.empty() || !d->minus.empty())) {
          return true;
        }
      }
    }
    return false;
  }

  StatusOr<std::unique_ptr<GoalSource>> MakeStateSource(const Literal* lit,
                                                        BindEnv* env,
                                                        BodyState state);

  using HeadFn = std::function<Status(const Tuple*)>;

  /// Evaluates `rule` with body position `delta_pos` iterating `dlist`,
  /// positions before it in `before` state and after it in `after` state
  /// (the standard delta-join decomposition; delta_pos == -1 evaluates
  /// every position in `after`). Calls `on_head` with the resolved ground
  /// head tuple of each body solution.
  Status EvalRule(const Rule& rule, int delta_pos,
                  const std::vector<const Tuple*>* dlist, BodyState before,
                  BodyState after, const HeadFn& on_head);

  /// Builds support counts for every counting SCC against the
  /// reconstructed pre-update state. Must run before the pass mutates any
  /// internal relation. Live tuples with no counted derivation (engine
  /// artifacts) are pinned.
  Status BuildCounts();

  /// Creates (once per instance) the argument indexes the maintenance
  /// joins probe with. The evaluation-time planned indexes cover the
  /// planned join orders only; the pass's delta-first orders and the
  /// head-bound rederivation probes Select on other column sets, and an
  /// unindexed Select degenerates to a full scan per probe — turning
  /// every delta join O(relation).
  void EnsureProbeIndexes();

  Status ProcessCountingScc(const SccPlan& plan);
  Status ProcessRecursiveScc(size_t scc_idx);

  /// True when some rule of `plan` with head `p` re-derives `t` from the
  /// current live state.
  StatusOr<bool> Rederivable(const SccPlan& plan, const PredRef& p,
                             const Tuple* t);

  MaterializedInstance* inst_;
  Database* db_;
  UpdateResult* result_;

  std::unordered_map<PredRef, PredDelta, PredRefHash> deltas_;
  /// Pre-maintenance marks of every internal relation; the resumed
  /// fixpoint's delta windows and the final-delta scans start here.
  std::unordered_map<PredRef, Mark, PredRefHash> m0_;
  Trail trail_;
};

void MaintenancePass::EnsureProbeIndexes() {
  if (inst_->maintenance_indexes_built_) return;
  inst_->maintenance_indexes_built_ = true;
  // Requests an index on the columns of `lit` that are ground at probe
  // time given `bound` variables: constants and fully-bound terms.
  auto request = [&](const Literal& lit, const std::set<uint32_t>& bound) {
    if (!IsStored(lit)) return;
    std::vector<uint32_t> cols;
    for (size_t k = 0; k < lit.args.size(); ++k) {
      std::set<uint32_t> vars;
      CollectVars(lit.args[k], &vars);
      bool ground = true;
      for (uint32_t v : vars) ground = ground && bound.count(v) > 0;
      if (ground) cols.push_back(static_cast<uint32_t>(k));
    }
    if (cols.empty()) return;
    auto* hr = dynamic_cast<HashRelation*>(StoredRel(lit.pred_ref()));
    if (hr != nullptr) hr->AddArgumentIndex(std::move(cols));
  };
  for (const Rule& rule : prog().rules) {
    // Delta-first orders: the delta literal binds its variables, then
    // the remaining literals follow in body order (EvalRule).
    for (size_t di = 0; di < rule.body.size(); ++di) {
      if (!IsStored(rule.body[di])) continue;
      std::set<uint32_t> bound = VarsOfLiteral(rule.body[di]);
      for (size_t j = 0; j < rule.body.size(); ++j) {
        if (j == di) continue;
        request(rule.body[j], bound);
        for (uint32_t v : VarsOfLiteral(rule.body[j])) bound.insert(v);
      }
    }
    // Rederivation probes run the body in order with the head bound.
    std::set<uint32_t> head_bound;
    for (const Arg* a : rule.head.args) CollectVars(a, &head_bound);
    for (const Literal& lit : rule.body) {
      request(lit, head_bound);
      for (uint32_t v : VarsOfLiteral(lit)) head_bound.insert(v);
    }
  }
}

StatusOr<std::unique_ptr<GoalSource>> MaintenancePass::MakeStateSource(
    const Literal* lit, BindEnv* env, BodyState state) {
  if (!IsStored(*lit)) {
    // Builtin: state-independent.
    return inst_->MakeSource(lit, env, 0, kMaxMark);
  }
  PredRef p = lit->pred_ref();
  Relation* rel = StoredRel(p);
  PredDelta* d = FindDelta(p);
  const std::unordered_set<const Tuple*>* plus =
      (d != nullptr && !d->plus_set.empty()) ? &d->plus_set : nullptr;
  switch (state) {
    case BodyState::kNew:
      return std::unique_ptr<GoalSource>(
          std::make_unique<RelationGoalSource>(lit, env, rel, 0, kMaxMark));
    case BodyState::kMid:
      if (plus == nullptr) {
        return std::unique_ptr<GoalSource>(
            std::make_unique<RelationGoalSource>(lit, env, rel, 0, kMaxMark));
      }
      return std::unique_ptr<GoalSource>(
          std::make_unique<FilteredRelationGoalSource>(lit, env, rel, plus));
    case BodyState::kOld: {
      std::unique_ptr<GoalSource> mid;
      if (plus == nullptr) {
        mid = std::make_unique<RelationGoalSource>(lit, env, rel, 0, kMaxMark);
      } else {
        mid = std::make_unique<FilteredRelationGoalSource>(lit, env, rel, plus);
      }
      if (d == nullptr || d->minus.empty()) return mid;
      std::vector<std::unique_ptr<GoalSource>> parts;
      parts.push_back(std::move(mid));
      parts.push_back(
          std::make_unique<TupleListGoalSource>(lit, env, &d->minus));
      return std::unique_ptr<GoalSource>(
          std::make_unique<UnionGoalSource>(std::move(parts)));
    }
  }
  return Status::Internal("unreachable body state");
}

Status MaintenancePass::EvalRule(const Rule& rule, int delta_pos,
                                 const std::vector<const Tuple*>* dlist,
                                 BodyState before, BodyState after,
                                 const HeadFn& on_head) {
  BindEnv env(rule.var_count);
  // Delta-first join order: the delta list is the smallest input by far,
  // and leading with it binds its literal's variables so the remaining
  // positions Select with bound arguments (index probes instead of full
  // scans — the delta-join would otherwise cost O(relation) per pass).
  // Only the delta literal moves; the relative order of everything else
  // is preserved, so every literal still follows its original binders
  // (which is what keeps builtins evaluable).
  std::vector<size_t> order;
  order.reserve(rule.body.size());
  if (delta_pos >= 0) order.push_back(static_cast<size_t>(delta_pos));
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (static_cast<int>(i) != delta_pos) order.push_back(i);
  }
  std::vector<std::unique_ptr<GoalSource>> sources;
  sources.reserve(rule.body.size());
  for (size_t i : order) {
    const Literal& lit = rule.body[i];
    if (static_cast<int>(i) == delta_pos) {
      sources.push_back(
          std::make_unique<TupleListGoalSource>(&lit, &env, dlist));
    } else {
      BodyState state = static_cast<int>(i) < delta_pos ? before : after;
      CORAL_ASSIGN_OR_RETURN(std::unique_ptr<GoalSource> src,
                             MakeStateSource(&lit, &env, state));
      sources.push_back(std::move(src));
    }
  }
  RuleCursor cursor(std::move(sources),
                    std::vector<int>(rule.body.size(), -1),
                    /*intelligent_bt=*/false, &trail_);
  std::vector<TermRef> head_refs(rule.head.args.size());
  Status st;
  while (cursor.Next()) {
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      head_refs[i] = TermRef{rule.head.args[i], &env};
    }
    const Tuple* t = ResolveTuple(head_refs, db_->factory());
    if (t == nullptr || !t->IsGround()) {
      st = Status::Unsupported(
          "maintenance: non-ground derived tuple for " +
          rule.head.pred_ref().ToString());
      break;
    }
    st = on_head(t);
    if (!st.ok()) break;
  }
  cursor.UndoAll();
  if (!st.ok()) return st;
  return cursor.status();
}

Status MaintenancePass::BuildCounts() {
  inst_->support_counts_.clear();
  for (const SccPlan& plan : sccs()) {
    if (SccIsRecursive(plan)) continue;
    for (uint32_t ri : SccRules(plan)) {
      const Rule& rule = prog().rules[ri];
      PredRef h = rule.head.pred_ref();
      auto& counts = inst_->support_counts_[h];
      CORAL_RETURN_IF_ERROR(EvalRule(
          rule, /*delta_pos=*/-1, nullptr, BodyState::kOld, BodyState::kOld,
          [&counts](const Tuple* t) {
            ++counts[t];
            return Status::OK();
          }));
    }
    // Pin live tuples the counting pass cannot account for (engine-fed
    // facts): they must survive any sequence of decrements.
    for (const PredRef& p : plan.preds) {
      Relation* rel = inst_->internal(p);
      if (rel == nullptr) continue;
      const auto& counts = inst_->support_counts_[p];
      std::unique_ptr<TupleIterator> it = rel->Scan();
      while (const Tuple* t = it->Next()) {
        if (counts.find(t) == counts.end()) {
          inst_->engine_seeds_[p].insert(t);
        }
      }
    }
  }
  inst_->counts_valid_ = true;
  return Status::OK();
}

Status MaintenancePass::ProcessCountingScc(const SccPlan& plan) {
  // Phase 1: accumulate count deltas per head tuple. The delta join for
  // body position i sees positions j<i in the post-change state and j>i
  // in the pre-change state, so each lost/gained derivation is counted
  // exactly once across positions (the telescoping decomposition).
  std::unordered_map<PredRef,
                     std::unordered_map<const Tuple*, int64_t>, PredRefHash>
      dcounts;
  for (uint32_t ri : SccRules(plan)) {
    const Rule& rule = prog().rules[ri];
    PredRef h = rule.head.pred_ref();
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!IsStored(lit)) continue;
      PredDelta* d = FindDelta(lit.pred_ref());
      if (d == nullptr) continue;
      if (!d->minus.empty()) {
        CORAL_RETURN_IF_ERROR(EvalRule(
            rule, static_cast<int>(i), &d->minus, BodyState::kMid,
            BodyState::kOld, [&dcounts, &h](const Tuple* t) {
              --dcounts[h][t];
              return Status::OK();
            }));
      }
      if (!d->plus.empty()) {
        CORAL_RETURN_IF_ERROR(EvalRule(
            rule, static_cast<int>(i), &d->plus, BodyState::kNew,
            BodyState::kMid, [&dcounts, &h](const Tuple* t) {
              ++dcounts[h][t];
              return Status::OK();
            }));
      }
    }
  }

  // Phase 2: apply. Count transitions decide relation changes; the
  // resulting head deltas feed downstream SCCs.
  for (auto& [h, dc] : dcounts) {
    Relation* rel = inst_->internal(h);
    if (rel == nullptr) {
      return Status::Internal("maintenance: counting head " + h.ToString() +
                              " has no internal relation");
    }
    auto& counts = inst_->support_counts_[h];
    PredDelta& hd = DeltaFor(h);
    for (const auto& [t, delta] : dc) {
      if (delta == 0) continue;
      auto it = counts.find(t);
      int64_t old_count = it == counts.end() ? 0 : it->second;
      int64_t new_count = old_count + delta;
      bool pinned = Pinned(h, t);
      if (new_count < 0) {
        if (!pinned) {
          return Status::Internal("maintenance: support count underflow for " +
                                  h.ToString());
        }
        new_count = 0;
      }
      if (new_count == 0) {
        if (it != counts.end()) counts.erase(it);
      } else if (it != counts.end()) {
        it->second = new_count;
      } else {
        counts.emplace(t, new_count);
      }
      if (old_count > 0 && new_count == 0 && !pinned) {
        if (!rel->Delete(t)) {
          return Status::Internal("maintenance: counted tuple missing from " +
                                  h.ToString());
        }
        hd.minus.push_back(t);
        hd.minus_set.insert(t);
        ++result_->derived_deleted;
      } else if (old_count == 0 && new_count > 0) {
        if (rel->Insert(t)) {
          hd.plus.push_back(t);
          hd.plus_set.insert(t);
          ++result_->derived_inserted;
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<bool> MaintenancePass::Rederivable(const SccPlan& plan,
                                            const PredRef& p, const Tuple* t) {
  for (uint32_t ri : SccRules(plan)) {
    const Rule& rule = prog().rules[ri];
    if (!(rule.head.pred_ref() == p)) continue;
    BindEnv env(rule.var_count);
    BindEnv tuple_env(0);
    tuple_env.EnsureSize(t->var_count());
    Trail::Mark base = trail_.mark();
    if (!UnifyTupleWithLiteral(t, &tuple_env, rule.head, &env, &trail_)) {
      trail_.UndoTo(base);
      continue;
    }
    std::vector<std::unique_ptr<GoalSource>> sources;
    Status build;
    for (const Literal& lit : rule.body) {
      auto src = MakeStateSource(&lit, &env, BodyState::kNew);
      if (!src.ok()) {
        build = src.status();
        break;
      }
      sources.push_back(std::move(src).value());
    }
    if (!build.ok()) {
      trail_.UndoTo(base);
      return build;
    }
    RuleCursor cursor(std::move(sources),
                      std::vector<int>(rule.body.size(), -1),
                      /*intelligent_bt=*/false, &trail_);
    bool found = cursor.Next();
    Status st = cursor.status();
    cursor.UndoAll();
    trail_.UndoTo(base);
    if (!st.ok()) return st;
    if (found) return true;
  }
  return false;
}

Status MaintenancePass::ProcessRecursiveScc(size_t scc_idx) {
  const SccPlan& plan = sccs()[scc_idx];
  std::unordered_set<PredRef, PredRefHash> members(plan.preds.begin(),
                                                   plan.preds.end());
  std::vector<uint32_t> rules = SccRules(plan);

  // Phase 1 (DRed overestimate): every derivation that used a deleted
  // tuple marks its head as a deletion candidate; candidates cascade
  // through same-SCC rules over the pre-update state until stable.
  std::unordered_map<PredRef, std::unordered_set<const Tuple*>, PredRefHash>
      cand;
  std::unordered_map<PredRef, std::vector<const Tuple*>, PredRefHash> frontier;
  auto add_candidate = [&](const PredRef& h, Relation* hrel, const Tuple* t) {
    if (Pinned(h, t)) return;
    if (!hrel->Contains(t)) return;
    if (!cand[h].insert(t).second) return;
    frontier[h].push_back(t);
  };
  for (uint32_t ri : rules) {
    const Rule& rule = prog().rules[ri];
    PredRef h = rule.head.pred_ref();
    Relation* hrel = inst_->internal(h);
    if (hrel == nullptr) continue;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!IsStored(lit)) continue;
      PredRef p = lit.pred_ref();
      if (members.count(p) > 0) continue;  // same-SCC deltas cascade below
      PredDelta* d = FindDelta(p);
      if (d == nullptr || d->minus.empty()) continue;
      CORAL_RETURN_IF_ERROR(EvalRule(
          rule, static_cast<int>(i), &d->minus, BodyState::kOld,
          BodyState::kOld, [&](const Tuple* t) {
            add_candidate(h, hrel, t);
            return Status::OK();
          }));
    }
  }
  while (!frontier.empty()) {
    auto cur = std::move(frontier);
    frontier.clear();
    for (uint32_t ri : rules) {
      const Rule& rule = prog().rules[ri];
      PredRef h = rule.head.pred_ref();
      Relation* hrel = inst_->internal(h);
      if (hrel == nullptr) continue;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Literal& lit = rule.body[i];
        if (!IsStored(lit)) continue;
        PredRef p = lit.pred_ref();
        if (members.count(p) == 0) continue;
        auto fit = cur.find(p);
        if (fit == cur.end() || fit->second.empty()) continue;
        CORAL_RETURN_IF_ERROR(EvalRule(
            rule, static_cast<int>(i), &fit->second, BodyState::kOld,
            BodyState::kOld, [&](const Tuple* t) {
              add_candidate(h, hrel, t);
              return Status::OK();
            }));
      }
    }
  }

  // Phase 2: delete the overestimate.
  std::unordered_map<PredRef, std::vector<const Tuple*>, PredRefHash> deleted;
  std::unordered_map<PredRef, std::unordered_set<const Tuple*>, PredRefHash>
      deleted_set;
  for (auto& [p, set] : cand) {
    Relation* rel = inst_->internal(p);
    for (const Tuple* t : set) {
      if (rel->Delete(t)) {
        deleted[p].push_back(t);
        deleted_set[p].insert(t);
      }
    }
  }

  // Phase 3: rederive. A candidate with an alternative derivation from
  // the post-deletion state is re-inserted; its re-insertion lands above
  // m0 and seeds the resumed fixpoint, which closes transitive
  // rederivations.
  for (auto& [p, vec] : deleted) {
    Relation* rel = inst_->internal(p);
    for (const Tuple* t : vec) {
      CORAL_ASSIGN_OR_RETURN(bool again, Rederivable(plan, p, t));
      if (again) {
        rel->Insert(t);
        ++result_->rederived;
      }
    }
  }

  // Phase 4: base-predicate insertions. Internal-predicate insertions
  // ride the delta windows of the resumed fixpoint (save modules compile
  // every internal literal with a delta version), but base predicates
  // have no delta versions — join their new tuples in explicitly.
  for (uint32_t ri : rules) {
    const Rule& rule = prog().rules[ri];
    PredRef h = rule.head.pred_ref();
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (!IsStored(lit)) continue;
      PredRef p = lit.pred_ref();
      if (inst_->internal(p) != nullptr) continue;
      PredDelta* d = FindDelta(p);
      if (d == nullptr || d->plus.empty()) continue;
      CORAL_RETURN_IF_ERROR(EvalRule(
          rule, static_cast<int>(i), &d->plus, BodyState::kNew,
          BodyState::kMid, [&](const Tuple* t) {
            inst_->HeadInsert(h, t);
            return Status::OK();
          }));
    }
  }

  // Phase 5: close the insertions transitively with a delta-first
  // semi-naive loop over the pass's own state sources. Rederivations,
  // kicked insertions, and lower-stratum internal deltas all sit above
  // their relations' pre-maintenance marks; each round joins exactly
  // that window (the frontier) against the live state, so the cost
  // scales with the delta, not the instance (the engine's own
  // RunIteration walks its planned join orders, which are not
  // delta-first and re-scan whole base relations per iteration). Set
  // semantics make the all-live evaluation safe: a derivation using two
  // new tuples is found from either one's frontier, and duplicates die
  // in the relation insert.
  std::unordered_set<PredRef, PredRefHash> touched;
  for (uint32_t ri : rules) {
    const Rule& rule = prog().rules[ri];
    if (inst_->internal(rule.head.pred_ref()) != nullptr) {
      touched.insert(rule.head.pred_ref());
    }
    for (const Literal& lit : rule.body) {
      if (inst_->internal(lit.pred_ref()) != nullptr) {
        touched.insert(lit.pred_ref());
      }
    }
  }
  std::unordered_map<PredRef, Mark, PredRefHash> start;
  for (const PredRef& p : touched) start[p] = m0_[p];
  while (true) {
    std::unordered_map<PredRef, std::vector<const Tuple*>, PredRefHash>
        front;
    for (const PredRef& p : touched) {
      Relation* rel = inst_->internal(p);
      std::unordered_set<const Tuple*> seen;
      std::unique_ptr<TupleIterator> it =
          rel->ScanRange(start[p], kMaxMark);
      while (const Tuple* t = it->Next()) {
        if (seen.insert(t).second) front[p].push_back(t);
      }
      start[p] = rel->Snapshot();  // round inserts land above this
    }
    if (front.empty()) break;
    ++inst_->stats_.iterations;
    for (uint32_t ri : rules) {
      const Rule& rule = prog().rules[ri];
      PredRef h = rule.head.pred_ref();
      if (inst_->internal(h) == nullptr) continue;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        auto fit = front.find(rule.body[i].pred_ref());
        if (fit == front.end() || !IsStored(rule.body[i])) continue;
        CORAL_RETURN_IF_ERROR(EvalRule(
            rule, static_cast<int>(i), &fit->second, BodyState::kNew,
            BodyState::kNew, [&](const Tuple* t) {
              inst_->HeadInsert(h, t);
              return Status::OK();
            }));
      }
    }
  }

  // Phase 6: net per-predicate deltas for downstream SCCs. Everything
  // stored above m0 and not deleted is a net insertion; a deleted tuple
  // that never came back is a net deletion.
  for (const PredRef& p : plan.preds) {
    Relation* rel = inst_->internal(p);
    if (rel == nullptr) continue;
    PredDelta& pd = DeltaFor(p);
    const auto& dset = deleted_set[p];
    std::unordered_set<const Tuple*> seen;
    std::unique_ptr<TupleIterator> it = rel->ScanRange(m0_[p], kMaxMark);
    while (const Tuple* t = it->Next()) {
      if (!seen.insert(t).second) continue;
      if (dset.count(t) > 0) continue;  // deleted then rederived: no change
      pd.plus.push_back(t);
      pd.plus_set.insert(t);
    }
    for (const Tuple* t : deleted[p]) {
      if (!rel->Contains(t)) {
        pd.minus.push_back(t);
        pd.minus_set.insert(t);
      }
    }
    result_->derived_inserted += pd.plus.size();
    result_->derived_deleted += pd.minus.size();
  }
  return Status::OK();
}

Status MaintenancePass::Run(const UpdateDelta& delta) {
  // Import the base-relation deltas.
  for (const auto& [p, vec] : delta.minus) {
    PredDelta& d = DeltaFor(p);
    d.minus = vec;
    d.minus_set.insert(vec.begin(), vec.end());
  }
  for (const auto& [p, vec] : delta.plus) {
    PredDelta& d = DeltaFor(p);
    d.plus = vec;
    d.plus_set.insert(vec.begin(), vec.end());
  }

  // Snapshot every internal relation before any mutation: the resumed
  // fixpoint and the final-delta scans both anchor here.
  for (const auto& [p, rel] : inst_->internal_) {
    m0_[p] = rel->Snapshot();
  }

  EnsureProbeIndexes();

  // Support counts are built lazily, against the reconstructed pre-update
  // state, before the pass mutates anything. They persist across
  // successful passes; a new magic seed drops them (Seed()).
  if (!inst_->counts_valid_) {
    CORAL_RETURN_IF_ERROR(BuildCounts());
  }

  for (size_t s = 0; s < sccs().size(); ++s) {
    const SccPlan& plan = sccs()[s];
    if (!SccAffected(plan)) continue;
    if (SccIsRecursive(plan)) {
      CORAL_RETURN_IF_ERROR(ProcessRecursiveScc(s));
    } else {
      CORAL_RETURN_IF_ERROR(ProcessCountingScc(plan));
    }
  }
  return Status::OK();
}

bool MaterializedInstance::CanMaintain() const {
  if (!complete_ || in_step_) return false;
  if (prog_->ordered_search || decl_->explain) return false;
  if (decl_->fixpoint != FixpointKind::kBasicSemiNaive) return false;
  if (!decl_->agg_selections.empty()) return false;
  if (!decl_->multiset_preds.empty()) return false;
  for (const SccPlan& scc : prog_->seminaive.sccs) {
    for (const RuleVersion& v : scc.versions) {
      if (v.is_aggregate) return false;
    }
    for (const RuleVersion& v : scc.once) {
      if (v.is_aggregate) return false;
    }
  }
  for (const auto& [p, rel] : internal_) {
    if (rel->multiset() || !rel->selections().empty()) return false;
  }
  for (const Rule& r : prog_->rules) {
    for (const Literal& lit : r.body) {
      if (lit.negated) return false;
      PredRef p = lit.pred_ref();
      if (internal_.count(p) > 0) continue;
      const std::string& name = p.sym->name;
      if (db_->builtins()->Find(name, p.arity) != nullptr) {
        if (IsSideEffectingBuiltin(name)) return false;
        continue;
      }
      if (db_->modules()->Exports(p)) return false;
      if (!db_->modules()->LocalOwner(p).empty()) return false;
      Relation* base = db_->FindBaseRelation(p);
      if (base != nullptr) {
        if (base->multiset() || !base->selections().empty()) return false;
        if (dynamic_cast<MemoryRelation*>(base) == nullptr) return false;
      }
    }
  }
  return true;
}

Status MaterializedInstance::Maintain(const UpdateDelta& delta,
                                      UpdateResult* result) {
  CORAL_CHECK(complete_ && !in_step_);
  trace_ = db_->trace_sink();
  MaintenancePass pass(this, result);
  Status st = pass.Run(delta);
  if (!st.ok()) counts_valid_ = false;
  return st;
}

}  // namespace coral
