#include "src/rel/agg_selection.h"

#include <algorithm>

#include "src/data/bindenv.h"
#include "src/data/unify.h"
#include "src/util/hash.h"

namespace coral {

bool AggregateSelection::Extract(const Tuple* t, uint64_t* group_hash,
                                 std::vector<const Arg*>* group_vals,
                                 const Arg** agg_val) const {
  if (t->arity() != pattern_.size()) return false;
  BindEnv pat_env(var_count_);
  BindEnv tup_env(t->var_count());
  Trail trail;
  for (size_t i = 0; i < pattern_.size(); ++i) {
    if (!Match(pattern_[i], &pat_env, t->arg(i), &tup_env, &trail)) {
      return false;
    }
  }
  group_vals->clear();
  uint64_t h = 0x96015ull;
  for (const Arg* g : group_args_) {
    TermRef r = Deref(g, &pat_env);
    // Group positions bound to non-ground values hash structurally
    // (variables all alike); equality below is structural too.
    group_vals->push_back(r.term);
    h = HashCombine(h, r.term->Hash());
  }
  *group_hash = h;
  if (agg_arg_ != nullptr) {
    *agg_val = Deref(agg_arg_, &pat_env).term;
  } else {
    *agg_val = nullptr;
  }
  return true;
}

namespace {

bool SameTerm(const Arg* a, const Arg* b) {
  return a == b || (a != nullptr && b != nullptr && a->Equals(*b));
}

bool SameGroup(const std::vector<const Arg*>& a,
               const std::vector<const Arg*>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameTerm(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

bool AggregateSelection::SameConstraint(const AggregateSelection& o) const {
  return kind_ == o.kind_ && var_count_ == o.var_count_ &&
         SameGroup(pattern_, o.pattern_) &&
         SameGroup(group_args_, o.group_args_) &&
         SameTerm(agg_arg_, o.agg_arg_);
}

AggregateSelection::Decision AggregateSelection::Check(const Tuple* t) const {
  Decision d;
  uint64_t gh;
  std::vector<const Arg*> gvals;
  const Arg* agg = nullptr;
  if (!Extract(t, &gh, &gvals, &agg)) return d;  // unconstrained

  auto it = groups_.find(gh);
  if (it == groups_.end()) return d;
  const GroupEntry* entry = nullptr;
  for (const GroupEntry& e : it->second) {
    if (SameGroup(e.group_vals, gvals)) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr || entry->tuples.empty()) return d;

  if (kind_ == Kind::kAny) {
    // A witness already exists for this group: reject the newcomer.
    d.admit = false;
    return d;
  }

  // min/max: compare against any stored representative. All stored tuples
  // in the group carry the same aggregate value after pruning? No — they
  // may differ if equal under the order; compare against all.
  for (const Tuple* stored : entry->tuples) {
    uint64_t sh;
    std::vector<const Arg*> sgv;
    const Arg* sagg = nullptr;
    bool ok = Extract(stored, &sh, &sgv, &sagg);
    if (!ok || sagg == nullptr || agg == nullptr) continue;
    int c = CompareArgs(agg, sagg);
    bool new_is_worse = kind_ == Kind::kMin ? c > 0 : c < 0;
    bool stored_is_worse = kind_ == Kind::kMin ? c < 0 : c > 0;
    if (new_is_worse) {
      d.admit = false;
      d.to_delete.clear();
      return d;
    }
    if (stored_is_worse) d.to_delete.push_back(stored);
  }
  return d;
}

void AggregateSelection::Admit(const Tuple* t) {
  uint64_t gh;
  std::vector<const Arg*> gvals;
  const Arg* agg = nullptr;
  if (!Extract(t, &gh, &gvals, &agg)) return;
  auto& entries = groups_[gh];
  for (GroupEntry& e : entries) {
    if (SameGroup(e.group_vals, gvals)) {
      e.tuples.push_back(t);
      return;
    }
  }
  entries.push_back(GroupEntry{std::move(gvals), {t}});
}

void AggregateSelection::Remove(const Tuple* t) {
  uint64_t gh;
  std::vector<const Arg*> gvals;
  const Arg* agg = nullptr;
  if (!Extract(t, &gh, &gvals, &agg)) return;
  auto it = groups_.find(gh);
  if (it == groups_.end()) return;
  for (GroupEntry& e : it->second) {
    if (SameGroup(e.group_vals, gvals)) {
      auto pos = std::find(e.tuples.begin(), e.tuples.end(), t);
      if (pos != e.tuples.end()) e.tuples.erase(pos);
      return;
    }
  }
}

}  // namespace coral
