#include "src/rel/index.h"

#include <algorithm>

#include "src/data/unify.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace coral {

namespace {

constexpr uint64_t kKeySeed = 0x1dec5ull;

void AppendPostings(const std::vector<Posting>& postings, uint32_t from,
                    uint32_t to, std::vector<Posting>* out) {
  // Postings are in non-decreasing `sub` order: binary search the range.
  auto lo = std::lower_bound(
      postings.begin(), postings.end(), from,
      [](const Posting& p, uint32_t s) { return p.sub < s; });
  for (auto it = lo; it != postings.end() && it->sub < to; ++it) {
    out->push_back(*it);
  }
}

}  // namespace

void IndexBuckets::AppendRange(uint64_t key, uint32_t from, uint32_t to,
                               std::vector<Posting>* out) const {
  auto it = by_key.find(key);
  if (it != by_key.end()) AppendPostings(it->second, from, to, out);
  AppendPostings(var_bucket, from, to, out);
}

void ArgumentIndex::Add(const Tuple* t, uint32_t sub) {
  uint64_t key = kKeySeed;
  bool ground = true;
  for (uint32_t c : cols_) {
    CORAL_DCHECK(c < t->arity());
    const Arg* v = t->arg(c);
    if (!v->IsGround()) {
      ground = false;
      break;
    }
    key = HashCombine(key, v->Hash());
  }
  if (ground) {
    buckets_.by_key[key].push_back(Posting{sub, t});
  } else {
    buckets_.var_bucket.push_back(Posting{sub, t});
  }
}

bool ArgumentIndex::TryLookup(std::span<const TermRef> pattern, uint32_t from,
                              uint32_t to, std::vector<Posting>* out) {
  return LookupPattern(pattern, from, to, out);
}

bool ArgumentIndex::LookupPattern(std::span<const TermRef> pattern,
                                  uint32_t from, uint32_t to,
                                  std::vector<Posting>* out) const {
  uint64_t key = kKeySeed;
  for (uint32_t c : cols_) {
    if (c >= pattern.size()) return false;
    uint64_t h;
    if (!HashResolvedTerm(pattern[c].term, pattern[c].env, &h)) {
      return false;  // key column not ground in the query
    }
    key = HashCombine(key, h);
  }
  buckets_.AppendRange(key, from, to, out);
  return true;
}

void ArgumentIndex::LookupGround(std::span<const Arg* const> key,
                                 uint32_t from, uint32_t to,
                                 std::vector<Posting>* out) const {
  CORAL_DCHECK(key.size() == cols_.size());
  uint64_t k = kKeySeed;
  for (const Arg* a : key) {
    CORAL_DCHECK(a->IsGround());
    k = HashCombine(k, a->Hash());
  }
  buckets_.AppendRange(k, from, to, out);
}

void PatternIndex::Add(const Tuple* t, uint32_t sub) {
  BindEnv pat_env(var_count_);
  BindEnv tup_env(t->var_count());
  Trail trail;
  bool unifies = true;
  CORAL_DCHECK(pattern_.size() == t->arity());
  for (size_t i = 0; i < pattern_.size() && unifies; ++i) {
    unifies = Unify(pattern_[i], &pat_env, t->arg(i), &tup_env, &trail);
  }
  if (!unifies) return;  // excluded: cannot match any query of this index

  uint64_t key = kKeySeed;
  bool ground = true;
  for (uint32_t slot : key_slots_) {
    uint64_t h;
    const Binding& b = pat_env.binding(slot);
    if (!b.bound() || !HashResolvedTerm(b.value, b.env, &h)) {
      ground = false;
      break;
    }
    key = HashCombine(key, h);
  }
  if (ground) {
    buckets_.by_key[key].push_back(Posting{sub, t});
  } else {
    buckets_.var_bucket.push_back(Posting{sub, t});
  }
}

bool PatternIndex::TryLookup(std::span<const TermRef> pattern, uint32_t from,
                             uint32_t to, std::vector<Posting>* out) {
  if (pattern.size() != pattern_.size()) return false;
  BindEnv pat_env(var_count_);
  // Query variables must not acquire bindings here: unify into a scratch
  // trail and undo before returning.
  Trail trail;
  bool unifies = true;
  for (size_t i = 0; i < pattern.size() && unifies; ++i) {
    unifies = Unify(pattern_[i], &pat_env, pattern[i].term, pattern[i].env,
                    &trail);
  }
  if (!unifies) {
    // The query cannot match the index pattern; tuples excluded from this
    // index may still unify with the query, so the index is unusable.
    trail.UndoTo(0);
    return false;
  }
  uint64_t key = kKeySeed;
  bool ground = true;
  for (uint32_t slot : key_slots_) {
    uint64_t h;
    const Binding& b = pat_env.binding(slot);
    if (!b.bound() || !HashResolvedTerm(b.value, b.env, &h)) {
      ground = false;
      break;
    }
    key = HashCombine(key, h);
  }
  trail.UndoTo(0);
  if (!ground) return false;  // key not determined by the query
  buckets_.AppendRange(key, from, to, out);
  return true;
}

}  // namespace coral
