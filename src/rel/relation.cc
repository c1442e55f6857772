#include "src/rel/relation.h"

#include "src/data/unify.h"
#include "src/util/logging.h"

namespace coral {

const Status& TupleIterator::status() const {
  static const Status kOk;
  return kOk;
}

bool Relation::Insert(const Tuple* t) {
  CORAL_CHECK_EQ(t->arity(), arity_) << " relation " << name_;
  // Storage-backed relations can refuse (unstorable tuple, read-only or
  // failed storage); refuse the insert rather than abort the process.
  if (!ValidateInsert(t).ok()) return false;
  // Duplicate / subsumption check (paper §4.2: the default is to do
  // subsumption checks on all relations; multisets skip them).
  if (!multiset_ && Contains(t)) return false;
  std::vector<const Tuple*> doomed;
  for (const auto& sel : selections_) {
    AggregateSelection::Decision d = sel->Check(t);
    if (!d.admit) return false;
    doomed.insert(doomed.end(), d.to_delete.begin(), d.to_delete.end());
  }
  for (const Tuple* dt : doomed) Delete(dt);
  DoInsert(t);
  for (const auto& sel : selections_) sel->Admit(t);
  return true;
}

void Relation::AddAggregateSelection(std::unique_ptr<AggregateSelection> sel) {
  for (const auto& have : selections_) {
    if (have->SameConstraint(*sel)) return;
  }
  selections_.push_back(std::move(sel));
}

bool Relation::Delete(const Tuple* t) {
  if (!DoDelete(t)) return false;
  for (const auto& sel : selections_) sel->Remove(t);
  return true;
}

size_t Relation::DeleteMatching(const Tuple* pattern,
                                std::vector<const Tuple*>* removed) {
  std::vector<const Tuple*> doomed;
  if (pattern->IsGround()) {
    doomed.push_back(pattern);
  } else {
    std::unique_ptr<TupleIterator> it = Scan();
    while (const Tuple* t = it->Next()) {
      if (SubsumesTuple(pattern, t)) doomed.push_back(t);
    }
  }
  size_t n = 0;
  for (const Tuple* t : doomed) {
    if (!Delete(t)) continue;
    ++n;
    if (removed != nullptr) removed->push_back(t);
  }
  return n;
}

}  // namespace coral
