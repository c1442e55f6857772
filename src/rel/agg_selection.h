// Copyright (c) 1993-style CORAL reproduction authors.
// Aggregate selections (paper §5.5.2): run-time pruning constraints of the
// form  @aggregate_selection p(X,Y,P,C) (X,Y) min(C).
// When a tuple is inserted, tuples in the same group (same X,Y) are
// compared on the aggregated argument: with min, a costlier fact is
// discarded (either the incoming one or previously stored ones). The
// `any` aggregate retains a single witness per group. This is what makes
// the paper's shortest-path program terminate and run in O(E·V).

#ifndef CORAL_REL_AGG_SELECTION_H_
#define CORAL_REL_AGG_SELECTION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/data/arg.h"
#include "src/data/tuple.h"

namespace coral {

class Relation;

/// One @aggregate_selection constraint attached to a relation.
class AggregateSelection {
 public:
  enum class Kind { kMin, kMax, kAny };

  /// `pattern` are the declaration's argument terms p(X,Y,P,C) using
  /// canonical variable slots 0..var_count-1; `group_args` the terms of
  /// the grouping list (typically plain variables); `agg_arg` the
  /// aggregated variable (ignored for kAny, may be null).
  AggregateSelection(Kind kind, std::vector<const Arg*> pattern,
                     uint32_t var_count, std::vector<const Arg*> group_args,
                     const Arg* agg_arg)
      : kind_(kind),
        pattern_(std::move(pattern)),
        var_count_(var_count),
        group_args_(std::move(group_args)),
        agg_arg_(agg_arg) {}

  Kind kind() const { return kind_; }

  /// True if `o` states the same constraint (kind, pattern, grouping and
  /// aggregated terms, structurally equal); its group table is ignored.
  bool SameConstraint(const AggregateSelection& o) const;

  /// Decision for an insert attempt.
  struct Decision {
    bool admit = true;                      // insert the new tuple?
    std::vector<const Tuple*> to_delete;    // dominated stored tuples
  };

  /// Evaluates the constraint for `t` against the group table. Does not
  /// mutate state; call Admit/Remove afterwards to keep the table in sync.
  Decision Check(const Tuple* t) const;

  /// Records `t` as stored (call after a successful insert).
  void Admit(const Tuple* t);

  /// Removes `t` from the group table (call when deleted).
  void Remove(const Tuple* t);

 private:
  /// Extracts the group key hash and the aggregated value for `t`.
  /// Returns false if the tuple does not match the pattern (then the
  /// selection does not constrain it).
  bool Extract(const Tuple* t, uint64_t* group_hash,
               std::vector<const Arg*>* group_vals, const Arg** agg_val) const;

  Kind kind_;
  std::vector<const Arg*> pattern_;
  uint32_t var_count_;
  std::vector<const Arg*> group_args_;
  const Arg* agg_arg_;

  struct GroupEntry {
    std::vector<const Arg*> group_vals;
    std::vector<const Tuple*> tuples;
  };
  // group hash -> entries (collision list).
  std::unordered_map<uint64_t, std::vector<GroupEntry>> groups_;
};

}  // namespace coral

#endif  // CORAL_REL_AGG_SELECTION_H_
