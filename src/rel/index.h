// Copyright (c) 1993-style CORAL reproduction authors.
// In-memory hash index structures (paper §3.3, §5.5.1). Two forms:
//
//  1. Argument-form: a multi-attribute hash index on a subset of columns.
//     The hash function works on ground terms; any stored key containing
//     a variable is hashed to a special `var` bucket, which every lookup
//     also returns (the paper's scheme verbatim).
//  2. Pattern-form: an index on a term pattern that may contain variables,
//     e.g. @make_index emp(Name, addr(Street, City))(Name, City) — lets
//     retrieval drill into complex functor terms without knowing the
//     Street.
//
// Indices compose with marks (paper §3.2: "the indexing mechanisms are
// used on each subsidiary relation"): every posting records the
// subsidiary relation it belongs to, kept in insertion (= subsidiary)
// order so a mark-range lookup is a binary search within each bucket —
// O(log n + matches) regardless of how many mark intervals exist.

#ifndef CORAL_REL_INDEX_H_
#define CORAL_REL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/data/bindenv.h"
#include "src/data/tuple.h"

namespace coral {

/// One indexed tuple occurrence.
struct Posting {
  uint32_t sub;
  const Tuple* tuple;
};

/// Base of the two index forms. `sub` is the subsidiary relation number a
/// tuple was inserted into; lookups are restricted to a subsidiary range
/// so deltas stay indexed. Deleted occurrences are filtered by the
/// relation against each posting's subsidiary (tombstone boundaries,
/// src/rel/tombstones.h), not by the index.
class Index {
 public:
  virtual ~Index() = default;

  /// Registers a stored tuple (inserted into subsidiary `sub`). `sub`
  /// values are non-decreasing across calls.
  virtual void Add(const Tuple* t, uint32_t sub) = 0;

  /// If the index can serve `pattern` (one TermRef per column), appends a
  /// candidate superset of the unifying occurrences in subsidiaries
  /// [from, to) to `out` and returns true; returns false when not
  /// applicable.
  virtual bool TryLookup(std::span<const TermRef> pattern, uint32_t from,
                         uint32_t to, std::vector<Posting>* out) = 0;

  /// Selectivity rank for index choice: higher = more selective.
  virtual int key_width() const = 0;
};

/// Hash buckets shared by both index forms: per-key posting lists plus
/// the `var` bucket for keys containing variables, all in subsidiary
/// order.
struct IndexBuckets {
  std::unordered_map<uint64_t, std::vector<Posting>> by_key;
  std::vector<Posting> var_bucket;

  /// Appends postings with from <= sub < to for `key` plus the var
  /// bucket's range.
  void AppendRange(uint64_t key, uint32_t from, uint32_t to,
                   std::vector<Posting>* out) const;
};

/// Argument-form index on columns `cols`.
class ArgumentIndex : public Index {
 public:
  explicit ArgumentIndex(std::vector<uint32_t> cols) : cols_(std::move(cols)) {}

  void Add(const Tuple* t, uint32_t sub) override;
  bool TryLookup(std::span<const TermRef> pattern, uint32_t from, uint32_t to,
                 std::vector<Posting>* out) override;
  int key_width() const override { return static_cast<int>(cols_.size()); }

  /// TryLookup without the Index interface's non-const signature, for
  /// indexes shared read-only between threads (FrozenIndexes).
  bool LookupPattern(std::span<const TermRef> pattern, uint32_t from,
                     uint32_t to, std::vector<Posting>* out) const;

  /// Probe with a pre-resolved ground key, one Arg per indexed column in
  /// cols() order (the bytecode VM's path: no TermRef/BindEnv plumbing).
  /// Appends the candidate superset for subsidiaries [from, to),
  /// var-bucket postings included.
  void LookupGround(std::span<const Arg* const> key, uint32_t from,
                    uint32_t to, std::vector<Posting>* out) const;

  const std::vector<uint32_t>& cols() const { return cols_; }

 private:
  std::vector<uint32_t> cols_;
  IndexBuckets buckets_;
};

/// Pattern-form index: `pattern` holds one term per column (canonical
/// variable slots 0..var_count-1); `key_slots` are the slots of the
/// indexed pattern variables. A stored tuple that cannot unify with the
/// pattern is excluded entirely (no query served by this index can match
/// it); tuples whose key positions are non-ground go to the var bucket.
class PatternIndex : public Index {
 public:
  PatternIndex(std::vector<const Arg*> pattern, uint32_t var_count,
               std::vector<uint32_t> key_slots)
      : pattern_(std::move(pattern)),
        var_count_(var_count),
        key_slots_(std::move(key_slots)) {}

  void Add(const Tuple* t, uint32_t sub) override;
  bool TryLookup(std::span<const TermRef> pattern, uint32_t from, uint32_t to,
                 std::vector<Posting>* out) override;
  int key_width() const override {
    return static_cast<int>(key_slots_.size());
  }

 private:
  std::vector<const Arg*> pattern_;
  uint32_t var_count_;
  std::vector<uint32_t> key_slots_;
  IndexBuckets buckets_;
};

}  // namespace coral

#endif  // CORAL_REL_INDEX_H_
