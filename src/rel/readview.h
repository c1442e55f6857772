// Copyright (c) 1993-style CORAL reproduction authors.
// Epoch snapshots of shared base relations for the multi-client query
// server: a writer commit (Database::Consult / InsertFact / DeleteFacts)
// publishes, per dirty relation, an immutable RelReadTable — the frozen
// subsidiary organization (paper §3.2 marks) plus a copy-on-write
// tombstone set. Reader threads install a ReadView (the set of published
// tables at one epoch) for the duration of a query; every relation access
// the evaluation makes on a shared base relation is served from the view,
// so concurrent commits are invisible until the session refreshes. Tables
// are retained by their relation until it is destroyed, so a view
// outlives any number of later commits. Each view also carries, per
// table, the argument indexes its readers probe (FrozenIndexes): built
// on first use over the frozen table, shared with later views that keep
// the same table, and freed with the last view that holds them.

#ifndef CORAL_REL_READVIEW_H_
#define CORAL_REL_READVIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/rel/index.h"
#include "src/rel/tombstones.h"
#include "src/util/sync.h"

namespace coral {

class Relation;
class Tuple;

/// One relation's frozen state at a publication epoch. `subs` points at
/// the tuple vectors of the relation's CLOSED subsidiaries (append-only,
/// immutable once closed); `tail` is a copy of the open subsidiary taken
/// at publication. Subsidiary k of the snapshot is subs[k] for
/// k < subs.size() and `tail` for k == subs.size(), preserving mark
/// arithmetic. Tombstones are snapshotted wholesale (the boundary map
/// mutates in place on deletion); an occurrence is dead iff its
/// subsidiary is below the tuple's boundary (src/rel/tombstones.h).
struct RelReadTable {
  std::vector<const std::vector<const Tuple*>*> subs;
  std::vector<const Tuple*> tail;
  std::shared_ptr<const TombstoneMap> tombstones;
  uint64_t epoch = 0;

  /// Number of subsidiaries the snapshot covers (closed ones + the tail).
  uint32_t sub_count() const {
    return static_cast<uint32_t>(subs.size()) + 1;
  }
  const std::vector<const Tuple*>& sub(uint32_t k) const {
    return k < subs.size() ? *subs[k] : tail;
  }
  bool IsDeleted(const Tuple* t, uint32_t sub) const {
    return tombstones != nullptr && TombstonedAt(*tombstones, t, sub);
  }
};

/// Argument indexes over one published table, for the snapshot readers
/// of every view that holds the table (paper §3.2: "the indexing
/// mechanisms are used on each subsidiary relation"). An index is built
/// on the first probe of its column list, over exactly the table's
/// subsidiaries and tail with its tombstoned occurrences left out, so it
/// never shows a later commit. Nothing is built at publication.
///
/// Readers find built indexes without a lock: the list of indexes is
/// immutable once published (release store, acquire load); a build
/// publishes a longer copy and keeps the old lists alive, since readers
/// may still walk them. Only a build takes mu_.
class FrozenIndexes {
 public:
  explicit FrozenIndexes(const RelReadTable* table) : table_(table) {}
  FrozenIndexes(const FrozenIndexes&) = delete;
  FrozenIndexes& operator=(const FrozenIndexes&) = delete;

  /// The indexes built so far.
  std::span<const ArgumentIndex* const> Built() const {
    return *lists_.load(std::memory_order_acquire);
  }

  /// The index on exactly `cols`, built on first use.
  const ArgumentIndex* For(std::span<const uint32_t> cols);

 private:
  using List = std::vector<const ArgumentIndex*>;

  const RelReadTable* table_;
  const List empty_;
  std::atomic<const List*> lists_{&empty_};
  Mutex mu_{kRankFrozenIndex};
  std::vector<std::unique_ptr<ArgumentIndex>> owned_ CORAL_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<const List>> published_ CORAL_GUARDED_BY(mu_);
};

/// The set of published tables one query evaluates against. Relations
/// absent from the map either are not shared base relations (module-
/// internal relations always read live state) or did not exist at the
/// view's epoch (they read as empty via the snapshot paths only when
/// marked shared).
struct ReadView {
  struct Entry {
    const RelReadTable* table = nullptr;
    std::shared_ptr<FrozenIndexes> indexes;
  };

  uint64_t epoch = 0;
  std::unordered_map<const Relation*, Entry> tables;

  const Entry* EntryFor(const Relation* rel) const {
    auto it = tables.find(rel);
    return it == tables.end() ? nullptr : &it->second;
  }

  /// Adds `rel`'s published `table`. When `prev` (the previous view)
  /// holds the same table, its frozen indexes are shared rather than
  /// rebuilt; otherwise the table starts with none. Builds nothing.
  void Add(const Relation* rel, const RelReadTable* table,
           const ReadView* prev);
};

/// The view installed on the calling thread, or nullptr (live reads —
/// the single-user default). Relations consult this in their read paths.
const ReadView* ActiveReadView();

/// RAII installer for the calling thread's view; restores the previous
/// one (views nest, e.g. a session query that triggers a module call).
class ScopedReadView {
 public:
  explicit ScopedReadView(const ReadView* view);
  ~ScopedReadView();
  ScopedReadView(const ScopedReadView&) = delete;
  ScopedReadView& operator=(const ScopedReadView&) = delete;

 private:
  const ReadView* prev_;
};

}  // namespace coral

#endif  // CORAL_REL_READVIEW_H_
