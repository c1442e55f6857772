#include "src/rel/memory_relation.h"

namespace coral {

const ReadView::Entry* MemoryRelation::EmptyEntry() {
  static const ReadView::Entry* empty = [] {
    const auto* table = new RelReadTable();
    return new ReadView::Entry{table, std::make_shared<FrozenIndexes>(table)};
  }();
  return empty;
}

void MemoryRelation::PublishCommitted(uint64_t epoch) {
  auto table = std::make_unique<RelReadTable>();
  table->epoch = epoch;
  // Every subsidiary except the open one is closed (appends only ever go
  // to subs_.back()), so its tuple vector is immutable and can be shared
  // by pointer; the open one is copied.
  size_t closed = subs_.size() - 1;
  table->subs.reserve(closed);
  for (size_t i = 0; i < closed; ++i) table->subs.push_back(&subs_[i].tuples);
  table->tail = subs_.back().tuples;
  table->tombstones = std::make_shared<const TombstoneMap>(deleted_);
  const RelReadTable* raw = table.get();
  retired_.push_back(std::move(table));
  pub_.store(raw, std::memory_order_release);
  pub_dirty_ = false;
}

}  // namespace coral
