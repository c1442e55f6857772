#include "src/rel/readview.h"

#include <algorithm>

namespace coral {

namespace {

thread_local const ReadView* g_active_view = nullptr;

const ArgumentIndex* Find(std::span<const ArgumentIndex* const> list,
                          std::span<const uint32_t> cols) {
  for (const ArgumentIndex* idx : list) {
    if (std::equal(idx->cols().begin(), idx->cols().end(), cols.begin(),
                   cols.end())) {
      return idx;
    }
  }
  return nullptr;
}

}  // namespace

const ReadView* ActiveReadView() { return g_active_view; }

ScopedReadView::ScopedReadView(const ReadView* view) : prev_(g_active_view) {
  g_active_view = view;
}

ScopedReadView::~ScopedReadView() { g_active_view = prev_; }

const ArgumentIndex* FrozenIndexes::For(std::span<const uint32_t> cols) {
  if (const ArgumentIndex* idx = Find(
          *lists_.load(std::memory_order_acquire), cols)) {
    return idx;
  }
  MutexLock lock(&mu_);
  // Another reader may have built it while this one waited.
  const List* cur = lists_.load(std::memory_order_relaxed);
  if (const ArgumentIndex* idx = Find(*cur, cols)) return idx;
  auto idx = std::make_unique<ArgumentIndex>(
      std::vector<uint32_t>(cols.begin(), cols.end()));
  for (uint32_t s = 0; s < table_->sub_count(); ++s) {
    for (const Tuple* t : table_->sub(s)) {
      if (!table_->IsDeleted(t, s)) idx->Add(t, s);
    }
  }
  const ArgumentIndex* built = idx.get();
  auto next = std::make_unique<List>(*cur);
  next->push_back(built);
  lists_.store(next.get(), std::memory_order_release);
  published_.push_back(std::move(next));
  owned_.push_back(std::move(idx));
  return built;
}

void ReadView::Add(const Relation* rel, const RelReadTable* table,
                   const ReadView* prev) {
  const Entry* old = prev != nullptr ? prev->EntryFor(rel) : nullptr;
  if (old != nullptr && old->table == table) {
    tables.emplace(rel, *old);
  } else {
    tables.emplace(rel,
                   Entry{table, std::make_shared<FrozenIndexes>(table)});
  }
}

}  // namespace coral
