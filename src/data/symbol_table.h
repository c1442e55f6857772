// Copyright (c) 1993-style CORAL reproduction authors.
// Interned functor / predicate / atom names. A Symbol is a stable pointer
// to an interned entry, so name equality is pointer equality everywhere in
// the engine.

#ifndef CORAL_DATA_SYMBOL_TABLE_H_
#define CORAL_DATA_SYMBOL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/util/sync.h"

namespace coral {

/// One interned name. `id` is dense (0..n-1) and usable as an array index.
struct SymbolInfo {
  std::string name;
  uint32_t id;
};

using Symbol = const SymbolInfo*;

/// Interns strings into stable SymbolInfo entries (deque-backed, so a
/// Symbol stays valid forever). Single-threaded by default — CORAL began
/// as a single-user client (paper §2) — but concurrent sessions call
/// EnableConcurrent(), after which Intern/Find self-lock (rank
/// kRankSymbolTable; acquired under the TermFactory lock by MakeAtom, so
/// it ranks above kRankTermFactory).
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the unique Symbol for `name`, interning it on first use.
  Symbol Intern(std::string_view name);

  /// Returns the Symbol for `name` or nullptr if never interned.
  Symbol Find(std::string_view name) const;

  size_t size() const {
    MaybeMutexLock lock(&mu_, concurrent_.load(std::memory_order_relaxed));
    return entries_.size();
  }

  /// Engages the interning lock for good. Safe to call at any time (the
  /// flag is atomic and only ever turns on).
  void EnableConcurrent() {
    concurrent_.store(true, std::memory_order_relaxed);
  }
  bool concurrent() const {
    return concurrent_.load(std::memory_order_relaxed);
  }

 private:
  mutable Mutex mu_{kRankSymbolTable};
  std::atomic<bool> concurrent_{false};
  std::deque<SymbolInfo> entries_ CORAL_GUARDED_BY(mu_);  // stable addresses
  std::unordered_map<std::string_view, Symbol> index_ CORAL_GUARDED_BY(mu_);
};

}  // namespace coral

#endif  // CORAL_DATA_SYMBOL_TABLE_H_
