// Copyright (c) 1993-style CORAL reproduction authors.
// TermFactory: the single owner and canonical constructor of all terms in
// a CORAL database. Reproduces the paper's data-manager decisions:
// constants are shared by pointer instead of copied (§9), ground functor
// terms are hash-consed so that unification of large ground terms is a
// unique-id comparison (§3.1), and term memory is arena-managed for the
// life of the database (replacing the paper's garbage collector).

#ifndef CORAL_DATA_TERM_FACTORY_H_
#define CORAL_DATA_TERM_FACTORY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/data/arg.h"
#include "src/data/hashcons.h"
#include "src/data/tuple.h"
#include "src/util/arena.h"
#include "src/util/hash.h"
#include "src/util/sync.h"

namespace coral {

/// Factory and arena for terms and tuples. All Args and Tuples returned
/// are valid until the factory is destroyed; Args from different factories
/// must never be mixed.
///
/// Construction methods are thread-safe (guarded by mu_, rank
/// kRankTermFactory) so concurrent Sessions can build terms; returned
/// nodes are immutable and may be read from any thread. The symbol table
/// is only safe through factory methods (MakeAtom / MakeFunctor-by-name)
/// — direct symbols().Intern() calls remain single-threaded (parser,
/// setup).
///
/// The lock is only taken once `concurrent()` is set (the Database sets
/// it in EnableConcurrentSessions): until then every construction skips
/// the mutex entirely (MaybeMutexLock). The flag is enable-only, so it
/// never drops a lock another thread relies on. Public constructors take
/// the guard once and delegate to private *Locked methods, so composed
/// constructions (MakeList -> cons -> functor -> atom) lock once instead
/// of recursively.
class TermFactory {
 public:
  TermFactory();
  TermFactory(const TermFactory&) = delete;
  TermFactory& operator=(const TermFactory&) = delete;

  /// The symbol table. The reference bypasses the construction lock; that
  /// is safe because SymbolTable self-locks (rank kRankSymbolTable) once
  /// concurrent() is set — EnableConcurrent sets both flags together. In
  /// single-threaded mode the old contract stands: serial parse/setup
  /// phases only (docs/CONCURRENCY.md).
  SymbolTable& symbols()
      CORAL_TS_UNSAFE("SymbolTable self-locks when concurrent; otherwise "
                      "serial parse/setup phases only") {
    return symbols_;
  }

  /// Engages the internal construction lock and the symbol table's
  /// interning lock for good. Safe at any time: the flags are atomic and
  /// engage strictly more locking.
  void EnableConcurrent()
      CORAL_TS_UNSAFE("enable-only atomic flags; symbols_ self-locks "
                      "independently of mu_") {
    concurrent_.store(true, std::memory_order_relaxed);
    symbols_.EnableConcurrent();
  }
  bool concurrent() const {
    return concurrent_.load(std::memory_order_relaxed);
  }

  // ---- Primitive constants (interned; pointer equality) ----
  const IntArg* MakeInt(int64_t v);
  const DoubleArg* MakeDouble(double v);
  const StringArg* MakeString(std::string_view v);
  const BigIntArg* MakeBigInt(const BigInt& v);

  // ---- Functor terms, atoms and lists ----
  const FunctorArg* MakeAtom(std::string_view name);
  const FunctorArg* MakeFunctor(std::string_view name,
                                std::span<const Arg* const> args);
  const FunctorArg* MakeFunctor(Symbol sym, std::span<const Arg* const> args);
  /// The empty list atom [].
  const FunctorArg* Nil();
  /// A cons cell '.'(head, tail).
  const FunctorArg* MakeCons(const Arg* head, const Arg* tail);
  /// The list [e0,...,en | tail]; tail defaults to [].
  const Arg* MakeList(std::span<const Arg* const> elems,
                      const Arg* tail = nullptr);

  // ---- Sets (result of set-grouping) ----
  /// Sorts by the total term order and removes structural duplicates.
  const SetArg* MakeSet(std::vector<const Arg*> elems);

  // ---- Variables ----
  /// A clause-local variable with the given slot. Not interned: each call
  /// makes a fresh node (names are for printing only).
  const Variable* MakeVariable(uint32_t slot, std::string_view name);
  /// The shared canonical variable for `slot` (printed _0, _1, ...); used
  /// to store non-ground facts in relations.
  const Variable* CanonicalVar(uint32_t slot);

  // ---- User-defined abstract data types (paper §7.1) ----
  /// Allocates (or finds) a user Arg subclass T. `content_hash` must be
  /// the structural hash of the value; T's constructor is invoked as
  /// T(type_tag, uid, hash, args...). Values are interned by (type_tag,
  /// content_hash, Equals), so equal user values share one node and the
  /// unique-id unification fast path applies to them too — the paper's
  /// point that each type defines its own identifiers orthogonally.
  template <typename T, typename... As>
  const T* NewUser(uint32_t type_tag, uint64_t content_hash, As&&... args) {
    MaybeMutexLock lock(&mu_, concurrent_);
    auto candidate = std::make_unique<T>(type_tag, NextUid(), content_hash,
                                         std::forward<As>(args)...);
    uint64_t key = HashCombine(content_hash, type_tag);
    auto& bucket = user_cons_[key];
    for (const Arg* existing : bucket) {
      if (existing->Equals(*candidate)) {
        return static_cast<const T*>(existing);
      }
    }
    const T* raw = KeepOwned(std::move(candidate));
    bucket.push_back(raw);
    return raw;
  }

  // ---- Tuples ----
  /// Canonicalizes ground tuples (pointer equality). Arguments of
  /// non-ground tuples must already use canonical variables numbered in
  /// order of first occurrence; `var_count` is computed here.
  const Tuple* MakeTuple(std::span<const Arg* const> args);

  /// Number of distinct hash-consed ground functor terms (for stats).
  size_t hashcons_size() const;
  size_t bytes_allocated() const;

 private:
  // Unlocked construction cores. Callers hold mu_ (or own the
  // single-thread proof via MaybeMutexLock's disengaged mode).
  const FunctorArg* MakeAtomLocked(std::string_view name)
      CORAL_REQUIRES(mu_);
  const FunctorArg* MakeFunctorLocked(Symbol sym,
                                      std::span<const Arg* const> args)
      CORAL_REQUIRES(mu_);
  const FunctorArg* MakeConsLocked(const Arg* head, const Arg* tail)
      CORAL_REQUIRES(mu_);

  uint64_t NextUid() CORAL_REQUIRES(mu_) { return next_uid_++; }
  const Arg** CopyArgs(std::span<const Arg* const> args) CORAL_REQUIRES(mu_);
  template <typename T>
  const T* KeepOwned(std::unique_ptr<T> p) CORAL_REQUIRES(mu_) {
    const T* raw = p.get();
    owned_.push_back(std::move(p));
    return raw;
  }

  /// Guards every construction path (arena, hash-cons tables, symbol
  /// interning via MakeAtom). Engaged only when concurrent_ is set.
  mutable Mutex mu_{kRankTermFactory};
  /// Read before locking to decide whether to lock at all. Enable-only,
  /// set before a second thread constructs terms, which is what makes
  /// the unguarded read sound.
  std::atomic<bool> concurrent_{false};
  Arena arena_ CORAL_GUARDED_BY(mu_);
  SymbolTable symbols_ CORAL_GUARDED_BY(mu_);
  uint64_t next_uid_ CORAL_GUARDED_BY(mu_) = 1;

  std::unordered_map<int64_t, const IntArg*> int_cons_
      CORAL_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, const DoubleArg*> double_cons_
      CORAL_GUARDED_BY(mu_);  // bit pattern
  std::unordered_map<std::string_view, const StringArg*> string_cons_
      CORAL_GUARDED_BY(mu_);
  std::unordered_map<std::string, const BigIntArg*> bigint_cons_
      CORAL_GUARDED_BY(mu_);
  std::unordered_map<Symbol, const FunctorArg*> atom_cons_
      CORAL_GUARDED_BY(mu_);
  FunctorHashcons functor_cons_ CORAL_GUARDED_BY(mu_);
  SetHashcons set_cons_ CORAL_GUARDED_BY(mu_);
  TupleHashcons tuple_cons_ CORAL_GUARDED_BY(mu_);
  std::vector<const Variable*> canonical_vars_ CORAL_GUARDED_BY(mu_);

  std::deque<std::string> string_store_ CORAL_GUARDED_BY(mu_);
  std::deque<BigInt> bigint_store_ CORAL_GUARDED_BY(mu_);
  std::deque<std::string> varname_store_ CORAL_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Arg>> owned_
      CORAL_GUARDED_BY(mu_);  // user args (need dtors)
  std::unordered_map<uint64_t, std::vector<const Arg*>> user_cons_
      CORAL_GUARDED_BY(mu_);

  // Written once in the constructor, immutable afterwards.
  const FunctorArg* nil_ = nullptr;
  Symbol cons_sym_ = nullptr;
};

/// Deep structural equality that never uses hash-consing shortcuts; used
/// by benchmarks to quantify what hash-consing buys (experiment C4).
bool StructuralEqualArgs(const Arg* a, const Arg* b);

}  // namespace coral

#endif  // CORAL_DATA_TERM_FACTORY_H_
