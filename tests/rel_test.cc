// Unit tests for the relation layer: subsidiary-relation marks, hash and
// list relations, duplicate/subsumption checks, argument- and pattern-form
// indices, aggregate selections (paper §3.2, §3.3, §5.5).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/data/term_factory.h"
#include "src/data/unify.h"
#include "src/rel/hash_relation.h"
#include "src/rel/list_relation.h"

namespace coral {
namespace {

class RelTest : public ::testing::Test {
 protected:
  const Tuple* T(std::initializer_list<const Arg*> args) {
    std::vector<const Arg*> v(args);
    return f.MakeTuple(v);
  }
  const Arg* I(int64_t v) { return f.MakeInt(v); }
  const Arg* A(const char* s) { return f.MakeAtom(s); }

  static std::vector<const Tuple*> Drain(TupleIterator* it) {
    std::vector<const Tuple*> out;
    while (const Tuple* t = it->Next()) out.push_back(t);
    return out;
  }

  TermFactory f;
};

TEST_F(RelTest, InsertScanAndDuplicates) {
  HashRelation r("edge", 2);
  EXPECT_TRUE(r.Insert(T({I(1), I(2)})));
  EXPECT_TRUE(r.Insert(T({I(2), I(3)})));
  EXPECT_FALSE(r.Insert(T({I(1), I(2)})));  // duplicate
  EXPECT_EQ(r.size(), 2u);
  auto it = r.Scan();
  EXPECT_EQ(Drain(it.get()).size(), 2u);
}

TEST_F(RelTest, MultisetAllowsDuplicates) {
  HashRelation r("edge", 2);
  r.set_multiset(true);
  EXPECT_TRUE(r.Insert(T({I(1), I(2)})));
  EXPECT_TRUE(r.Insert(T({I(1), I(2)})));
  EXPECT_EQ(r.size(), 2u);
  auto it = r.Scan();
  EXPECT_EQ(Drain(it.get()).size(), 2u);
  // Delete removes all occurrences of the fact.
  EXPECT_TRUE(r.Delete(T({I(1), I(2)})));
  EXPECT_EQ(r.size(), 0u);
}

TEST_F(RelTest, SubsumptionRejectsSpecializations) {
  HashRelation r("p", 2);
  // Non-ground fact p(X, 7) subsumes later ground p(3, 7).
  EXPECT_TRUE(r.Insert(T({f.CanonicalVar(0), I(7)})));
  EXPECT_FALSE(r.Insert(T({I(3), I(7)})));
  EXPECT_TRUE(r.Insert(T({I(3), I(8)})));
  EXPECT_EQ(r.size(), 2u);
  // Variant of the stored non-ground fact is also a duplicate.
  EXPECT_FALSE(r.Insert(T({f.CanonicalVar(0), I(7)})));
}

TEST_F(RelTest, DeleteAndTombstones) {
  HashRelation r("p", 1);
  const Tuple* t1 = T({I(1)});
  const Tuple* t2 = T({I(2)});
  ASSERT_TRUE(r.Insert(t1));
  ASSERT_TRUE(r.Insert(t2));
  EXPECT_TRUE(r.Delete(t1));
  EXPECT_FALSE(r.Delete(t1));  // already gone
  EXPECT_EQ(r.size(), 1u);
  auto got = Drain(r.Scan().get());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], t2);
  // Deletion mid-scan is honored by open iterators.
  ASSERT_TRUE(r.Insert(t1));
  auto it = r.Scan();
  EXPECT_NE(it->Next(), nullptr);
  r.Delete(t2);
  // Remaining yields skip t2 wherever it would appear.
  for (const Tuple* t = it->Next(); t != nullptr; t = it->Next()) {
    EXPECT_NE(t, t2);
  }
}

TEST_F(RelTest, DeleteMatchingGroundAndNonGroundPatterns) {
  HashRelation r("p", 2);
  ASSERT_TRUE(r.Insert(T({I(1), I(2)})));
  ASSERT_TRUE(r.Insert(T({I(1), I(3)})));
  ASSERT_TRUE(r.Insert(T({I(2), I(3)})));

  // Ground pattern: exactly the identical stored tuple goes.
  std::vector<const Tuple*> removed;
  EXPECT_EQ(r.DeleteMatching(T({I(1), I(2)}), &removed), 1u);
  EXPECT_EQ(removed, std::vector<const Tuple*>{T({I(1), I(2)})});
  EXPECT_EQ(r.DeleteMatching(T({I(1), I(2)}), nullptr), 0u);  // gone
  EXPECT_EQ(r.size(), 2u);

  // Non-ground pattern p(2, X): every tuple it subsumes goes.
  ASSERT_TRUE(r.Insert(T({I(2), I(4)})));
  removed.clear();
  EXPECT_EQ(r.DeleteMatching(T({I(2), f.CanonicalVar(0)}), &removed), 2u);
  EXPECT_EQ(std::set<const Tuple*>(removed.begin(), removed.end()),
            (std::set<const Tuple*>{T({I(2), I(3)}), T({I(2), I(4)})}));
  auto left = Drain(r.Scan().get());
  EXPECT_EQ(left, std::vector<const Tuple*>{T({I(1), I(3)})});
}

TEST_F(RelTest, DeleteMatchingGroundPatternSparesNonGroundStoredTuple) {
  HashRelation r("p", 2);
  const Tuple* general = T({f.CanonicalVar(0), I(7)});  // p(X, 7)
  ASSERT_TRUE(r.Insert(general));
  // The stored p(X, 7) subsumes p(1, 7), so Contains says yes — but a
  // ground delete pattern subsumes only itself and must not touch it.
  EXPECT_TRUE(r.Contains(T({I(1), I(7)})));
  EXPECT_EQ(r.DeleteMatching(T({I(1), I(7)}), nullptr), 0u);
  EXPECT_EQ(r.size(), 1u);
  // A non-ground pattern that subsumes it (a variant) deletes it.
  std::vector<const Tuple*> removed;
  EXPECT_EQ(r.DeleteMatching(T({f.CanonicalVar(0), I(7)}), &removed), 1u);
  EXPECT_EQ(removed, std::vector<const Tuple*>{general});
  EXPECT_EQ(r.size(), 0u);
}

TEST_F(RelTest, MarksPartitionInsertionOrder) {
  HashRelation r("p", 1);
  r.Insert(T({I(1)}));
  Mark m1 = r.Snapshot();
  r.Insert(T({I(2)}));
  r.Insert(T({I(3)}));
  Mark m2 = r.Snapshot();
  r.Insert(T({I(4)}));

  EXPECT_EQ(Drain(r.ScanRange(0, m1).get()).size(), 1u);
  EXPECT_EQ(Drain(r.ScanRange(m1, m2).get()).size(), 2u);
  EXPECT_EQ(Drain(r.ScanRange(m2, kMaxMark).get()).size(), 1u);
  EXPECT_EQ(Drain(r.Scan().get()).size(), 4u);
}

TEST_F(RelTest, SnapshotIdempotentWhenNoInserts) {
  HashRelation r("p", 1);
  r.Insert(T({I(1)}));
  Mark m1 = r.Snapshot();
  Mark m2 = r.Snapshot();  // nothing inserted in between
  EXPECT_EQ(m1, m2);
  EXPECT_TRUE(Drain(r.ScanRange(m1, m2).get()).empty());
}

TEST_F(RelTest, ScanSeesConcurrentAppends) {
  HashRelation r("p", 1);
  r.Insert(T({I(1)}));
  auto it = r.Scan();
  EXPECT_NE(it->Next(), nullptr);
  r.Insert(T({I(2)}));  // appended to the open subsidiary mid-scan
  EXPECT_NE(it->Next(), nullptr);
  EXPECT_EQ(it->Next(), nullptr);
}

TEST_F(RelTest, ArgumentIndexServesBoundLookups) {
  HashRelation r("edge", 2);
  r.AddArgumentIndex({0});
  for (int i = 0; i < 100; ++i) r.Insert(T({I(i % 10), I(i)}));
  // Lookup edge(3, ?): pattern (3, X).
  BindEnv env(1);
  TermRef pattern[] = {{I(3), nullptr}, {f.MakeVariable(0, "X"), &env}};
  auto got = Drain(r.Select(pattern).get());
  EXPECT_EQ(got.size(), 10u);
  for (const Tuple* t : got) EXPECT_EQ(t->arg(0), I(3));
}

TEST_F(RelTest, ArgumentIndexVarBucketIsAlwaysReturned) {
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  r.Insert(T({I(1), I(10)}));
  r.Insert(T({f.CanonicalVar(0), I(20)}));  // var in key column
  BindEnv env(1);
  TermRef pattern[] = {{I(1), nullptr}, {f.MakeVariable(0, "X"), &env}};
  auto got = Drain(r.Select(pattern).get());
  // Superset: the exact-key tuple plus the var-bucket tuple.
  EXPECT_EQ(got.size(), 2u);
}

TEST_F(RelTest, ArgumentIndexUnboundKeyFallsBackToScan) {
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  for (int i = 0; i < 5; ++i) r.Insert(T({I(i), I(i)}));
  BindEnv env(2);
  TermRef pattern[] = {{f.MakeVariable(0, "X"), &env},
                       {f.MakeVariable(1, "Y"), &env}};
  EXPECT_EQ(Drain(r.Select(pattern).get()).size(), 5u);
}

TEST_F(RelTest, ArgumentIndexAddedLateIsBackfilled) {
  HashRelation r("p", 2);
  for (int i = 0; i < 50; ++i) r.Insert(T({I(i % 5), I(i)}));
  r.AddArgumentIndex({0});
  BindEnv env(1);
  TermRef pattern[] = {{I(2), nullptr}, {f.MakeVariable(0, "X"), &env}};
  EXPECT_EQ(Drain(r.Select(pattern).get()).size(), 10u);
}

TEST_F(RelTest, IndexOnBoundComplexTermResolvesBindings) {
  HashRelation r("p", 1);
  r.AddArgumentIndex({0});
  const Arg* fa[] = {I(1), I(2)};
  const Arg* stored = f.MakeFunctor("f", fa);
  r.Insert(T({stored}));
  r.Insert(T({A("other")}));
  // Query with f(X, 2) where X is bound to 1: index key must hash equal to
  // the stored ground term's hash.
  BindEnv env(1);
  const Variable* x = f.MakeVariable(0, "X");
  Trail tr;
  BindVar(x, &env, I(1), nullptr, &tr);
  const Arg* qa[] = {x, I(2)};
  const Arg* query = f.MakeFunctor("f", qa);
  TermRef pattern[] = {{query, &env}};
  auto got = Drain(r.Select(pattern).get());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->arg(0), stored);
}

TEST_F(RelTest, IndexRespectsMarkRanges) {
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  r.Insert(T({I(1), I(10)}));
  Mark m = r.Snapshot();
  r.Insert(T({I(1), I(20)}));
  BindEnv env(1);
  TermRef pattern[] = {{I(1), nullptr}, {f.MakeVariable(0, "X"), &env}};
  EXPECT_EQ(Drain(r.Select(pattern, 0, m).get()).size(), 1u);
  EXPECT_EQ(Drain(r.Select(pattern, m, kMaxMark).get()).size(), 1u);
  EXPECT_EQ(Drain(r.Select(pattern, 0, kMaxMark).get()).size(), 2u);
}

TEST_F(RelTest, IndexLookupsStayCorrectAcrossManyMarks) {
  // Regression: postings are per-bucket sorted by subsidiary; range
  // lookups must stay exact (and cheap) when hundreds of mark intervals
  // exist — the access pattern of a long semi-naive evaluation.
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  std::vector<Mark> marks;
  for (int round = 0; round < 200; ++round) {
    marks.push_back(r.Snapshot());
    r.Insert(T({I(round % 5), I(round)}));
  }
  Mark end = r.Snapshot();
  BindEnv env(1);
  TermRef pattern[] = {{I(3), nullptr}, {f.MakeVariable(0, "X"), &env}};
  // Full range: key 3 occurs for round % 5 == 3 -> 40 tuples.
  EXPECT_EQ(Drain(r.Select(pattern, 0, end).get()).size(), 40u);
  // A middle window of 50 rounds: exactly 10 hits.
  EXPECT_EQ(Drain(r.Select(pattern, marks[100], marks[150]).get()).size(),
            10u);
  // Empty window.
  EXPECT_TRUE(Drain(r.Select(pattern, marks[70], marks[70]).get()).empty());
  // Single-round window containing the key.
  EXPECT_EQ(Drain(r.Select(pattern, marks[13], marks[14]).get()).size(), 1u);
}

// ProbeArgs is the bytecode VM's direct lookup (PROBE_INDEX). Its
// contract mirrors Select's: candidate superset, tombstones filtered,
// false when no attached argument index can serve — in which case the VM
// degrades the probe to a window scan (docs/VM.md).

TEST_F(RelTest, ProbeArgsUsesMatchingIndex) {
  HashRelation r("edge", 2);
  r.AddArgumentIndex({0});
  for (int i = 0; i < 100; ++i) r.Insert(T({I(i % 10), I(i)}));
  std::vector<uint32_t> cols = {0};
  std::vector<const Arg*> key = {I(3)};
  std::vector<const Tuple*> out;
  ASSERT_TRUE(r.ProbeArgs(cols, key, 0, kMaxMark, &out));
  EXPECT_EQ(out.size(), 10u);
  for (const Tuple* t : out) EXPECT_EQ(t->arg(0), I(3));
}

TEST_F(RelTest, ProbeArgsReturnsFalseWithoutIndex) {
  // No argument index attached: the probe cannot be served and the
  // caller must scan — this is the PROBE_INDEX -> SCAN_FULL degrade.
  HashRelation r("edge", 2);
  for (int i = 0; i < 10; ++i) r.Insert(T({I(i), I(i)}));
  std::vector<uint32_t> cols = {0};
  std::vector<const Arg*> key = {I(3)};
  std::vector<const Tuple*> out;
  EXPECT_FALSE(r.ProbeArgs(cols, key, 0, kMaxMark, &out));
  EXPECT_TRUE(out.empty());
}

TEST_F(RelTest, ProbeArgsServesSubsetIndex) {
  // Index on {0}, probe bound on {0, 1}: the index columns are a subset
  // of the probe's, so it serves; candidates are the col-0 superset and
  // the caller's per-column checks filter col 1.
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  r.Insert(T({I(1), I(10)}));
  r.Insert(T({I(1), I(20)}));
  r.Insert(T({I(2), I(10)}));
  std::vector<uint32_t> cols = {0, 1};
  std::vector<const Arg*> key = {I(1), I(10)};
  std::vector<const Tuple*> out;
  ASSERT_TRUE(r.ProbeArgs(cols, key, 0, kMaxMark, &out));
  EXPECT_EQ(out.size(), 2u);  // both key-1 tuples; (1,20) filtered later
  for (const Tuple* t : out) EXPECT_EQ(t->arg(0), I(1));
}

TEST_F(RelTest, ProbeArgsRefusesWiderIndex) {
  // Only a two-column index exists but the probe binds one column: the
  // index cannot be keyed, so ProbeArgs refuses and the VM scans.
  HashRelation r("p", 2);
  r.AddArgumentIndex({0, 1});
  r.Insert(T({I(1), I(10)}));
  std::vector<uint32_t> cols = {0};
  std::vector<const Arg*> key = {I(1)};
  std::vector<const Tuple*> out;
  EXPECT_FALSE(r.ProbeArgs(cols, key, 0, kMaxMark, &out));
}

TEST_F(RelTest, ProbeArgsRespectsWindowAndTombstones) {
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  const Tuple* t1 = T({I(1), I(10)});
  r.Insert(t1);
  Mark m = r.Snapshot();
  r.Insert(T({I(1), I(20)}));
  std::vector<uint32_t> cols = {0};
  std::vector<const Arg*> key = {I(1)};
  std::vector<const Tuple*> out;
  ASSERT_TRUE(r.ProbeArgs(cols, key, 0, m, &out));
  EXPECT_EQ(out.size(), 1u);  // old window: only t1
  out.clear();
  ASSERT_TRUE(r.ProbeArgs(cols, key, m, kMaxMark, &out));
  EXPECT_EQ(out.size(), 1u);  // delta window: only the new tuple
  out.clear();
  ASSERT_TRUE(r.Delete(t1));
  ASSERT_TRUE(r.ProbeArgs(cols, key, 0, kMaxMark, &out));
  EXPECT_EQ(out.size(), 1u);  // tombstoned t1 is filtered
  EXPECT_NE(out[0], t1);
}

TEST_F(RelTest, ProbeArgsIncludesVarBucket) {
  // A stored tuple with a variable in the key column matches any probe
  // key (subsumption); ProbeArgs must return it in the superset.
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  r.Insert(T({I(1), I(10)}));
  r.Insert(T({f.CanonicalVar(0), I(20)}));
  std::vector<uint32_t> cols = {0};
  std::vector<const Arg*> key = {I(1)};
  std::vector<const Tuple*> out;
  ASSERT_TRUE(r.ProbeArgs(cols, key, 0, kMaxMark, &out));
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(RelTest, PatternIndexDrillsIntoFunctors) {
  // The paper's example: @make_index emp(Name, addr(Street, City))
  //                                  (Name, City).
  HashRelation r("emp", 2);
  // Pattern: emp(_0, addr(_1, _2)), keys slots {0, 2}.
  const Arg* addr_args[] = {f.CanonicalVar(1), f.CanonicalVar(2)};
  std::vector<const Arg*> pat = {f.CanonicalVar(0),
                                 f.MakeFunctor("addr", addr_args)};
  r.AddPatternIndex(pat, 3, {0, 2});

  auto emp = [&](const char* name, const char* street, const char* city) {
    const Arg* aa[] = {A(street), A(city)};
    return T({A(name), f.MakeFunctor("addr", aa)});
  };
  r.Insert(emp("john", "main", "madison"));
  r.Insert(emp("john", "pine", "madison"));
  r.Insert(emp("john", "elm", "seattle"));
  r.Insert(emp("mary", "main", "madison"));
  for (int i = 0; i < 50; ++i) {
    r.Insert(emp(("e" + std::to_string(i)).c_str(), "x", "nowhere"));
  }

  // Query: emp(john, addr(S, madison)) — street unknown.
  BindEnv env(1);
  const Arg* qaddr_args[] = {f.MakeVariable(0, "S"), A("madison")};
  TermRef pattern[] = {{A("john"), nullptr},
                       {f.MakeFunctor("addr", qaddr_args), &env}};
  auto got = Drain(r.Select(pattern).get());
  EXPECT_EQ(got.size(), 2u);
}

TEST_F(RelTest, PatternIndexNonconformingQueryFallsBack) {
  HashRelation r("emp", 2);
  std::vector<const Arg*> pat = {f.CanonicalVar(0), f.CanonicalVar(1)};
  r.AddPatternIndex(pat, 2, {0});
  r.Insert(T({A("john"), A("home")}));
  // Query whose first column is unbound: key undetermined, falls back.
  BindEnv env(2);
  TermRef pattern[] = {{f.MakeVariable(0, "N"), &env},
                       {f.MakeVariable(1, "A"), &env}};
  EXPECT_EQ(Drain(r.Select(pattern).get()).size(), 1u);
}

TEST_F(RelTest, PatternIndexExcludesNonUnifiableTuples) {
  // Tuples that cannot unify with the index pattern are excluded, and
  // queries not unifying with the pattern bypass the index.
  HashRelation r("emp", 2);
  const Arg* addr_args[] = {f.CanonicalVar(1), f.CanonicalVar(2)};
  std::vector<const Arg*> pat = {f.CanonicalVar(0),
                                 f.MakeFunctor("addr", addr_args)};
  r.AddPatternIndex(pat, 3, {0, 2});
  r.Insert(T({A("bob"), A("homeless")}));  // 2nd col not an addr(...)
  // Query emp(bob, homeless) does not unify with the pattern: the index
  // cannot serve it; the fallback scan must still find the tuple.
  TermRef pattern_q[] = {{A("bob"), nullptr}, {A("homeless"), nullptr}};
  EXPECT_EQ(Drain(r.Select(pattern_q).get()).size(), 1u);
}

TEST_F(RelTest, SelectPrefersWidestUsableIndex) {
  HashRelation r("t", 3);
  r.AddArgumentIndex({0});
  r.AddArgumentIndex({0, 1});
  for (int i = 0; i < 100; ++i) r.Insert(T({I(i % 2), I(i % 10), I(i)}));
  BindEnv env(1);
  TermRef pattern[] = {{I(1), nullptr}, {I(3), nullptr},
                       {f.MakeVariable(0, "X"), &env}};
  auto got = Drain(r.Select(pattern).get());
  EXPECT_EQ(got.size(), 10u);  // (1,3,*) occurs for i%10==3, i odd
}

TEST_F(RelTest, ListRelationBasics) {
  ListRelation r("edge", 2);
  EXPECT_TRUE(r.Insert(T({I(1), I(2)})));
  EXPECT_FALSE(r.Insert(T({I(1), I(2)})));
  EXPECT_TRUE(r.Insert(T({I(2), I(3)})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({I(1), I(2)})));
  EXPECT_FALSE(r.Contains(T({I(9), I(9)})));
  EXPECT_TRUE(r.Delete(T({I(1), I(2)})));
  EXPECT_EQ(r.size(), 1u);
  Mark m = r.Snapshot();
  r.Insert(T({I(7), I(8)}));
  EXPECT_EQ(Drain(r.ScanRange(m, kMaxMark).get()).size(), 1u);
}

TEST_F(RelTest, AggregateSelectionMinPrunesCostlierFacts) {
  // @aggregate_selection p(X,Y,C)(X,Y) min(C): shortest-path pruning.
  HashRelation r("p", 3);
  std::vector<const Arg*> pat = {f.CanonicalVar(0), f.CanonicalVar(1),
                                 f.CanonicalVar(2)};
  std::vector<const Arg*> group = {f.CanonicalVar(0), f.CanonicalVar(1)};
  r.AddAggregateSelection(std::make_unique<AggregateSelection>(
      AggregateSelection::Kind::kMin, pat, 3, group, f.CanonicalVar(2)));

  EXPECT_TRUE(r.Insert(T({A("a"), A("b"), I(10)})));
  // Costlier fact in the same group: rejected.
  EXPECT_FALSE(r.Insert(T({A("a"), A("b"), I(12)})));
  // Cheaper fact: admitted, and the costlier one is deleted.
  EXPECT_TRUE(r.Insert(T({A("a"), A("b"), I(5)})));
  EXPECT_EQ(r.size(), 1u);
  auto got = Drain(r.Scan().get());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->arg(2), I(5));
  // Different group unaffected.
  EXPECT_TRUE(r.Insert(T({A("a"), A("c"), I(100)})));
  EXPECT_EQ(r.size(), 2u);
  // Re-inserting the surviving fact is an exact duplicate: rejected by
  // the duplicate check before aggregate selections are consulted.
  EXPECT_FALSE(r.Insert(T({A("a"), A("b"), I(5)})));
}

TEST_F(RelTest, AggregateSelectionMaxMirrorsMin) {
  HashRelation r("p", 2);
  std::vector<const Arg*> pat = {f.CanonicalVar(0), f.CanonicalVar(1)};
  std::vector<const Arg*> group = {f.CanonicalVar(0)};
  r.AddAggregateSelection(std::make_unique<AggregateSelection>(
      AggregateSelection::Kind::kMax, pat, 2, group, f.CanonicalVar(1)));
  EXPECT_TRUE(r.Insert(T({A("g"), I(1)})));
  EXPECT_TRUE(r.Insert(T({A("g"), I(5)})));
  EXPECT_FALSE(r.Insert(T({A("g"), I(3)})));
  auto got = Drain(r.Scan().get());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->arg(1), I(5));
}

TEST_F(RelTest, AggregateSelectionAnyKeepsOneWitness) {
  // @aggregate_selection p(X,P)(X) any(P): one witness per group.
  HashRelation r("p", 2);
  std::vector<const Arg*> pat = {f.CanonicalVar(0), f.CanonicalVar(1)};
  std::vector<const Arg*> group = {f.CanonicalVar(0)};
  r.AddAggregateSelection(std::make_unique<AggregateSelection>(
      AggregateSelection::Kind::kAny, pat, 2, group, nullptr));
  EXPECT_TRUE(r.Insert(T({A("x"), A("w1")})));
  EXPECT_FALSE(r.Insert(T({A("x"), A("w2")})));
  EXPECT_TRUE(r.Insert(T({A("y"), A("w1")})));
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(RelTest, CombinedMinAndAnySelectionsShortestPathStyle) {
  // The exact combination from the paper's Fig. 3 discussion:
  //   @aggregate_selection path(X,Y,P,C)(X,Y) min(C).
  //   @aggregate_selection path(X,Y,P,C)(X,Y,C) any(P).
  HashRelation r("path", 4);
  std::vector<const Arg*> pat = {f.CanonicalVar(0), f.CanonicalVar(1),
                                 f.CanonicalVar(2), f.CanonicalVar(3)};
  r.AddAggregateSelection(std::make_unique<AggregateSelection>(
      AggregateSelection::Kind::kMin, pat,
      4, std::vector<const Arg*>{f.CanonicalVar(0), f.CanonicalVar(1)},
      f.CanonicalVar(3)));
  r.AddAggregateSelection(std::make_unique<AggregateSelection>(
      AggregateSelection::Kind::kAny, pat, 4,
      std::vector<const Arg*>{f.CanonicalVar(0), f.CanonicalVar(1),
                              f.CanonicalVar(3)},
      nullptr));

  EXPECT_TRUE(r.Insert(T({A("a"), A("b"), A("p1"), I(4)})));
  // Same cost, different witness: pruned by any(P).
  EXPECT_FALSE(r.Insert(T({A("a"), A("b"), A("p2"), I(4)})));
  // Cheaper path replaces.
  EXPECT_TRUE(r.Insert(T({A("a"), A("b"), A("p3"), I(2)})));
  EXPECT_EQ(r.size(), 1u);
  auto got = Drain(r.Scan().get());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->arg(3), I(2));
}

TEST_F(RelTest, AggregateSelectionKeepsIndexConsistent) {
  HashRelation r("p", 2);
  r.AddArgumentIndex({0});
  std::vector<const Arg*> pat = {f.CanonicalVar(0), f.CanonicalVar(1)};
  r.AddAggregateSelection(std::make_unique<AggregateSelection>(
      AggregateSelection::Kind::kMin, pat, 2,
      std::vector<const Arg*>{f.CanonicalVar(0)}, f.CanonicalVar(1)));
  r.Insert(T({A("k"), I(9)}));
  r.Insert(T({A("k"), I(4)}));  // deletes the 9 tuple
  BindEnv env(1);
  TermRef pattern[] = {{A("k"), nullptr}, {f.MakeVariable(0, "C"), &env}};
  auto got = Drain(r.Select(pattern).get());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->arg(1), I(4));
}

// ---------------------------------------------------------------------
// Tombstone / mark edge cases exercised by incremental maintenance
// (docs/MAINTENANCE.md): exact size accounting across delete/reinsert
// cycles, and deletion visibility in mark-ranged scans.
// ---------------------------------------------------------------------

TEST_F(RelTest, DeleteReinsertCyclesKeepSizeExact) {
  // Regression: live-count drift when a tombstoned tuple is re-inserted
  // and deleted again across subsidiary boundaries.
  HashRelation r("p", 1);
  const Tuple* t = T({I(7)});
  for (int cycle = 0; cycle < 5; ++cycle) {
    EXPECT_TRUE(r.Insert(t)) << "cycle " << cycle;
    EXPECT_EQ(r.size(), 1u) << "cycle " << cycle;
    EXPECT_TRUE(r.Contains(t));
    r.Snapshot();  // force the next occurrence into a new subsidiary
    EXPECT_TRUE(r.Delete(t)) << "cycle " << cycle;
    EXPECT_EQ(r.size(), 0u) << "cycle " << cycle;
    EXPECT_FALSE(r.Contains(t));
    EXPECT_TRUE(Drain(r.Scan().get()).empty()) << "cycle " << cycle;
  }
  // Final state: one more insert, size exact, single yield.
  EXPECT_TRUE(r.Insert(t));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(Drain(r.Scan().get()).size(), 1u);
}

TEST_F(RelTest, MultisetDeleteReinsertKeepsSizeExact) {
  HashRelation r("p", 1);
  r.set_multiset(true);
  const Tuple* t = T({I(7)});
  r.Insert(t);
  r.Insert(t);
  r.Snapshot();
  r.Insert(t);  // three occurrences across two subsidiaries
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Delete(t));  // kills all occurrences
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(Drain(r.Scan().get()).empty());
  r.Insert(t);  // back to exactly one live occurrence
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(Drain(r.Scan().get()).size(), 1u);
}

TEST_F(RelTest, DeletionVisibleToMarkRangedScans) {
  HashRelation r("p", 1);
  const Tuple* t1 = T({I(1)});
  const Tuple* t2 = T({I(2)});
  r.Insert(t1);
  Mark m1 = r.Snapshot();
  r.Insert(t2);
  // Delete t1 (stored below m1): both the full scan and the old window
  // must stop yielding it; the delta window never had it.
  ASSERT_TRUE(r.Delete(t1));
  EXPECT_TRUE(Drain(r.ScanRange(0, m1).get()).empty());
  EXPECT_EQ(Drain(r.ScanRange(m1, kMaxMark).get()),
            (std::vector<const Tuple*>{t2}));
  EXPECT_EQ(Drain(r.Scan().get()), (std::vector<const Tuple*>{t2}));
  // Re-insert: the new occurrence lands at/above the tombstone boundary,
  // so it is visible to the full scan and to a fresh delta window, but
  // the pre-deletion window stays empty.
  Mark m2 = r.Snapshot();
  ASSERT_TRUE(r.Insert(t1));
  EXPECT_TRUE(Drain(r.ScanRange(0, m1).get()).empty());
  EXPECT_EQ(Drain(r.ScanRange(m2, kMaxMark).get()),
            (std::vector<const Tuple*>{t1}));
  EXPECT_EQ(Drain(r.Scan().get()).size(), 2u);
}

TEST_F(RelTest, EmptySubsidiaryAndMarkEdges) {
  HashRelation r("p", 1);
  // Snapshot on a brand-new relation: no empty subsidiary churn.
  Mark m0 = r.Snapshot();
  EXPECT_EQ(m0, r.Snapshot());
  EXPECT_EQ(m0, r.CurrentMark());
  // Degenerate windows are empty, including from == to and inverted.
  EXPECT_TRUE(Drain(r.ScanRange(m0, m0).get()).empty());
  EXPECT_TRUE(Drain(r.ScanRange(kMaxMark, kMaxMark).get()).empty());
  r.Insert(T({I(1)}));
  Mark m1 = r.Snapshot();
  EXPECT_TRUE(Drain(r.ScanRange(m1, m0).get()).empty());
  // A window far beyond the current mark clamps to what exists.
  EXPECT_EQ(Drain(r.ScanRange(0, kMaxMark).get()).size(), 1u);
  EXPECT_TRUE(Drain(r.ScanRange(m1 + 100, kMaxMark).get()).empty());
}

}  // namespace
}  // namespace coral
