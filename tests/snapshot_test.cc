// Concurrency tests for the session/snapshot layer: N reader sessions
// querying while M writer commits land must each see a result equal to
// some from-scratch evaluation at a commit boundary (snapshot isolation
// — never a torn read in the middle of a batch), deadlines must abort
// runaway queries, and Database teardown must be safe with observers
// registered. Run under CORAL_SANITIZE="thread" in the CI thread matrix,
// these tests are the data-race harness for the commit/publish protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/obs/trace.h"
#include "src/rel/readview.h"

namespace coral {
namespace {

std::string PathModule() {
  return "module paths.\n"
         "export path(bf, ff).\n"
         "path(X, Y) :- edge(X, Y).\n"
         "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
         "end_module.\n";
}

std::string EdgeBatch(int from, int count) {
  std::string out;
  for (int i = from; i < from + count; ++i) {
    out += "edge(" + std::to_string(i) + ", " + std::to_string(i + 1) +
           ").\n";
  }
  return out;
}

// Readers see some commit-boundary state, verified against from-scratch
// evaluations: a chain grows in batches of kBatch edges; every reader
// answer count must equal the count a fresh database produces at one of
// the boundaries.
TEST(SnapshotTest, ReadersSeeCommitBoundariesOnly) {
  constexpr int kBatches = 6;
  constexpr int kBatch = 10;
  constexpr int kReaders = 4;

  // From-scratch reference: answer counts at every commit boundary.
  std::set<size_t> boundary_counts;
  for (int b = 1; b <= kBatches; ++b) {
    Database fresh;
    ASSERT_TRUE(fresh.Consult(PathModule()).ok());
    ASSERT_TRUE(fresh.Consult(EdgeBatch(1, b * kBatch)).ok());
    auto result = fresh.EvalQuery("?- path(1, X).");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    boundary_counts.insert(result->rows.size());
  }
  ASSERT_EQ(boundary_counts.size(), kBatches);  // distinct per boundary

  Database db;
  ASSERT_TRUE(db.Consult(PathModule()).ok());
  ASSERT_TRUE(db.Consult(EdgeBatch(1, kBatch)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &done, &torn, &boundary_counts] {
      while (!done.load(std::memory_order_acquire)) {
        Session session(&db);
        auto result = session.EvalQuery("?- path(1, X).");
        if (!result.ok()) {
          ADD_FAILURE() << result.status().ToString();
          torn.fetch_add(1);
          return;
        }
        if (boundary_counts.count(result->rows.size()) == 0) {
          torn.fetch_add(1);
        }
      }
    });
  }

  // Writer: commit the remaining batches, one Consult per boundary.
  for (int b = 1; b < kBatches; ++b) {
    auto committed = db.Consult(EdgeBatch(1 + b * kBatch, kBatch));
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0)
      << "a reader observed a state not matching any commit boundary";
}

// Same discipline on direct base-relation queries (no module): counts
// must be multiples of the batch size.
TEST(SnapshotTest, BaseRelationScansAreSnapshotted) {
  constexpr int kBatches = 5;
  constexpr int kBatch = 50;
  Database db;
  ASSERT_TRUE(db.Consult(EdgeBatch(1, kBatch)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      Session session(&db);
      auto result = session.EvalQuery("?- edge(X, Y).");
      if (!result.ok()) {
        ADD_FAILURE() << result.status().ToString();
        return;
      }
      if (result->rows.size() % kBatch != 0) torn.fetch_add(1);
    }
  });
  for (int b = 1; b < kBatches; ++b) {
    ASSERT_TRUE(db.Consult(EdgeBatch(1 + b * kBatch, kBatch)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(SnapshotTest, SessionReadsItsOwnWritesAfterConsult) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Consult("edge(1, 2).\nedge(2, 3).\n").ok());
  auto result = session.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);

  // A second session holds its snapshot across the first one's commit
  // until it refreshes.
  Session other(&db);
  auto before = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(session.Consult("edge(3, 4).\n").ok());
  auto stale = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows.size(), before->rows.size());
  other.Refresh();
  auto fresh = other.EvalQuery("?- edge(X, Y).");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 3u);
}

TEST(SnapshotTest, LoadFactsCountsNewFacts) {
  Database db;
  Session session(&db);
  auto first = session.LoadFacts("p(1). p(2). p(3).");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), 3u);
  auto dup = session.LoadFacts("p(2). p(4).");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 1u);  // p(2) already present
  auto rejected = session.LoadFacts("?- p(X).");
  EXPECT_FALSE(rejected.ok());
}

TEST(SnapshotTest, BindingsSubstituteIntoQueries) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session.Consult("edge(1, 2).\nedge(1, 3).\nedge(2, 3).\n")
                  .ok());
  session.Bind("src", "1");
  auto result = session.EvalQuery("?- edge($src, X).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 2u);
  auto unbound = session.EvalQuery("?- edge($nope, X).");
  EXPECT_FALSE(unbound.ok());
}

TEST(SnapshotTest, DeadlineAbortsCrossProduct) {
  Database db;
  std::string facts;
  for (int i = 0; i < 64; ++i) {
    facts += "wide(" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(db.Consult(facts).ok());
  Session session(&db, /*deadline_ms=*/15);
  // A cyclic chain of inequalities: unsatisfiable, but no static analysis
  // proves it, and every filter needs two bound variables so the
  // reordering optimizer cannot short-circuit the enumeration — the
  // engine must walk ~C(64,4) ascending 4-tuples before concluding
  // emptiness, far beyond a 15 ms budget.
  auto result = session.EvalQuery(
      "?- wide(A), wide(B), wide(C), wide(D), "
      "A < B, B < C, C < D, D < A.");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  // Clearing the deadline makes the same session usable again.
  session.set_deadline_ms(0);
  auto quick = session.EvalQuery("?- wide(0).");
  EXPECT_TRUE(quick.ok());
}

TEST(SnapshotTest, DeadlineAbortsVmCompiledCrossProduct) {
  // A 1500 x 1500 cross product inside a module: the rule compiles to
  // join bytecode, so the 2.25M-solution enumeration runs on the VM,
  // which must poll the deadline itself rather than run to completion.
  Database db;
  ASSERT_TRUE(db.Consult("module xp.\nexport xp(ff).\n"
                         "xp(X, Y) :- a(X), b(Y).\nend_module.\n")
                  .ok());
  // Compile the query form while a and b are empty, so the 5 ms budget
  // is spent in the join rather than in rewriting (slow under sanitizers).
  ASSERT_TRUE(db.EvalQuery("xp(X, Y)").ok());
  std::string facts;
  for (int i = 0; i < 1500; ++i) {
    facts += "a(" + std::to_string(i) + "). b(" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(db.Consult(facts).ok());
  db.vm_counters()->applications.store(0);
  Session session(&db, /*deadline_ms=*/5);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = session.EvalQuery("?- xp(X, Y).");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
  // The VM ran the rule, and expiry did not re-run it interpreted.
  EXPECT_GT(db.vm_counters()->applications.load(), 0u);
  EXPECT_EQ(db.vm_counters()->runtime_fallbacks.load(), 0u);
}

// Satellite regression: a TraceSink registered at teardown time must not
// observe a destroyed registry — ~Database detaches observers before
// tearing down evaluation state.
TEST(SnapshotTest, TeardownWithRegisteredObserversIsClean) {
  class CountingSink : public obs::TraceSink {
   public:
    void Emit(const obs::TraceEvent&) override { events_.fetch_add(1); }
    std::atomic<uint64_t> events_{0};
  };
  CountingSink sink;
  {
    Database db;
    db.set_trace_sink(&sink);
    ASSERT_TRUE(db.Consult(PathModule()).ok());
    ASSERT_TRUE(db.Consult(EdgeBatch(1, 5)).ok());
    auto result = db.EvalQuery("?- path(1, X).");
    ASSERT_TRUE(result.ok());
    // db destroyed here with the sink still registered.
  }
  EXPECT_GT(sink.events_.load(), 0u);

  // And with sessions still holding snapshots: views are shared_ptrs,
  // so a snapshot outliving the database must not be dereferenced, but
  // dropping it after teardown must be safe.
  std::shared_ptr<const ReadView> survivor;
  {
    Database db;
    ASSERT_TRUE(db.Consult(EdgeBatch(1, 3)).ok());
    survivor = db.AcquireReadSnapshot();
  }
  survivor.reset();  // must not touch freed relation memory
}

TEST(SnapshotTest, EpochAdvancesPerPublication) {
  Database db;
  ASSERT_TRUE(db.Consult("p(1).").ok());
  auto v1 = db.AcquireReadSnapshot();
  uint64_t e1 = v1->epoch;
  // No commit since: same view, same epoch.
  auto v1b = db.AcquireReadSnapshot();
  EXPECT_EQ(v1.get(), v1b.get());
  ASSERT_TRUE(db.Consult("p(2).").ok());
  auto v2 = db.AcquireReadSnapshot();
  EXPECT_GT(v2->epoch, e1);
}

// ---------------------------------------------------------------------
// Frozen argument indexes: snapshot readers probe, never scan
// ---------------------------------------------------------------------

std::string HierModule() {
  return "module hier.\n"
         "export anc(bf, bb, fb).\n"
         "anc(X, Y) :- parent(Y, X).\n"
         "anc(X, Y) :- anc(X, Z), parent(Y, Z).\n"
         "end_module.\n";
}

// parent(Child, Parent) facts of a 3-ary tree with nodes n0..n<nodes-1>.
std::string TreeFacts(int nodes) {
  std::string out;
  for (int i = 1; i < nodes; ++i) {
    out += "parent(n" + std::to_string(i) + ", n" +
           std::to_string((i - 1) / 3) + ").\n";
  }
  return out;
}

std::vector<std::string> SortedRows(const StatusOr<QueryResult>& result) {
  std::vector<std::string> rows;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return rows;
  for (const AnswerRow& r : result->rows) rows.push_back(r.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

const FrozenIndexes* ParentIndexes(Database* db, const ReadView& view) {
  Relation* parent = db->FindBaseRelation(
      PredRef{db->factory()->symbols().Intern("parent"), 2});
  const ReadView::Entry* entry = view.EntryFor(parent);
  return entry != nullptr ? entry->indexes.get() : nullptr;
}

// Every query form through a Session answers as the live database does,
// and no PROBE_INDEX falls back to a scan of the snapshot table.
TEST(SnapshotTest, SessionProbesFrozenIndexesWithoutScanFallback) {
  Database db;
  ASSERT_TRUE(db.Consult(HierModule()).ok());
  ASSERT_TRUE(db.Consult(TreeFacts(121)).ok());
  Session session(&db);
  obs::VmCounters* vc = db.vm_counters();
  for (const char* q :
       {"?- anc(n0, Y).", "?- anc(n4, Y).", "?- anc(n0, n100).",
        "?- anc(n5, n100).", "?- anc(n4, n100).", "?- anc(X, n100).",
        "?- anc(X, n40).", "?- parent(Y, n4), parent(Z, Y)."}) {
    std::vector<std::string> live = SortedRows(db.EvalQuery(q));
    const uint64_t fallbacks = vc->probe_scan_fallbacks.load();
    const uint64_t probes = vc->probe_index.load();
    EXPECT_EQ(SortedRows(session.EvalQuery(q)), live) << q;
    EXPECT_EQ(vc->probe_scan_fallbacks.load(), fallbacks) << q;
    if (std::string(q).starts_with("?- anc")) {
      EXPECT_GT(vc->probe_index.load(), probes) << q;
    }
  }
}

// An index built at epoch k serves exactly epoch k: facts inserted or
// deleted (tombstoned) later stay invisible until the session refreshes.
TEST(SnapshotTest, FrozenIndexesKeepEpochIsolation) {
  Database db;
  ASSERT_TRUE(db.Consult(HierModule()).ok());
  ASSERT_TRUE(db.Consult(TreeFacts(40)).ok());
  Session reader(&db);
  const std::vector<std::string> anc_before =
      SortedRows(reader.EvalQuery("?- anc(X, n13)."));
  const std::vector<std::string> kids_before =
      SortedRows(reader.EvalQuery("?- parent(X, n1)."));
  ASSERT_EQ(kids_before.size(), 3u);

  Session writer(&db);
  auto update = writer.ApplyUpdate("+parent(n13, n2).\n-parent(n4, n1).\n");
  ASSERT_TRUE(update.ok()) << update.status().ToString();

  EXPECT_EQ(SortedRows(reader.EvalQuery("?- anc(X, n13).")), anc_before);
  EXPECT_EQ(SortedRows(reader.EvalQuery("?- parent(X, n1).")), kids_before);
  EXPECT_EQ(SortedRows(reader.EvalQuery("?- parent(n4, n1).")).size(), 1u);

  reader.Refresh();
  const std::vector<std::string> anc_after =
      SortedRows(reader.EvalQuery("?- anc(X, n13)."));
  EXPECT_EQ(anc_after, SortedRows(db.EvalQuery("?- anc(X, n13).")));
  EXPECT_NE(anc_after, anc_before);
  EXPECT_EQ(SortedRows(reader.EvalQuery("?- parent(X, n1).")).size(), 2u);
  EXPECT_TRUE(SortedRows(reader.EvalQuery("?- parent(n4, n1).")).empty());
}

// Publication builds no index; a table that did not change keeps its
// indexes in the next view; the last view holding them frees them.
TEST(SnapshotTest, FrozenIndexesAreLazySharedAndReleased) {
  Database db;
  ASSERT_TRUE(db.Consult(HierModule()).ok());
  ASSERT_TRUE(db.Consult(TreeFacts(40)).ok());
  std::shared_ptr<const ReadView> v1 = db.AcquireReadSnapshot();
  const FrozenIndexes* idx1 = ParentIndexes(&db, *v1);
  ASSERT_NE(idx1, nullptr);
  EXPECT_TRUE(idx1->Built().empty());
  {
    Session s(&db);
    ASSERT_FALSE(SortedRows(s.EvalQuery("?- anc(X, n13).")).empty());
  }
  EXPECT_FALSE(idx1->Built().empty());

  // A commit to another relation: parent's table and indexes carry over.
  ASSERT_TRUE(db.Consult("other(1).").ok());
  std::shared_ptr<const ReadView> v2 = db.AcquireReadSnapshot();
  EXPECT_EQ(ParentIndexes(&db, *v2), idx1);

  // A commit to parent: the new table starts with no index.
  ASSERT_TRUE(db.Consult("parent(n40, n13).").ok());
  std::shared_ptr<const ReadView> v3 = db.AcquireReadSnapshot();
  EXPECT_NE(ParentIndexes(&db, *v3), idx1);
  EXPECT_TRUE(ParentIndexes(&db, *v3)->Built().empty());

  Relation* parent = db.FindBaseRelation(
      PredRef{db.factory()->symbols().Intern("parent"), 2});
  std::weak_ptr<FrozenIndexes> old = v1->EntryFor(parent)->indexes;
  v1.reset();
  EXPECT_FALSE(old.expired());  // v2 still holds them
  v2.reset();
  EXPECT_TRUE(old.expired());
}

// Four readers make the first probe of one view at once: one index per
// column list gets built, and every answer is right.
TEST(SnapshotTest, ConcurrentFirstProbesShareOneIndex) {
  constexpr int kReaders = 4;
  Database db;
  ASSERT_TRUE(db.Consult(HierModule()).ok());
  ASSERT_TRUE(db.Consult(TreeFacts(364)).ok());
  const std::vector<std::string> expected =
      SortedRows(db.EvalQuery("?- anc(X, n300)."));
  ASSERT_EQ(expected.size(), 5u);
  std::shared_ptr<const ReadView> view = db.AcquireReadSnapshot();

  std::latch start(kReaders);
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Session session(&db);
      start.arrive_and_wait();
      auto result = session.EvalQuery("?- anc(X, n300).");
      if (SortedRows(result) != expected) wrong.fetch_add(1);
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);

  const FrozenIndexes* idx = ParentIndexes(&db, *view);
  ASSERT_NE(idx, nullptr);
  std::span<const ArgumentIndex* const> built = idx->Built();
  EXPECT_FALSE(built.empty());
  for (size_t i = 0; i < built.size(); ++i) {
    for (size_t j = i + 1; j < built.size(); ++j) {
      EXPECT_NE(built[i]->cols(), built[j]->cols());
    }
  }
}

// Negation and Contains under a view go through the frozen indexes and
// agree with live evaluation, non-ground stored facts included.
TEST(SnapshotTest, NegationAndContainsUnderView) {
  Database db;
  // deep(X): X's parent is not a child of n0, i.e. X is below level 2.
  ASSERT_TRUE(db.Consult("module deep.\n"
                         "export deep(f).\n"
                         "deep(X) :- parent(X, P), not parent(P, n0).\n"
                         "end_module.\n")
                  .ok());
  ASSERT_TRUE(db.Consult(TreeFacts(40)).ok());
  ASSERT_TRUE(db.Consult("edge(X, hub).\nedge(a, b).\n").ok());
  Session session(&db);
  const std::vector<std::string> live =
      SortedRows(db.EvalQuery("?- deep(X)."));
  ASSERT_EQ(live.size(), 30u);
  EXPECT_EQ(SortedRows(session.EvalQuery("?- deep(X).")), live);

  TermFactory* f = db.factory();
  Relation* edge =
      db.FindBaseRelation(PredRef{f->symbols().Intern("edge"), 2});
  ASSERT_NE(edge, nullptr);
  auto tuple = [&](const char* a, const char* b) {
    std::vector<const Arg*> args = {f->MakeAtom(a), f->MakeAtom(b)};
    return f->MakeTuple(args);
  };
  std::shared_ptr<const ReadView> view = db.AcquireReadSnapshot();
  {
    ScopedReadView scope(view.get());
    EXPECT_TRUE(edge->Contains(tuple("a", "b")));
    EXPECT_TRUE(edge->Contains(tuple("z", "hub")));  // edge(X, hub)
    EXPECT_FALSE(edge->Contains(tuple("b", "a")));
  }
  Session writer(&db);
  ASSERT_TRUE(writer.ApplyUpdate("-edge(a, b).\n").ok());
  ScopedReadView scope(view.get());
  EXPECT_TRUE(edge->Contains(tuple("a", "b")));  // deleted after the view
}

}  // namespace
}  // namespace coral
