// Tests for the evaluation observability subsystem (src/obs): exact
// per-rule and per-iteration statistics on a hand-computed transitive
// closure, trace-event sequencing, the report renderer, and registry
// readers racing a fixpoint writer.
//
// The fixture is a 5-node chain par(n0..n4) closed under
//
//   rule 0:  tc(X, Y) :- par(X, Y).            (non-recursive, "once")
//   rule 1:  tc(X, Y) :- par(X, Z), tc(Z, Y).  (one delta version)
//
// with @no_rewriting, so the full closure (10 tuples) is computed by
// basic semi-naive iteration. Hand-computed expectations:
//   once pass: rule 0 applied once, 4 solutions, 4 inserts.
//   iter 1: delta = 4 base pairs  -> 3 solutions (distance-2 pairs)
//   iter 2: delta = 3             -> 2 solutions (distance-3 pairs)
//   iter 3: delta = 2             -> 1 solution  (distance-4 pair)
//   iter 4: delta = 1             -> 0 solutions, fixpoint
// so rule 1: applications 4, solutions/derived/inserted 6, and the
// iteration log reads [3, 2, 1, 0].

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include <coral/coral.h>

namespace coral {
namespace {

constexpr const char* kChainFacts =
    "par(n0, n1). par(n1, n2). par(n2, n3). par(n3, n4).\n";

std::string TcModule(const std::string& annotations) {
  return "module tcmod.\n"
         "export tc(ff).\n"
         "@no_rewriting.\n" +
         annotations +
         "tc(X, Y) :- par(X, Y).\n"
         "tc(X, Y) :- par(X, Z), tc(Z, Y).\n"
         "end_module.\n";
}

class StatsTest : public ::testing::Test {
 protected:
  void Load(const std::string& src) {
    auto st = db.Consult(src);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }

  size_t Count(const std::string& query) {
    auto result = db.EvalQuery(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows.size() : 0;
  }

  uint64_t Val(const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  }

  /// Asserts the exact hand-computed TC counters on the given profile.
  void CheckTcProfile(const obs::ModuleProfile* p) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->activations(), 1u);
    ASSERT_EQ(p->rule_count(), 2u);

    const obs::RuleStats& r0 = p->rule(0);
    EXPECT_EQ(Val(r0.applications), 1u);
    EXPECT_EQ(Val(r0.solutions), 4u);
    EXPECT_EQ(Val(r0.derived), 4u);
    EXPECT_EQ(Val(r0.inserted), 4u);
    EXPECT_EQ(r0.duplicates(), 0u);

    const obs::RuleStats& r1 = p->rule(1);
    EXPECT_EQ(Val(r1.applications), 4u);
    EXPECT_EQ(Val(r1.solutions), 6u);
    EXPECT_EQ(Val(r1.derived), 6u);
    EXPECT_EQ(Val(r1.inserted), 6u);
    EXPECT_EQ(r1.duplicates(), 0u);

    EXPECT_EQ(p->total_solutions(), 10u);
    EXPECT_EQ(p->total_inserted(), 10u);
    EXPECT_EQ(p->total_duplicates(), 0u);

    // The iteration log covers the fixpoint loop (the once pass is not an
    // iteration): deltas 3, 2, 1 and the empty round that detects the
    // fixpoint.
    EXPECT_EQ(p->total_iterations(), 4u);
    std::vector<obs::IterationStats> iters = p->iterations();
    ASSERT_EQ(iters.size(), 4u);
    const uint64_t want_inserts[] = {3, 2, 1, 0};
    const uint64_t want_solutions[] = {3, 2, 1, 0};
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(iters[i].inserts, want_inserts[i]) << "iteration " << i;
      EXPECT_EQ(iters[i].solutions, want_solutions[i]) << "iteration " << i;
    }
    EXPECT_EQ(p->rule_text(0), "tc(X,Y) :- par(X,Y).");
  }

  Database db;
};

TEST_F(StatsTest, TcCountersExactSerial) {
  Load(std::string(kChainFacts) + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  CheckTcProfile(db.stats()->Find("tcmod"));
}

TEST_F(StatsTest, DuplicateDerivationsAreCounted) {
  // par = {(a,b), (b,c), (a,c)}: the once pass inserts all three; the
  // first delta round re-derives (a,c) via (a,b)+(b,c), which the
  // duplicate check rejects.
  Load("par(a, b). par(b, c). par(a, c).\n" + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 3u);
  const obs::ModuleProfile* p = db.stats()->Find("tcmod");
  ASSERT_NE(p, nullptr);
  const obs::RuleStats& r1 = p->rule(1);
  EXPECT_EQ(Val(r1.derived), 1u);
  EXPECT_EQ(Val(r1.inserted), 0u);
  EXPECT_EQ(r1.duplicates(), 1u);
  EXPECT_EQ(p->total_duplicates(), 1u);
}

TEST_F(StatsTest, ProfilingDisabledCollectsNothing) {
  Load(std::string(kChainFacts) + TcModule(""));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  EXPECT_TRUE(db.stats()->empty());
  EXPECT_EQ(db.stats()->Find("tcmod"), nullptr);
}

TEST_F(StatsTest, GlobalSwitchProfilesUnannotatedModules) {
  Load(std::string(kChainFacts) + TcModule(""));
  db.set_profiling(true);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  CheckTcProfile(db.stats()->Find("tcmod"));
}

TEST_F(StatsTest, CountsAggregateAcrossActivations) {
  // A non-save module is re-evaluated per query; the registry keys by
  // module name, so a second activation doubles every exact counter.
  Load(std::string(kChainFacts) + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  const obs::ModuleProfile* p = db.stats()->Find("tcmod");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->activations(), 2u);
  EXPECT_EQ(Val(p->rule(0).applications), 2u);
  EXPECT_EQ(Val(p->rule(1).applications), 8u);
  EXPECT_EQ(p->total_inserted(), 20u);
  EXPECT_EQ(p->total_iterations(), 8u);
}

TEST_F(StatsTest, ClearStatsDropsEverything) {
  Load(std::string(kChainFacts) + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  EXPECT_FALSE(db.stats()->empty());
  db.ClearStats();
  EXPECT_TRUE(db.stats()->empty());
  // Profiling stays on: the next activation re-registers.
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  const obs::ModuleProfile* p = db.stats()->Find("tcmod");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->activations(), 1u);
}

TEST_F(StatsTest, TraceEventSequenceSerial) {
  Load(std::string(kChainFacts) + TcModule(""));
  obs::CollectingTraceSink sink;
  db.set_trace_sink(&sink);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  db.set_trace_sink(nullptr);

  const std::vector<obs::TraceEvent>& ev = sink.events();
  ASSERT_FALSE(ev.empty());
  EXPECT_EQ(ev.front().kind, obs::TraceKind::kModuleCall);
  EXPECT_EQ(ev.front().module, "tcmod");

  size_t begins = 0, ends = 0, fires = 0, inserts = 0, dones = 0;
  for (const obs::TraceEvent& e : ev) {
    switch (e.kind) {
      case obs::TraceKind::kIterBegin: ++begins; break;
      case obs::TraceKind::kIterEnd: ++ends; break;
      case obs::TraceKind::kRuleFire: ++fires; break;
      case obs::TraceKind::kInsert: ++inserts; break;
      case obs::TraceKind::kModuleDone: ++dones; break;
      default: break;
    }
  }
  EXPECT_EQ(begins, 4u);
  EXPECT_EQ(ends, 4u);
  // One rule-fire per delta-version application inside the fixpoint loop
  // (the once pass also fires rule 0 once).
  EXPECT_EQ(fires, 5u);
  EXPECT_EQ(inserts, 10u);
  EXPECT_EQ(dones, 1u);
}

TEST_F(StatsTest, JsonlSinkEmitsOneObjectPerEvent) {
  Load(std::string(kChainFacts) + TcModule(""));
  std::ostringstream out;
  obs::JsonlTraceSink sink(&out);
  db.set_trace_sink(&sink);
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  db.set_trace_sink(nullptr);

  std::istringstream in(out.str());
  std::string line;
  size_t n = 0, inserts = 0;
  while (std::getline(in, line)) {
    auto ev = obs::TraceEvent::FromJson(line);
    ASSERT_TRUE(ev.ok()) << line << ": " << ev.status().ToString();
    if (ev->kind == obs::TraceKind::kInsert) ++inserts;
    ++n;
  }
  EXPECT_GE(n, 10u);
  EXPECT_EQ(inserts, 10u);
}

TEST_F(StatsTest, ReportRendersRulesAndIterations) {
  Load(std::string(kChainFacts) + TcModule("@profile.\n"));
  EXPECT_EQ(Count("tc(X, Y)"), 10u);
  std::string report = db.ProfileReport();
  EXPECT_NE(report.find("tcmod"), std::string::npos) << report;
  EXPECT_NE(report.find("tc(X,Y) :- par(X,Z), tc(Z,Y)."), std::string::npos)
      << report;
  EXPECT_NE(report.find("10 tuple(s) inserted"), std::string::npos)
      << report;
}

TEST_F(StatsTest, EmptyReportExplainsHowToEnable) {
  std::string report = db.ProfileReport();
  EXPECT_NE(report.find("@profile"), std::string::npos) << report;
}

// Concurrent StatsRegistry readers while the fixpoint writes: reader
// threads hammer the registry's read surface (profiles(), Find, per-rule
// totals, iteration logs, the rendered report) while the main thread
// repeatedly evaluates a profiled module. Under TSan (the tsan CI job
// runs this binary) this is the race harness for the kRankStatsRegistry /
// kRankModuleProfile locks and the relaxed-atomic rule counters — the
// readers-vs-writers shape a monitoring client of the query server has.
TEST(StatsRaceTest, StatsRegistryReadersVsFixpointWriters) {
  constexpr uint64_t kNodes = 60;
  uint64_t rng = 4242 * 0x9e3779b97f4a7c15ull + 1;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % kNodes;
  };
  std::string facts;
  for (uint64_t i = 0; i < 4 * kNodes; ++i) {
    const uint64_t from = next();
    facts += "e(" + std::to_string(from) + ", " + std::to_string(next()) +
             ").\n";
  }
  const std::string mod =
      "module tcm.\nexport tc(ff).\n@no_rewriting.\n"
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\nend_module.\n";

  Database db;
  db.set_profiling(true);
  ASSERT_TRUE(db.Consult(facts).ok());
  ASSERT_TRUE(db.Consult(mod).ok());
  // Prime one activation so readers immediately see a profile.
  ASSERT_TRUE(db.EvalQuery("tc(X, Y)").ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const obs::ModuleProfile* p : db.stats()->profiles()) {
          // Every read path a monitoring client would hit.
          (void)p->total_inserted();
          (void)p->total_solutions();
          (void)p->total_duplicates();
          (void)p->activations();
          (void)p->iterations();
          size_t n = p->rule_count();
          for (size_t i = 0; i < n; ++i) {
            (void)p->rule(i).inserted.load(std::memory_order_relaxed);
            (void)p->rule_text(i);
          }
        }
        const obs::ModuleProfile* tcm = db.stats()->Find("tcm");
        if (tcm != nullptr) (void)tcm->total_iterations();
        (void)db.ProfileReport();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr int kActivations = 8;
  uint64_t expected_per_run = 0;
  for (int i = 0; i < kActivations; ++i) {
    auto res = db.EvalQuery("tc(X, Y)");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    if (expected_per_run == 0) expected_per_run = res->rows.size();
    EXPECT_EQ(res->rows.size(), expected_per_run) << "activation " << i;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(std::memory_order_relaxed), 0u);

  // Counters must end exact despite the concurrent readers: kActivations
  // + 1 identical activations accumulate an exact multiple.
  const obs::ModuleProfile* tcm = db.stats()->Find("tcm");
  ASSERT_NE(tcm, nullptr);
  EXPECT_EQ(tcm->activations(), static_cast<uint64_t>(kActivations) + 1);
  EXPECT_EQ(tcm->total_inserted() % (kActivations + 1), 0u);
}

}  // namespace
}  // namespace coral
