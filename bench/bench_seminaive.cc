// Experiment C2 (DESIGN.md): semi-naive vs naive fixpoints (paper §5.3:
// semi-naive avoids repeating inferences across iterations) and Predicate
// Semi-Naive on mutually recursive predicates (paper §4.2: "better for
// programs with many mutually recursive predicates" — fewer iterations
// thanks to immediate availability of facts derived earlier in the pass).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/database.h"

namespace coral {
namespace {

std::string TcModule(const char* strategy) {
  return std::string(R"(
    module tc.
    export tc(bf).
  )") + strategy + R"(
    tc(X, Y) :- par(X, Y).
    tc(X, Y) :- par(X, Z), tc(Z, Y).
    end_module.
  )";
}

void RunTc(benchmark::State& state, const char* strategy) {
  int n = static_cast<int>(state.range(0));
  Database db;
  bench::MaybeProfile(&db);
  if (!db.Consult(TcModule(strategy)).ok()) return;
  if (!db.Consult(bench::ChainFacts("par", n)).ok()) return;
  for (auto _ : state) {
    auto res = db.EvalQuery("tc(n0, Y)");
    if (!res.ok() || res->rows.size() != static_cast<size_t>(n)) {
      state.SkipWithError("wrong answer count");
      return;
    }
  }
  state.counters["derivations"] =
      static_cast<double>(db.modules()->last_stats().solutions);
  state.counters["iterations"] =
      static_cast<double>(db.modules()->last_stats().iterations);
  bench::MaybeDumpProfile(&db, std::string("Tc ") + strategy + "/" +
                                   std::to_string(n));
}

void BM_Tc_Naive(benchmark::State& state) { RunTc(state, "@naive."); }
void BM_Tc_BasicSemiNaive(benchmark::State& state) {
  RunTc(state, "@bsn.");
}
void BM_Tc_PredicateSemiNaive(benchmark::State& state) {
  RunTc(state, "@psn.");
}
BENCHMARK(BM_Tc_Naive)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_Tc_BasicSemiNaive)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_Tc_PredicateSemiNaive)->Arg(32)->Arg(64)->Arg(128);

// Mutual recursion: a ring of k predicates p0 .. p(k-1), each feeding the
// next; BSN needs ~k iterations per new fact wave, PSN propagates within
// one pass (paper §4.2).
std::string MutualModule(int k, const char* strategy) {
  std::string rules;
  for (int i = 0; i < k; ++i) {
    int next = (i + 1) % k;
    rules += "p" + std::to_string(next) + "(Y) :- p" + std::to_string(i) +
             "(X), step(X, Y).\n";
  }
  return std::string("module mut.\nexport p0(f).\n") + strategy + "\n" +
         "p0(X) :- start(X).\n" + rules + "end_module.\n";
}

void RunMutual(benchmark::State& state, const char* strategy) {
  int k = 8;
  int n = static_cast<int>(state.range(0));
  Database db;
  bench::MaybeProfile(&db);
  if (!db.Consult(MutualModule(k, strategy)).ok()) return;
  std::string facts = "start(n0).\n" + bench::ChainFacts("step", n);
  if (!db.Consult(facts).ok()) return;
  for (auto _ : state) {
    auto res = db.EvalQuery("p0(Y)");
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(res->rows.size());
  }
  state.counters["iterations"] =
      static_cast<double>(db.modules()->last_stats().iterations);
  bench::MaybeDumpProfile(&db, std::string("Mutual ") + strategy + "/" +
                                   std::to_string(n));
}

void BM_Mutual_BSN(benchmark::State& state) { RunMutual(state, "@bsn."); }
void BM_Mutual_PSN(benchmark::State& state) { RunMutual(state, "@psn."); }
BENCHMARK(BM_Mutual_BSN)->Arg(64)->Arg(128);
BENCHMARK(BM_Mutual_PSN)->Arg(64)->Arg(128);

}  // namespace
}  // namespace coral

int main(int argc, char** argv) {
  coral::bench::ParseHarnessFlags(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
