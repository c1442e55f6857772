// Experiment C3 (DESIGN.md): magic rewriting propagates query selections
// (paper §4.1). A bound-source ancestor query over disconnected chains:
// without rewriting the module computes the full closure of every chain;
// with Magic Templates / Supplementary Magic only the queried chain's
// suffix subgoals are derived. Supplementary Magic additionally shares
// rule-prefix joins (the paper's default).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/database.h"

namespace coral {
namespace {

std::string AncModule(const char* rewrite) {
  return std::string(R"(
    module anc.
    export anc(bf).
  )") + rewrite + R"(
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )";
}

/// `chains` disjoint chains of length `len` each; query the first chain.
void RunBoundQuery(benchmark::State& state, const char* rewrite) {
  int len = static_cast<int>(state.range(0));
  int chains = 8;
  Database db;
  bench::MaybeProfile(&db);
  if (!db.Consult(AncModule(rewrite)).ok()) return;
  std::string facts;
  for (int c = 0; c < chains; ++c) {
    facts += bench::ChainFacts("par", len, "c" + std::to_string(c) + "x");
  }
  if (!db.Consult(facts).ok()) return;
  for (auto _ : state) {
    auto res = db.EvalQuery("anc(c0x0, Y)");
    if (!res.ok() || res->rows.size() != static_cast<size_t>(len)) {
      state.SkipWithError("wrong answer count");
      return;
    }
  }
  state.counters["inserts"] =
      static_cast<double>(db.modules()->last_stats().inserts);
  state.counters["derivations"] =
      static_cast<double>(db.modules()->last_stats().solutions);
  bench::MaybeDumpProfile(&db, std::string("BoundQuery ") + rewrite + "/" +
                                   std::to_string(len));
}

void BM_BoundQuery_NoRewriting(benchmark::State& state) {
  RunBoundQuery(state, "@no_rewriting.");
}
void BM_BoundQuery_MagicTemplates(benchmark::State& state) {
  RunBoundQuery(state, "@magic.");
}
void BM_BoundQuery_SupplementaryMagic(benchmark::State& state) {
  RunBoundQuery(state, "@supplementary_magic.");
}
// Context factoring (paper §4.1): right-linear TC drops from the
// quadratic adorned-answer relation to a linear context relation.
void BM_BoundQuery_ContextFactoring(benchmark::State& state) {
  RunBoundQuery(state, "@factoring.");
}
BENCHMARK(BM_BoundQuery_NoRewriting)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_BoundQuery_MagicTemplates)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_BoundQuery_SupplementaryMagic)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_BoundQuery_ContextFactoring)->Arg(16)->Arg(32)->Arg(64);

// All-free query: bindings ignored; magic degenerates to full fixpoint
// (paper §4.1: "by specifying that all arguments are free, bindings in
// the query are ignored"). All strategies converge.
void RunFreeQuery(benchmark::State& state, const char* rewrite) {
  int len = static_cast<int>(state.range(0));
  Database db;
  bench::MaybeProfile(&db);
  std::string mod = std::string(R"(
    module anc.
    export anc(ff).
  )") + rewrite + R"(
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- par(X, Z), anc(Z, Y).
    end_module.
  )";
  if (!db.Consult(mod).ok()) return;
  if (!db.Consult(bench::ChainFacts("par", len)).ok()) return;
  for (auto _ : state) {
    auto res = db.EvalQuery("anc(X, Y)");
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(res->rows.size());
  }
  state.counters["inserts"] =
      static_cast<double>(db.modules()->last_stats().inserts);
  bench::MaybeDumpProfile(&db, std::string("FreeQuery ") + rewrite + "/" +
                                   std::to_string(len));
}

void BM_FreeQuery_NoRewriting(benchmark::State& state) {
  RunFreeQuery(state, "@no_rewriting.");
}
void BM_FreeQuery_SupplementaryMagic(benchmark::State& state) {
  RunFreeQuery(state, "@supplementary_magic.");
}
BENCHMARK(BM_FreeQuery_NoRewriting)->Arg(32);
BENCHMARK(BM_FreeQuery_SupplementaryMagic)->Arg(32);

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
