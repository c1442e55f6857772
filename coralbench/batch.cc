// batch_closure: each op is a batch job on a fresh Database — consult a
// recursive module plus a seeded random graph, evaluate the all-pairs
// closure, check it.

#include <memory>

#include "coralbench/bench.h"

namespace coralbench {
namespace {

constexpr char kModule[] =
    "module closure.\n"
    "export tc(ff).\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
    "end_module.\n";

/// A random digraph with `nodes` nodes and 4 * nodes distinct edges (no
/// self loops), and its closure size by BFS from every node.
struct Graph {
  std::string text;
  int64_t closure_pairs = 0;

  Graph(int nodes, uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<int>> succ(nodes);
    std::vector<std::vector<bool>> has(nodes, std::vector<bool>(nodes));
    text = kModule;
    for (int m = 0; m < 4 * nodes;) {
      int a = static_cast<int>(rng.Below(static_cast<uint64_t>(nodes)));
      int b = static_cast<int>(rng.Below(static_cast<uint64_t>(nodes)));
      if (a == b || has[a][b]) continue;
      has[a][b] = true;
      succ[a].push_back(b);
      text += "edge(v" + std::to_string(a) + ", v" + std::to_string(b) +
              ").\n";
      ++m;
    }
    for (int s = 0; s < nodes; ++s) {
      // tc(s, y) holds for every y reachable by one or more edges.
      std::vector<bool> seen(nodes);
      std::vector<int> frontier(succ[s]);
      for (int y : frontier) seen[y] = true;
      while (!frontier.empty()) {
        int u = frontier.back();
        frontier.pop_back();
        ++closure_pairs;
        for (int y : succ[u]) {
          if (!seen[y]) {
            seen[y] = true;
            frontier.push_back(y);
          }
        }
      }
    }
  }
};

struct OpCounts {
  VmSnapshot vm;
  uint64_t iterations = 0, solutions = 0, inserted = 0, derived = 0;
  size_t hashcons = 0, bytes = 0;
};

/// One batch job. Untraced: the time to a consulted database (creation
/// plus Consult) goes to `*load_s`. Traced: spans around Consult and
/// EvalQuery, profiling on, and the job's counts added to `counts`.
bool RunJob(const Graph& g, int64_t expected, double* load_s, SpanLog* log,
            uint64_t op, OpCounts* counts) {
  int64_t root = log != nullptr ? log->Begin("op.batch", -1, op) : -1;
  int64_t t0 = NowNs();
  auto db = std::make_unique<coral::Database>();
  if (log != nullptr) db->set_profiling(true);
  int64_t s = log != nullptr ? log->Begin("core.consult", root, op) : -1;
  bool ok = db->Consult(g.text).ok();
  if (log != nullptr) log->End(s);
  if (load_s != nullptr) *load_s = static_cast<double>(NowNs() - t0) / 1e9;
  {
    s = log != nullptr ? log->Begin("core.eval", root, op) : -1;
    auto res = db->EvalQuery("?- tc(X, Y).");
    if (log != nullptr) log->End(s);
    ok = ok && res.ok() && static_cast<int64_t>(res->rows.size()) == expected;
  }
  if (log != nullptr) {
    counts->vm += VmSnapshot::Take(*db);
    if (const coral::obs::ModuleProfile* p = db->stats()->Find("closure")) {
      counts->iterations += p->total_iterations();
      counts->solutions += p->total_solutions();
      counts->inserted += p->total_inserted();
      counts->derived += p->total_derived();
    }
    counts->hashcons += db->factory()->hashcons_size();
    counts->bytes += db->factory()->bytes_allocated();
  }
  db.reset();
  if (log != nullptr) log->End(root);
  return ok;
}

}  // namespace

bool RunBatchClosure(const Options& opts, Result* out) {
  const int nodes = opts.smoke ? 40 : 100;
  const int64_t skew = opts.skew_expected;
  uint64_t next_graph = 0;
  auto next = [&]() {
    return std::make_unique<Graph>(nodes,
                                   SubSeed(opts.seed, 1000 + next_graph++));
  };

  // A job builds its own database, so set-up here is the part of each
  // measured job before its evaluation: a fresh Database consulting the
  // module and the graph (parse, analysis, load). Work moved from
  // evaluation into consult shows here. The median is over every job of
  // the run, so it sees the machine's speed phases the way op times do.
  std::vector<double> setup_s;
  Samples op_ms;
  RssAtOps rss(100);
  double plain_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(plain_s * 1e9);
  while (NowNs() < deadline) {
    auto g = next();
    double load_s = 0;
    int64_t t0 = NowNs();
    bool ok = RunJob(*g, g->closure_pairs + skew, &load_s, nullptr, 0,
                     nullptr);
    op_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
    setup_s.push_back(load_s);
    out->Count(ok);
    rss.Tick();
  }
  double elapsed = static_cast<double>(NowNs() - start) / 1e9;

  if (!opts.trace) {
    out->Add("setup_s", Median(setup_s), "s");
    out->Add("peak_rss_mb", rss.Mb(), "MB");
    out->Add("ops_per_s", static_cast<double>(op_ms.size()) / elapsed, "1/s");
    out->Add("op_p50_ms", op_ms.Quantile(0.5), "ms");
    // p95, not p99: ~1,100 jobs a run, and machine-speed spikes moved a
    // p99 by a fifth between runs.
    out->Add("op_tail_ms", op_ms.Quantile(0.95), "ms");
    out->Report("peak_rss_at_ops", static_cast<double>(rss.ops()), "count");
    out->Report("batch_p50_ms", op_ms.Quantile(0.5), "ms");
    out->Report("batch_p99_ms", op_ms.Quantile(0.99), "ms");
    out->Report("batch_samples", static_cast<double>(op_ms.size()), "count");
    return true;
  }

  SpanLog log;
  OpCounts counts;
  uint64_t ops = 0;
  std::unique_ptr<Graph> last;
  int64_t origin = NowNs();
  deadline = origin + static_cast<int64_t>(opts.seconds / 2 * 1e9);
  while (NowNs() < deadline) {
    last = next();
    out->Count(RunJob(*last, last->closure_pairs + skew, nullptr, &log, ops,
                      &counts));
    ++ops;
  }
  double n = ops == 0 ? 1 : static_cast<double>(ops);
  double consult_us = log.MeanUs("core.consult");
  double eval_us = log.MeanUs("core.eval");
  double op_us = log.MeanRootUs();
  out->Add("core.consult_us", consult_us, "us");
  out->Add("core.eval_us", eval_us, "us");
  out->Add("core.iterations", static_cast<double>(counts.iterations) / n,
           "count");
  out->Add("core.solutions", static_cast<double>(counts.solutions) / n,
           "count");
  out->Add("core.inserted", static_cast<double>(counts.inserted) / n,
           "count");
  out->Add("core.dup_ratio",
           counts.derived == 0 ? 0
                               : static_cast<double>(counts.inserted) /
                                     static_cast<double>(counts.derived),
           "ratio");
  AddVmMetrics(counts.vm, ops, out);
  // Each job's term factory is fresh, so its whole size is that job's
  // growth.
  AddDataMetrics(static_cast<double>(counts.hashcons),
                 static_cast<double>(counts.bytes), ops, out);
  out->Add("trace.coverage_pct",
           op_us > 0 ? 100.0 * (consult_us + eval_us) / op_us : 0, "%");
  out->Add("trace.overhead_pct",
           op_ms.Mean() > 0 ? 100.0 * (op_us / 1e3 / op_ms.Mean() - 1.0) : 0,
           "%");
  if (last != nullptr) {
    coral::Database db;
    if (!db.Consult(last->text).ok()) return false;
    AddFrontEndMetrics(&db, last->text, opts.smoke ? 2 : 5, out);
  }
  if (!opts.spans_out.empty() &&
      !WriteSpans(opts.spans_out, opts, log, origin)) {
    return false;
  }
  return true;
}

}  // namespace coralbench
