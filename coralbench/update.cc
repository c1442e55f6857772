// update_fresh: an embedded store with a saved transitive-closure module
// and a saved aggregate view, both over seeded chains of edges. One op =
// one single-edge delete or re-insert through Session::ApplyUpdate, then
// one fresh read through Database::EvalQuery. Reads go through the
// Database because only a reader without a snapshot uses the saved
// instance (a Session query gets a fresh activation over its snapshot,
// ModuleManager::Call), and a fresh closure of all chains per read would
// cost seconds.

#include <algorithm>
#include <memory>

#include "coralbench/bench.h"
#include "src/core/session.h"
#include "src/lang/parser.h"

namespace coralbench {
namespace {

constexpr char kModules[] =
    "module tc.\n"
    "export tc(ff).\n"
    "@save_module.\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
    "end_module.\n"
    "module outdeg.\n"
    "export outdeg(ff).\n"
    "@save_module.\n"
    "outdeg(X, count(<Y>)) :- edge(X, Y).\n"
    "end_module.\n";

/// Disjoint chains c<k>n0 -> c<k>n1 -> ... of seeded lengths 8..12, and
/// the generator-kept state the oracle reads: which edge of which chain
/// is currently deleted.
struct Chains {
  std::vector<int> length;
  std::string text;
  int deleted_chain = -1, deleted_pos = -1;
  int64_t ops = 0;       // ops drawn so far
  int aggregate_at = 0;  // which op of the current 4 reads out-degree

  Chains(int edges, uint64_t seed) {
    Rng rng(SubSeed(seed, 1));
    text = kModules;
    for (int total = 0; total < edges;) {
      int len = std::min(8 + static_cast<int>(rng.Below(5)), edges - total);
      int c = static_cast<int>(length.size());
      for (int i = 0; i < len; ++i) text += Edge(c, i) + "\n";
      length.push_back(len);
      total += len;
    }
  }
  static std::string Node(int c, int i) {
    return "c" + std::to_string(c) + "n" + std::to_string(i);
  }
  static std::string Edge(int c, int i) {
    return "edge(" + Node(c, i) + ", " + Node(c, i + 1) + ").";
  }
  int chains() const { return static_cast<int>(length.size()); }
  /// Chain arithmetic: nodes reachable from the chain's root.
  int64_t Cone(int c) const {
    return c == deleted_chain ? deleted_pos : length[c];
  }
  /// Out-degree table: rows of outdeg(node, C) (C is then 1).
  int64_t OutDegRows(int c, int i) const {
    return c == deleted_chain && i == deleted_pos ? 0 : 1;
  }
};

struct Op {
  std::string update;  // "+edge(...).\n" or "-edge(...).\n"
  std::string query;
  bool aggregate;      // outdeg read (else the TC cone)
  int64_t expected;    // row count
};

/// The next op: re-insert the deleted edge if there is one, else delete a
/// random edge; then a read of the touched chain, or of the touched node's
/// out-degree at one seeded place in every 4 ops. Advances the oracle
/// state.
Op NextOp(Chains* ch, Rng* rng, int64_t skew) {
  Op op;
  if (ch->ops % 4 == 0) ch->aggregate_at = static_cast<int>(rng->Below(4));
  op.aggregate = ch->ops % 4 == ch->aggregate_at;
  ++ch->ops;
  int c, i;
  if (ch->deleted_chain >= 0) {
    c = ch->deleted_chain;
    i = ch->deleted_pos;
    op.update = "+" + Chains::Edge(c, i) + "\n";
    ch->deleted_chain = ch->deleted_pos = -1;
  } else {
    c = static_cast<int>(rng->Below(static_cast<uint64_t>(ch->chains())));
    i = static_cast<int>(rng->Below(static_cast<uint64_t>(ch->length[c])));
    op.update = "-" + Chains::Edge(c, i) + "\n";
    ch->deleted_chain = c;
    ch->deleted_pos = i;
  }
  if (op.aggregate) {
    op.query = "?- outdeg(" + Chains::Node(c, i) + ", C).";
    op.expected = ch->OutDegRows(c, i);
  } else {
    op.query = "?- tc(" + Chains::Node(c, 0) + ", Y).";
    op.expected = ch->Cone(c);
  }
  op.expected += skew;
  return op;
}

bool CheckRead(const Op& op,
               const coral::StatusOr<coral::QueryResult>& res) {
  if (!res.ok() || static_cast<int64_t>(res->rows.size()) != op.expected) {
    return false;
  }
  if (!op.aggregate) return true;
  for (const coral::AnswerRow& row : res->rows) {
    for (const auto& [name, term] : row.bindings) {
      if (name == "C" && term->ToString() != "1") return false;
    }
  }
  return true;
}

/// The UpdateBatch of one "+fact." / "-fact." line, for the replayed
/// writes that go straight to Database::ApplyUpdate. Built outside the
/// timed spans.
bool BuildBatch(coral::Database* db, const std::string& text,
                coral::UpdateBatch* batch) {
  std::string_view line(text);
  while (!line.empty() && (line.back() == '\n' || line.back() == ' ')) {
    line.remove_suffix(1);
  }
  if (line.empty() || (line[0] != '+' && line[0] != '-')) return false;
  coral::Parser parser(line.substr(1), db->factory());
  auto prog = parser.ParseProgram();
  if (!prog.ok() || prog->top_facts.size() != 1) return false;
  (line[0] == '+' ? batch->inserts : batch->deletes)
      .push_back(std::move(prog->top_facts[0]));
  return true;
}

/// A database over the chains with both saved instances materialized and
/// the first maintenance pass (support counts, index backfill) paid.
struct Harness {
  coral::Database db;
  std::unique_ptr<coral::Session> session;
  double consult_s = 0, first_query_s = 0, first_update_s = 0;

  bool Init(const Chains& ch) {
    int64_t t0 = NowNs();
    if (!db.Consult(ch.text).ok()) return false;
    session = std::make_unique<coral::Session>(&db);
    int64_t t1 = NowNs();
    auto tc = db.EvalQuery("?- tc(" + Chains::Node(0, 0) + ", Y).");
    auto od = db.EvalQuery("?- outdeg(" + Chains::Node(0, 0) + ", C).");
    if (!tc.ok() || static_cast<int>(tc->rows.size()) != ch.length[0] ||
        !od.ok() || od->rows.size() != 1) {
      return false;
    }
    int64_t t2 = NowNs();
    std::string e = Chains::Edge(0, 0);
    if (!session->ApplyUpdate("-" + e + "\n").ok() ||
        !session->ApplyUpdate("+" + e + "\n").ok()) {
      return false;
    }
    int64_t t3 = NowNs();
    consult_s = static_cast<double>(t1 - t0) / 1e9;
    first_query_s = static_cast<double>(t2 - t1) / 1e9;
    first_update_s = static_cast<double>(t3 - t2) / 1e9;
    return true;
  }
};

}  // namespace

bool RunUpdateFresh(const Options& opts, Result* out) {
  Chains ch(opts.smoke ? 2000 : 100000, opts.seed);
  const int setups = opts.trace || opts.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Harness> h;
  for (int i = 0; i < setups; ++i) {
    h.reset();  // one harness at a time, so peak RSS counts one
    h = std::make_unique<Harness>();
    if (!h->Init(ch)) return false;
    setup_s.push_back(h->consult_s + h->first_query_s + h->first_update_s);
  }
  coral::Session& session = *h->session;
  Rng rng(SubSeed(opts.seed, 100));
  const int64_t skew = opts.skew_expected;

  // Untraced: the end-to-end loop. In a traced run its first half is the
  // overhead baseline.
  Samples op_ms, update_ms, query_ms, agg_ms;
  RssAtOps rss(40);
  double plain_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(plain_s * 1e9);
  while (NowNs() < deadline) {
    Op op = NextOp(&ch, &rng, skew);
    int64_t t0 = NowNs();
    auto up = session.ApplyUpdate(op.update);
    int64_t t1 = NowNs();
    auto res = h->db.EvalQuery(op.query);
    int64_t t2 = NowNs();
    out->Count(up.ok() && CheckRead(op, res));
    op_ms.Add(static_cast<double>(t2 - t0) / 1e6);
    rss.Tick();
    update_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    (op.aggregate ? agg_ms : query_ms).Add(static_cast<double>(t2 - t1) / 1e6);
  }
  double elapsed = static_cast<double>(NowNs() - start) / 1e9;

  if (!opts.trace) {
    Samples reads = query_ms;
    reads.Append(agg_ms);
    out->Add("setup_s", Median(setup_s), "s");
    out->Add("peak_rss_mb", rss.Mb(), "MB");
    out->Add("ops_per_s", static_cast<double>(op_ms.size()) / elapsed, "1/s");
    out->Add("op_p50_ms", op_ms.Quantile(0.5), "ms");
    // p95: ~300 ops a run, so a p99 would rest on three samples. It falls
    // among the out-degree reads (1 op in 4).
    out->Add("op_tail_ms", op_ms.Quantile(0.95), "ms");
    out->Report("peak_rss_at_ops", static_cast<double>(rss.ops()), "count");
    out->Report("op_samples", static_cast<double>(op_ms.size()), "count");
    out->Report("update_p50_ms", update_ms.Quantile(0.5), "ms");
    out->Report("update_p99_ms", update_ms.Quantile(0.99), "ms");
    out->Report("query_p50_ms", reads.Quantile(0.5), "ms");
    out->Report("query_p99_ms", reads.Quantile(0.99), "ms");
    out->Report("query_tc_p50_ms", query_ms.Quantile(0.5), "ms");
    out->Report("query_tc_samples", static_cast<double>(query_ms.size()),
                "count");
    out->Report("query_outdeg_p50_ms", agg_ms.Quantile(0.5), "ms");
    out->Report("query_outdeg_samples", static_cast<double>(agg_ms.size()),
                "count");
    return true;
  }

  // Traced half. Ops come in delete/re-insert pairs of one edge. Each
  // pair goes through Session::ApplyUpdate (root "op") and is replayed
  // through Database::ApplyUpdate on a batch built beforehand (root
  // "replay"), in alternating order from pair to pair. Both do the same
  // maintenance work on the same edge, so the difference of the two
  // writes of an op is Session::ApplyUpdate's own text step; the
  // maintenance time varies by far more than that step from op to op, so
  // the median of the paired differences is reported.
  if (ch.deleted_chain >= 0) {  // close the untraced loop's open pair
    Op op = NextOp(&ch, &rng, skew);
    out->Count(session.ApplyUpdate(op.update).ok() &&
               CheckRead(op, h->db.EvalQuery(op.query)));
  }
  coral::TermFactory* tf = h->db.factory();
  size_t hc0 = tf->hashcons_size(), by0 = tf->bytes_allocated();
  SpanLog log;
  VmSnapshot vm_total;
  uint64_t maintained = 0, invalidated = 0, derived_deleted = 0,
           rederived = 0, derived_inserted = 0, ops = 0;
  int64_t origin = NowNs();
  deadline = origin + static_cast<int64_t>(opts.seconds / 2 * 1e9);
  std::vector<double> text_diff_us;
  for (uint64_t pairs = 0; NowNs() < deadline; ++pairs) {
    const Op pair[2] = {NextOp(&ch, &rng, skew), NextOp(&ch, &rng, skew)};
    double write_us[2][2];  // [replay][op of the pair]
    for (bool replay : {pairs % 2 == 1, pairs % 2 == 0}) {
      for (int k = 0; k < 2; ++k) {
        const Op& op = pair[k];
        coral::UpdateBatch batch;
        bool built = !replay || BuildBatch(&h->db, op.update, &batch);
        VmSnapshot vm0 = VmSnapshot::Take(h->db);
        int64_t root = log.Begin(replay ? "replay" : "op", -1, ops);
        int64_t s = log.Begin(
            replay ? "core.apply_update" : "core.session_apply_update", root,
            ops);
        auto up = replay ? h->db.ApplyUpdate(batch)
                         : session.ApplyUpdate(op.update);
        log.End(s);
        const Span& w = log.spans()[static_cast<size_t>(s)];
        write_us[replay][k] = static_cast<double>(w.end_ns - w.start_ns) / 1e3;
        if (replay) session.Refresh();
        s = log.Begin("core.eval", root, ops);
        auto res = h->db.EvalQuery(op.query);
        log.End(s);
        log.End(root);
        vm_total += VmSnapshot::Take(h->db) - vm0;
        out->Count(built && up.ok() && CheckRead(op, res));
        if (up.ok()) {
          maintained += up->maintained;
          invalidated += up->invalidated;
          derived_deleted += up->derived_deleted;
          rederived += up->rederived;
          derived_inserted += up->derived_inserted;
        }
        ++ops;
      }
    }
    for (int k = 0; k < 2; ++k) {
      text_diff_us.push_back(write_us[0][k] - write_us[1][k]);
    }
  }

  double apply_us = log.MeanUs("core.apply_update");
  double text_us = Median(text_diff_us);
  double eval_us = log.MeanUs("core.eval", "op");
  double op_us = log.MeanUs("op");
  out->Add("core.eval_us", log.MeanUs("core.eval"), "us");
  out->Add("core.apply_update_us", apply_us, "us");
  out->Add("core.update_text_us", text_us, "us");
  double n = ops == 0 ? 1 : static_cast<double>(ops);
  out->Add("core.maintained", static_cast<double>(maintained) / n, "count");
  out->Add("core.invalidated", static_cast<double>(invalidated) / n, "count");
  out->Add("core.derived_deleted", static_cast<double>(derived_deleted) / n,
           "count");
  out->Add("core.rederived", static_cast<double>(rederived) / n, "count");
  out->Add("core.derived_inserted", static_cast<double>(derived_inserted) / n,
           "count");
  AddVmMetrics(vm_total, ops, out);
  AddDataMetrics(static_cast<double>(tf->hashcons_size() - hc0),
                 static_cast<double>(tf->bytes_allocated() - by0), ops, out);
  // Over the "op" roots, the ones that take the Session path.
  out->Add("trace.coverage_pct",
           op_us > 0 ? 100.0 * (text_us + apply_us + eval_us) / op_us : 0,
           "%");
  out->Add("trace.overhead_pct",
           op_ms.Mean() > 0 ? 100.0 * (op_us / 1e3 / op_ms.Mean() - 1.0) : 0,
           "%");

  // Snapshot publication after a commit, which a Session reader would
  // pay on its next query; timed in its own pass because publishing
  // changes what the following commits do.
  for (int i = 0; i < (opts.smoke ? 4 : 40); ++i, ++ops) {
    Op op = NextOp(&ch, &rng, skew);
    out->Count(session.ApplyUpdate(op.update).ok());
    int64_t s = log.Begin("core.snapshot_acquire", -1, ops);
    h->db.AcquireReadSnapshot();
    log.End(s);
  }
  out->Add("core.snapshot_acquire_us", log.MeanUs("core.snapshot_acquire"),
           "us");
  out->Add("setup.consult_s", h->consult_s, "s");
  out->Add("setup.first_query_s", h->first_query_s, "s");
  out->Add("setup.first_update_s", h->first_update_s, "s");
  AddFrontEndMetrics(&h->db, ch.text, opts.smoke ? 2 : 3, out);
  if (!opts.spans_out.empty() &&
      !WriteSpans(opts.spans_out, opts, log, origin)) {
    return false;
  }
  return true;
}

}  // namespace coralbench
