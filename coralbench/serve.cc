// serve_hierarchy: closed-loop JSONL clients against an in-process query
// server over a seeded random tree. One op = one query round trip.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

#include "coralbench/bench.h"
#include "src/core/session.h"
#include "src/server/protocol.h"
#include "src/server/server.h"

namespace coralbench {
namespace {

constexpr int kConnections = 4;

// Query forms, and how many of each one block of 100 ops holds. The mix
// is synthetic; no traffic record sets it. fb gets 2, the smallest whole
// share above the 1% tail, so the p99 falls among fb queries (the Session
// probe-scan fallback). The other 98 are split as evenly as they go over
// the three forms the hierarchy is mostly queried with.
enum Form { kBf, kBb, kConj, kFb, kForms };
const char* const kFormName[kForms] = {"bf", "bb", "conj", "fb"};
const char* const kOpName[kForms] = {"op.bf", "op.bb", "op.conj", "op.fb"};
constexpr int kPerBlock[kForms] = {33, 33, 32, 2};

constexpr char kModule[] =
    "module hier.\n"
    "export anc(bf, bb, fb).\n"
    "anc(X, Y) :- parent(Y, X).\n"
    "anc(X, Y) :- anc(X, Z), parent(Y, Z).\n"
    "end_module.\n";

/// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// The tree and its answer oracle: parent(Child, Parent) facts. Levels
/// hold 1, 3, 9, ... nodes (the last one what is left). The nodes of a
/// level share the level below as evenly as it goes (3 children each;
/// 2 or 3 on the last level), in seeded order. So every seed gives nearly
/// the same shape, and the same work for a query form, under different
/// labels: a seed does not change what a run costs.
struct Tree {
  std::vector<int> parent;  // -1 for the root
  std::vector<std::vector<int>> children;
  std::vector<int> descendants;  // BFS count below each node
  std::vector<int> depth;
  std::string text;

  explicit Tree(int nodes, uint64_t seed) {
    Rng rng(SubSeed(seed, 1));
    parent.assign(nodes, -1);
    children.resize(nodes);
    depth.assign(nodes, 0);
    text = kModule;
    int above = 0, above_size = 1;  // the level above: [above, +size)
    for (int level = 1; above + above_size < nodes; ++level) {
      int first = above + above_size;
      int size = std::min(3 * above_size, nodes - first);
      // One slot per child: each node above size / above_size times, and
      // the remainder on a seeded choice of them, dealt out shuffled.
      std::vector<int> slots, extra;
      for (int p = above; p < above + above_size; ++p) {
        slots.insert(slots.end(), size / above_size, p);
        extra.push_back(p);
      }
      Shuffle(&extra, &rng);
      slots.insert(slots.end(), extra.begin(),
                   extra.begin() + size % above_size);
      Shuffle(&slots, &rng);
      for (int i = first; i < first + size; ++i) {
        parent[i] = slots[i - first];
        children[parent[i]].push_back(i);
        depth[i] = level;
        text += "parent(n" + std::to_string(i) + ", n" +
                std::to_string(parent[i]) + ").\n";
      }
      above = first;
      above_size = size;
    }
    descendants.assign(nodes, 0);
    for (int v = 0; v < nodes; ++v) {
      std::vector<int> frontier = children[v];
      while (!frontier.empty()) {
        int u = frontier.back();
        frontier.pop_back();
        ++descendants[v];
        frontier.insert(frontier.end(), children[u].begin(),
                        children[u].end());
      }
    }
  }
  int size() const { return static_cast<int>(parent.size()); }
  bool IsAncestor(int a, int b) const {
    for (int v = parent[b]; v >= 0; v = parent[v]) {
      if (v == a) return true;
    }
    return false;
  }
  int Grandchildren(int v) const {
    int n = 0;
    for (int c : children[v]) n += static_cast<int>(children[c].size());
    return n;
  }
};

/// Draws forms in seeded shuffled blocks that hold exactly kPerBlock of
/// each, so runs of equal length see the same mix.
class Mix {
 public:
  Form Next(Rng* rng) {
    if (pos_ == block_.size()) {
      block_.clear();
      for (int f = 0; f < kForms; ++f) {
        block_.insert(block_.end(), kPerBlock[f], static_cast<Form>(f));
      }
      Shuffle(&block_, rng);
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  std::vector<Form> block_;
  size_t pos_ = 0;
};

struct Query {
  Form form;
  std::string text;
  int64_t expected;
};

Query NextQuery(const Tree& tree, Mix* mix, Rng* rng, int64_t skew) {
  Form form = mix->Next(rng);
  int v = static_cast<int>(rng->Below(static_cast<uint64_t>(tree.size())));
  std::string n = "n" + std::to_string(v);
  Query q{form, "", 0};
  switch (q.form) {
    case kBf:
      q.text = "?- anc(" + n + ", Y).";
      q.expected = tree.descendants[v];
      break;
    case kBb: {
      // Half the pairs are true: an ancestor drawn from v's path.
      int a = static_cast<int>(rng->Below(static_cast<uint64_t>(tree.size())));
      if (rng->Below(2) == 0 && tree.depth[v] > 0) {
        a = v;
        for (uint64_t up = 1 + rng->Below(static_cast<uint64_t>(tree.depth[v]));
             up > 0; --up) {
          a = tree.parent[a];
        }
      }
      q.text = "?- anc(n" + std::to_string(a) + ", " + n + ").";
      q.expected = tree.IsAncestor(a, v) ? 1 : 0;
      break;
    }
    case kConj:
      q.text = "?- parent(Y, " + n + "), parent(Z, Y).";
      q.expected = tree.Grandchildren(v);
      break;
    case kFb:
      q.text = "?- anc(X, " + n + ").";
      q.expected = tree.depth[v];
      break;
    case kForms:
      break;
  }
  q.expected += skew;
  return q;
}

std::string Request(const std::string& q) {
  return "{\"op\":\"query\",\"q\":\"" + q + "\"}";
}

/// Row count of an ok query response; -1 for a non-ok one.
int64_t ResponseCount(const std::string& resp) {
  if (resp.compare(0, 10, "{\"ok\":true") != 0) return -1;
  size_t at = resp.find("\"count\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(resp.c_str() + at + 8, nullptr, 10);
}

class Client {
 public:
  explicit Client(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Sends one request line and returns the response line ("" on error).
  std::string RoundTrip(const std::string& request) {
    std::string framed = request + "\n";
    for (size_t off = 0; off < framed.size();) {
      ssize_t n = send(fd_, framed.data() + off, framed.size() - off,
                       MSG_NOSIGNAL);
      if (n <= 0) return "";
      off += static_cast<size_t>(n);
    }
    size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[16384];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// One server over the tree: consulted, started and warmed (the first
/// query of every form compiles it).
struct Harness {
  coral::Database db;
  std::unique_ptr<coral::server::Server> server;
  double consult_s = 0, start_s = 0, first_query_s = 0;

  bool Init(const Tree& tree) {
    int64_t t0 = NowNs();
    if (!db.Consult(tree.text).ok()) return false;
    int64_t t1 = NowNs();
    server = std::make_unique<coral::server::Server>(
        &db, coral::server::ServerOptions{});
    if (!server->Start().ok()) return false;
    int64_t t2 = NowNs();
    Client c(server->port());
    if (!c.connected()) return false;
    for (const char* q :
         {"?- anc(n0, Y).", "?- anc(n0, n1).", "?- anc(X, n1).",
          "?- parent(Y, n0), parent(Z, Y)."}) {
      if (ResponseCount(c.RoundTrip(Request(q))) < 0) return false;
    }
    int64_t t3 = NowNs();
    consult_s = static_cast<double>(t1 - t0) / 1e9;
    start_s = static_cast<double>(t2 - t1) / 1e9;
    first_query_s = static_cast<double>(t3 - t2) / 1e9;
    return true;
  }
  Harness() = default;
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  ~Harness() {
    if (server != nullptr) server->Stop();
  }
};

struct ThreadOut {
  Samples by_form[kForms];
  uint64_t attempted = 0, failed = 0;
  SpanLog spans;
};

/// One connection's query stream, kept across the slices of a phase.
struct Stream {
  Rng rng;
  Mix mix;
};

/// Closed loop on one connection until `deadline_ns`. Traced: one span
/// per round trip, op ids from `op_base`.
void ClientLoop(Harness* h, const Tree& tree, Stream* stream,
                int64_t deadline_ns, bool traced, uint64_t op_base,
                int64_t skew, RssAtOps* rss, ThreadOut* out) {
  Client client(h->server->port());
  uint64_t op = op_base;
  while (NowNs() < deadline_ns) {
    Query q = NextQuery(tree, &stream->mix, &stream->rng, skew);
    std::string req = Request(q.text);
    int64_t root = traced ? out->spans.Begin(kOpName[q.form], -1, op) : -1;
    int64_t t0 = NowNs();
    std::string resp = client.connected() ? client.RoundTrip(req) : "";
    int64_t t1 = NowNs();
    if (traced) out->spans.End(root);
    out->by_form[q.form].Add(static_cast<double>(t1 - t0) / 1e6);
    ++out->attempted;
    if (ResponseCount(resp) != q.expected) ++out->failed;
    if (rss != nullptr) rss->Tick();
    ++op;
  }
}

struct Phase {
  std::vector<Stream> streams;  // one per connection
  ThreadOut merged;
  Samples all;
  double seconds = 0;
};

/// Runs the connections for `seconds` more and adds their results to
/// `ph`; the first call seeds their streams from `seed` and `salt`.
void RunPhase(Harness* h, const Tree& tree, uint64_t seed, uint64_t salt,
              double seconds, bool traced, int64_t skew, RssAtOps* rss,
              Phase* ph) {
  for (int t = static_cast<int>(ph->streams.size()); t < kConnections; ++t) {
    Rng rng(SubSeed(seed, salt + static_cast<uint64_t>(t)));
    ph->streams.push_back({rng, Mix()});
  }
  std::vector<ThreadOut> outs(kConnections);
  std::vector<std::thread> threads;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back(ClientLoop, h, std::cref(tree), &ph->streams[t],
                         deadline, traced, static_cast<uint64_t>(t + 1) << 32,
                         skew, rss, &outs[t]);
  }
  for (std::thread& t : threads) t.join();
  ph->seconds += static_cast<double>(NowNs() - start) / 1e9;
  for (ThreadOut& o : outs) {
    for (int f = 0; f < kForms; ++f) {
      ph->merged.by_form[f].Append(o.by_form[f]);
      ph->all.Append(o.by_form[f]);
    }
    ph->merged.attempted += o.attempted;
    ph->merged.failed += o.failed;
    ph->merged.spans.Merge(o.spans);
  }
}

/// The layer split, one op at a time over one connection, so that no
/// other op's work lands in an op's parts: the round trip, then the same
/// request through a benchmark-owned ClientSession::Handle, then the same
/// query through a benchmark-owned Session::EvalQuery, with the VM
/// counter deltas of that call. Op ids are below 2^32.
void SplitPass(Harness* h, const Tree& tree, const Options& opts,
               SpanLog* log, Result* out) {
  Client client(h->server->port());
  coral::obs::ServerMetrics own_metrics;
  coral::server::ServerContext ctx{&h->db, &own_metrics, 0};
  coral::server::ClientSession handler(&ctx);
  coral::Session session(&h->db);
  Rng rng(SubSeed(opts.seed, 300));
  Mix mix;
  VmSnapshot total, fb;
  uint64_t nfb = 0;
  const uint64_t ops = opts.smoke ? 50 : 800;
  for (uint64_t op = 0; op < ops; ++op) {
    Query q = NextQuery(tree, &mix, &rng, opts.skew_expected);
    std::string req = Request(q.text);
    int64_t root = log->Begin(kOpName[q.form], -1, op);
    int64_t s = log->Begin("server.round_trip", root, op);
    std::string resp = client.connected() ? client.RoundTrip(req) : "";
    log->End(s);
    s = log->Begin("server.handle", root, op);
    std::string handled = handler.Handle(req);
    log->End(s);
    VmSnapshot before = VmSnapshot::Take(h->db);
    s = log->Begin("core.session_eval", root, op);
    auto res = session.EvalQuery(q.text);
    log->End(s);
    VmSnapshot d = VmSnapshot::Take(h->db) - before;
    log->End(root);
    out->Count(ResponseCount(resp) == q.expected &&
               ResponseCount(handled) == q.expected && res.ok() &&
               static_cast<int64_t>(res->rows.size()) == q.expected);
    total += d;
    if (q.form == kFb) {
      fb += d;
      ++nfb;
    }
  }

  double rt = log->MeanUs("server.round_trip");
  double handle = log->MeanUs("server.handle");
  double eval = log->MeanUs("core.session_eval");
  out->Add("server.wire_us", rt - handle, "us");
  out->Add("server.handle_us", handle - eval, "us");
  out->Add("core.session_eval_us", eval, "us");
  for (int f = 0; f < kForms; ++f) {
    out->Add(std::string("core.session_eval_us.") + kFormName[f],
             log->MeanUs("core.session_eval", kOpName[f]), "us");
  }
  // The parts are residuals of the round trip, so they cover it exactly
  // unless a part reads negative (then this reads above 100).
  double parts = std::max(rt - handle, 0.0) + std::max(handle - eval, 0.0) +
                 eval;
  out->Add("trace.coverage_pct", rt > 0 ? 100.0 * parts / rt : 0, "%");
  AddVmMetrics(total, ops, out);
  double k = nfb == 0 ? 0 : 1.0 / static_cast<double>(nfb);
  out->Add("vm.probe_index.fb", static_cast<double>(fb.probe_index) * k,
           "count");
  out->Add("vm.probe_scan_fallbacks.fb",
           static_cast<double>(fb.probe_scan_fallbacks) * k, "count");
}

}  // namespace

bool RunServeHierarchy(const Options& opts, Result* out) {
  Tree tree(opts.smoke ? 300 : 1000, opts.seed);
  Harness h;
  if (!h.Init(tree)) return false;
  std::vector<double> setup_s = {h.consult_s + h.start_s + h.first_query_s};
  coral::TermFactory* tf = h.db.factory();

  if (!opts.trace) {
    // The measured loop runs in 30 slices, with one more set-up (of a
    // second, short-lived server) before every third slice. Set-ups are
    // short, and spreading them over the run lets their median see the
    // machine's speed phases the way the ops do. Peak RSS is taken by the
    // end of the first slice at the latest, before any second server has
    // existed, so the number of set-ups before it is always the same.
    // ops_per_s is the median of the slices' rates, so a burst of other
    // load on the host that covers a few slices does not move it.
    const int slices = opts.smoke ? 1 : 30;
    Phase ph;
    RssAtOps rss(1000);
    std::vector<double> rates;
    for (int i = 0; i < slices; ++i) {
      if (i == 1) rss.Take();
      if (i > 0 && i % 3 == 0) {
        Harness extra;
        if (!extra.Init(tree)) return false;
        setup_s.push_back(extra.consult_s + extra.start_s +
                          extra.first_query_s);
      }
      uint64_t ops0 = ph.merged.attempted;
      double seconds0 = ph.seconds;
      RunPhase(&h, tree, opts.seed, 100, opts.seconds / slices, false,
               opts.skew_expected, &rss, &ph);
      rates.push_back(static_cast<double>(ph.merged.attempted - ops0) /
                      (ph.seconds - seconds0));
    }
    out->attempted += ph.merged.attempted;
    out->failed += ph.merged.failed;
    out->Add("setup_s", Median(setup_s), "s");
    out->Add("peak_rss_mb", rss.Mb(), "MB");
    out->Add("ops_per_s", Median(rates), "1/s");
    out->Add("op_p50_ms", ph.all.Quantile(0.5), "ms");
    // p99 falls inside the 2% fb share.
    out->Add("op_tail_ms", ph.all.Quantile(0.99), "ms");
    out->Report("peak_rss_at_ops", static_cast<double>(rss.ops()), "count");
    out->Report("ops_per_s_whole_run",
                static_cast<double>(ph.merged.attempted) / ph.seconds, "1/s");
    out->Report("query_p50_ms", ph.all.Quantile(0.5), "ms");
    out->Report("query_p99_ms", ph.all.Quantile(0.99), "ms");
    out->Report("query_samples", static_cast<double>(ph.all.size()), "count");
    for (int f = 0; f < kForms; ++f) {
      std::string p = std::string("query_") + kFormName[f];
      out->Report(p + "_p50_ms", ph.merged.by_form[f].Quantile(0.5), "ms");
      out->Report(p + "_mean_ms", ph.merged.by_form[f].Mean(), "ms");
      out->Report(p + "_samples",
                  static_cast<double>(ph.merged.by_form[f].size()), "count");
    }
    return true;
  }

  // Traced run: an untraced half for the overhead baseline, a traced half
  // under the same load with a span per round trip, then the layer split.
  Phase plain, traced;
  RunPhase(&h, tree, opts.seed, 100, opts.seconds / 2, false,
           opts.skew_expected, nullptr, &plain);
  size_t hc0 = tf->hashcons_size(), by0 = tf->bytes_allocated();
  uint64_t shed0 = h.server->metrics()->shed();
  uint64_t timeouts0 = h.server->metrics()->timeouts();
  int64_t origin = NowNs();
  // The same salt as the untraced half: each connection replays the same
  // query stream, so the two halves differ only by the spans.
  RunPhase(&h, tree, opts.seed, 100, opts.seconds / 2, true,
           opts.skew_expected, nullptr, &traced);
  out->attempted += plain.merged.attempted + traced.merged.attempted;
  out->failed += plain.merged.failed + traced.merged.failed;
  SpanLog& log = traced.merged.spans;
  out->Add("server.shed",
           static_cast<double>(h.server->metrics()->shed() - shed0), "count");
  out->Add("server.timeouts",
           static_cast<double>(h.server->metrics()->timeouts() - timeouts0),
           "count");
  AddDataMetrics(static_cast<double>(tf->hashcons_size() - hc0),
                 static_cast<double>(tf->bytes_allocated() - by0),
                 traced.merged.attempted, out);
  out->Add("trace.overhead_pct",
           plain.all.Mean() > 0
               ? 100.0 * (log.MeanRootUs() / 1e3 / plain.all.Mean() - 1.0)
               : 0,
           "%");

  SpanLog split;
  SplitPass(&h, tree, opts, &split, out);
  log.Merge(split);
  out->Add("setup.consult_s", h.consult_s, "s");
  out->Add("setup.first_query_s", h.first_query_s, "s");
  AddFrontEndMetrics(&h.db, tree.text, opts.smoke ? 2 : 5, out);
  if (!opts.spans_out.empty() &&
      !WriteSpans(opts.spans_out, opts, log, origin)) {
    return false;
  }
  return true;
}

}  // namespace coralbench
