#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_set>

#include "coralbench/bench.h"
#include "src/analysis/absint.h"
#include "src/analysis/analyzer.h"
#include "src/lang/parser.h"
#include "src/rewrite/rewriter.h"
#include "src/vm/compiler.h"
#include "src/vm/verifier.h"

namespace coralbench {

double Samples::Quantile(double q) const {
  if (ms_.empty()) return 0;
  std::vector<double> v = ms_;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Samples::Mean() const {
  if (ms_.empty()) return 0;
  double sum = 0;
  for (double x : ms_) sum += x;
  return sum / static_cast<double>(ms_.size());
}

double Median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.Quantile(0.5);
}

double PeakRssMb() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss would not
  // do: Linux keeps it across execve, so it starts at the peak of the
  // process that forked this one (run.py).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SpanLog::MeanUs(const std::string& name,
                       const std::string& root) const {
  double sum = 0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (!root.empty()) {
      int64_t r = s.parent;
      while (r >= 0 && spans_[static_cast<size_t>(r)].parent >= 0) {
        r = spans_[static_cast<size_t>(r)].parent;
      }
      if (r < 0 || root != spans_[static_cast<size_t>(r)].name) continue;
    }
    sum += static_cast<double>(s.end_ns - s.start_ns);
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n) / 1e3;
}

double SpanLog::MeanRootUs() const {
  double sum = 0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0) continue;
    sum += static_cast<double>(s.end_ns - s.start_ns);
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n) / 1e3;
}

void SpanLog::Merge(const SpanLog& other) {
  int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

bool WriteSpans(const std::string& path, const Options& opts,
                const SpanLog& log, int64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":\"" << opts.workload << "\",\"seed\":" << opts.seed
      << ",\"spans\":[";
  bool first = true;
  char buf[256];
  for (const Span& s : log.spans()) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%lld,\"op\":%llu}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin_ns) / 1e3,
                  static_cast<double>(s.end_ns - origin_ns) / 1e3,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out << buf;
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

VmSnapshot VmSnapshot::Take(const coral::Database& db) {
  const coral::obs::VmCounters& c = db.vm_counters();
  auto v = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  VmSnapshot s;
  s.applications = v(c.applications);
  s.probe_index = v(c.probe_index);
  s.probe_scan_fallbacks = v(c.probe_scan_fallbacks);
  s.scan_full = v(c.scan_full);
  s.scan_delta = v(c.scan_delta);
  s.insert = v(c.insert);
  s.runtime_fallbacks = v(c.runtime_fallbacks);
  s.bind_fallbacks = v(c.bind_fallbacks);
  return s;
}

VmSnapshot VmSnapshot::operator-(const VmSnapshot& b) const {
  VmSnapshot d;
  d.applications = applications - b.applications;
  d.probe_index = probe_index - b.probe_index;
  d.probe_scan_fallbacks = probe_scan_fallbacks - b.probe_scan_fallbacks;
  d.scan_full = scan_full - b.scan_full;
  d.scan_delta = scan_delta - b.scan_delta;
  d.insert = insert - b.insert;
  d.runtime_fallbacks = runtime_fallbacks - b.runtime_fallbacks;
  d.bind_fallbacks = bind_fallbacks - b.bind_fallbacks;
  return d;
}

VmSnapshot& VmSnapshot::operator+=(const VmSnapshot& o) {
  applications += o.applications;
  probe_index += o.probe_index;
  probe_scan_fallbacks += o.probe_scan_fallbacks;
  scan_full += o.scan_full;
  scan_delta += o.scan_delta;
  insert += o.insert;
  runtime_fallbacks += o.runtime_fallbacks;
  bind_fallbacks += o.bind_fallbacks;
  return *this;
}

void AddVmMetrics(const VmSnapshot& t, uint64_t ops, Result* out) {
  double n = ops == 0 ? 1 : static_cast<double>(ops);
  auto per_op = [n](uint64_t v) { return static_cast<double>(v) / n; };
  out->Add("vm.applications", per_op(t.applications), "count");
  out->Add("vm.probe_index", per_op(t.probe_index), "count");
  out->Add("vm.probe_scan_fallbacks", per_op(t.probe_scan_fallbacks),
           "count");
  out->Add("vm.scan_full", per_op(t.scan_full), "count");
  out->Add("vm.scan_delta", per_op(t.scan_delta), "count");
  out->Add("vm.insert", per_op(t.insert), "count");
  out->Add("vm.runtime_fallbacks", per_op(t.runtime_fallbacks), "count");
  out->Add("vm.bind_fallbacks", per_op(t.bind_fallbacks), "count");
  double probes = static_cast<double>(t.probe_index) +
                  static_cast<double>(t.probe_scan_fallbacks);
  out->Add("vm.probe_hit_ratio",
           probes == 0 ? 1.0
                       : 1.0 - static_cast<double>(t.probe_scan_fallbacks) /
                                   probes,
           "ratio");
}

namespace {

struct FrontEndTimes {
  double parse_ms = 0, analysis_ms = 0, rewrite_ms = 0, compile_ms = 0,
         verify_ms = 0;
};

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// One pass of the engine's front end over `text`, with the options
// ModuleManager::CompileFormLocked derives from the database's defaults.
bool TimeFrontEndOnce(coral::Database* db, const std::string& text,
                      FrontEndTimes* t) {
  using namespace coral;
  int64_t t0 = NowNs();
  Parser parser(text, db->factory());
  StatusOr<Program> prog = parser.ParseProgram();
  t->parse_ms = MsSince(t0);
  if (!prog.ok()) return false;

  const BuiltinRegistry* builtins = db->builtins();
  auto is_builtin = [builtins](const std::string& name, uint32_t arity) {
    return builtins->Find(name, arity) != nullptr;
  };
  AnalyzerOptions aopts;
  aopts.is_builtin = is_builtin;
  t0 = NowNs();
  DiagnosticList diags = AnalyzeProgram(*prog, aopts);
  t->analysis_ms = MsSince(t0);
  if (diags.ShouldReject(false)) return false;

  RewriteOptions ropts;
  ropts.auto_reorder = db->auto_optimize();
  ropts.auto_index = db->auto_optimize();
  ropts.is_builtin = is_builtin;
  ropts.base_card = [db](const PredRef& pred) {
    Relation* rel = db->FindBaseRelation(pred);
    if (rel == nullptr) return absint::Card::kMany;
    size_t n = rel->size();
    if (n == 0) return absint::Card::kFew;
    if (n == 1) return absint::Card::kOne;
    return n <= 16 ? absint::Card::kFew : absint::Card::kMany;
  };
  std::unordered_set<PredRef, PredRefHash> exported;
  for (const ModuleDecl& mod : prog->modules) {
    for (const QueryFormDecl& form : mod.exports) {
      exported.insert(PredRef{form.pred,
                              static_cast<uint32_t>(form.adornment.size())});
    }
  }
  vm::CompileEnv cenv;
  cenv.is_builtin = is_builtin;
  cenv.is_module_pred = [&exported](const PredRef& p) {
    return exported.count(p) > 0;
  };
  for (const ModuleDecl& mod : prog->modules) {
    for (const QueryFormDecl& form : mod.exports) {
      t0 = NowNs();
      StatusOr<RewrittenProgram> rp =
          RewriteModule(mod, form, db->factory(), ropts);
      t->rewrite_ms += MsSince(t0);
      if (!rp.ok()) return false;
      t0 = NowNs();
      vm::ModuleProgram mp = vm::CompileModule(*rp, mod, cenv);
      t->compile_ms += MsSince(t0);
      if (mp.compiled == 0) continue;
      t0 = NowNs();
      absint::AbsIntOptions xopts;
      xopts.is_builtin = is_builtin;
      xopts.base_card = ropts.base_card;
      if (rp->answer_pred.sym != nullptr && !rp->answer_adornment.empty()) {
        std::vector<bool> bound;
        for (char c : rp->answer_adornment) bound.push_back(c == 'b');
        xopts.seeds[rp->answer_pred] = std::move(bound);
      }
      if (rp->uses_magic && rp->seed_pred.sym != nullptr) {
        xopts.assumed_facts.insert(rp->seed_pred);
      }
      for (const auto& [magic, done] : rp->done_of) {
        xopts.assumed_facts.insert(done);
      }
      absint::AnalysisResult facts =
          absint::AnalyzeRules(rp->rules, rp->graph, xopts);
      vm::AuditOptions vopts;
      vopts.rewritten = &*rp;
      vopts.decl = &mod;
      vopts.facts = &facts;
      vopts.index_plan_authoritative = db->auto_optimize();
      vm::ModuleAudit audit = vm::AuditModule(mp, vopts);
      t->verify_ms += MsSince(t0);
      if (!audit.ok()) return false;
    }
  }
  return true;
}

}  // namespace

void AddFrontEndMetrics(coral::Database* db, const std::string& text,
                        int reps, Result* out) {
  std::vector<double> parse, analysis, rewrite, compile, verify;
  bool ok = true;
  for (int i = 0; i < reps; ++i) {
    FrontEndTimes t;
    ok = TimeFrontEndOnce(db, text, &t) && ok;
    parse.push_back(t.parse_ms);
    analysis.push_back(t.analysis_ms);
    rewrite.push_back(t.rewrite_ms);
    compile.push_back(t.compile_ms);
    verify.push_back(t.verify_ms);
  }
  // The engine accepted this text during set-up, so a front-end failure
  // here is a benchmark fault; count it like a failed op.
  out->Count(ok);
  out->Add("lang.parse_ms", Median(parse), "ms");
  out->Add("analysis.ms", Median(analysis), "ms");
  out->Add("rewrite.ms", Median(rewrite), "ms");
  out->Add("vm.compile_ms", Median(compile), "ms");
  out->Add("vm.verify_ms", Median(verify), "ms");
}

void AddDataMetrics(double hashcons_growth, double bytes_growth,
                    uint64_t ops, Result* out) {
  double k = ops == 0 ? 0 : 1000.0 / static_cast<double>(ops);
  out->Add("data.hashcons_size", hashcons_growth * k, "count");
  out->Add("data.bytes_allocated", bytes_growth * k, "bytes");
}

namespace {

// Every per-layer metric with its unit, in BENCHMARK.json order.
const Metric kLayerMetrics[] = {
    {"server.wire_us", 0, "us"},
    {"server.handle_us", 0, "us"},
    {"server.shed", 0, "count"},
    {"server.timeouts", 0, "count"},
    {"core.session_eval_us", 0, "us"},
    {"core.session_eval_us.bf", 0, "us"},
    {"core.session_eval_us.bb", 0, "us"},
    {"core.session_eval_us.fb", 0, "us"},
    {"core.session_eval_us.conj", 0, "us"},
    {"core.snapshot_acquire_us", 0, "us"},
    {"core.apply_update_us", 0, "us"},
    {"core.update_text_us", 0, "us"},
    {"core.consult_us", 0, "us"},
    {"core.eval_us", 0, "us"},
    {"core.maintained", 0, "count"},
    {"core.invalidated", 0, "count"},
    {"core.derived_deleted", 0, "count"},
    {"core.rederived", 0, "count"},
    {"core.derived_inserted", 0, "count"},
    {"core.iterations", 0, "count"},
    {"core.solutions", 0, "count"},
    {"core.inserted", 0, "count"},
    {"core.dup_ratio", 0, "ratio"},
    {"vm.applications", 0, "count"},
    {"vm.probe_index", 0, "count"},
    {"vm.probe_scan_fallbacks", 0, "count"},
    {"vm.probe_index.fb", 0, "count"},
    {"vm.probe_scan_fallbacks.fb", 0, "count"},
    {"vm.scan_full", 0, "count"},
    {"vm.scan_delta", 0, "count"},
    {"vm.insert", 0, "count"},
    {"vm.runtime_fallbacks", 0, "count"},
    {"vm.bind_fallbacks", 0, "count"},
    {"vm.probe_hit_ratio", 0, "ratio"},
    {"lang.parse_ms", 0, "ms"},
    {"analysis.ms", 0, "ms"},
    {"rewrite.ms", 0, "ms"},
    {"vm.compile_ms", 0, "ms"},
    {"vm.verify_ms", 0, "ms"},
    {"data.hashcons_size", 0, "count"},
    {"data.bytes_allocated", 0, "bytes"},
    {"setup.consult_s", 0, "s"},
    {"setup.first_query_s", 0, "s"},
    {"setup.first_update_s", 0, "s"},
    {"trace.coverage_pct", 0, "%"},
    {"trace.overhead_pct", 0, "%"},
};

}  // namespace

bool FillMissingLayerMetrics(Result* out) {
  for (const Metric& m : out->metrics) {
    auto known = [&m](const Metric& x) { return x.name == m.name; };
    if (std::none_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                     known)) {
      std::fprintf(stderr, "coralbench: unlisted metric %s\n",
                   m.name.c_str());
      return false;
    }
  }
  std::vector<Metric> ordered;
  for (const Metric& m : kLayerMetrics) {
    auto it = std::find_if(out->metrics.begin(), out->metrics.end(),
                           [&m](const Metric& x) { return x.name == m.name; });
    ordered.push_back(it == out->metrics.end() ? m : *it);
  }
  out->metrics = std::move(ordered);
  return true;
}

}  // namespace coralbench
