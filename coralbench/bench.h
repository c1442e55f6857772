// Shared pieces of the repo benchmark (see README.md in this directory):
// a portable seeded generator, the run options and result, latency
// samples, the in-memory span log of the traced run, and the per-layer
// probes that more than one workload uses.

#ifndef CORALBENCH_BENCH_H_
#define CORALBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/database.h"

namespace coralbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64. The standard <random> distributions differ between
/// standard libraries, so inputs are drawn from this alone: the same seed
/// gives the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is negligible for the small n used.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// An independent stream `stream` of run seed `seed`.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x100000001b3ULL + stream).Next();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short phases, for the benchmark's own tests.
  bool smoke = false;
  /// Traced run: where the span log is written ("" = not written).
  std::string spans_out;
  /// Test hook: added to every expected answer count, so a run with a
  /// nonzero value must report every op as failed.
  int64_t skew_expected = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Reported in the final JSON line: the end-to-end metrics of an
  /// untraced run, the per-layer metrics of a traced one.
  std::vector<Metric> metrics;
  /// Printed by name above the JSON line only: per-op-type latencies,
  /// sample counts, fail_ratio.
  std::vector<Metric> report;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Report(const std::string& name, double value,
              const std::string& unit) {
    report.push_back({name, value, unit});
  }
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Latency samples of one op type, in milliseconds.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void Append(const Samples& other) {
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  }
  size_t size() const { return ms_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Mean() const;

 private:
  std::vector<double> ms_;
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// The peak RSS when the run's op count first reaches `at_ops`. A
/// fixed-time run does more ops when they get faster, and memory that
/// grows per op (term-factory growth) would then read a speed-up as a
/// memory regression; sampling at a fixed count keeps the two apart.
/// Take() samples early; Mb() samples at the end if nothing has been
/// taken yet. Tick() may be called from several threads.
class RssAtOps {
 public:
  explicit RssAtOps(uint64_t at_ops) : at_(at_ops) {}
  void Tick() {
    if (done_.fetch_add(1, std::memory_order_relaxed) + 1 == at_) Take();
  }
  /// Samples now, unless a sample has been taken.
  void Take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (taken_) return;
    taken_ = true;
    mb_ = PeakRssMb();
    ops_ = std::min(done_.load(std::memory_order_relaxed), at_);
  }
  double Mb() {
    Take();
    return mb_;
  }
  /// The op count the sample was taken at.
  uint64_t ops() {
    Take();
    return ops_;
  }

 private:
  const uint64_t at_;
  std::atomic<uint64_t> done_{0};
  std::mutex mu_;
  bool taken_ = false;
  double mb_ = 0;
  uint64_t ops_ = 0;
};

/// One span of the traced run: a call from the benchmark into a layer's
/// public function. Spans of one op share `op`; `parent` indexes the
/// same log (-1 for the op's root span).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  uint64_t op;
};

/// Spans kept in memory during the run and written out at the end. One
/// log per thread; no locking.
class SpanLog {
 public:
  int64_t Begin(const char* name, int64_t parent, uint64_t op) {
    spans_.push_back({name, NowNs(), 0, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Mean duration in microseconds of the spans named `name` whose op
  /// root span is named `root` ("" = any root); 0 when there are none.
  double MeanUs(const std::string& name, const std::string& root = "") const;
  /// Mean duration in microseconds of the op root spans.
  double MeanRootUs() const;

  /// Appends `other`'s spans, re-basing their parent indexes.
  void Merge(const SpanLog& other);

 private:
  std::vector<Span> spans_;
};

/// Writes `log` as JSON {"workload", "seed", "spans": [{name, start_us,
/// end_us, parent, op}]} with times relative to `origin_ns`.
bool WriteSpans(const std::string& path, const Options& opts,
                const SpanLog& log, int64_t origin_ns);

/// The database-wide VM counters the per-layer report uses.
struct VmSnapshot {
  uint64_t applications = 0, probe_index = 0, probe_scan_fallbacks = 0,
           scan_full = 0, scan_delta = 0, insert = 0, runtime_fallbacks = 0,
           bind_fallbacks = 0;
  static VmSnapshot Take(const coral::Database& db);
  VmSnapshot operator-(const VmSnapshot& base) const;
  VmSnapshot& operator+=(const VmSnapshot& other);
};

/// Adds the vm.* per-op counts (`total` summed over `ops` ops) and
/// vm.probe_hit_ratio to `out`.
void AddVmMetrics(const VmSnapshot& total, uint64_t ops, Result* out);

/// Times the front end on `text`, the workload's own consulted program,
/// against `db` (which has consulted it, so base-relation sizes feed the
/// optimizer as they do in the engine): Parser::ParseProgram,
/// AnalyzeProgram, RewriteModule and CompileModule per export form, and
/// the absint facts plus AuditModule. Adds the medians over `reps`
/// repetitions as lang.parse_ms, analysis.ms, rewrite.ms, vm.compile_ms,
/// vm.verify_ms.
void AddFrontEndMetrics(coral::Database* db, const std::string& text,
                        int reps, Result* out);

/// data.hashcons_size and data.bytes_allocated: term-factory growth per
/// 1,000 ops.
void AddDataMetrics(double hashcons_growth, double bytes_growth,
                    uint64_t ops, Result* out);

/// Puts the per-layer metrics in their listed order, with 0 for those a
/// workload does not exercise, so every traced run reports the same set;
/// call last. False when `out` holds a metric the list lacks.
bool FillMissingLayerMetrics(Result* out);

// ---- workloads ----
bool RunServeHierarchy(const Options& opts, Result* out);
bool RunUpdateFresh(const Options& opts, Result* out);
bool RunBatchClosure(const Options& opts, Result* out);

}  // namespace coralbench

#endif  // CORALBENCH_BENCH_H_
