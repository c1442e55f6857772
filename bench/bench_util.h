// Shared workload generators for the benchmark harness. Deterministic
// (fixed-seed LCG) so runs are reproducible.

#ifndef CORAL_BENCH_BENCH_UTIL_H_
#define CORAL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace coral::bench {

/// --profile: enable evaluation statistics on every benchmark database
/// and print the per-module profile after each benchmark. Collection is
/// cheap but not free; timings under --profile measure the instrumented
/// engine (EXPERIMENTS.md records the disabled-mode overhead instead).
inline bool g_profile = false;

/// --no-auto-index: turn Database::set_auto_optimize off on every
/// benchmark database — no automatic argument indexes, no join
/// reordering. EXPERIMENTS.md records this unoptimized baseline against
/// the default run.
inline bool g_no_auto_optimize = false;

/// --no-vm: turn the join bytecode VM off on every benchmark database,
/// evaluating rule bodies on the interpreting ResolveTuple path.
/// EXPERIMENTS.md records this baseline against the default (VM) run.
inline bool g_no_vm = false;

/// --deadline-ms=N: per-query evaluation budget. Benchmarks that
/// evaluate through a Session apply it (bench_server applies it to every
/// client session); queries over budget fail with DeadlineExceeded, so
/// use this to measure deadline-enforcement overhead, not throughput.
inline int64_t g_deadline_ms = 0;

/// --max-inflight=N: admission-control bound for bench_server (worker
/// threads serving concurrent requests). 0 = the benchmark's default.
inline int g_max_inflight = 0;

/// Strips the harness's own flags (--profile, --no-auto-index, --no-vm,
/// --deadline-ms=N, --max-inflight=N) from argv (benchmark::Initialize
/// rejects flags it does not know) and records them. Call first in main().
inline void ParseHarnessFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      g_profile = true;
    } else if (std::strcmp(argv[i], "--no-auto-index") == 0) {
      g_no_auto_optimize = true;
    } else if (std::strcmp(argv[i], "--no-vm") == 0) {
      g_no_vm = true;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      g_deadline_ms = std::atoll(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--max-inflight=", 15) == 0) {
      g_max_inflight = std::atoi(argv[i] + 15);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Applies the harness flags to `db`: profiling when --profile was
/// given, auto-optimization off when --no-auto-index was, the bytecode
/// VM off when --no-vm was. Call right after constructing the
/// benchmark's Database.
template <typename DB>
inline void MaybeProfile(DB* db) {
  if (g_profile) db->set_profiling(true);
  if (g_no_auto_optimize) db->set_auto_optimize(false);
  if (g_no_vm) db->set_use_vm(false);
}

/// Prints the collected profile under the given label when --profile was
/// given. Call after the timing loop.
template <typename DB>
inline void MaybeDumpProfile(DB* db, const std::string& label) {
  if (!g_profile) return;
  std::cout << "\n--- profile: " << label << " ---\n" << db->ProfileReport();
}

/// Tiny deterministic PRNG (we avoid std::mt19937 for header brevity).
class Lcg {
 public:
  explicit Lcg(uint64_t seed = 0x5eed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  uint64_t Next(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// edge(n0, n1). ... chain of `n` edges.
inline std::string ChainFacts(const std::string& pred, int n,
                              const std::string& node_prefix = "n") {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += pred + "(" + node_prefix + std::to_string(i) + ", " +
           node_prefix + std::to_string(i + 1) + ").\n";
  }
  return out;
}

/// Random graph with `v` nodes and `e` directed edges (with costs when
/// `with_cost`), possibly cyclic.
inline std::string RandomGraphFacts(const std::string& pred, int v, int e,
                                    bool with_cost, uint64_t seed = 42) {
  Lcg rng(seed);
  std::string out;
  for (int i = 0; i < e; ++i) {
    int a = static_cast<int>(rng.Next(v));
    int b = static_cast<int>(rng.Next(v));
    out += pred + "(v" + std::to_string(a) + ", v" + std::to_string(b);
    if (with_cost) {
      out += ", " + std::to_string(1 + rng.Next(9));
    }
    out += ").\n";
  }
  return out;
}

/// Complete binary tree of `depth` levels: move(n1, n2), move(n1, n3)...
inline std::string BinaryTreeMoves(int depth) {
  std::string out;
  int internal = (1 << (depth - 1)) - 1;
  for (int i = 1; i <= internal; ++i) {
    out += "move(t" + std::to_string(i) + ", t" + std::to_string(2 * i) +
           ").\n";
    out += "move(t" + std::to_string(i) + ", t" + std::to_string(2 * i + 1) +
           ").\n";
  }
  return out;
}

inline constexpr char kAncestorModule[] = R"(
  module anc.
  export anc(bf).
  anc(X, Y) :- par(X, Y).
  anc(X, Y) :- par(X, Z), anc(Z, Y).
  end_module.
)";

}  // namespace coral::bench

#endif  // CORAL_BENCH_BENCH_UTIL_H_
