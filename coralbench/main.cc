// The repo benchmark's binary. Runs one workload and prints one
// "name value unit" line per metric, then one JSON result line:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {name: {"value": x, "unit": u}, ...}}
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// the per-layer ones. Usually launched through run.py, which builds it.
//
// coralbench --workload serve_hierarchy|update_fresh|batch_closure
//            --seed N --seconds S --trace 0|1
//            [--smoke] [--spans-out FILE] [--skew-expected N]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "coralbench/bench.h"

namespace {

void PrintMetric(const coralbench::Metric& m) {
  std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: coralbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans-out FILE] "
               "[--skew-expected N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  coralbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opts.smoke = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--spans-out" && has_value) {
      opts.spans_out = argv[++i];
    } else if (a == "--skew-expected" && has_value) {
      opts.skew_expected = std::atoll(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (!(opts.seconds > 0)) return Usage();

  coralbench::Result result;
  bool ran;
  if (opts.workload == "serve_hierarchy") {
    ran = coralbench::RunServeHierarchy(opts, &result);
  } else if (opts.workload == "update_fresh") {
    ran = coralbench::RunUpdateFresh(opts, &result);
  } else if (opts.workload == "batch_closure") {
    ran = coralbench::RunBatchClosure(opts, &result);
  } else {
    return Usage();
  }
  if (!ran || (opts.trace && !coralbench::FillMissingLayerMetrics(&result))) {
    std::fprintf(stderr, "coralbench: %s: run failed\n",
                 opts.workload.c_str());
    return 1;
  }

  for (const coralbench::Metric& m : result.metrics) PrintMetric(m);
  for (const coralbench::Metric& m : result.report) PrintMetric(m);
  double fail_ratio = result.attempted == 0
                          ? 1.0
                          : static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted);
  PrintMetric({"fail_ratio", fail_ratio, "ratio"});

  bool correct = result.attempted > 0 && result.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {";
  char buf[512];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const coralbench::Metric& m = result.metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
