#include "src/obs/report.h"

#include <algorithm>
#include <cstdio>

namespace coral::obs {
namespace {

std::string Pad(const std::string& s, size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

std::string PadLeft(const std::string& s, size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string Num(uint64_t v) { return std::to_string(v); }

std::string Millis(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

std::string RenderModuleProfile(const ModuleProfile& profile,
                                const ReportOptions& opts) {
  std::string out;
  out += "module " + profile.name() + ": " + Num(profile.activations()) +
         " activation(s), " + Num(profile.total_iterations()) +
         " iteration(s), " + Num(profile.total_inserted()) +
         " tuple(s) inserted, " + Num(profile.total_duplicates()) +
         " duplicate(s) rejected\n";
  uint64_t os_rel = profile.os_subgoals_released.load(std::memory_order_relaxed);
  uint64_t os_col = profile.os_collapses.load(std::memory_order_relaxed);
  if (os_rel > 0 || os_col > 0) {
    out += "  ordered search: " + Num(os_rel) + " subgoal(s) released, " +
           Num(os_col) + " context collapse(s)\n";
  }

  // Per-rule table. Column widths fit the widest cell.
  size_t nrules = profile.rule_count();
  if (nrules > 0) {
    struct Row {
      std::string cells[6];
      std::string text;
    };
    std::vector<Row> rows;
    const char* headers[6] = {"rule", "apps", "probes", "solutions",
                              "derived", "dups"};
    size_t width[6];
    for (int c = 0; c < 6; ++c) width[c] = std::string(headers[c]).size();
    for (size_t i = 0; i < nrules; ++i) {
      const RuleStats& r = profile.rule(i);
      Row row;
      row.cells[0] = "r" + Num(i);
      row.cells[1] = Num(r.applications.load(std::memory_order_relaxed));
      row.cells[2] = Num(r.probes.load(std::memory_order_relaxed));
      row.cells[3] = Num(r.solutions.load(std::memory_order_relaxed));
      row.cells[4] = Num(r.derived.load(std::memory_order_relaxed));
      row.cells[5] = Num(r.duplicates());
      row.text = profile.rule_text(i);
      for (int c = 0; c < 6; ++c) {
        width[c] = std::max(width[c], row.cells[c].size());
      }
      rows.push_back(std::move(row));
    }
    out += "  ";
    for (int c = 0; c < 6; ++c) {
      out += (c == 0 ? Pad(headers[c], width[c])
                     : PadLeft(headers[c], width[c])) + "  ";
    }
    out += "\n";
    for (const Row& row : rows) {
      out += "  ";
      for (int c = 0; c < 6; ++c) {
        out += (c == 0 ? Pad(row.cells[c], width[c])
                       : PadLeft(row.cells[c], width[c])) + "  ";
      }
      if (!row.text.empty()) out += row.text;
      out += "\n";
    }
  }

  // Per-iteration log: delta sizes and wall time, the paper's primary
  // signal for diagnosing slow recursive modules.
  std::vector<IterationStats> iters = profile.iterations();
  if (!iters.empty() && opts.max_iterations > 0) {
    out += "  iterations (scc:iter delta solutions wall_ms):\n";
    size_t shown = std::min(iters.size(), opts.max_iterations);
    for (size_t i = 0; i < shown; ++i) {
      const IterationStats& it = iters[i];
      out += "    " + Num(it.scc) + ":" + Num(i) + "  delta=" +
             Num(it.inserts) + " sols=" + Num(it.solutions) + " wall=" +
             Millis(it.wall_ns) + "ms\n";
    }
    if (iters.size() > shown) {
      out += "    ... " + Num(iters.size() - shown) + " more iteration(s)\n";
    }
    if (profile.total_iterations() > iters.size()) {
      out += "    (log capped; " + Num(profile.total_iterations()) +
             " iterations total)\n";
    }
  }
  return out;
}

std::string RenderReport(const StatsRegistry& registry,
                         const ReportOptions& opts) {
  std::string out = "=== CORAL evaluation profile ===\n";
  std::vector<const ModuleProfile*> mods = registry.profiles();
  if (mods.empty()) {
    out += "(no profiled evaluations; enable with @profile or "
           "Database::set_profiling)\n";
    return out;
  }
  for (const ModuleProfile* m : mods) {
    out += RenderModuleProfile(*m, opts);
  }
  return out;
}

}  // namespace coral::obs
