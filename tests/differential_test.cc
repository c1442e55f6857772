// Differential testing: randomly generated Datalog programs evaluated by
// the CORAL engine are checked against an independent reference evaluator
// (a direct naive fixpoint over integer tuples, sharing no code with the
// engine). Strategies are randomized too, so every run cross-checks the
// rewriting/evaluation matrix on programs nobody hand-picked. Also:
// crash-safety fuzzing of the lexer/parser and a print->parse round-trip
// property for terms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/rewrite/rewriter.h"
#include "src/vm/bytecode.h"
#include "src/vm/compiler.h"
#include "src/vm/verifier.h"

namespace coral {
namespace {

class Lcg {
 public:
  explicit Lcg(uint64_t seed) : s_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return s_ >> 33;
  }
  uint64_t Next(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t s_;
};

// ---------------------------------------------------------------------
// Random program generation
// ---------------------------------------------------------------------

struct GLit {
  int pred;          // 0..kBase-1 base, kBase..kBase+kDerived-1 derived
  bool negated;
  int args[2];       // >= 0: variable id; < 0: constant -(v+1)
};
struct GRule {
  int head;          // derived pred index (0..kDerived-1)
  int head_args[2];  // variable ids
  std::vector<GLit> body;
};

constexpr int kBase = 2;
constexpr int kDerived = 3;
constexpr int kDomain = 6;
constexpr int kVars = 4;

std::string ArgText(int a) {
  return a >= 0 ? "V" + std::to_string(a) : std::to_string(-a - 1);
}
std::string PredName(int p) {
  return p < kBase ? "b" + std::to_string(p)
                   : "d" + std::to_string(p - kBase);
}

/// Generates a safe positive program (+ optionally one negated BASE
/// literal per rule, placed last with bound arguments).
std::vector<GRule> GenProgram(Lcg* rng, bool with_negation) {
  std::vector<GRule> rules;
  int n_rules = 4 + static_cast<int>(rng->Next(4));
  for (int r = 0; r < n_rules; ++r) {
    GRule rule;
    rule.head = static_cast<int>(rng->Next(kDerived));
    std::vector<GLit> body;
    int n_lits = 1 + static_cast<int>(rng->Next(2));
    std::set<int> bound_vars;
    for (int i = 0; i < n_lits; ++i) {
      GLit lit;
      lit.negated = false;
      // Derived body preds must have a smaller index than the head for
      // easy stratification-free layering... allow equal for recursion.
      if (rng->Next(2) == 0) {
        lit.pred = static_cast<int>(rng->Next(kBase));
      } else {
        lit.pred = kBase + static_cast<int>(rng->Next(rule.head + 1));
      }
      for (int k = 0; k < 2; ++k) {
        if (rng->Next(5) == 0) {
          lit.args[k] = -(static_cast<int>(rng->Next(kDomain)) + 1);
        } else {
          int v = static_cast<int>(rng->Next(kVars));
          lit.args[k] = v;
          bound_vars.insert(v);
        }
      }
      body.push_back(lit);
    }
    // Head args must be bound (safety).
    std::vector<int> bound(bound_vars.begin(), bound_vars.end());
    if (bound.empty()) continue;  // skip degenerate rule
    rule.head_args[0] = bound[rng->Next(bound.size())];
    rule.head_args[1] = bound[rng->Next(bound.size())];
    // Optional negated base literal with bound variables, last.
    if (with_negation && rng->Next(3) == 0) {
      GLit neg;
      neg.negated = true;
      neg.pred = static_cast<int>(rng->Next(kBase));
      neg.args[0] = bound[rng->Next(bound.size())];
      neg.args[1] = bound[rng->Next(bound.size())];
      body.push_back(neg);
    }
    rule.body = std::move(body);
    rules.push_back(std::move(rule));
  }
  return rules;
}

using Fact = std::pair<int, int>;
using Db = std::vector<std::set<Fact>>;  // indexed by pred

Db GenBaseFacts(Lcg* rng) {
  Db db(kBase + kDerived);
  for (int p = 0; p < kBase; ++p) {
    int n = 4 + static_cast<int>(rng->Next(8));
    for (int i = 0; i < n; ++i) {
      db[p].insert({static_cast<int>(rng->Next(kDomain)),
                    static_cast<int>(rng->Next(kDomain))});
    }
  }
  return db;
}

// ---------------------------------------------------------------------
// Reference evaluator: direct naive fixpoint, no shared code
// ---------------------------------------------------------------------

void ReferenceFixpoint(const std::vector<GRule>& rules, Db* db) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GRule& rule : rules) {
      // Enumerate all bindings of the positive body.
      std::vector<std::map<int, int>> envs = {{}};
      for (const GLit& lit : rule.body) {
        if (lit.negated) continue;
        std::vector<std::map<int, int>> next;
        for (const auto& env : envs) {
          for (const Fact& fact : (*db)[lit.pred]) {
            std::map<int, int> e = env;
            int vals[2] = {fact.first, fact.second};
            bool ok = true;
            for (int k = 0; k < 2 && ok; ++k) {
              if (lit.args[k] < 0) {
                ok = vals[k] == -lit.args[k] - 1;
              } else {
                auto it = e.find(lit.args[k]);
                if (it == e.end()) {
                  e[lit.args[k]] = vals[k];
                } else {
                  ok = it->second == vals[k];
                }
              }
            }
            if (ok) next.push_back(std::move(e));
          }
        }
        envs = std::move(next);
      }
      for (const auto& env : envs) {
        // Negated base literals filter.
        bool pass = true;
        for (const GLit& lit : rule.body) {
          if (!lit.negated) continue;
          int vals[2];
          bool determined = true;
          for (int k = 0; k < 2; ++k) {
            if (lit.args[k] < 0) {
              vals[k] = -lit.args[k] - 1;
            } else {
              auto it = env.find(lit.args[k]);
              if (it == env.end()) {
                determined = false;
                break;
              }
              vals[k] = it->second;
            }
          }
          ASSERT_TRUE(determined) << "generator produced unsafe negation";
          if ((*db)[lit.pred].count({vals[0], vals[1]})) pass = false;
        }
        if (!pass) continue;
        Fact head{env.at(rule.head_args[0]), env.at(rule.head_args[1])};
        if ((*db)[kBase + rule.head].insert(head).second) changed = true;
      }
    }
  }
}

// ---------------------------------------------------------------------
// CORAL side
// ---------------------------------------------------------------------

std::string ProgramText(const std::vector<GRule>& rules, const Db& base,
                        const std::string& annotations) {
  std::string out;
  for (int p = 0; p < kBase; ++p) {
    for (const Fact& f : base[p]) {
      out += PredName(p) + "(" + std::to_string(f.first) + ", " +
             std::to_string(f.second) + ").\n";
    }
  }
  out += "module gen.\nexport ";
  for (int d = 0; d < kDerived; ++d) {
    out += std::string(d ? ", " : "") + PredName(kBase + d) + "(ff)";
  }
  out += ".\n" + annotations + "\n";
  for (const GRule& r : rules) {
    out += PredName(kBase + r.head) + "(" + ArgText(r.head_args[0]) + ", " +
           ArgText(r.head_args[1]) + ") :- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      const GLit& lit = r.body[i];
      if (i) out += ", ";
      if (lit.negated) out += "not ";
      out += PredName(lit.pred) + "(" + ArgText(lit.args[0]) + ", " +
             ArgText(lit.args[1]) + ")";
    }
    out += ".\n";
  }
  out += "end_module.\n";
  return out;
}

void RunDifferential(uint64_t seed, bool with_negation) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, with_negation);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  // Ensure every derived pred has at least one rule so queries are legal.
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }

  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  static const char* kPositive[] = {"",      "@psn.",           "@naive.",
                                    "@no_rewriting.", "@magic.",
                                    "@reorder_joins.", "@save_module.",
                                    "@eager."};
  static const char* kWithNeg[] = {"",        "@psn.",
                                   "@naive.", "@no_rewriting.",
                                   "@magic.", "@ordered_search."};
  const char* strategy = with_negation
                             ? kWithNeg[rng.Next(6)]
                             : kPositive[rng.Next(8)];

  Database db;
  std::string text = ProgramText(rules, base, strategy);
  auto st = db.Consult(text);
  ASSERT_TRUE(st.ok()) << st.status().ToString() << "\n" << text;

  for (int d = 0; d < kDerived; ++d) {
    auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
    ASSERT_TRUE(res.ok()) << res.status().ToString() << "\nseed " << seed
                          << " strategy " << strategy << "\n" << text;
    std::set<Fact> got;
    for (const AnswerRow& row : res->rows) {
      ASSERT_EQ(row.bindings.size(), 2u);
      ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
      got.insert({static_cast<int>(
                      ArgCast<IntArg>(row.bindings[0].second)->value()),
                  static_cast<int>(
                      ArgCast<IntArg>(row.bindings[1].second)->value())});
    }
    EXPECT_EQ(got, expected[kBase + d])
        << "pred " << PredName(kBase + d) << " seed " << seed
        << " strategy '" << strategy << "'\n" << text;
  }
}

// Auto-optimization differential: join reordering and automatic index
// selection (Database::set_auto_optimize, on by default) must never
// change answers. The same generated program — under a randomly drawn
// rewriting strategy — is evaluated with the optimizer on and off; both
// runs must match the independent reference fixpoint and each other.
void RunAutoOptimizeDifferential(uint64_t seed, bool with_negation) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, with_negation);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  static const char* kPositive[] = {"",      "@psn.",           "@naive.",
                                    "@no_rewriting.", "@magic.",
                                    "@reorder_joins.", "@save_module.",
                                    "@eager."};
  static const char* kWithNeg[] = {"",        "@psn.",
                                   "@naive.", "@no_rewriting.",
                                   "@magic.", "@ordered_search."};
  const char* strategy = with_negation
                             ? kWithNeg[rng.Next(6)]
                             : kPositive[rng.Next(8)];
  std::string text = ProgramText(rules, base, strategy);

  std::set<Fact> optimized[kDerived];
  for (int pass = 0; pass < 2; ++pass) {
    Database db;
    db.set_auto_optimize(pass == 0);
    auto st = db.Consult(text);
    ASSERT_TRUE(st.ok()) << st.status().ToString() << "\nseed " << seed
                         << " strategy '" << strategy << "'\n" << text;
    for (int d = 0; d < kDerived; ++d) {
      auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
      ASSERT_TRUE(res.ok())
          << res.status().ToString() << "\nseed " << seed << " strategy '"
          << strategy << "' auto_optimize=" << (pass == 0) << "\n" << text;
      std::set<Fact> got;
      for (const AnswerRow& row : res->rows) {
        ASSERT_EQ(row.bindings.size(), 2u);
        ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
        got.insert({static_cast<int>(
                        ArgCast<IntArg>(row.bindings[0].second)->value()),
                    static_cast<int>(
                        ArgCast<IntArg>(row.bindings[1].second)->value())});
      }
      EXPECT_EQ(got, expected[kBase + d])
          << "pred " << PredName(kBase + d) << " vs reference, seed "
          << seed << " strategy '" << strategy << "' auto_optimize="
          << (pass == 0) << "\n" << text;
      if (pass == 0) {
        optimized[d] = std::move(got);
      } else {
        EXPECT_EQ(got, optimized[d])
            << "pred " << PredName(kBase + d)
            << " diverges between auto_optimize on/off, seed " << seed
            << " strategy '" << strategy << "'\n" << text;
      }
    }
  }
}

void RunAggregateDifferential(uint64_t seed) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, /*with_negation=*/false);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  // One aggregate summary per derived predicate, random fold.
  static const char* kFns[] = {"count", "min", "max", "sum"};
  std::vector<int> fn(kDerived);
  std::string text = ProgramText(rules, base, "");
  // Splice the aggregate rules and their exports into the module text.
  size_t end_pos = text.rfind("end_module.");
  ASSERT_NE(end_pos, std::string::npos);
  std::string agg_rules;
  std::string agg_exports;
  for (int d = 0; d < kDerived; ++d) {
    fn[d] = static_cast<int>(rng.Next(4));
    agg_rules += "agg" + std::to_string(d) + "(X, " + kFns[fn[d]] +
                 "(<Y>)) :- " + PredName(kBase + d) + "(X, Y).\n";
    agg_exports += "export agg" + std::to_string(d) + "(bf).\n";
  }
  text.insert(end_pos, agg_exports + agg_rules);

  Database db;
  auto st = db.Consult(text);
  ASSERT_TRUE(st.ok()) << st.status().ToString() << "\n" << text;

  for (int d = 0; d < kDerived; ++d) {
    // Reference folds per group.
    std::map<int, std::vector<int>> groups;
    for (const Fact& f : expected[kBase + d]) {
      groups[f.first].push_back(f.second);
    }
    for (auto& [key, vals] : groups) {
      int64_t want = 0;
      switch (fn[d]) {
        case 0: want = static_cast<int64_t>(vals.size()); break;
        case 1: want = *std::min_element(vals.begin(), vals.end()); break;
        case 2: want = *std::max_element(vals.begin(), vals.end()); break;
        default:
          for (int v : vals) want += v;
      }
      auto res = db.EvalQuery("agg" + std::to_string(d) + "(" +
                           std::to_string(key) + ", V)");
      ASSERT_TRUE(res.ok()) << res.status().ToString() << "\n" << text;
      ASSERT_EQ(res->rows.size(), 1u)
          << "agg" << d << " key " << key << " seed " << seed << "\n"
          << text;
      EXPECT_EQ(res->rows[0].ToString(), "V = " + std::to_string(want))
          << "agg fn " << kFns[fn[d]] << " key " << key << " seed " << seed
          << "\n" << text;
    }
    // No phantom groups.
    auto all = db.EvalQuery("agg" + std::to_string(d) + "(X, V)");
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->rows.size(), groups.size()) << "seed " << seed;
  }
}

// VM differential: the join bytecode VM (Database::set_use_vm, on by
// default) against the interpreting ResolveTuple path. Both runs must be
// set-identical to the independent reference fixpoint; the interpreted
// run is also compared to the VM run directly, so a failure names the
// diverging configuration. `vm_apps` accumulates VM applications across
// the run — the test asserts at the end that the VM actually executed.
void RunVmDifferential(uint64_t seed, bool with_negation,
                       uint64_t* vm_apps) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, with_negation);
  if (rules.empty()) return;
  Db base = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }
  Db expected = base;
  ReferenceFixpoint(rules, &expected);

  // Shapes the VM cannot compile (@ordered_search, negation) stay in the
  // mix on purpose: the interpreter fallback must be as correct as the
  // compiled path.
  static const char* kPositive[] = {"",      "@psn.",           "@naive.",
                                    "@no_rewriting.", "@magic.",
                                    "@reorder_joins.", "@save_module.",
                                    "@eager."};
  static const char* kWithNeg[] = {"",        "@psn.",
                                   "@naive.", "@no_rewriting.",
                                   "@magic.", "@ordered_search."};
  const char* strategy = with_negation
                             ? kWithNeg[rng.Next(6)]
                             : kPositive[rng.Next(8)];
  std::string text = ProgramText(rules, base, strategy);

  std::set<Fact> first[kDerived];
  for (bool use_vm : {true, false}) {
    Database db;
    db.set_use_vm(use_vm);
    auto st = db.Consult(text);
    ASSERT_TRUE(st.ok()) << st.status().ToString() << "\nseed " << seed
                         << "\n" << text;
    for (int d = 0; d < kDerived; ++d) {
      auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
      ASSERT_TRUE(res.ok())
          << res.status().ToString() << "\nseed " << seed << " strategy '"
          << strategy << "' vm=" << use_vm << "\n" << text;
      std::set<Fact> got;
      for (const AnswerRow& row : res->rows) {
        ASSERT_EQ(row.bindings.size(), 2u);
        ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
        got.insert({static_cast<int>(
                        ArgCast<IntArg>(row.bindings[0].second)->value()),
                    static_cast<int>(
                        ArgCast<IntArg>(row.bindings[1].second)->value())});
      }
      EXPECT_EQ(got, expected[kBase + d])
          << "pred " << PredName(kBase + d) << " vs reference, seed "
          << seed << " strategy '" << strategy << "' vm=" << use_vm << "\n"
          << text;
      if (use_vm) {
        first[d] = std::move(got);
      } else {
        EXPECT_EQ(got, first[d])
            << "pred " << PredName(kBase + d)
            << " diverges from the vm run, seed " << seed << " strategy '"
            << strategy << "'\n" << text;
      }
    }
    if (use_vm) {
      *vm_apps += db.vm_counters()->applications.load();
    } else {
      // With the VM off nothing may reach it at all.
      EXPECT_EQ(db.vm_counters()->applications.load(), 0u)
          << "seed " << seed << " strategy '" << strategy << "'";
    }
  }
}

// ---------------------------------------------------------------------
// Incremental view maintenance differential (docs/MAINTENANCE.md): a
// random save-module program is materialized, then a random sequence of
// base-fact update batches flows through Session::ApplyUpdate. After
// every batch the engine's answers must be set-identical to a
// from-scratch reference fixpoint over the tracked base facts —
// whichever path (counting, DRed, or the invalidation fallback) handled
// the batch. `maintained` accumulates instances updated in place, so the
// caller can assert the incremental path actually ran.
// ---------------------------------------------------------------------

void RunIvmDifferential(uint64_t seed, uint64_t* maintained) {
  Lcg rng(seed);
  std::vector<GRule> rules = GenProgram(&rng, /*with_negation=*/false);
  if (rules.empty()) return;
  Db cur = GenBaseFacts(&rng);
  for (int d = 0; d < kDerived; ++d) {
    bool defined = false;
    for (const GRule& r : rules) defined |= r.head == d;
    if (!defined) {
      GRule r;
      r.head = d;
      r.head_args[0] = 0;
      r.head_args[1] = 1;
      r.body = {GLit{0, false, {0, 1}}};
      rules.push_back(r);
    }
  }

  Database db;
  std::string text = ProgramText(rules, cur, "@save_module.");
  auto st = db.Consult(text);
  ASSERT_TRUE(st.ok()) << st.status().ToString() << "\n" << text;
  Session session(&db);

  auto check_all = [&](const char* when, int batch) {
    Db expected = cur;
    ReferenceFixpoint(rules, &expected);
    for (int d = 0; d < kDerived; ++d) {
      auto res = db.EvalQuery(PredName(kBase + d) + "(X, Y)");
      ASSERT_TRUE(res.ok())
          << res.status().ToString() << "\nseed " << seed << " " << when
          << " batch " << batch << "\n" << text;
      std::set<Fact> got;
      for (const AnswerRow& row : res->rows) {
        ASSERT_EQ(row.bindings.size(), 2u);
        ASSERT_EQ(row.bindings[0].second->kind(), ArgKind::kInt);
        got.insert({static_cast<int>(
                        ArgCast<IntArg>(row.bindings[0].second)->value()),
                    static_cast<int>(
                        ArgCast<IntArg>(row.bindings[1].second)->value())});
      }
      EXPECT_EQ(got, expected[kBase + d])
          << "pred " << PredName(kBase + d) << " seed " << seed << " "
          << when << " batch " << batch << "\n" << text;
    }
  };

  // Materialize (and sanity-check) the saved instances before updating.
  check_all("before", 0);
  if (::testing::Test::HasFatalFailure() ||
      ::testing::Test::HasNonfatalFailure()) {
    return;
  }

  int n_batches = 3 + static_cast<int>(rng.Next(4));
  for (int b = 0; b < n_batches; ++b) {
    std::string utext;
    // Ground deletions, sampled from the live base facts (plus the
    // occasional no-op delete of a fact that is not there).
    int n_del = static_cast<int>(rng.Next(3));
    for (int i = 0; i < n_del; ++i) {
      int p = static_cast<int>(rng.Next(kBase));
      if (cur[p].empty() || rng.Next(8) == 0) {
        utext += "-" + PredName(p) + "(" +
                 std::to_string(rng.Next(kDomain) + kDomain) + ", 0).\n";
        continue;
      }
      auto it = cur[p].begin();
      std::advance(it, static_cast<long>(rng.Next(cur[p].size())));
      utext += "-" + PredName(p) + "(" + std::to_string(it->first) +
               ", " + std::to_string(it->second) + ").\n";
      cur[p].erase(it);
    }
    // Occasionally a pattern delete: everything with a given first
    // argument goes (exercises the subsumption expansion).
    if (rng.Next(4) == 0) {
      int p = static_cast<int>(rng.Next(kBase));
      int key = static_cast<int>(rng.Next(kDomain));
      utext += "-" + PredName(p) + "(" + std::to_string(key) + ", W).\n";
      for (auto it = cur[p].begin(); it != cur[p].end();) {
        it = it->first == key ? cur[p].erase(it) : std::next(it);
      }
    }
    // Insertions, duplicates included on purpose (must net to no-ops).
    int n_ins = 1 + static_cast<int>(rng.Next(3));
    for (int i = 0; i < n_ins; ++i) {
      int p = static_cast<int>(rng.Next(kBase));
      Fact fact{static_cast<int>(rng.Next(kDomain)),
                static_cast<int>(rng.Next(kDomain))};
      utext += "+" + PredName(p) + "(" + std::to_string(fact.first) +
               ", " + std::to_string(fact.second) + ").\n";
      cur[p].insert(fact);
    }

    auto result = session.ApplyUpdate(utext);
    ASSERT_TRUE(result.ok())
        << result.status().ToString() << "\nseed " << seed << " batch "
        << b << "\n" << utext;
    *maintained += result->maintained;

    check_all("after", b);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;  // one diverging batch is enough detail to debug from
    }
  }
}

void IvmSeedLoop(uint64_t first, uint64_t last) {
  // CORAL_IVM_SEED pins the run to one seed for deterministic replay of
  // a CI failure (mirrors CORAL_FAULT_SEED in crash_recovery_test).
  uint64_t maintained = 0;
  if (const char* env = std::getenv("CORAL_IVM_SEED")) {
    uint64_t seed = std::strtoull(env, nullptr, 0);
    ::testing::Test::RecordProperty("ivm_seed", std::to_string(seed));
    RunIvmDifferential(seed, &maintained);
    return;
  }
  for (uint64_t seed = first; seed <= last; ++seed) {
    RunIvmDifferential(seed, &maintained);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  // The sweep must exercise the incremental path, not just agree by
  // always falling back to invalidation.
  EXPECT_GT(maintained, 0u);
}

TEST(IvmDifferentialTest, UpdateSequencesMatchFromScratch) {
  IvmSeedLoop(10000, 10079);
}

TEST(IvmDifferentialTest, UpdateSequencesMatchFromScratchMoreSeeds) {
  IvmSeedLoop(11000, 11059);
}

TEST(VmDifferentialTest, VmInterpreterMatchesReference) {
  uint64_t vm_apps = 0;
  for (uint64_t seed = 8000; seed <= 8149; ++seed) {
    RunVmDifferential(seed, /*with_negation=*/false, &vm_apps);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The sweep must actually exercise the compiled path, not just agree
  // by everything falling back.
  EXPECT_GT(vm_apps, 0u);
}

TEST(VmDifferentialTest, VmInterpreterWithNegationMatchesReference) {
  uint64_t vm_apps = 0;
  for (uint64_t seed = 8500; seed <= 8649; ++seed) {
    RunVmDifferential(seed, /*with_negation=*/true, &vm_apps);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(vm_apps, 0u);
}

// Bytecode round-trip property, fuzzed over the same program generator:
// for every rule version the compiler produces, the textual disassembly
// IS the serialization — compile -> Disassemble -> Deserialize ->
// Disassemble must be a fixed point.
TEST(VmBytecodeRoundTrip, DisassembleDeserializeIsFixedPoint) {
  static const char* kStrategies[] = {"", "@psn.", "@naive.",
                                      "@no_rewriting.", "@magic."};
  uint64_t compiled = 0;
  for (uint64_t seed = 9000; seed <= 9099; ++seed) {
    Lcg rng(seed);
    std::vector<GRule> rules =
        GenProgram(&rng, /*with_negation=*/rng.Next(2) == 1);
    if (rules.empty()) continue;
    Db base = GenBaseFacts(&rng);
    std::string text =
        ProgramText(rules, base, kStrategies[rng.Next(5)]);

    TermFactory factory;
    Parser parser(text, &factory);
    auto prog = parser.ParseProgram();
    ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    ASSERT_EQ(prog->modules.size(), 1u);
    const ModuleDecl& decl = prog->modules[0];

    RewriteOptions ropts;  // no builtins, no base cards: defaults
    for (const QueryFormDecl& form : decl.exports) {
      auto rewritten = RewriteModule(decl, form, &factory, ropts);
      if (!rewritten.ok()) {
        // The generator may export a derived predicate it never gave a
        // rule; the rewriter rejects that form and there is nothing to
        // compile — skip it.
        continue;
      }
      vm::CompileEnv cenv;  // default callbacks: nothing external
      vm::ModuleProgram mp = vm::CompileModule(*rewritten, decl, cenv);
      for (const vm::SccPrograms& sp : mp.sccs) {
        for (const auto* table : {&sp.versions, &sp.once}) {
          for (const auto& rp : *table) {
            if (rp == nullptr) continue;
            ++compiled;
            std::string d1 = vm::Disassemble(*rp);
            auto back = vm::Deserialize(d1, &factory);
            ASSERT_TRUE(back.ok()) << back.status().ToString()
                                   << "\nseed " << seed << "\n" << d1;
            EXPECT_EQ(vm::Disassemble(*back), d1)
                << "seed " << seed << "\n" << text;
          }
        }
      }
    }
  }
  // The property must have been exercised on real programs.
  EXPECT_GT(compiled, 100u);
}

// Verifier soundness over the same fuzzed corpus: every program the
// compiler emits must pass the static verifier and the whole-plan audit
// with zero errors (docs/VM.md "Verification") — the verify-after-compile
// gate must never reject legitimate compiler output.
TEST(VmVerifierProperty, CompilerOutputAlwaysVerifies) {
  static const char* kStrategies[] = {"", "@psn.", "@naive.",
                                      "@no_rewriting.", "@magic."};
  uint64_t compiled = 0;
  for (uint64_t seed = 9000; seed <= 9099; ++seed) {
    Lcg rng(seed);
    std::vector<GRule> rules =
        GenProgram(&rng, /*with_negation=*/rng.Next(2) == 1);
    if (rules.empty()) continue;
    Db base = GenBaseFacts(&rng);
    std::string text =
        ProgramText(rules, base, kStrategies[rng.Next(5)]);

    TermFactory factory;
    Parser parser(text, &factory);
    auto prog = parser.ParseProgram();
    ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n" << text;
    ASSERT_EQ(prog->modules.size(), 1u);
    const ModuleDecl& decl = prog->modules[0];

    RewriteOptions ropts;
    for (const QueryFormDecl& form : decl.exports) {
      auto rewritten = RewriteModule(decl, form, &factory, ropts);
      if (!rewritten.ok()) continue;  // unrewritable form: nothing compiled
      vm::CompileEnv cenv;
      vm::ModuleProgram mp = vm::CompileModule(*rewritten, decl, cenv);
      vm::AuditOptions opts;
      opts.rewritten = &*rewritten;
      opts.decl = &decl;
      opts.index_plan_authoritative = true;
      vm::ModuleAudit audit = vm::AuditModule(mp, opts);
      EXPECT_TRUE(audit.ok())
          << "seed " << seed << "\n" << audit.ToString() << text;
      EXPECT_EQ(audit.rejected, 0u) << "seed " << seed;
      compiled += audit.verified;
    }
  }
  EXPECT_GT(compiled, 100u);
}

TEST(DifferentialTest, AggregatesMatchReferenceFolds) {
  for (uint64_t seed = 5000; seed <= 5040; ++seed) {
    RunAggregateDifferential(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialTest, AutoOptimizeOnOffMatchesReference) {
  for (uint64_t seed = 6000; seed <= 6139; ++seed) {
    RunAutoOptimizeDifferential(seed, /*with_negation=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialTest, AutoOptimizeOnOffWithNegationMatchesReference) {
  for (uint64_t seed = 7000; seed <= 7069; ++seed) {
    RunAutoOptimizeDifferential(seed, /*with_negation=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

using SeedRange = std::pair<uint64_t, uint64_t>;  // inclusive

TEST(DifferentialTest, PositiveProgramsMatchReference) {
  for (SeedRange r : {SeedRange{1, 60}, {2000, 2119}, {4000, 4039}}) {
    for (uint64_t seed = r.first; seed <= r.second; ++seed) {
      RunDifferential(seed, /*with_negation=*/false);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(DifferentialTest, ProgramsWithBaseNegationMatchReference) {
  for (SeedRange r : {SeedRange{1000, 1060}, {3000, 3099}}) {
    for (uint64_t seed = r.first; seed <= r.second; ++seed) {
      RunDifferential(seed, /*with_negation=*/true);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------
// Parser robustness + term round-trip
// ---------------------------------------------------------------------

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  TermFactory f;
  Lcg rng(0xfa22);
  const std::string alphabet =
      "abzXY_09 ().,:-?@[]|<>=\\+*/'\"%{}\n\te";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    int len = static_cast<int>(rng.Next(60));
    for (int i = 0; i < len; ++i) {
      input += alphabet[rng.Next(alphabet.size())];
    }
    Parser p(input, &f);
    auto result = p.ParseProgram();  // must return, never crash
    (void)result;
  }
}

TEST(ParserFuzzTest, StructuredMutationsNeverCrash) {
  TermFactory f;
  Lcg rng(0xbeef);
  const std::string base =
      "module m. export p(bf). @psn. p(X, Y) :- e(X, Z), p(Z, Y), "
      "X < 3, not q([a, f(Y)]). end_module. ?- p(1, W).";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input = base;
    int n_mut = 1 + static_cast<int>(rng.Next(4));
    for (int m = 0; m < n_mut; ++m) {
      size_t pos = rng.Next(input.size());
      switch (rng.Next(3)) {
        case 0: input.erase(pos, 1); break;
        case 1: input.insert(pos, 1, "(){}.,@<>"[rng.Next(9)]); break;
        default: input[pos] = static_cast<char>(33 + rng.Next(94));
      }
    }
    Parser p(input, &f);
    auto result = p.ParseProgram();
    (void)result;
  }
}

TEST(TermRoundTripTest, PrintThenParseYieldsSameCanonicalTerm) {
  TermFactory f;
  Lcg rng(0x600d);
  // Random ground terms over ints, doubles, atoms (some quoted), strings,
  // lists and functors.
  std::function<const Arg*(int)> gen = [&](int depth) -> const Arg* {
    switch (rng.Next(depth > 0 ? 7 : 5)) {
      case 6:
        return f.MakeDouble(
            static_cast<double>(static_cast<int64_t>(rng.Next(1 << 30))) /
            (1.0 + static_cast<double>(rng.Next(997))));
      case 0: return f.MakeInt(static_cast<int64_t>(rng.Next(1000)) - 500);
      case 1: return f.MakeAtom("at" + std::to_string(rng.Next(5)));
      case 2: return f.MakeAtom("Odd name-" + std::to_string(rng.Next(3)));
      case 3: return f.MakeString("s\"x\\" + std::to_string(rng.Next(5)));
      case 4: {
        std::vector<const Arg*> elems;
        int n = static_cast<int>(rng.Next(4));
        for (int i = 0; i < n; ++i) elems.push_back(gen(depth - 1));
        return f.MakeList(elems);
      }
      default: {
        const Arg* args[] = {gen(depth - 1), gen(depth - 1)};
        return f.MakeFunctor("fn" + std::to_string(rng.Next(3)), args);
      }
    }
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const Arg* term = gen(3);
    std::string text = term->ToString();
    uint32_t vc = 0;
    auto parsed = Parser::ParseTerm(text, &f, &vc);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, term) << text;  // canonical: same node
    EXPECT_EQ(vc, 0u);
  }
}

}  // namespace
}  // namespace coral
