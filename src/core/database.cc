#include "src/core/database.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "src/lang/parser.h"
#include "src/obs/report.h"
#include "src/rel/hash_relation.h"
#include "src/rewrite/seminaive.h"
#include "src/util/logging.h"

namespace coral {

std::string AnswerRow::ToString() const {
  if (bindings.empty()) return "true";
  std::string s;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i) s += ", ";
    s += bindings[i].first + " = " + bindings[i].second->ToString();
  }
  return s;
}

std::string QueryResult::ToString() const {
  std::string s;
  if (rows.empty()) return "false\n";
  for (const AnswerRow& row : rows) {
    s += row.ToString();
    s += "\n";
  }
  return s;
}

namespace {

/// Single-solution generator succeeding iff `f` returns true.
class OnceFnGenerator : public BuiltinGenerator {
 public:
  explicit OnceFnGenerator(std::function<bool(Trail*)> f)
      : f_(std::move(f)) {}
  bool Next(Trail* trail) override {
    if (done_) return false;
    done_ = true;
    return f_(trail);
  }

 private:
  std::function<bool(Trail*)> f_;
  bool done_ = false;
};

/// Extracts (pred, args tuple) from a reified fact term like p(a, b).
StatusOr<std::pair<PredRef, const Tuple*>> ReifyFact(TermRef t,
                                                     TermFactory* factory) {
  TermRef r = Deref(t.term, t.env);
  if (r.term->kind() != ArgKind::kAtomOrFunctor) {
    return Status::InvalidArgument("assert/retract need a predicate term");
  }
  const auto* f = ArgCast<FunctorArg>(r.term);
  std::vector<TermRef> refs;
  refs.reserve(f->arity());
  for (const Arg* a : f->args()) refs.push_back({a, r.env});
  const Tuple* tuple = ResolveTuple(refs, factory);
  return std::make_pair(PredRef{f->functor(), f->arity()}, tuple);
}

}  // namespace

Database::Database()
    : factory_(std::make_unique<TermFactory>()),
      modules_(std::make_unique<ModuleManager>(this)) {
  builtins_.RegisterStandard();

  // Update predicates (paper §5.2: pipelining guarantees an evaluation
  // order, so side-effecting predicates like updates become meaningful).
  Database* db = this;
  builtins_.Register(
      "assert", 1,
      [db](std::span<const TermRef> args, TermFactory* factory)
          -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
        TermRef t = args[0];
        return std::unique_ptr<BuiltinGenerator>(
            new OnceFnGenerator([db, t, factory](Trail*) {
              auto fact = ReifyFact(t, factory);
              if (!fact.ok()) return false;
              Relation* rel = db->GetOrCreateBaseRelation(fact->first);
              if (!rel->ValidateInsert(fact->second).ok()) return false;
              if (rel->Insert(fact->second)) {
                db->modules()->InvalidateDependents(fact->first);
              }
              return true;  // succeeds even if a duplicate (like Prolog)
            }));
      });
  builtins_.Register(
      "retract", 1,
      [db](std::span<const TermRef> args, TermFactory* factory)
          -> StatusOr<std::unique_ptr<BuiltinGenerator>> {
        TermRef t = args[0];
        return std::unique_ptr<BuiltinGenerator>(
            new OnceFnGenerator([db, t, factory](Trail*) {
              auto fact = ReifyFact(t, factory);
              if (!fact.ok()) return false;
              Relation* rel = db->FindBaseRelation(fact->first);
              if (rel == nullptr) return false;
              // Delete every stored fact the pattern subsumes.
              size_t removed = rel->DeleteMatching(fact->second, nullptr);
              if (removed > 0) {
                db->modules()->InvalidateDependents(fact->first);
              }
              return removed > 0;
            }));
      });
}

Database::~Database() {
  // Teardown ordering: member declaration order would destroy stats_
  // before the module instances that still hold ModuleProfile pointers
  // into it. Quiesce the users first — detach the trace sink, drop module
  // state — so a TraceSink or a profile reader can never observe a dead
  // registry.
  trace_sink_ = nullptr;
  modules_.reset();
}

void Database::EnableConcurrentSessions() {
  // Enable-only (engages strictly more locking), hence safe at any time.
  factory_->EnableConcurrent();
}

Relation* Database::FindBaseRelation(const PredRef& pred) const {
  MutexLock lock(&base_mu_);
  auto it = base_.find(pred);
  return it == base_.end() ? nullptr : it->second;
}

Relation* Database::GetOrCreateBaseRelation(const PredRef& pred) {
  MutexLock lock(&base_mu_);
  auto it = base_.find(pred);
  if (it != base_.end()) return it->second;
  auto rel = std::make_unique<HashRelation>(pred.sym->name, pred.arity);
  // Enrolled in snapshot publication BEFORE becoming reachable through
  // the map, so a reader can never see a shared base in its pre-shared
  // state (the mutex publishes the flag).
  rel->MarkSharedBase();
  Relation* raw = rel.get();
  owned_relations_.push_back(std::move(rel));
  base_.emplace(pred, raw);
  return raw;
}

Status Database::RegisterRelation(const PredRef& pred,
                                  std::unique_ptr<Relation> relation) {
  CORAL_CHECK(relation != nullptr);
  if (relation->arity() != pred.arity) {
    return Status::InvalidArgument("relation arity mismatch for " +
                                   pred.ToString());
  }
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  if (auto* mr = dynamic_cast<MemoryRelation*>(relation.get())) {
    mr->MarkSharedBase();
  }
  // Non-MemoryRelation registrations (persistent / computed relations)
  // have no snapshot protocol; concurrent sessions read them live, which
  // is safe only if the implementation is itself thread-safe.
  Relation* raw = relation.get();
  {
    MutexLock lock(&base_mu_);
    owned_relations_.push_back(std::move(relation));
    base_[pred] = raw;
  }
  // The predicate's contents changed wholesale; any saved instance that
  // read it (or its previous registration) is stale.
  modules_->InvalidateDependents(pred);
  return Status::OK();
}

Status Database::RegisterExternalRelation(const PredRef& pred,
                                          Relation* relation) {
  CORAL_CHECK(relation != nullptr);
  if (relation->arity() != pred.arity) {
    return Status::InvalidArgument("relation arity mismatch for " +
                                   pred.ToString());
  }
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  if (auto* mr = dynamic_cast<MemoryRelation*>(relation)) {
    mr->MarkSharedBase();
  }
  {
    MutexLock lock(&base_mu_);
    base_[pred] = relation;
  }
  modules_->InvalidateDependents(pred);
  return Status::OK();
}

StatusOr<bool> Database::InsertFact(const Rule& fact) {
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  return InsertFactLocked(fact);
}

StatusOr<bool> Database::InsertFactLocked(const Rule& fact) {
  if (!fact.is_fact()) {
    return Status::InvalidArgument("not a fact: " + fact.ToString());
  }
  PredRef pred = fact.head.pred_ref();
  Relation* rel = GetOrCreateBaseRelation(pred);
  const Tuple* t = factory_->MakeTuple(fact.head.args);
  CORAL_RETURN_IF_ERROR(rel->ValidateInsert(t));
  bool changed = rel->Insert(t);
  // A saved module instance that read this predicate must never serve the
  // pre-insert answers; the point update path (ApplyUpdate) maintains
  // instead of dropping.
  if (changed) modules_->InvalidateDependents(pred);
  return changed;
}

StatusOr<size_t> Database::DeleteFacts(const Rule& fact) {
  if (!fact.is_fact()) {
    return Status::InvalidArgument("not a fact: " + fact.ToString());
  }
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  PredRef pred = fact.head.pred_ref();
  Relation* rel = FindBaseRelation(pred);
  if (rel == nullptr) return size_t{0};
  const Tuple* pattern = factory_->MakeTuple(fact.head.args);
  size_t removed = rel->DeleteMatching(pattern, nullptr);
  if (removed > 0) modules_->InvalidateDependents(pred);
  return removed;
}

StatusOr<UpdateResult> Database::ApplyUpdate(const UpdateBatch& batch) {
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  maintenance_counters_.updates.fetch_add(1, std::memory_order_relaxed);

  UpdateDelta delta;
  UpdateResult result;

  // Deletions first: patterns, subsumption-expanded like DeleteFacts,
  // recording the stored tuples actually removed.
  for (const Rule& fact : batch.deletes) {
    if (!fact.is_fact()) {
      return Status::InvalidArgument("not a fact: " + fact.ToString());
    }
    PredRef pred = fact.head.pred_ref();
    Relation* rel = FindBaseRelation(pred);
    if (rel == nullptr) continue;
    const Tuple* pattern = factory_->MakeTuple(fact.head.args);
    std::vector<const Tuple*> removed;
    result.base_deleted += rel->DeleteMatching(pattern, &removed);
    for (const Tuple* t : removed) {
      delta.minus[pred].push_back(t);
      if (!t->IsGround()) delta.ground_only = false;
    }
  }

  // Then insertions.
  for (const Rule& fact : batch.inserts) {
    if (!fact.is_fact()) {
      return Status::InvalidArgument("not a fact: " + fact.ToString());
    }
    PredRef pred = fact.head.pred_ref();
    Relation* rel = GetOrCreateBaseRelation(pred);
    const Tuple* t = factory_->MakeTuple(fact.head.args);
    CORAL_RETURN_IF_ERROR(rel->ValidateInsert(t));
    if (rel->Insert(t)) {
      delta.plus[pred].push_back(t);
      if (!t->IsGround()) delta.ground_only = false;
      ++result.base_inserted;
    }
  }

  // Net out tuples deleted and re-inserted by the same batch: the
  // relation is unchanged for them, so maintenance must see neither side.
  for (auto pit = delta.plus.begin(); pit != delta.plus.end();) {
    auto mit = delta.minus.find(pit->first);
    if (mit != delta.minus.end()) {
      std::unordered_set<const Tuple*> minus_set(mit->second.begin(),
                                                 mit->second.end());
      std::unordered_set<const Tuple*> both;
      for (const Tuple* t : pit->second) {
        if (minus_set.count(t) > 0) both.insert(t);
      }
      if (!both.empty()) {
        auto strip = [&both](std::vector<const Tuple*>* v) {
          v->erase(std::remove_if(v->begin(), v->end(),
                                  [&both](const Tuple* t) {
                                    return both.count(t) > 0;
                                  }),
                   v->end());
        };
        strip(&pit->second);
        strip(&mit->second);
      }
      if (mit->second.empty()) delta.minus.erase(mit);
    }
    pit = pit->second.empty() ? delta.plus.erase(pit) : std::next(pit);
  }

  if (!delta.empty()) {
    modules_->PropagateUpdate(delta, &result);
  }

  maintenance_counters_.maintained.fetch_add(result.maintained,
                                             std::memory_order_relaxed);
  maintenance_counters_.invalidated.fetch_add(result.invalidated,
                                              std::memory_order_relaxed);
  maintenance_counters_.derived_inserted.fetch_add(
      result.derived_inserted, std::memory_order_relaxed);
  maintenance_counters_.derived_deleted.fetch_add(
      result.derived_deleted, std::memory_order_relaxed);
  maintenance_counters_.rederived.fetch_add(result.rederived,
                                            std::memory_order_relaxed);
  return result;
}

Status Database::ApplyIndexDecl(const IndexDecl& decl) {
  PredRef pred{decl.pred, static_cast<uint32_t>(decl.pattern.size())};
  auto* rel = dynamic_cast<HashRelation*>(GetOrCreateBaseRelation(pred));
  if (rel == nullptr) {
    return Status::Unsupported("@make_index: relation " + pred.ToString() +
                               " does not support in-memory indices");
  }
  if (decl.argument_form) {
    rel->AddArgumentIndex(decl.cols);
  } else {
    rel->AddPatternIndex(decl.pattern, decl.var_count, decl.key_slots);
  }
  return Status::OK();
}

Status Database::ApplyAggSelDecl(const AggSelDecl& decl) {
  PredRef pred{decl.pred, static_cast<uint32_t>(decl.pattern.size())};
  Relation* rel = GetOrCreateBaseRelation(pred);
  rel->AddAggregateSelection(std::make_unique<AggregateSelection>(
      decl.kind, decl.pattern, decl.var_count, decl.group_args,
      decl.agg_arg));
  return Status::OK();
}

StatusOr<std::vector<Query>> Database::Consult(std::string_view text) {
  WriterLock commit(&commit_mu_);
  snapshot_stale_.store(true, std::memory_order_release);
  return ConsultLocked(text);
}

StatusOr<std::vector<Query>> Database::ConsultLocked(std::string_view text) {
  last_diagnostics_ = DiagnosticList();
  Parser parser(text, factory_.get());
  CORAL_ASSIGN_OR_RETURN(Program prog, parser.ParseProgram());
  // Annotations first: indices backfill, but aggregate selections only
  // constrain inserts made after they are attached.
  for (const IndexDecl& decl : prog.top_indexes) {
    CORAL_RETURN_IF_ERROR(ApplyIndexDecl(decl));
  }
  for (const AggSelDecl& decl : prog.top_agg_selections) {
    CORAL_RETURN_IF_ERROR(ApplyAggSelDecl(decl));
  }
  for (const Rule& fact : prog.top_facts) {
    CORAL_RETURN_IF_ERROR(InsertFactLocked(fact).status());
  }
  for (ModuleDecl& mod : prog.modules) {
    CORAL_RETURN_IF_ERROR(
        modules_->AddModule(std::move(mod), &last_diagnostics_));
  }
  return std::move(prog.queries);
}

std::shared_ptr<const ReadView> Database::AcquireReadSnapshot() {
  {
    // Fast path: nothing committed since the last publication — share
    // the cached view under the reader lock.
    ReaderLock lock(&commit_mu_);
    if (!snapshot_stale_.load(std::memory_order_acquire) &&
        view_ != nullptr) {
      return view_;
    }
  }
  // Publication is deferred to acquisition time (not done per commit) so
  // a bulk load of N facts publishes once, not N times.
  WriterLock lock(&commit_mu_);
  if (snapshot_stale_.load(std::memory_order_relaxed) || view_ == nullptr) {
    PublishLocked();
  }
  return view_;
}

void Database::PublishLocked() {
  uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto view = std::make_shared<ReadView>();
  view->epoch = epoch;
  {
    MutexLock lock(&base_mu_);
    for (const auto& [pred, rel] : base_) {
      auto* mr = dynamic_cast<MemoryRelation*>(rel);
      if (mr == nullptr || !mr->is_shared_base()) continue;
      if (mr->publish_dirty()) mr->PublishCommitted(epoch);
      if (const RelReadTable* table = mr->published_table()) {
        view->Add(rel, table, view_.get());
      }
    }
  }
  view_ = std::move(view);
  snapshot_stale_.store(false, std::memory_order_release);
}

StatusOr<std::vector<Query>> Database::ConsultFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Consult(buf.str());
}

StatusOr<QueryResult> Database::ExecuteQuery(const Query& query) {
  QueryResult result;
  result.query = query;

  BindEnv env(query.var_count);
  Trail trail;
  ExternalResolver resolver(this);
  std::vector<std::unique_ptr<GoalSource>> sources;
  sources.reserve(query.body.size());
  for (const Literal& lit : query.body) {
    CORAL_ASSIGN_OR_RETURN(std::unique_ptr<GoalSource> src,
                           resolver.Make(&lit, &env));
    sources.push_back(std::move(src));
  }
  Rule pseudo;
  pseudo.body = query.body;
  RuleCursor cursor(std::move(sources), ComputeBacktrackPoints(pseudo),
                    /*intelligent_bt=*/true, &trail);

  // Named variables reported in declaration order.
  std::vector<std::pair<std::string, const Variable*>> named;
  for (uint32_t slot = 0; slot < query.var_count; ++slot) {
    const std::string& name = query.var_names[slot];
    if (!name.empty() && name[0] != '_') {
      named.emplace_back(name, factory_->MakeVariable(slot, name));
    }
  }

  std::unordered_set<std::string> seen;
  while (cursor.Next()) {
    AnswerRow row;
    for (const auto& [name, var] : named) {
      VarRenamer renamer;
      const Arg* value = ResolveTerm(var, &env, factory_.get(), &renamer);
      row.bindings.emplace_back(name, value);
    }
    // Top-level answers are shown set-style: duplicates collapse.
    std::string key = row.ToString();
    if (seen.insert(key).second) result.rows.push_back(std::move(row));
  }
  cursor.UndoAll();
  CORAL_RETURN_IF_ERROR(cursor.status());
  return result;
}

StatusOr<QueryResult> Database::EvalQuery(const std::string& text) {
  std::string q = text;
  // Trim leading whitespace.
  size_t start = q.find_first_not_of(" \t\r\n");
  q = start == std::string::npos ? "" : q.substr(start);
  if (q.rfind("?-", 0) != 0 && q.rfind("?", 0) != 0) q = "?- " + q;
  size_t end = q.find_last_not_of(" \t\r\n");
  if (end != std::string::npos && q[end] != '.') q += ".";
  Parser parser(q, factory_.get());
  CORAL_ASSIGN_OR_RETURN(Program prog, parser.ParseProgram());
  if (prog.queries.size() != 1) {
    return Status::InvalidArgument("expected exactly one query");
  }
  return ExecuteQuery(prog.queries[0]);
}

StatusOr<std::string> Database::Explain(const std::string& fact_text) {
  uint32_t var_count = 0;
  CORAL_ASSIGN_OR_RETURN(const Arg* term,
                         Parser::ParseTerm(fact_text, factory_.get(),
                                           &var_count));
  if (term->kind() != ArgKind::kAtomOrFunctor) {
    return Status::InvalidArgument("expected a fact like anc(a, c)");
  }
  const auto* f = ArgCast<FunctorArg>(term);
  std::vector<TermRef> refs;
  refs.reserve(f->arity());
  for (const Arg* a : f->args()) refs.push_back({a, nullptr});
  const Tuple* tuple = ResolveTuple(refs, factory_.get());
  return modules_->ExplainLast(tuple);
}

std::string Database::ProfileReport() const {
  std::string out = obs::RenderReport(stats_);
  const obs::MaintenanceCounters& mc = maintenance_counters_;
  uint64_t updates = mc.updates.load(std::memory_order_relaxed);
  if (updates > 0) {
    out += "--- incremental updates ---\n";
    out += "update batches:    " + std::to_string(updates) + "\n";
    out += "maintained:        " +
           std::to_string(mc.maintained.load(std::memory_order_relaxed)) +
           "\n";
    out += "invalidated:       " +
           std::to_string(mc.invalidated.load(std::memory_order_relaxed)) +
           "\n";
    out += "derived inserted:  " +
           std::to_string(
               mc.derived_inserted.load(std::memory_order_relaxed)) +
           "\n";
    out += "derived deleted:   " +
           std::to_string(
               mc.derived_deleted.load(std::memory_order_relaxed)) +
           "\n";
    out += "rederived:         " +
           std::to_string(mc.rederived.load(std::memory_order_relaxed)) +
           "\n";
  }
  return out;
}

StatusOr<std::string> Database::PlanListing(const std::string& module_name,
                                            const std::string& pred,
                                            const std::string& adornment) {
  return modules_->PlanListing(module_name, pred, adornment);
}

std::string Database::PlanReport() const { return modules_->PlanReport(); }

std::string Database::BytecodeVerifierReport() {
  std::string out = "=== bytecode verifier ===\n";
  for (ModuleManager::FormBytecodeAudit& fa : modules_->AuditAllBytecode()) {
    out += "module " + fa.module + ", query form " + fa.pred;
    if (!fa.adornment.empty()) out += "(" + fa.adornment + ")";
    out += ":\n";
    if (!fa.error.empty()) {
      out += "  " + fa.error + "\n";
      continue;
    }
    out += "  compiled " + std::to_string(fa.compiled) + ", interpreted " +
           std::to_string(fa.skipped) + "\n";
    std::string audit = fa.audit.ToString();
    if (audit.empty()) audit = "no compiled programs\n";
    std::istringstream lines(audit);
    for (std::string line; std::getline(lines, line);) {
      out += "  " + line + "\n";
    }
  }
  return out;
}

StatusOr<std::string> Database::Run(std::string_view text) {
  CORAL_ASSIGN_OR_RETURN(std::vector<Query> queries, Consult(text));
  std::string out;
  for (const Query& q : queries) {
    CORAL_ASSIGN_OR_RETURN(QueryResult result, ExecuteQuery(q));
    out += result.query.ToString();
    out += "\n";
    out += result.ToString();
  }
  return out;
}

}  // namespace coral
