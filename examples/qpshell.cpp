// qpshell: an interactive (and pipe-scriptable) personalized-query shell.
//
//   $ ./build/examples/qpshell
//   qp> \julie
//   qp> select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid and
//       PL.date='2/7/2003'
//   ... ranked, personalized results ...
//
// Type \help for the command list. Non-interactive use:
//   printf '\\julie\nselect ...\n' | ./build/examples/qpshell

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "qp/core/personalizer.h"
#include "qp/exec/executor.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/obs/flight_recorder.h"
#include "qp/obs/metrics.h"
#include "qp/obs/slo.h"
#include "qp/obs/trace.h"
#include "qp/pref/profile_learner.h"
#include "qp/query/sql_parser.h"
#include "qp/query/sql_writer.h"
#include "qp/relational/csv.h"
#include "qp/service/service.h"
#include "qp/shard/sharded_service.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/util/fault_hub.h"
#include "qp/util/string_util.h"

namespace {

using namespace qp;

/// "<resident>/<budget>" of a durable store's tier ("all" for an
/// in-memory store); a store without a budget shows "inf".
std::string Residency(const storage::TierStats& tier) {
  if (!tier.enabled) return "all";
  return std::to_string(tier.hot_resident) + "/" +
         (tier.hot_capacity > 0 ? std::to_string(tier.hot_capacity) : "inf");
}

class Shell {
 public:
  Shell() : schema_(MovieSchema()) {
    auto db = BuildPaperDatabase();
    if (db.ok()) db_ = std::make_unique<Database>(std::move(db).value());
    SetProfile(JulieProfile(), "Julie (paper example)");
  }

  int Run() {
    bool tty = isatty(fileno(stdin)) != 0;
    std::string line;
    if (tty) {
      std::printf("qp shell — personalized queries over the movie "
                  "database. \\help for commands.\n");
    }
    for (;;) {
      if (tty) std::printf("qp> ");
      if (!std::getline(std::cin, line)) break;
      std::string_view trimmed = StripWhitespace(line);
      if (trimmed.empty()) continue;
      if (trimmed == "\\quit" || trimmed == "\\q") break;
      Dispatch(std::string(trimmed));
    }
    return 0;
  }

 private:
  void Dispatch(const std::string& line) {
    if (line[0] != '\\') {
      RunPersonalized(line);
      return;
    }
    std::istringstream in(line.substr(1));
    std::string command;
    in >> command;
    std::string arg;
    std::getline(in, arg);
    arg = std::string(StripWhitespace(arg));

    if (command == "help") {
      Help();
    } else if (command == "julie") {
      SetProfile(JulieProfile(), "Julie (paper example)");
    } else if (command == "rob") {
      SetProfile(RobProfile(), "Rob (paper example)");
    } else if (command == "profile") {
      LoadProfile(arg);
    } else if (command == "pref") {
      AddPreference(arg);
    } else if (command == "show") {
      std::printf("profile (%s):\n%s", profile_name_.c_str(),
                  profile_.Serialize().c_str());
    } else if (command == "graph") {
      if (graph_) std::printf("%s", graph_->DebugString().c_str());
    } else if (command == "gen") {
      Generate(arg);
    } else if (command == "paper") {
      auto db = BuildPaperDatabase();
      if (Check(db.status())) {
        db_ = std::make_unique<Database>(std::move(db).value());
        std::printf("loaded the paper's example database (%zu rows)\n",
                    db_->TotalRows());
      }
    } else if (command == "save") {
      SaveProfile(arg);
    } else if (command == "open") {
      OpenProfiles(arg);
    } else if (command == "savedb") {
      if (db_) Check(SaveDatabaseCsv(*db_, arg));
    } else if (command == "load") {
      Database db(schema_);
      if (Check(LoadDatabaseCsv(&db, arg))) {
        db_ = std::make_unique<Database>(std::move(db));
        std::printf("loaded %zu rows from %s\n", db_->TotalRows(),
                    arg.c_str());
      }
    } else if (command == "k") {
      options_.criterion = InterestCriterion::TopCount(
          static_cast<size_t>(std::atoll(arg.c_str())));
    } else if (command == "l") {
      options_.integration.min_satisfied =
          static_cast<size_t>(std::atoll(arg.c_str()));
    } else if (command == "m") {
      options_.integration.mandatory_count =
          static_cast<size_t>(std::atoll(arg.c_str()));
    } else if (command == "topn") {
      options_.top_n = static_cast<size_t>(std::atoll(arg.c_str()));
    } else if (command == "negatives") {
      options_.max_negative = static_cast<size_t>(std::atoll(arg.c_str()));
    } else if (command == "negmode") {
      options_.integration.negative_mode =
          arg == "veto" ? NegativeMode::kVeto : NegativeMode::kPenalty;
    } else if (command == "mode") {
      options_.approach = (arg == "sq")
                              ? IntegrationApproach::kSingleQuery
                              : IntegrationApproach::kMultipleQueries;
    } else if (command == "exec") {
      SetExec(arg);
    } else if (command == "batch") {
      RunBatch(arg);
    } else if (command == "deadline") {
      deadline_ms_ = std::atof(arg.c_str());
    } else if (command == "qbound") {
      max_queue_depth_ = static_cast<size_t>(std::atoll(arg.c_str()));
    } else if (command == "degrade") {
      degrade_queue_depth_ = static_cast<size_t>(std::atoll(arg.c_str()));
    } else if (command == "stats") {
      PrintStats();
    } else if (command == "metrics") {
      PrintMetrics(arg);
    } else if (command == "trace") {
      SetTrace(arg);
    } else if (command == "explain") {
      // With SQL: show the rewrite. Without: show the last captured
      // request trace (\trace on + \batch first).
      if (arg.empty()) {
        PrintLastTrace();
      } else {
        Explain(arg);
      }
    } else if (command == "raw") {
      RunRaw(arg);
    } else if (command == "learn") {
      Learn(arg);
    } else if (command == "chaos") {
      SetChaos(arg);
    } else if (command == "health") {
      PrintHealth();
    } else if (command == "shards") {
      Shards(arg);
    } else if (command == "kill") {
      KillShard(arg);
    } else if (command == "recover") {
      RecoverShard(arg);
    } else if (command == "reshard") {
      Reshard(arg);
    } else if (command == "migrations") {
      PrintMigrations();
    } else if (command == "blackbox") {
      PrintBlackbox(arg);
    } else if (command == "slo") {
      PrintSlo();
    } else if (command == "route") {
      Route(arg);
    } else {
      std::printf("unknown command \\%s — try \\help\n", command.c_str());
    }
  }

  void Help() {
    std::printf(
        "queries:\n"
        "  <sql>               personalize + execute (ranked)\n"
        "  \\raw <sql>          execute without personalization\n"
        "  \\explain <sql>      show selected preferences + rewritten SQL\n"
        "  \\batch [N] <file|sql>  personalize concurrently on N workers\n"
        "                      (<file>: one SQL query per line; a single\n"
        "                      query is run twice to show the cache)\n"
        "  \\stats              lifecycle breakdown of the last batch\n"
        "                      (full/degraded/shed/deadline, breaker)\n"
        "profiles:\n"
        "  \\julie | \\rob       the paper's example users\n"
        "  \\profile <file>     load a profile ([ cond, doi ] per line)\n"
        "  \\pref [ c, d ]      add one preference to the profile\n"
        "  \\learn <sql>        observe a query; profile is re-learned\n"
        "  \\show | \\graph      print profile / personalization graph\n"
        "  \\save <dir>         persist the profile (WAL + snapshot store)\n"
        "  \\open <dir> [user]  recover profiles from a durable store\n"
        "data:\n"
        "  \\paper              the paper's mini database (default)\n"
        "  \\gen [movies]       synthetic IMDb-style database\n"
        "  \\savedb <dir> | \\load <dir>  CSV export / import\n"
        "options:\n"
        "  \\k N  \\l N  \\m N    top-K / at-least-L / mandatory-M\n"
        "  \\mode sq|mq  \\topn N  \\negatives N  \\negmode veto|penalty\n"
        "  \\exec sq|mq         integration approach (as \\mode)\n"
        "overload (apply to the next \\batch):\n"
        "  \\deadline MS        per-request deadline (0 = none)\n"
        "  \\qbound N           shed requests past N queued (0 = unbounded)\n"
        "  \\degrade N          halve K when the queue exceeds N (0 = off)\n"
        "observability:\n"
        "  \\metrics [json|prom]  dump the metrics registry (accumulated\n"
        "                      across every \\batch in this session)\n"
        "  \\trace on|off       capture per-request pipeline traces during\n"
        "                      \\batch\n"
        "  \\explain            span tree of the last traced request\n"
        "  \\blackbox [json|clear]  flight recorder — the last few\n"
        "                      thousand notable events (trace summaries,\n"
        "                      fault fires, breaker flips, quarantines,\n"
        "                      migration phases) as a table or JSON\n"
        "  \\slo                rolling-window availability/latency\n"
        "                      objectives and burn rates (per shard with\n"
        "                      a cluster open; else the last \\batch)\n"
        "robustness:\n"
        "  \\chaos <seed>|off   arm a deterministic random fault schedule\n"
        "                      over every fault site (same seed, same\n"
        "                      faults) / disarm and clear it\n"
        "  \\health             fault-site summary + breaker/scrubber/\n"
        "                      quarantine state of the last batch\n"
        "scale-out:\n"
        "  \\shards N [hot] [dir]  open an N-shard cluster (hash-routed,\n"
        "                      one durable store per shard under <dir>,\n"
        "                      default qpshell-cluster). hot > 0 keeps at\n"
        "                      most `hot` profiles per shard in memory\n"
        "                      (the rest page from disk; 0, the default,\n"
        "                      is no budget). \\batch\n"
        "                      routes through the cluster; \\stats and\n"
        "                      \\health grow per-shard rows\n"
        "  \\shards             per-shard residency/breaker/scrub rows\n"
        "  \\shards off         close the cluster (back to in-process)\n"
        "  \\kill I | \\recover I  drop / reopen shard I — survivors keep\n"
        "                      serving; recovery replays snapshot + WAL\n"
        "  \\reshard N          live-reshard the open cluster to N shards:\n"
        "                      per-partition copy -> WAL tail -> drain and\n"
        "                      atomic cutover under one barrier, serving\n"
        "                      throughout\n"
        "  \\migrations         migration counters + routing version + any\n"
        "                      journaled in-flight partition moves + the\n"
        "                      span tree of the last partition migration\n"
        "  \\route <user>       the user's partition/owner shard + per-shard\n"
        "                      resident key counts\n"
        "  \\quit\n");
  }

  bool Check(const Status& status) {
    if (!status.ok()) std::printf("error: %s\n", status.ToString().c_str());
    return status.ok();
  }

  void SetProfile(UserProfile profile, std::string name) {
    auto graph = PersonalizationGraph::Build(&schema_, profile);
    if (!Check(graph.status())) return;
    profile_ = std::move(profile);
    profile_name_ = std::move(name);
    graph_ = std::make_unique<PersonalizationGraph>(std::move(graph).value());
    std::printf("profile: %s (%zu selections, %zu joins, %zu dislikes)\n",
                profile_name_.c_str(),
                profile_.NumSelections() -
                    graph_->num_negative_selection_edges(),
                profile_.NumJoins(),
                graph_->num_negative_selection_edges());
  }

  void LoadProfile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::printf("error: cannot open %s\n", path.c_str());
      return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto profile = UserProfile::Parse(buffer.str());
    if (Check(profile.status())) {
      SetProfile(std::move(profile).value(), path);
    }
  }

  void AddPreference(const std::string& text) {
    auto parsed = UserProfile::Parse(text);
    if (!Check(parsed.status())) return;
    UserProfile updated = profile_;
    for (const AtomicPreference& pref : parsed->preferences()) {
      updated.AddOrUpdate(pref);
    }
    SetProfile(std::move(updated), profile_name_ + " (edited)");
  }

  /// \save <dir>: write the current profile through a durable store —
  /// WAL append, then checkpoint so the directory holds a fresh snapshot.
  void SaveProfile(const std::string& arg) {
    if (arg.empty()) {
      std::printf("usage: \\save <dir>\n");
      return;
    }
    storage::StorageOptions options;
    options.dir = arg;
    options.compact_threshold_bytes = 0;
    auto store = storage::DurableProfileStore::Open(&schema_, options);
    if (!Check(store.status())) return;
    if (!Check((*store)->Put(profile_name_, profile_))) return;
    if (!Check((*store)->Checkpoint())) return;
    storage::StorageStats stats = (*store)->storage_stats();
    if (!Check((*store)->Close())) return;
    std::printf("saved profile '%s' to %s (snapshot at seqno %llu)\n",
                profile_name_.c_str(), arg.c_str(),
                static_cast<unsigned long long>(stats.last_appended_seqno));
  }

  /// \open <dir> [user]: recover a durable store (snapshot + WAL replay)
  /// and make one of its profiles current.
  void OpenProfiles(const std::string& arg) {
    std::istringstream in(arg);
    std::string dir;
    in >> dir;
    std::string user;
    std::getline(in, user);
    user = std::string(StripWhitespace(user));
    if (dir.empty()) {
      std::printf("usage: \\open <dir> [user]\n");
      return;
    }
    storage::StorageOptions options;
    options.dir = dir;
    options.compact_threshold_bytes = 0;
    auto store = storage::DurableProfileStore::Open(&schema_, options);
    if (!Check(store.status())) return;
    storage::StorageStats stats = (*store)->storage_stats();
    auto all = (*store)->All();
    std::printf(
        "opened %s: %zu profiles (%llu from snapshot, %llu WAL records "
        "replayed, %llu torn bytes dropped) in %llu ms\n",
        dir.c_str(), all.size(),
        static_cast<unsigned long long>(stats.snapshot_users_loaded),
        static_cast<unsigned long long>(stats.records_replayed),
        static_cast<unsigned long long>(stats.torn_bytes_truncated),
        static_cast<unsigned long long>(stats.recovery_millis));
    Check((*store)->Close());
    if (all.empty()) return;
    if (user.empty() && all.size() > 1) {
      for (const auto& [user_id, snapshot] : all) {
        std::printf("  %s (%zu preferences)\n", user_id.c_str(),
                    snapshot.profile->size());
      }
      std::printf("pick one with \\open %s <user>\n", dir.c_str());
      return;
    }
    for (const auto& [user_id, snapshot] : all) {
      if (user.empty() || user_id == user) {
        SetProfile(*snapshot.profile, user_id);
        return;
      }
    }
    std::printf("no profile '%s' in %s\n", user.c_str(), dir.c_str());
  }

  void Generate(const std::string& arg) {
    MovieDbConfig config;
    if (!arg.empty()) {
      config.num_movies = static_cast<size_t>(std::atoll(arg.c_str()));
    }
    auto db = GenerateMovieDatabase(config);
    if (Check(db.status())) {
      db_ = std::make_unique<Database>(std::move(db).value());
      std::printf("generated %zu rows (%zu movies)\n", db_->TotalRows(),
                  config.num_movies);
    }
  }

  Result<SelectQuery> Parse(const std::string& sql) {
    auto query = ParseSelectQuery(sql);
    if (!query.ok()) return query.status();
    QP_RETURN_IF_ERROR(query->Validate(schema_));
    return query;
  }

  /// \exec sq|mq: the integration approach (which personalized query
  /// gets built). With no argument, prints the current setting.
  void SetExec(const std::string& arg) {
    if (arg == "sq" || arg == "mq") {
      options_.approach = (arg == "sq")
                              ? IntegrationApproach::kSingleQuery
                              : IntegrationApproach::kMultipleQueries;
    } else if (!arg.empty()) {
      std::printf("usage: \\exec sq|mq\n");
      return;
    }
    std::printf(
        "approach=%s\n",
        options_.approach == IntegrationApproach::kSingleQuery ? "sq" : "mq");
  }

  void RunRaw(const std::string& sql) {
    if (db_ == nullptr) return;
    auto query = Parse(sql);
    if (!Check(query.status())) return;
    Executor executor(db_.get());
    auto result = executor.Execute(*query);
    if (Check(result.status())) {
      std::printf("%s(%zu rows)\n", result->DebugString().c_str(),
                  result->num_rows());
    }
  }

  void Explain(const std::string& sql) {
    if (graph_ == nullptr) return;
    auto query = Parse(sql);
    if (!Check(query.status())) return;
    Personalizer personalizer(graph_.get());
    auto outcome = personalizer.Personalize(*query, options_);
    if (!Check(outcome.status())) return;
    std::printf("selected preferences (K=%zu):\n", outcome->selected.size());
    for (const PreferencePath& pref : outcome->selected) {
      std::printf("  %s\n", pref.ToString().c_str());
    }
    for (const PreferencePath& pref : outcome->negatives) {
      std::printf("  dislike: %s\n", pref.ToString().c_str());
    }
    std::printf("personalized query:\n  %s\n",
                outcome->sq.has_value() ? ToSql(*outcome->sq).c_str()
                                        : ToSql(*outcome->mq).c_str());
  }

  void RunPersonalized(const std::string& sql) {
    if (db_ == nullptr || graph_ == nullptr) return;
    auto query = Parse(sql);
    if (!Check(query.status())) return;
    Personalizer personalizer(graph_.get());
    auto personalized = personalizer.Personalize(*query, options_);
    if (!Check(personalized.status())) return;
    PersonalizationOutcome outcome = std::move(personalized).value();
    Executor executor(db_.get());
    auto result = outcome.sq.has_value() ? executor.Execute(*outcome.sq)
                                         : executor.Execute(*outcome.mq);
    if (!Check(result.status())) return;
    if (options_.top_n > 0) result.value().Truncate(options_.top_n);
    std::printf("%s(%zu rows; %zu preferences applied; selection %.3f ms, "
                "integration %.3f ms)\n",
                result->DebugString().c_str(), result->num_rows(),
                outcome.selected.size() + outcome.negatives.size(),
                outcome.selection_millis, outcome.integration_millis);
  }

  /// \batch [workers] <file|sql>: pushes a batch of queries through the
  /// service layer (thread pool + profile store + selection cache) as the
  /// current profile and reports per-query results plus service stats.
  void RunBatch(const std::string& arg) {
    if (db_ == nullptr || graph_ == nullptr) return;
    std::istringstream in(arg);
    size_t workers = 0;  // 0 -> hardware concurrency.
    std::string rest;
    if (in >> workers) {
      std::getline(in, rest);
    } else {
      rest = arg;
      workers = 0;
    }
    rest = std::string(StripWhitespace(rest));
    if (rest.empty()) {
      std::printf("usage: \\batch [workers] <file|sql>\n");
      return;
    }

    // A file of queries (one per line), or a single inline query which
    // is run twice so the second pass demonstrates a cache hit.
    std::vector<std::string> sqls;
    std::ifstream file(rest);
    if (file) {
      std::string line;
      while (std::getline(file, line)) {
        std::string_view trimmed = StripWhitespace(line);
        if (!trimmed.empty() && trimmed[0] != '#') {
          sqls.emplace_back(trimmed);
        }
      }
    } else {
      sqls = {rest, rest};
    }

    std::vector<PersonalizationRequest> requests;
    for (const std::string& sql : sqls) {
      PersonalizationRequest request;
      request.user_id = profile_name_;
      auto query = Parse(sql);
      if (!Check(query.status())) return;
      request.query = std::move(query).value();
      request.options = options_;
      request.deadline_ms = deadline_ms_;
      requests.push_back(std::move(request));
    }

    // With a cluster open (\shards), the batch hash-routes across its
    // shards; otherwise a transient in-process service runs it.
    std::vector<PersonalizationResponse> responses;
    if (sharded_ != nullptr) {
      if (!Check(sharded_->PutProfile(profile_name_, profile_))) return;
      responses = sharded_->PersonalizeBatchAndWait(std::move(requests));
    } else {
      ServiceOptions service_options;
      service_options.num_workers = workers;
      service_options.max_queue_depth = max_queue_depth_;
      service_options.degrade_queue_depth = degrade_queue_depth_;
      // Publish into the shell's registry so \metrics accumulates across
      // batches instead of dying with each transient service.
      service_options.metrics = &metrics_;
      PersonalizationService service(db_.get(), service_options);
      if (trace_on_) service.set_trace_sink(&trace_sink_);
      if (!Check(service.profiles().Put(profile_name_, profile_))) return;
      responses = service.PersonalizeBatchAndWait(requests);
      last_stats_ = service.stats();
      last_workers_ = service.num_workers();
      last_slo_ = service.SloStatus();
      have_stats_ = true;
      service.set_trace_sink(nullptr);
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      const PersonalizationResponse& response = responses[i];
      if (!response.status.ok()) {
        std::printf("[%zu] %s: %s\n", i, ToString(response.disposition),
                    response.status.ToString().c_str());
        continue;
      }
      std::printf("[%zu] %zu rows, %zu preferences, %.3f ms%s%s\n", i,
                  response.results.num_rows(),
                  response.outcome.selected.size() +
                      response.outcome.negatives.size(),
                  response.execution_millis,
                  response.disposition == RequestDisposition::kDegraded
                      ? " (degraded)"
                      : "",
                  response.cache_hit ? " (cached selection)" : "");
    }
    if (sharded_ != nullptr) {
      shard::ShardedStats stats = sharded_->stats();
      std::printf(
          "batch: %zu requests hash-routed across %zu/%zu live shards; "
          "router shed %llu (\\stats for per-shard rows%s)\n",
          responses.size(), sharded_->alive_shards(), sharded_->num_shards(),
          static_cast<unsigned long long>(stats.router.shed),
          trace_on_ ? "; \\explain for the last trace" : "");
      return;
    }
    std::printf(
        "batch: %zu requests on %zu workers; cache %zu hit / %zu miss; "
        "selection %.3f ms, integration %.3f ms, execution %.3f ms "
        "(\\stats for the lifecycle breakdown%s)\n",
        last_stats_.requests, last_workers_, last_stats_.cache_hits,
        last_stats_.cache_misses, last_stats_.selection_millis,
        last_stats_.integration_millis, last_stats_.execution_millis,
        trace_on_ ? "; \\explain for the last trace" : "");
  }

  /// \metrics [json|prom]: the shell's metrics registry — every \batch
  /// service publishes into it, so counters and latency histograms
  /// accumulate across the session.
  void PrintMetrics(const std::string& arg) {
    if (arg.empty() || arg == "json") {
      std::printf("%s\n", metrics_.Export(obs::ExportFormat::kJson).c_str());
    } else if (arg == "prom" || arg == "prometheus") {
      std::printf("%s",
                  metrics_.Export(obs::ExportFormat::kPrometheus).c_str());
    } else {
      std::printf("usage: \\metrics [json|prom]\n");
    }
  }

  /// \trace on|off: capture per-request pipeline traces during \batch.
  void SetTrace(const std::string& arg) {
    if (arg == "on") {
      trace_on_ = true;
      if (sharded_ != nullptr) sharded_->set_trace_sink(&trace_sink_);
      std::printf("tracing on — run a \\batch, then \\explain\n");
    } else if (arg == "off") {
      trace_on_ = false;
      if (sharded_ != nullptr) sharded_->set_trace_sink(nullptr);
    } else {
      std::printf("usage: \\trace on|off\n");
    }
  }

  /// \explain (no SQL): the span tree of the last traced request.
  void PrintLastTrace() {
    std::shared_ptr<const obs::RequestTrace> last = trace_sink_.last();
    if (last == nullptr) {
      std::printf("no trace captured — \\trace on, then run a \\batch\n");
      return;
    }
    std::printf("%s", last->ToString().c_str());
  }

  /// \stats: the overload/lifecycle breakdown of the most recent \batch —
  /// how many requests completed full vs degraded, were shed at admission
  /// or expired in the queue, plus the storage circuit-breaker state.
  void SetChaos(const std::string& arg) {
    if (arg == "off" || arg.empty()) {
      FaultHub::Global()->Reset();
      std::printf("chaos off — every fault site disarmed\n");
      return;
    }
    const uint64_t seed =
        static_cast<uint64_t>(std::strtoull(arg.c_str(), nullptr, 10));
    FaultHub::Global()->ArmRandom(seed, FaultHub::KnownSites());
    std::printf(
        "chaos armed with seed %llu across %zu fault sites — the same\n"
        "seed always yields the same fault schedule. \\chaos off to heal,\n"
        "\\health to see what fired.\n",
        static_cast<unsigned long long>(seed), FaultHub::KnownSites().size());
  }

  /// \shards N [hot] [dir]: open a hash-routed cluster; \shards off
  /// closes it; bare \shards prints the per-shard rows.
  void Shards(const std::string& arg) {
    if (arg == "off") {
      if (sharded_ == nullptr) {
        std::printf("no cluster open\n");
        return;
      }
      sharded_.reset();
      std::printf("cluster closed — \\batch runs in-process again "
                  "(state stays in %s)\n", sharded_dir_.c_str());
      return;
    }
    if (arg.empty()) {
      if (sharded_ == nullptr) {
        std::printf("no cluster open — \\shards N [hot] [dir]\n");
      } else {
        PrintShardRows();
      }
      return;
    }
    if (db_ == nullptr) return;
    std::istringstream in(arg);
    size_t num_shards = 0;
    if (!(in >> num_shards) || num_shards == 0) {
      std::printf("usage: \\shards N [hot] [dir] | \\shards off\n");
      return;
    }
    size_t hot_capacity = 0;
    std::string dir = "qpshell-cluster";
    std::string token;
    if (in >> token) {
      char* end = nullptr;
      unsigned long long value = std::strtoull(token.c_str(), &end, 10);
      if (end != token.c_str() && *end == '\0') {
        hot_capacity = static_cast<size_t>(value);
        if (in >> token) dir = token;
      } else {
        dir = token;
      }
    }
    sharded_.reset();  // Close (flush) any previous cluster first.
    shard::ShardedOptions options;
    options.num_shards = num_shards;
    options.dir = dir;
    options.service.max_queue_depth = max_queue_depth_;
    options.service.degrade_queue_depth = degrade_queue_depth_;
    options.service.metrics = &metrics_;
    options.service.storage.hot_capacity = hot_capacity;
    auto sharded =
        shard::ShardedPersonalizationService::Open(db_.get(), options);
    if (!Check(sharded.status())) return;
    sharded_ = std::move(sharded).value();
    sharded_dir_ = dir;
    if (trace_on_) sharded_->set_trace_sink(&trace_sink_);
    if (!Check(sharded_->PutProfile(profile_name_, profile_))) return;
    std::printf(
        "cluster open: %zu shards under %s/shard-<i>%s; current profile "
        "'%s' routed to shard %zu. \\batch now fans out across shards.\n",
        num_shards, dir.c_str(),
        hot_capacity > 0
            ? (" (tiered: <= " + std::to_string(hot_capacity) +
               " hot profiles per shard)").c_str()
            : " (no hot budget: profiles page in on first use and stay)",
        profile_name_.c_str(), sharded_->ShardFor(profile_name_));
  }

  void KillShard(const std::string& arg) {
    if (sharded_ == nullptr) {
      std::printf("no cluster open — \\shards N first\n");
      return;
    }
    size_t index = static_cast<size_t>(std::atoll(arg.c_str()));
    if (!Check(sharded_->KillShard(index))) return;
    std::printf("shard %zu down (%zu/%zu alive) — its users shed, "
                "survivors serve. \\recover %zu to heal.\n",
                index, sharded_->alive_shards(), sharded_->num_shards(),
                index);
  }

  void RecoverShard(const std::string& arg) {
    if (sharded_ == nullptr) {
      std::printf("no cluster open — \\shards N first\n");
      return;
    }
    size_t index = static_cast<size_t>(std::atoll(arg.c_str()));
    if (!Check(sharded_->RecoverShard(index))) return;
    auto shard = sharded_->Shard(index);
    storage::StorageStats stats =
        shard == nullptr ? storage::StorageStats{} : shard->stats().storage;
    std::printf("shard %zu recovered (%zu/%zu alive): %llu profiles from "
                "snapshot, %llu WAL records replayed in %.1f ms — every "
                "acknowledged mutation survives the cycle\n",
                index, sharded_->alive_shards(), sharded_->num_shards(),
                static_cast<unsigned long long>(stats.snapshot_users_loaded),
                static_cast<unsigned long long>(stats.records_replayed),
                stats.recovery_millis);
  }

  /// \reshard N: live-reshard the open cluster, printing what moved.
  void Reshard(const std::string& arg) {
    if (sharded_ == nullptr) {
      std::printf("no cluster open — \\shards N first\n");
      return;
    }
    size_t new_shards = static_cast<size_t>(std::atoll(arg.c_str()));
    if (new_shards == 0) {
      std::printf("usage: \\reshard N (N >= 1)\n");
      return;
    }
    shard::MigrationStats before = sharded_->migration_stats();
    if (!Check(sharded_->Reshard(new_shards))) return;
    shard::MigrationStats after = sharded_->migration_stats();
    std::printf(
        "resharded to %zu shards (routing v%llu): %llu partitions moved, "
        "%llu users copied, %llu tail records, %llu retries — cluster "
        "served throughout\n",
        sharded_->num_shards(),
        static_cast<unsigned long long>(sharded_->routing_version()),
        static_cast<unsigned long long>(after.partitions_migrated -
                                        before.partitions_migrated),
        static_cast<unsigned long long>(after.users_copied -
                                        before.users_copied),
        static_cast<unsigned long long>(after.tail_records -
                                        before.tail_records),
        static_cast<unsigned long long>(after.retries - before.retries));
  }

  /// \migrations: lifetime migration counters, the serving routing
  /// version, and any journaled in-flight partition moves on disk.
  void PrintMigrations() {
    if (sharded_ == nullptr) {
      std::printf("no cluster open — \\shards N first\n");
      return;
    }
    shard::ShardedStats stats = sharded_->stats();
    const shard::MigrationStats& m = stats.migration;
    std::printf(
        "routing v%llu over %zu partitions / %zu shards%s\n"
        "migrations: %llu committed, %llu aborted, %llu active; %llu users "
        "copied, %llu tail records, %llu retries, %llu copy restarts\n",
        static_cast<unsigned long long>(stats.routing_version),
        stats.num_partitions, sharded_->num_shards(),
        m.resharding ? " — RESHARD IN FLIGHT" : "",
        static_cast<unsigned long long>(m.partitions_migrated),
        static_cast<unsigned long long>(m.partitions_aborted),
        static_cast<unsigned long long>(m.active),
        static_cast<unsigned long long>(m.users_copied),
        static_cast<unsigned long long>(m.tail_records),
        static_cast<unsigned long long>(m.retries),
        static_cast<unsigned long long>(m.copy_restarts));
    auto journal =
        shard::ReadMigrationJournal(DefaultFileSystem(), sharded_dir_);
    if (!journal.ok()) {
      std::printf("journal: unreadable (%s)\n",
                  journal.status().ToString().c_str());
    } else if (journal.value().empty()) {
      std::printf("journal: clean (no in-flight partition moves)\n");
    } else {
      for (const shard::MigrationJournalEntry& entry : journal.value()) {
        std::printf("journal: partition %u moving shard %u -> %u "
                    "(resolves on reopen if interrupted)\n",
                    entry.partition, entry.source, entry.target);
      }
    }
    std::shared_ptr<const obs::RequestTrace> last =
        sharded_->last_migration_trace();
    if (last != nullptr) {
      std::printf("last migration (trace %016llx):\n%s",
                  static_cast<unsigned long long>(last->trace_id()),
                  last->ToString().c_str());
    }
  }

  /// \blackbox [json|clear]: the in-memory flight recorder — the crash-
  /// forensics ring of recent notable events across every subsystem.
  void PrintBlackbox(const std::string& arg) {
    obs::FlightRecorder* recorder = obs::FlightRecorder::Global();
    if (arg == "clear") {
      recorder->Clear();
      std::printf("flight recorder cleared\n");
      return;
    }
    std::vector<obs::FlightEvent> events = recorder->Dump();
    if (arg == "json") {
      std::printf("%s\n", obs::FlightRecorder::ToJson(events).c_str());
      return;
    }
    if (!arg.empty()) {
      std::printf("usage: \\blackbox [json|clear]\n");
      return;
    }
    if (events.empty()) {
      std::printf("flight recorder empty — run a \\batch (or \\chaos + "
                  "\\batch) first\n");
      return;
    }
    for (const obs::FlightEvent& event : events) {
      std::printf("%6llu %-18s %-24s %-24s a=%llu b=%llu",
                  static_cast<unsigned long long>(event.sequence),
                  obs::FlightEventTypeName(event.type),
                  std::string(event.what_view()).c_str(),
                  std::string(event.detail_view()).c_str(),
                  static_cast<unsigned long long>(event.a),
                  static_cast<unsigned long long>(event.b));
      if (event.trace_id != 0) {
        std::printf(" trace=%016llx",
                    static_cast<unsigned long long>(event.trace_id));
      }
      std::printf("\n");
    }
    std::printf("%zu events retained (%llu recorded in total)\n",
                events.size(),
                static_cast<unsigned long long>(recorder->total_recorded()));
  }

  /// \slo: rolling-window availability/latency objectives. With a
  /// cluster open: one live row per shard. Otherwise: the snapshot taken
  /// at the end of the last \batch (the in-process service is transient,
  /// so its window dies with it).
  void PrintSlo() {
    auto row = [](const char* label, const obs::SloSnapshot& s,
                  const obs::SloOptions& o) {
      std::printf(
          "%s: availability %.4f (target %.3f, burn %.2f), "
          "latency<%.0fms %.4f (target %.3f, burn %.2f), %llu requests "
          "in window\n",
          label, s.availability, o.availability_target,
          s.availability_burn_rate, o.latency_millis, s.latency_attainment,
          o.latency_target, s.latency_burn_rate,
          static_cast<unsigned long long>(s.window_requests));
    };
    if (sharded_ != nullptr) {
      for (size_t i = 0; i < sharded_->num_shards(); ++i) {
        std::shared_ptr<PersonalizationService> shard = sharded_->Shard(i);
        char label[32];
        std::snprintf(label, sizeof(label), "shard %zu", i);
        if (shard == nullptr) {
          std::printf("%s: DOWN\n", label);
          continue;
        }
        row(label, shard->SloStatus(), shard->options().slo);
      }
      std::printf("burn rate = error budget consumption speed; 1.0 is "
                  "exactly on budget, >1 is eating into it\n");
      return;
    }
    if (!have_stats_) {
      std::printf("no SLO window yet — run a \\batch first\n");
      return;
    }
    row("last batch", last_slo_, ServiceOptions().slo);
  }

  /// \route <user>: the user's partition + owner shard, then the
  /// per-shard resident key counts the routing currently produces.
  void Route(const std::string& arg) {
    if (sharded_ == nullptr) {
      std::printf("no cluster open — \\shards N first\n");
      return;
    }
    std::string user = arg.empty() ? profile_name_ : arg;
    size_t shard_index = sharded_->ShardFor(user);
    std::printf("'%s' -> partition %zu -> shard %zu (%s) [routing v%llu]\n",
                user.c_str(), sharded_->PartitionFor(user), shard_index,
                sharded_->IsShardAlive(shard_index) ? "alive" : "DOWN",
                static_cast<unsigned long long>(sharded_->routing_version()));
    for (size_t s = 0; s < sharded_->num_shards(); ++s) {
      auto shard = sharded_->Shard(s);
      if (shard == nullptr) {
        std::printf("  shard %zu: DOWN\n", s);
        continue;
      }
      std::printf("  shard %zu: %zu resident keys%s\n", s,
                  shard->profiles().size(),
                  s == shard_index ? "  <- owner" : "");
    }
  }

  /// The per-shard table behind \shards / \stats / \health: liveness,
  /// traffic, hot/cold residency, breaker and scrubber state per row.
  void PrintShardRows() {
    shard::ShardedStats stats = sharded_->stats();
    // Each owner shard's cache counts the entries a routed mutation drops.
    uint64_t invalidated = 0;
    for (const shard::ShardRow& row : stats.shards) {
      invalidated += row.stats.cache_user_invalidations;
    }
    std::printf(
        "router: %llu requests, %llu mutations, %llu shed, %llu cache "
        "entries invalidated, %llu kills / %llu recoveries\n",
        static_cast<unsigned long long>(stats.router.requests),
        static_cast<unsigned long long>(stats.router.mutations),
        static_cast<unsigned long long>(stats.router.shed),
        static_cast<unsigned long long>(invalidated),
        static_cast<unsigned long long>(stats.router.shard_kills),
        static_cast<unsigned long long>(stats.router.shard_recoveries));
    // Lifecycle counters (requests/shed/...) aggregate cluster-wide in
    // the shared registry — the router line above. Each row below is
    // strictly per-shard state: its population, residency, selection
    // cache, breaker and scrubber.
    std::printf("shard  state  users  resident     cold   loads  evict  "
                "cache h/m  breaker  scrub\n");
    for (const shard::ShardRow& row : stats.shards) {
      if (!row.alive) {
        std::printf("%5zu  DOWN\n", row.shard_id);
        continue;
      }
      auto shard = sharded_->Shard(row.shard_id);
      size_t users = shard == nullptr ? 0 : shard->profiles().size();
      const storage::TierStats& tier = row.stats.tier;
      const std::string resident = Residency(tier);
      std::string cache = std::to_string(row.stats.cache_hits) + "/" +
                          std::to_string(row.stats.cache_misses);
      std::string scrub =
          std::to_string(row.stats.storage.scrubs) + " passes/" +
          std::to_string(row.stats.storage.scrub_corruptions) + " corrupt";
      std::printf("%5zu  up    %5zu  %8s  %7zu  %6llu  %5llu  %9s  %7s  %s\n",
                  row.shard_id, users, resident.c_str(), tier.cold_users,
                  static_cast<unsigned long long>(tier.cold_loads),
                  static_cast<unsigned long long>(tier.evictions),
                  cache.c_str(),
                  row.stats.storage.breaker_open ? "OPEN" : "closed",
                  scrub.c_str());
    }
  }

  void PrintHealth() {
    FaultHub* hub = FaultHub::Global();
    if (hub->armed()) {
      std::printf("chaos ARMED (seed %llu, %llu faults fired)\n",
                  static_cast<unsigned long long>(hub->seed()),
                  static_cast<unsigned long long>(hub->total_fires()));
    } else {
      std::printf("chaos off\n");
    }
    std::printf("%s", hub->Summary().c_str());
    if (sharded_ != nullptr) {
      // Per-shard health: each row is an independent failure domain with
      // its own breaker and scrubber.
      shard::ShardedStats stats = sharded_->stats();
      std::printf("cluster: %zu/%zu shards alive\n",
                  sharded_->alive_shards(), sharded_->num_shards());
      for (const shard::ShardRow& row : stats.shards) {
        if (!row.alive) {
          std::printf("  shard %zu: DOWN — \\recover %zu\n", row.shard_id,
                      row.shard_id);
          continue;
        }
        const storage::StorageStats& st = row.stats.storage;
        const storage::TierStats& tier = row.stats.tier;
        std::printf(
            "  shard %zu: breaker %s (%llu trips), scrubber %llu passes / "
            "%llu corruptions (%llu quarantined), tier %s, %llu load "
            "failures\n",
            row.shard_id, st.breaker_open ? "OPEN" : "closed",
            static_cast<unsigned long long>(st.breaker_trips),
            static_cast<unsigned long long>(st.scrubs),
            static_cast<unsigned long long>(st.scrub_corruptions),
            static_cast<unsigned long long>(st.quarantined_profiles),
            tier.enabled ? (Residency(tier) + " hot").c_str() : "off",
            static_cast<unsigned long long>(tier.load_failures));
      }
      return;
    }
    if (!have_stats_) {
      std::printf("no batch has run yet — \\batch for service health\n");
      return;
    }
    const storage::StorageStats& storage = last_stats_.storage;
    std::printf(
        "breaker: %s — %llu trips, %llu probes, %llu recoveries "
        "(next backoff %llums)\n",
        storage.breaker_open ? "OPEN (store read-only until a probe heals it)"
                             : "closed",
        static_cast<unsigned long long>(storage.breaker_trips),
        static_cast<unsigned long long>(storage.breaker_probes),
        static_cast<unsigned long long>(storage.breaker_recoveries),
        static_cast<unsigned long long>(storage.breaker_backoff_ms));
    std::printf(
        "scrubber: %llu passes, %llu corruptions found, %llu repaired "
        "(%llu failed), %llu profiles quarantined%s%s\n",
        static_cast<unsigned long long>(storage.scrubs),
        static_cast<unsigned long long>(storage.scrub_corruptions),
        static_cast<unsigned long long>(storage.repairs),
        static_cast<unsigned long long>(storage.repair_failures),
        static_cast<unsigned long long>(storage.quarantined_profiles),
        storage.last_scrub_error.empty() ? "" : "\n  last finding: ",
        storage.last_scrub_error.c_str());
  }

  void PrintStats() {
    if (sharded_ != nullptr) {
      PrintShardRows();
      return;
    }
    if (!have_stats_) {
      std::printf("no batch has run yet — \\batch first\n");
      return;
    }
    const ServiceStats& stats = last_stats_;
    uint64_t answered = stats.requests - stats.errors - stats.shed -
                        stats.deadline_exceeded;
    uint64_t full = answered - stats.degraded;
    std::printf(
        "last batch (%zu requests on %zu workers):\n"
        "  full               %llu\n"
        "  degraded           %llu\n"
        "  shed               %llu\n"
        "  deadline_exceeded  %llu\n"
        "  errors             %llu\n"
        "  peak queue depth   %zu%s\n",
        stats.requests, last_workers_,
        static_cast<unsigned long long>(full),
        static_cast<unsigned long long>(stats.degraded),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.deadline_exceeded),
        static_cast<unsigned long long>(stats.errors),
        stats.max_queue_depth,
        max_queue_depth_ == 0 ? " (queue unbounded)" : "");
    std::printf(
        "storage: %llu failed mutations, breaker %s (%llu trips)\n",
        static_cast<unsigned long long>(stats.storage.mutation_failures),
        stats.storage.breaker_open ? "OPEN (store is read-only)" : "closed",
        static_cast<unsigned long long>(stats.storage.breaker_trips));
  }

  void Learn(const std::string& sql) {
    auto query = Parse(sql);
    if (!Check(query.status())) return;
    if (learner_ == nullptr) {
      learner_ = std::make_unique<ProfileLearner>(&schema_);
    }
    if (!Check(learner_->Observe(*query))) return;
    auto profile = learner_->BuildProfile();
    if (Check(profile.status())) {
      SetProfile(std::move(profile).value(),
                 "learned from " + std::to_string(learner_->num_observed()) +
                     " queries");
    }
  }

  Schema schema_;
  std::unique_ptr<Database> db_;
  UserProfile profile_;
  std::string profile_name_;
  std::unique_ptr<PersonalizationGraph> graph_;
  std::unique_ptr<ProfileLearner> learner_;
  PersonalizationOptions options_;
  // Overload knobs applied to the next \batch (see \deadline / \qbound /
  // \degrade), and the stats snapshot \stats reports on.
  double deadline_ms_ = 0;
  size_t max_queue_depth_ = 0;
  size_t degrade_queue_depth_ = 0;
  ServiceStats last_stats_;
  size_t last_workers_ = 0;
  obs::SloSnapshot last_slo_;
  bool have_stats_ = false;
  // Observability state shared across \batch services: the registry they
  // publish into (\metrics) and the last-trace sink (\trace, \explain).
  obs::MetricsRegistry metrics_;
  obs::LastTraceSink trace_sink_;
  bool trace_on_ = false;
  // The scale-out cluster (\shards): while open, \batch hash-routes
  // through it and \stats/\health report per-shard rows.
  std::unique_ptr<shard::ShardedPersonalizationService> sharded_;
  std::string sharded_dir_;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Run();
}
