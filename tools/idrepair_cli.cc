// idrepair command-line tool: repair, generate, inspect and export.
//
//   idrepair_cli repair   --graph g.txt --records in.csv --out fixed.csv
//                         [--truth truth.csv] [--theta N] [--eta SECONDS]
//                         [--zeta N] [--lambda F] [--selection emax|dmin|
//                         dmax|exact] [--similarity edit|jaro_winkler|
//                         bigram_cosine|overlap] [--no-lig] [--no-prune]
//                         [--explain] [--threads N]
//                         [--candidate-grain auto|N]
//                         [--selection-grain auto|N]
//                         [--engine core|streaming|idsim|neighborhood]
//                         [--max-edit-distance N]
//                         [--flush-horizon F] [--window-slide SECONDS]
//                         [--max-buffered N]
//                         [--metrics-out FILE] [--metrics-interval MS]
//                         [--trace-out FILE]
//                         [--trace-capacity N] [--stats-json FILE]
//                         [--deadline-ms N] [--failpoints SPEC]
//                         [--failpoints-status]
//   idrepair_cli generate --graph g.txt --out records.csv
//                         [--truth truth.csv] [--trajectories N]
//                         [--error-rate F] [--missing-rate F] [--seed N]
//                         [--window SECONDS] [--max-path-len N]
//   idrepair_cli stats    --graph g.txt --records in.csv
//   idrepair_cli dot      --graph g.txt
//   idrepair_cli serve    [--listen tcp:127.0.0.1:7077] [--load-dir DIR]
//                         [--snapshot-dir DIR] [--max-inflight N]
//                         [--default-deadline-ms N] [--threads N]
//                         [--metrics-out FILE] [--metrics-interval MS]
//   idrepair_cli client register --connect ADDR --name NAME --graph g.txt
//                         [--records corpus.csv] [--theta N] [--eta S] ...
//   idrepair_cli client repair   --connect ADDR --name NAME
//                         (--records in.csv --graph g.txt [--out fixed.csv]
//                          | --use-corpus) [--budget-ms N]
//   idrepair_cli client snapshot --connect ADDR [--dir DIR]
//   idrepair_cli client stats    --connect ADDR [--prometheus]
//   idrepair_cli client shutdown --connect ADDR
//
// Graph files use the text format of graph/serialization.h; record files
// are `id,loc,ts` CSV.

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "baselines/id_similarity_repairer.h"
#include "baselines/neighborhood_repairer.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "exec/grain.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/scrape.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "gen/synthetic.h"
#include "graph/serialization.h"
#include "repair/explain.h"
#include "repair/repairer.h"
#include "repair/stats_json.h"
#include "sim/similarity.h"
#include "stream/streaming_repairer.h"
#include "traj/csv.h"
#include "traj/stats.h"

namespace idrepair {
namespace {

constexpr char kUsage[] =
    "usage: idrepair_cli <repair|generate|stats|dot|serve|client> [flags]\n"
    "run with a command and no flags for that command's requirements\n";

Status RequireFlag(const FlagParser& flags, const std::string& key) {
  if (!flags.Has(key)) {
    return Status::InvalidArgument("missing required flag --" + key);
  }
  return Status::OK();
}

Result<SelectionAlgorithm> ParseSelection(const std::string& selection) {
  if (selection == "emax") return SelectionAlgorithm::kEmax;
  if (selection == "dmin") return SelectionAlgorithm::kDmin;
  if (selection == "dmax") return SelectionAlgorithm::kDmax;
  if (selection == "exact") return SelectionAlgorithm::kExact;
  return Status::InvalidArgument("unknown --selection '" + selection + "'");
}

Result<RepairOptions> OptionsFromFlags(const FlagParser& flags,
                                       const IdSimilarity** similarity_out) {
  auto theta = flags.GetInt("theta", 4);
  if (!theta.ok()) return theta.status();
  auto eta = flags.GetInt("eta", 600);
  if (!eta.ok()) return eta.status();
  auto zeta = flags.GetInt("zeta", 4);
  if (!zeta.ok()) return zeta.status();
  auto lambda = flags.GetDouble("lambda", 0.5);
  if (!lambda.ok()) return lambda.status();
  auto threads = flags.GetInt("threads", 0);
  if (!threads.ok()) return threads.status();
  auto grain = ParseGrainValue(flags.GetString("candidate-grain", "auto"),
                               "candidate-grain");
  if (!grain.ok()) return grain.status();
  auto selection_grain = ParseGrainValue(
      flags.GetString("selection-grain", "auto"), "selection-grain");
  if (!selection_grain.ok()) return selection_grain.status();
  auto selection = ParseSelection(flags.GetString("selection", "emax"));
  if (!selection.ok()) return selection.status();
  auto trace_capacity = flags.GetInt("trace-capacity", 8192);
  if (!trace_capacity.ok()) return trace_capacity.status();
  if (*trace_capacity <= 0) {
    return Status::InvalidArgument("--trace-capacity must be >= 1");
  }
  auto deadline_ms = flags.GetInt("deadline-ms", 0);
  if (!deadline_ms.ok()) return deadline_ms.status();
  if (*deadline_ms < 0) {
    return Status::InvalidArgument("--deadline-ms must be >= 0");
  }
  auto metrics_interval = flags.GetInt("metrics-interval", 0);
  if (!metrics_interval.ok()) return metrics_interval.status();
  if (*metrics_interval < 0) {
    return Status::InvalidArgument("--metrics-interval must be >= 0");
  }
  if (*metrics_interval > 0 && !flags.Has("metrics-out")) {
    return Status::InvalidArgument(
        "--metrics-interval needs --metrics-out to scrape into");
  }
  // Requesting either export implies instrumentation; there is no separate
  // --obs switch to forget.
  bool obs_enabled = flags.Has("metrics-out") || flags.Has("trace-out");

  // The CLI owns the metric for the lifetime of the process; RepairOptions
  // only borrows it (see the ownership contract in repair/options.h).
  static std::unique_ptr<IdSimilarity> owned_similarity;
  auto sim = MakeSimilarity(flags.GetString("similarity", "edit"));
  if (!sim.ok()) return sim.status();
  owned_similarity = std::move(*sim);
  *similarity_out = owned_similarity.get();

  return RepairOptions()
      .WithTheta(static_cast<size_t>(*theta))
      .WithEta(*eta)
      .WithZeta(static_cast<size_t>(*zeta))
      .WithLambda(*lambda)
      .WithLig(!flags.GetBool("no-lig"))
      .WithMcpPruning(!flags.GetBool("no-prune"))
      .WithSelection(*selection)
      .WithSimilarity(owned_similarity.get())
      .WithThreads(static_cast<int>(*threads))
      .WithMinCandidateGrain(*grain)
      .WithMinSelectionGrain(*selection_grain)
      .WithObsEnabled(obs_enabled)
      .WithTraceCapacity(static_cast<size_t>(*trace_capacity))
      .WithDeadlineMs(*deadline_ms)
      .WithMetricsIntervalMs(*metrics_interval)
      .Validated();
}

Result<std::unique_ptr<Repairer>> MakeEngine(const FlagParser& flags,
                                             const TransitionGraph& graph,
                                             const RepairOptions& options) {
  std::string engine = flags.GetString("engine", "core");
  if (engine == "core") {
    return std::unique_ptr<Repairer>(new IdRepairer(graph, options));
  }
  if (engine == "streaming") {
    auto horizon = flags.GetDouble("flush-horizon", 2.0);
    if (!horizon.ok()) return horizon.status();
    if (*horizon < 1.0) {
      return Status::InvalidArgument(
          "--flush-horizon must be >= 1 (emitted fragments must be inert)");
    }
    auto slide = flags.GetInt("window-slide", 0);
    if (!slide.ok()) return slide.status();
    if (*slide < 0) {
      return Status::InvalidArgument("--window-slide must be >= 0");
    }
    auto max_buffered = flags.GetInt("max-buffered", 0);
    if (!max_buffered.ok()) return max_buffered.status();
    if (*max_buffered < 0) {
      return Status::InvalidArgument("--max-buffered must be >= 0");
    }
    StreamOptions stream_options;
    stream_options.flush_horizon_multiplier = *horizon;
    stream_options.window_slide = static_cast<Timestamp>(*slide);
    stream_options.max_buffered = static_cast<size_t>(*max_buffered);
    return std::unique_ptr<Repairer>(
        new StreamingRepairer(graph, options, stream_options));
  }
  if (engine == "idsim") {
    auto dist = flags.GetInt("max-edit-distance", 3);
    if (!dist.ok()) return dist.status();
    return std::unique_ptr<Repairer>(
        new IdSimilarityRepairer(static_cast<size_t>(*dist)));
  }
  if (engine == "neighborhood") {
    return std::unique_ptr<Repairer>(
        new NeighborhoodRepairer(graph, options));
  }
  return Status::InvalidArgument("unknown --engine '" + engine + "'");
}

int FailWith(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

int RunRepair(const FlagParser& flags) {
  for (const char* key : {"graph", "records", "out"}) {
    if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
  }
  // Arm failpoints before any I/O so the io.* sites see the load path too.
  if (flags.Has("failpoints")) {
    if (Status s = fault::ArmFromString(flags.GetString("failpoints"));
        !s.ok()) {
      return FailWith(s);
    }
  }
  auto graph = ReadTransitionGraphFile(flags.GetString("graph"));
  if (!graph.ok()) return FailWith(graph.status());
  auto records = ReadRecordsCsvFile(flags.GetString("records"), *graph);
  if (!records.ok()) return FailWith(records.status());

  const IdSimilarity* similarity = nullptr;
  auto options = OptionsFromFlags(flags, &similarity);
  if (!options.ok()) return FailWith(options.status());
  // Enable instrumentation up front (not just inside the engines) so the
  // baseline engines, which ignore RepairOptions::obs, still export.
  obs::ApplyOptions(options->obs);
  std::unique_ptr<obs::MetricsScraper> scraper;
  if (options->obs.metrics_interval_ms > 0) {
    obs::MetricsScraper::Options scrape_options;
    scrape_options.path = flags.GetString("metrics-out");
    scrape_options.interval_ms = options->obs.metrics_interval_ms;
    auto started = obs::MetricsScraper::Start(std::move(scrape_options));
    if (!started.ok()) return FailWith(started.status());
    scraper = std::move(*started);
  }

  TrajectorySet set = TrajectorySet::FromRecords(*records);
  auto engine = MakeEngine(flags, *graph, *options);
  if (!engine.ok()) return FailWith(engine.status());
  auto result = (*engine)->Repair(set);
  if (!result.ok()) return FailWith(result.status());

  std::cout << "engine: " << (*engine)->name() << ", trajectories: "
            << set.size() << " (" << result->stats.num_invalid
            << " invalid), candidates: " << result->stats.num_candidates
            << ", selected: " << result->stats.num_selected
            << ", rewrites: " << result->rewrites.size() << ", threads: "
            << result->stats.threads_used << ", time: "
            << ToFixed(result->stats.seconds_total * 1e3, 1) << " ms\n";
  if (!result->completion.ok()) {
    std::cout << "partial result (graceful degradation): "
              << result->completion << "\n";
  }
  if (flags.GetBool("failpoints-status")) {
    std::cout << fault::FailPointRegistry::Global().RenderStatus();
  }

  if (flags.GetBool("explain")) {
    std::cout << ExplainRepair(set, *graph, *result, *options);
  }

  if (scraper != nullptr) {
    // Periodic mode: the scraper appends timestamped expositions; its Stop()
    // writes the final one, so the one-shot dump below would only duplicate
    // the last block.
    scraper->Stop();
    if (Status s = scraper->last_error(); !s.ok()) return FailWith(s);
    std::cout << "wrote " << scraper->scrapes() << " metric scrapes to "
              << flags.GetString("metrics-out") << "\n";
  } else if (flags.Has("metrics-out")) {
    std::string path = flags.GetString("metrics-out");
    std::ofstream metrics(path);
    if (!metrics) {
      return FailWith(
          Status::IoError("cannot open '" + path + "' for writing"));
    }
    metrics << obs::MetricsRegistry::Global().RenderPrometheus();
    if (!metrics.good()) {
      return FailWith(Status::IoError("failed writing '" + path + "'"));
    }
    std::cout << "wrote metrics to " << path << "\n";
  }
  if (flags.Has("trace-out")) {
    std::string path = flags.GetString("trace-out");
    if (Status s = obs::TraceSink::Global().WriteJsonFile(path); !s.ok()) {
      return FailWith(s);
    }
    std::cout << "wrote trace to " << path << "\n";
  }
  if (flags.Has("stats-json")) {
    std::string path = flags.GetString("stats-json");
    if (Status s =
            WriteStatsJsonFile(path, (*engine)->name(), *options, *result);
        !s.ok()) {
      return FailWith(s);
    }
    std::cout << "wrote stats to " << path << "\n";
  }

  if (flags.Has("truth")) {
    auto truth_records = ReadRecordsCsvFile(flags.GetString("truth"), *graph);
    if (!truth_records.ok()) return FailWith(truth_records.status());
    auto dataset = MakeLabeledDataset(*graph, *records, *truth_records);
    if (!dataset.ok()) return FailWith(dataset.status());
    auto truth = ComputeFragmentTruth(*dataset, set);
    auto metrics = EvaluateRewrites(truth, set, result->rewrites);
    std::cout << "precision=" << ToFixed(metrics.precision, 3)
              << " recall=" << ToFixed(metrics.recall, 3)
              << " f-measure=" << ToFixed(metrics.f_measure, 3) << "\n";
  }

  std::vector<TrackingRecord> repaired;
  repaired.reserve(set.total_records());
  for (const auto& t : result->repaired.trajectories()) {
    for (const auto& p : t.points()) {
      repaired.push_back(TrackingRecord{t.id(), p.loc, p.ts});
    }
  }
  if (Status s = WriteRecordsCsvFile(flags.GetString("out"), *graph,
                                     repaired);
      !s.ok()) {
    return FailWith(s);
  }
  std::cout << "wrote " << repaired.size() << " records to "
            << flags.GetString("out") << "\n";
  return 0;
}

int RunGenerate(const FlagParser& flags) {
  for (const char* key : {"graph", "out"}) {
    if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
  }
  auto graph = ReadTransitionGraphFile(flags.GetString("graph"));
  if (!graph.ok()) return FailWith(graph.status());

  SyntheticConfig config;
  auto n = flags.GetInt("trajectories", 500);
  auto error_rate = flags.GetDouble("error-rate", 0.2);
  auto missing_rate = flags.GetDouble("missing-rate", 0.0);
  auto seed = flags.GetInt("seed", 42);
  auto window = flags.GetInt("window", 3600);
  auto max_len = flags.GetInt("max-path-len", 8);
  for (const Status& s :
       {n.status(), error_rate.status(), missing_rate.status(),
        seed.status(), window.status(), max_len.status()}) {
    if (!s.ok()) return FailWith(s);
  }
  config.num_trajectories = static_cast<size_t>(*n);
  config.record_error_rate = *error_rate;
  config.record_missing_rate = *missing_rate;
  config.seed = static_cast<uint64_t>(*seed);
  config.window_seconds = *window;
  config.max_path_len = static_cast<size_t>(*max_len);

  auto dataset = GenerateSyntheticDataset(*graph, config);
  if (!dataset.ok()) return FailWith(dataset.status());
  if (Status s = WriteRecordsCsvFile(flags.GetString("out"), *graph,
                                     dataset->ObservedRecords());
      !s.ok()) {
    return FailWith(s);
  }
  std::cout << "wrote " << dataset->records.size() << " records ("
            << dataset->NumEntities() << " entities, error rate "
            << ToFixed(dataset->RecordErrorRate(), 3) << ") to "
            << flags.GetString("out") << "\n";
  if (flags.Has("truth")) {
    if (Status s = WriteRecordsCsvFile(flags.GetString("truth"), *graph,
                                       dataset->TrueRecords());
        !s.ok()) {
      return FailWith(s);
    }
    std::cout << "wrote ground truth to " << flags.GetString("truth")
              << "\n";
  }
  return 0;
}

int RunStats(const FlagParser& flags) {
  for (const char* key : {"graph", "records"}) {
    if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
  }
  auto graph = ReadTransitionGraphFile(flags.GetString("graph"));
  if (!graph.ok()) return FailWith(graph.status());
  auto records = ReadRecordsCsvFile(flags.GetString("records"), *graph);
  if (!records.ok()) return FailWith(records.status());
  TrajectorySet set = TrajectorySet::FromRecords(*records);
  std::cout << DescribeStats(ComputeStats(set, *graph));
  return 0;
}

int RunDot(const FlagParser& flags) {
  if (Status s = RequireFlag(flags, "graph"); !s.ok()) return FailWith(s);
  auto graph = ReadTransitionGraphFile(flags.GetString("graph"));
  if (!graph.ok()) return FailWith(graph.status());
  std::cout << ToDot(*graph);
  return 0;
}

int RunServe(const FlagParser& flags) {
  server::ServerOptions options;
  options.listen = flags.GetString("listen", "tcp:127.0.0.1:7077");
  options.load_dir = flags.GetString("load-dir");
  options.snapshot_dir = flags.GetString("snapshot-dir");
  auto max_inflight = flags.GetInt("max-inflight", 64);
  auto default_deadline = flags.GetInt("default-deadline-ms", 0);
  auto threads = flags.GetInt("threads", 0);
  auto metrics_interval = flags.GetInt("metrics-interval", 0);
  for (const Status& s :
       {max_inflight.status(), default_deadline.status(), threads.status(),
        metrics_interval.status()}) {
    if (!s.ok()) return FailWith(s);
  }
  if (*max_inflight < 0) {
    return FailWith(Status::InvalidArgument("--max-inflight must be >= 0"));
  }
  options.max_inflight = static_cast<uint64_t>(*max_inflight);
  options.default_deadline_ms = *default_deadline;
  options.exec_threads = static_cast<int>(*threads);

  if (flags.Has("metrics-out")) obs::SetEnabled(true);
  std::unique_ptr<obs::MetricsScraper> scraper;
  if (*metrics_interval > 0) {
    if (!flags.Has("metrics-out")) {
      return FailWith(Status::InvalidArgument(
          "--metrics-interval needs --metrics-out to scrape into"));
    }
    obs::MetricsScraper::Options scrape_options;
    scrape_options.path = flags.GetString("metrics-out");
    scrape_options.interval_ms = *metrics_interval;
    auto started = obs::MetricsScraper::Start(std::move(scrape_options));
    if (!started.ok()) return FailWith(started.status());
    scraper = std::move(*started);
  }

  auto srv = server::IdRepairServer::Start(std::move(options));
  if (!srv.ok()) return FailWith(srv.status());
  std::cout << "idrepaird listening at " << (*srv)->address() << " ("
            << (*srv)->registry().size() << " graphs loaded)" << std::endl;
  (*srv)->WaitForShutdownRequest();
  server::AdmissionStats admission = (*srv)->admission();
  (*srv)->Stop();
  std::cout << "idrepaird stopped: admitted=" << admission.admitted
            << " rejected=" << admission.rejected
            << " completed=" << admission.completed << "\n";
  if (scraper != nullptr) {
    scraper->Stop();
    std::cout << "wrote " << scraper->scrapes() << " metric scrapes to "
              << flags.GetString("metrics-out") << "\n";
  }
  return 0;
}

Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

int RunClient(const std::string& action, const FlagParser& flags) {
  if (Status s = RequireFlag(flags, "connect"); !s.ok()) return FailWith(s);
  auto client = server::RepairClient::Connect(flags.GetString("connect"));
  if (!client.ok()) return FailWith(client.status());

  if (action == "register") {
    for (const char* key : {"name", "graph"}) {
      if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
    }
    server::RegisterGraphRequest req;
    req.name = flags.GetString("name");
    auto graph_text = ReadFileText(flags.GetString("graph"));
    if (!graph_text.ok()) return FailWith(graph_text.status());
    req.graph_text = std::move(*graph_text);
    const IdSimilarity* unused = nullptr;
    auto options = OptionsFromFlags(flags, &unused);
    if (!options.ok()) return FailWith(options.status());
    options->similarity = nullptr;  // never travels the wire
    req.options = *options;
    if (flags.Has("records")) {
      std::istringstream graph_stream(req.graph_text);
      auto graph = ReadTransitionGraph(graph_stream);
      if (!graph.ok()) return FailWith(graph.status());
      auto corpus = ReadRecordsCsvFile(flags.GetString("records"), *graph);
      if (!corpus.ok()) return FailWith(corpus.status());
      req.corpus = std::move(*corpus);
    }
    auto reply = client->RegisterGraph(req);
    if (!reply.ok()) return FailWith(reply.status());
    std::cout << "registered '" << req.name << "' version " << reply->version
              << " (" << req.corpus.size() << " corpus records)\n";
    return 0;
  }

  if (action == "repair") {
    if (Status s = RequireFlag(flags, "name"); !s.ok()) return FailWith(s);
    server::RepairRequest req;
    req.name = flags.GetString("name");
    auto budget = flags.GetInt("budget-ms", 0);
    if (!budget.ok()) return FailWith(budget.status());
    req.budget_ms = *budget;
    req.use_corpus = flags.GetBool("use-corpus");
    std::unique_ptr<TransitionGraph> graph;  // only needed for record CSV I/O
    if (!req.use_corpus) {
      for (const char* key : {"records", "graph"}) {
        if (Status s = RequireFlag(flags, key); !s.ok()) return FailWith(s);
      }
      auto loaded = ReadTransitionGraphFile(flags.GetString("graph"));
      if (!loaded.ok()) return FailWith(loaded.status());
      graph = std::make_unique<TransitionGraph>(std::move(*loaded));
      auto records = ReadRecordsCsvFile(flags.GetString("records"), *graph);
      if (!records.ok()) return FailWith(records.status());
      req.batches.push_back(std::move(*records));
    }
    auto reply = client->Repair(req);
    if (!reply.ok()) return FailWith(reply.status());
    size_t batch_index = 0;
    for (const server::BatchReply& batch : reply->batches) {
      std::cout << "batch " << batch_index++ << ": candidates="
                << batch.num_candidates << " selected=" << batch.num_selected
                << " rewrites=" << batch.num_rewrites << " records="
                << batch.repaired.size() << " time="
                << ToFixed(batch.seconds_total * 1e3, 1) << " ms";
      if (!batch.completion.ok()) std::cout << " (" << batch.completion << ")";
      std::cout << "\n";
    }
    if (flags.Has("out")) {
      if (graph == nullptr) {
        return FailWith(Status::InvalidArgument(
            "--out needs --graph to render location names"));
      }
      std::vector<TrackingRecord> all;
      for (const server::BatchReply& batch : reply->batches) {
        all.insert(all.end(), batch.repaired.begin(), batch.repaired.end());
      }
      if (Status s =
              WriteRecordsCsvFile(flags.GetString("out"), *graph, all);
          !s.ok()) {
        return FailWith(s);
      }
      std::cout << "wrote " << all.size() << " records to "
                << flags.GetString("out") << "\n";
    }
    return 0;
  }

  if (action == "snapshot") {
    server::SnapshotRequest req;
    req.dir = flags.GetString("dir");
    auto reply = client->Snapshot(req);
    if (!reply.ok()) return FailWith(reply.status());
    std::cout << "saved " << reply->num_saved << " snapshots to "
              << reply->dir << "\n";
    return 0;
  }

  if (action == "stats") {
    server::StatsRequest req;
    req.include_prometheus = flags.GetBool("prometheus");
    auto reply = client->Stats(req);
    if (!reply.ok()) return FailWith(reply.status());
    for (const auto& entry : reply->entries) {
      std::cout << entry.name << " v" << entry.version << ": "
                << entry.num_locations << " locations, " << entry.num_edges
                << " edges, " << entry.corpus_trajectories
                << " corpus trajectories, " << entry.lig_indexed
                << " LIG-indexed, " << entry.use_count << " in use\n";
    }
    const server::AdmissionStats& a = reply->admission;
    std::cout << "admission: admitted=" << a.admitted << " rejected="
              << a.rejected << " completed=" << a.completed << " inflight="
              << a.inflight << " queue_peak=" << a.queue_peak
              << " max_inflight=" << a.max_inflight << "\n";
    if (!reply->prometheus.empty()) std::cout << reply->prometheus;
    return 0;
  }

  if (action == "shutdown") {
    if (Status s = client->Shutdown(); !s.ok()) return FailWith(s);
    std::cout << "shutdown acknowledged\n";
    return 0;
  }

  std::cerr << "unknown client action '" << action << "'\n" << kUsage;
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  std::string command = argv[1];
  if (command == "client") {
    if (argc < 3) {
      std::cerr << "usage: idrepair_cli client "
                   "<register|repair|snapshot|stats|shutdown> --connect "
                   "ADDR [flags]\n";
      return 2;
    }
    auto flags = FlagParser::Parse(argc - 3, argv + 3,
                                   {"no-lig", "no-prune", "use-corpus",
                                    "prometheus"});
    if (!flags.ok()) return FailWith(flags.status());
    return RunClient(argv[2], *flags);
  }
  auto flags = FlagParser::Parse(
      argc - 2, argv + 2,
      {"no-lig", "no-prune", "explain", "failpoints-status"});
  if (!flags.ok()) return FailWith(flags.status());
  if (command == "repair") return RunRepair(*flags);
  if (command == "generate") return RunGenerate(*flags);
  if (command == "stats") return RunStats(*flags);
  if (command == "dot") return RunDot(*flags);
  if (command == "serve") return RunServe(*flags);
  std::cerr << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace
}  // namespace idrepair

int main(int argc, char** argv) { return idrepair::Main(argc, argv); }
