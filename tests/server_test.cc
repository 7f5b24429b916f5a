// idrepaird end-to-end: the in-process daemon driven over real sockets
// through the client library. The load-bearing invariants:
//
//  * a repair through the daemon is byte-identical to the same repair run
//    locally through the library — the wire adds transport, never results;
//  * registry replacement is epoch-style: in-flight holders of the old
//    bundle keep a fully usable graph while new acquires see the new one;
//  * register -> snapshot -> kill -> restart --load-dir reproduces the
//    exact same repair output as the original process;
//  * admission control sheds whole requests with ResourceExhausted, and a
//    per-request budget lands on the engines' graceful-degradation path;
//  * garbage on the wire drops that connection with a clean Status and the
//    daemon keeps serving everyone else;
//  * each bundle epoch builds its reachability closure once, on its first
//    repair, and a re-registered name never reuses the old one;
//  * closed connections' threads are reaped while the daemon runs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/scenario_catalog.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "repair/repairer.h"
#include "server/client.h"
#include "server/registry.h"
#include "server/server.h"
#include "server/snapshot.h"
#include "test_util.h"

namespace idrepair {
namespace server {
namespace {

namespace fs = std::filesystem;

std::string PaperGraphText() {
  std::ostringstream out;
  EXPECT_TRUE(WriteTransitionGraph(out, MakePaperExampleGraph()).ok());
  return std::move(out).str();
}

std::vector<TrackingRecord> FlattenSet(const TrajectorySet& set) {
  std::vector<TrackingRecord> records;
  for (const Trajectory& t : set.trajectories()) {
    for (const TrajectoryPoint& p : t.points()) {
      records.push_back(TrackingRecord{t.id(), p.loc, p.ts});
    }
  }
  return records;
}

/// What the daemon should hand back for `records`: the local library run,
/// flattened exactly as BatchReply flattens.
std::vector<TrackingRecord> LocalRepair(
    const std::vector<TrackingRecord>& records, const RepairOptions& options,
    const TransitionGraph& graph) {
  IdRepairer engine(graph, options);
  auto result = engine.Repair(TrajectorySet::FromRecords(records));
  EXPECT_TRUE(result.ok()) << result.status();
  return FlattenSet(result->repaired);
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

/// The process's kernel thread count ("Threads:" in /proc/self/status).
int ProcThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("idrepair_server_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

// ---- GraphRegistry -----------------------------------------------------

TEST(GraphRegistryTest, ValidateNameRules) {
  EXPECT_TRUE(GraphRegistry::ValidateName("metro-v2.1_east").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName("").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName(".hidden").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName("has space").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName("slash/attack").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName(std::string(129, 'a')).ok());
  EXPECT_TRUE(GraphRegistry::ValidateName(std::string(128, 'a')).ok());
}

TEST(GraphRegistryTest, AcquireUnknownIsNotFound) {
  GraphRegistry registry;
  auto r = registry.Acquire("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GraphRegistryTest, ReplacementIsEpochStyle) {
  GraphRegistry registry;
  auto v1 = registry.Register("g", MakePaperExampleGraph(),
                              testutil::RunningExampleOptions(),
                              testutil::MakeTable1Records());
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(*v1, 1u);

  auto held = registry.Acquire("g");
  ASSERT_TRUE(held.ok());

  // Replace with a different graph while the old bundle is "in flight".
  auto v2 = registry.Register("g", MakeChainGraph(9),
                              testutil::RunningExampleOptions(), {});
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(*v2, 2u);

  // The held epoch is untouched and fully usable.
  EXPECT_EQ((*held)->version, 1u);
  EXPECT_EQ((*held)->graph.num_locations(), 5u);
  ASSERT_NE((*held)->corpus, nullptr);
  IdRepairer engine((*held)->graph, (*held)->options);
  EXPECT_TRUE(engine.Repair(*(*held)->corpus).ok());

  // New acquires see the new epoch.
  auto fresh = registry.Acquire("g");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->version, 2u);
  EXPECT_EQ((*fresh)->graph.num_locations(), 9u);
}

TEST(GraphRegistryTest, InsertKeepsNewestVersion) {
  GraphRegistry registry;
  auto v2 = MakeBundle("g", 2, MakePaperExampleGraph(),
                       testutil::RunningExampleOptions(), {});
  ASSERT_TRUE(v2.ok());
  auto v1 = MakeBundle("g", 1, MakeChainGraph(3),
                       testutil::RunningExampleOptions(), {});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(registry.Insert(*v2).ok());
  // A stale snapshot must never roll an entry back.
  ASSERT_TRUE(registry.Insert(*v1).ok());
  auto got = registry.Acquire("g");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->version, 2u);
  EXPECT_EQ((*got)->graph.num_locations(), 5u);
}

TEST(GraphRegistryTest, SaveAndLoadDirRoundTrip) {
  TempDir dir("registry_rt");
  GraphRegistry registry;
  ASSERT_TRUE(registry
                  .Register("alpha", MakePaperExampleGraph(),
                            testutil::RunningExampleOptions(),
                            testutil::MakeTable1Records())
                  .ok());
  ASSERT_TRUE(registry
                  .Register("beta", MakeGridNetwork(3, 3),
                            testutil::RunningExampleOptions(), {})
                  .ok());
  auto saved = registry.SaveSnapshots(dir.str());
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(*saved, 2u);

  GraphRegistry loaded;
  auto n = loaded.LoadDir(dir.str());
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(loaded.size(), 2u);
  auto alpha = loaded.Acquire("alpha");
  ASSERT_TRUE(alpha.ok());
  ASSERT_NE((*alpha)->corpus, nullptr);
  EXPECT_EQ((*alpha)->corpus->total_records(), 7u);

  // A corrupt file in the directory fails the whole load with a clean
  // Status naming the file — a daemon must not start on half a registry.
  std::ofstream bad(dir.path() / "zz_corrupt.idrs", std::ios::binary);
  bad << "not a snapshot";
  bad.close();
  GraphRegistry partial;
  auto fail = partial.LoadDir(dir.str());
  ASSERT_FALSE(fail.ok());
  EXPECT_NE(fail.status().message().find("zz_corrupt"), std::string::npos)
      << fail.status();
}

// ---- Addresses ---------------------------------------------------------

TEST(AddressTest, ParseFormats) {
  auto unix_addr = ParseAddress("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_TRUE(unix_addr->is_unix);
  EXPECT_EQ(unix_addr->path, "/tmp/x.sock");

  auto host_port = ParseAddress("tcp:127.0.0.1:8080");
  ASSERT_TRUE(host_port.ok());
  EXPECT_FALSE(host_port->is_unix);
  EXPECT_EQ(host_port->host, "127.0.0.1");
  EXPECT_EQ(host_port->port, 8080);

  auto port_only = ParseAddress("tcp:9090");
  ASSERT_TRUE(port_only.ok());
  EXPECT_EQ(port_only->host, "127.0.0.1");
  EXPECT_EQ(port_only->port, 9090);

  for (const char* bad :
       {"", "tcp:", "tcp:host:notaport", "tcp:127.0.0.1:99999", "unix:",
        "ftp:1234", "tcp:1.2.3.4:-1"}) {
    EXPECT_FALSE(ParseAddress(bad).ok()) << bad;
  }
}

// ---- End-to-end over sockets -------------------------------------------

Result<std::unique_ptr<IdRepairServer>> StartLoopbackServer(
    ServerOptions options = {}) {
  options.listen = "tcp:127.0.0.1:0";
  return IdRepairServer::Start(std::move(options));
}

RegisterGraphRequest PaperRegisterRequest(const std::string& name,
                                          bool with_corpus) {
  RegisterGraphRequest req;
  req.name = name;
  req.graph_text = PaperGraphText();
  req.options = testutil::RunningExampleOptions();
  if (with_corpus) req.corpus = testutil::MakeTable1Records();
  return req;
}

TEST(ServerE2ETest, RepairThroughDaemonMatchesLocalRunByteForByte) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();

  auto registered = client->RegisterGraph(PaperRegisterRequest("paper", false));
  ASSERT_TRUE(registered.ok()) << registered.status();
  EXPECT_EQ(registered->version, 1u);

  RepairRequest req;
  req.name = "paper";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), 1u);
  const BatchReply& batch = reply->batches[0];
  EXPECT_TRUE(batch.completion.ok()) << batch.completion;
  EXPECT_EQ(batch.num_rewrites, 1u);
  EXPECT_EQ(batch.repaired,
            LocalRepair(testutil::MakeTable1Records(),
                        testutil::RunningExampleOptions(),
                        MakePaperExampleGraph()));
  (*srv)->Stop();
}

// Engine selector 1 named the retired partitioned engine, which was
// byte-identical to core; it still decodes and runs the one batch engine,
// so old clients keep getting the same bytes. Unknown selectors are still
// refused at decode.
TEST(ServerE2ETest, RetiredEngineSelectorRunsCoreAndUnknownIsRefused) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());

  // Two chain components: Table 1, and a renamed copy a day later.
  std::vector<TrackingRecord> records = testutil::MakeTable1Records();
  for (const TrackingRecord& r : testutil::MakeTable1Records()) {
    records.push_back(TrackingRecord{"X" + r.id, r.loc, r.ts + 86400});
  }
  auto repair_with = [&](uint8_t engine) {
    RepairRequest req;
    req.name = "paper";
    req.engine = engine;
    req.batches.push_back(records);
    return client->Repair(req);
  };
  auto core = repair_with(0);
  auto retired = repair_with(1);
  ASSERT_TRUE(core.ok()) << core.status();
  ASSERT_TRUE(retired.ok()) << retired.status();
  ASSERT_EQ(core->batches.size(), 1u);
  ASSERT_EQ(retired->batches.size(), 1u);
  const BatchReply& a = core->batches[0];
  const BatchReply& b = retired->batches[0];
  EXPECT_TRUE(a.completion.ok()) << a.completion;
  EXPECT_EQ(a.num_rewrites, 2u);
  // Every field but the wall-clock seconds_total.
  EXPECT_EQ(b.completion, a.completion);
  EXPECT_EQ(b.repaired, a.repaired);
  EXPECT_EQ(b.num_candidates, a.num_candidates);
  EXPECT_EQ(b.num_selected, a.num_selected);
  EXPECT_EQ(b.num_rewrites, a.num_rewrites);
  EXPECT_EQ(b.total_effectiveness, a.total_effectiveness);

  auto unknown = repair_with(2);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown engine selector"),
            std::string::npos)
      << unknown.status();
  // The refusal is a clean reply, not a dropped connection.
  EXPECT_TRUE(repair_with(0).ok());
  (*srv)->Stop();
}

TEST(ServerE2ETest, MultiBatchRepairKeepsRequestOrder) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());

  // Three distinguishable batches dispatched concurrently onto the pool;
  // replies must land in request order regardless of completion order.
  auto all = testutil::MakeTable1Records();
  std::vector<std::vector<TrackingRecord>> batches = {
      all,
      {all.begin(), all.begin() + 3},
      {all.begin() + 3, all.end()},
  };
  RepairRequest req;
  req.name = "paper";
  req.batches = batches;
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    EXPECT_TRUE(reply->batches[i].completion.ok());
    EXPECT_EQ(reply->batches[i].repaired,
              LocalRepair(batches[i], testutil::RunningExampleOptions(),
                          MakePaperExampleGraph()));
  }
  (*srv)->Stop();
}

TEST(ServerE2ETest, CorpusRepairMatchesLocalRepair) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());

  RepairRequest req;
  req.name = "paper";
  req.use_corpus = true;
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), 1u);
  EXPECT_EQ(reply->batches[0].repaired,
            LocalRepair(testutil::MakeTable1Records(),
                        testutil::RunningExampleOptions(),
                        MakePaperExampleGraph()));
  (*srv)->Stop();
}

TEST(ServerE2ETest, RegisterSnapshotKillRestartRepairIsByteIdentical) {
  TempDir dir("kill_restart");
  std::vector<TrackingRecord> fresh_local;
  std::vector<TrackingRecord> before_kill;

  {
    auto srv = StartLoopbackServer();
    ASSERT_TRUE(srv.ok()) << srv.status();
    auto client = RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(
        client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());

    RepairRequest req;
    req.name = "paper";
    req.use_corpus = true;
    auto reply = client->Repair(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    before_kill = reply->batches.at(0).repaired;

    SnapshotRequest snap;
    snap.dir = dir.str();
    auto saved = client->Snapshot(snap);
    ASSERT_TRUE(saved.ok()) << saved.status();
    EXPECT_EQ(saved->num_saved, 1u);

    // Kill: Stop() tears the daemon down without any extra persistence —
    // only the explicit snapshot above survives.
    (*srv)->Stop();
  }

  fresh_local = LocalRepair(testutil::MakeTable1Records(),
                            testutil::RunningExampleOptions(),
                            MakePaperExampleGraph());

  {
    ServerOptions options;
    options.load_dir = dir.str();
    auto srv = StartLoopbackServer(std::move(options));
    ASSERT_TRUE(srv.ok()) << srv.status();
    EXPECT_EQ((*srv)->registry().size(), 1u);

    auto client = RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();
    RepairRequest req;
    req.name = "paper";
    req.use_corpus = true;
    auto reply = client->Repair(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    const auto& restarted = reply->batches.at(0).repaired;
    EXPECT_EQ(restarted, before_kill);
    EXPECT_EQ(restarted, fresh_local);
    (*srv)->Stop();
  }
}

TEST(ServerE2ETest, AdmissionControlShedsWholeRequests) {
  ServerOptions options;
  options.max_inflight = 0;  // everything over the bound -> shed
  auto srv = StartLoopbackServer(std::move(options));
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());

  RepairRequest req;
  req.name = "paper";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);

  AdmissionStats stats = (*srv)->admission();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inflight, 0);

  // An empty repair request carries zero batches and sails through even at
  // max_inflight=0 (nothing to shed).
  RepairRequest empty;
  empty.name = "paper";
  auto ok = client->Repair(empty);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->batches.empty());
  (*srv)->Stop();
}

TEST(ServerE2ETest, BudgetMapsOntoGracefulDeadlineDegradation) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();

  RegisterGraphRequest reg;
  reg.name = "big";
  std::ostringstream graph_text;
  ASSERT_TRUE(WriteTransitionGraph(graph_text, MakeRealLikeGraph()).ok());
  reg.graph_text = graph_text.str();
  reg.options = RepairOptions().WithTheta(6).WithEta(600);
  ASSERT_TRUE(client->RegisterGraph(reg).ok());

  SyntheticConfig config;
  config.num_trajectories = 2000;
  config.record_error_rate = 0.25;
  config.seed = 77;
  auto dataset = GenerateSyntheticDataset(MakeRealLikeGraph(), config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();

  RepairRequest req;
  req.name = "big";
  req.budget_ms = 1;  // far below this workload's runtime
  req.batches.push_back(dataset->ObservedRecords());
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), 1u);
  const BatchReply& batch = reply->batches[0];
  // Budget expiry is graceful degradation, not an error: the batch reply
  // carries the DeadlineExceeded marker AND a complete record-conserving
  // passthrough result.
  EXPECT_EQ(batch.completion.code(), StatusCode::kDeadlineExceeded)
      << batch.completion;
  EXPECT_EQ(batch.repaired.size(), req.batches[0].size());
  (*srv)->Stop();
}

TEST(ServerE2ETest, StatsReflectRegistryAndAdmission) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());

  RepairRequest req;
  req.name = "paper";
  req.use_corpus = true;
  ASSERT_TRUE(client->Repair(req).ok());

  StatsRequest stats_req;
  auto stats = client->Stats(stats_req);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->entries.size(), 1u);
  EXPECT_EQ(stats->entries[0].name, "paper");
  EXPECT_EQ(stats->entries[0].version, 1u);
  EXPECT_EQ(stats->entries[0].num_locations, 5u);
  EXPECT_EQ(stats->entries[0].corpus_trajectories, 3u);
  EXPECT_EQ(stats->admission.admitted, 1u);
  EXPECT_EQ(stats->admission.completed, 1u);
  EXPECT_EQ(stats->admission.inflight, 0);
  EXPECT_EQ(stats->admission.max_inflight, 64u);
  EXPECT_TRUE(stats->prometheus.empty());

  StatsRequest with_prom;
  with_prom.include_prometheus = true;
  obs::SetEnabled(true);
  ASSERT_TRUE(client->Repair(req).ok());
  auto prom = client->Stats(with_prom);
  ASSERT_TRUE(prom.ok()) << prom.status();
  EXPECT_NE(prom->prometheus.find("idrepair_server_admitted_total"),
            std::string::npos)
      << prom->prometheus;
  EXPECT_NE(prom->prometheus.find("idrepair_server_closure_builds_total"),
            std::string::npos)
      << prom->prometheus;
  (*srv)->Stop();
}

constexpr char kClosureBuilds[] = "idrepair_server_closure_builds_total";

// Re-registering a name with other θ/η makes a new bundle epoch with its
// own closure: a repair on the new epoch equals a local run under the new
// options, never one that reuses the old epoch's closure.
TEST(ServerE2ETest, ReRegisteredThetaEtaGetAFreshClosure) {
  obs::SetEnabled(true);
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<TrackingRecord> records = testutil::MakeTable1Records();
  const RepairOptions old_options = testutil::RunningExampleOptions();
  RepairOptions new_options = old_options;
  new_options.theta = 4;
  new_options.eta = 200;  // too short for GL03245<C> to join GL83248
  const auto old_local =
      LocalRepair(records, old_options, MakePaperExampleGraph());
  const auto new_local =
      LocalRepair(records, new_options, MakePaperExampleGraph());
  ASSERT_NE(old_local, new_local);  // the options change must show

  RepairRequest req;
  req.name = "paper";
  req.batches.push_back(records);
  uint64_t builds = CounterValue(kClosureBuilds);
  ASSERT_TRUE(client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());
  EXPECT_EQ(CounterValue(kClosureBuilds), builds);  // not at registration
  auto first = client->Repair(req);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->batches.at(0).repaired, old_local);
  EXPECT_EQ(CounterValue(kClosureBuilds), builds + 1);

  RegisterGraphRequest again = PaperRegisterRequest("paper", false);
  again.options = new_options;
  auto version = client->RegisterGraph(again);
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(version->version, 2u);
  for (int i = 0; i < 3; ++i) {
    auto reply = client->Repair(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_TRUE(reply->batches.at(0).completion.ok())
        << reply->batches.at(0).completion;
    EXPECT_EQ(reply->batches.at(0).repaired, new_local);
  }
  EXPECT_EQ(CounterValue(kClosureBuilds), builds + 2);
  (*srv)->Stop();
}

// Two clients race the first repair of a fresh bundle (a 393-location graph
// whose closure takes tens of milliseconds, so the requests overlap in the
// build). Both get the local bytes, and the epoch built one closure for
// every request it served.
TEST(ServerE2ETest, RacingFirstRepairsShareOneClosurePerEpoch) {
  obs::SetEnabled(true);
  auto entry = FindScenario("ring_radial_zipf_ocr", /*light=*/true);
  ASSERT_TRUE(entry.ok()) << entry.status();
  auto dataset = BuildScenarioDataset(*entry);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  RepairOptions options;
  options.theta = entry->theta;
  options.eta = entry->eta;
  const std::vector<TrackingRecord> records = dataset->ObservedRecords();
  const auto local = LocalRepair(records, options, dataset->graph);

  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 3;
  std::vector<RepairClient> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();
    clients.push_back(std::move(client).value());
  }
  RegisterGraphRequest reg;
  reg.name = "ring";
  std::ostringstream graph_text;
  ASSERT_TRUE(WriteTransitionGraph(graph_text, dataset->graph).ok());
  reg.graph_text = graph_text.str();
  reg.options = options;
  uint64_t builds = CounterValue(kClosureBuilds);
  ASSERT_TRUE(clients[0].RegisterGraph(reg).ok());

  RepairRequest req;
  req.name = "ring";
  req.batches.push_back(records);
  std::atomic<bool> go{false};
  std::vector<std::vector<std::vector<TrackingRecord>>> replies(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto reply = clients[c].Repair(req);
        if (!reply.ok() || reply->batches.size() != 1) return;
        replies[c].push_back(reply->batches[0].repaired);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_EQ(replies[c].size(), static_cast<size_t>(kRequestsPerClient));
    for (const auto& repaired : replies[c]) EXPECT_EQ(repaired, local);
  }
  EXPECT_EQ(CounterValue(kClosureBuilds), builds + 1);
  (*srv)->Stop();
}

// The acceptor joins finished connection threads as it runs, so connection
// churn leaves neither retained threads nor extra kernel threads behind.
TEST(ServerE2ETest, ClosedConnectionThreadsAreReaped) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  const int threads_before = ProcThreads();
  ASSERT_GT(threads_before, 0);
  for (int i = 0; i < 500; ++i) {
    auto client = RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();
  }  // each client closes its socket here
  constexpr int kSlack = 2;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (((*srv)->connection_threads() > 0 ||
          ProcThreads() > threads_before + kSlack) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*srv)->connection_threads(), 0u);
  EXPECT_LE(ProcThreads(), threads_before + kSlack);
  (*srv)->Stop();
}

TEST(ServerE2ETest, ShutdownRequestWakesTheOwner) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  EXPECT_FALSE((*srv)->WaitForShutdownRequest(0));
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Shutdown().ok());
  EXPECT_TRUE((*srv)->WaitForShutdownRequest(5000));
  (*srv)->Stop();
}

TEST(ServerE2ETest, UnixSocketRoundTripAndCleanup) {
  TempDir dir("unix");
  std::string sock = (dir.path() / "d.sock").string();
  ServerOptions options;
  options.listen = "unix:" + sock;
  auto srv = IdRepairServer::Start(std::move(options));
  ASSERT_TRUE(srv.ok()) << srv.status();
  EXPECT_EQ((*srv)->address(), "unix:" + sock);

  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());
  RepairRequest req;
  req.name = "paper";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->batches.at(0).repaired,
            LocalRepair(testutil::MakeTable1Records(),
                        testutil::RunningExampleOptions(),
                        MakePaperExampleGraph()));

  (*srv)->Stop();
  // Stop() unlinks the socket path.
  EXPECT_FALSE(fs::exists(sock));
}

TEST(ServerE2ETest, RepairOfUnknownNameIsNotFound) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  RepairRequest req;
  req.name = "ghost";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  (*srv)->Stop();
}

TEST(ServerE2ETest, MalformedRegistrationsFailCleanly) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();

  RegisterGraphRequest bad_graph = PaperRegisterRequest("paper", false);
  bad_graph.graph_text = "this is not a graph file";
  EXPECT_FALSE(client->RegisterGraph(bad_graph).ok());

  RegisterGraphRequest bad_name = PaperRegisterRequest("no/slashes", false);
  auto r = client->RegisterGraph(bad_name);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  RegisterGraphRequest bad_corpus = PaperRegisterRequest("paper", false);
  bad_corpus.corpus = {{"id", 999, 0}};  // unknown location id
  EXPECT_FALSE(client->RegisterGraph(bad_corpus).ok());

  // The connection survived every rejection.
  EXPECT_TRUE(client->RegisterGraph(PaperRegisterRequest("ok", false)).ok());
  (*srv)->Stop();
}

TEST(ServerE2ETest, WireGarbageDropsConnectionButDaemonSurvives) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();

  // Raw socket, no framing: the daemon must reject the junk and close this
  // connection without disturbing anyone else.
  auto address = ParseAddress((*srv)->address());
  ASSERT_TRUE(address.ok());
  auto fd = DialAddress(*address);
  ASSERT_TRUE(fd.ok()) << fd.status();
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::write(*fd, junk, sizeof(junk)), (ssize_t)sizeof(junk));
  auto frame = ReadFrame(*fd, nullptr);
  EXPECT_FALSE(frame.ok());  // server closed on us
  ::close(*fd);

  // A frame with a valid magic but an absurd length is rejected before any
  // allocation; connection dropped the same way.
  auto fd2 = DialAddress(*address);
  ASSERT_TRUE(fd2.ok());
  std::string header;
  uint32_t magic = kFrameMagic;
  uint32_t huge = 0xFFFFFFFFu;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header.append(reinterpret_cast<const char*>(&huge), 4);
  header.push_back(1);
  ASSERT_EQ(::write(*fd2, header.data(), header.size()),
            (ssize_t)header.size());
  EXPECT_FALSE(ReadFrame(*fd2, nullptr).ok());
  ::close(*fd2);

  // The daemon keeps serving well-formed clients.
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());
  (*srv)->Stop();
}

TEST(ServerE2ETest, StopIsIdempotentAndDestructorIsSafeAfterStop) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  (*srv)->Stop();
  (*srv)->Stop();
  srv->reset();  // destructor after explicit Stop
}

}  // namespace
}  // namespace server
}  // namespace idrepair
