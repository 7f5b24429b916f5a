// daemon_city: an in-process IdRepairServer on a Unix socket with the city
// graph registered once, driven by kClients closed-loop client connections.
// Each request carries two consecutive 400-record slices of the time-ordered
// record stream; the request pool is cycled, so every reply can be compared
// with the checked reply of the same request.
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "checker.h"
#include "common/stopwatch.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"

namespace perfbench {

using namespace idrepair;
using server::IdRepairServer;
using server::RepairClient;
using server::RepairReply;
using server::RepairRequest;

namespace {

constexpr size_t kBatchRecords = 400;
constexpr size_t kBatchesPerRequest = 2;
constexpr const char* kGraphName = "city";

int Clients() { return std::min(2, Nproc()); }

struct Daemon {
  std::unique_ptr<IdRepairServer> server;
  std::vector<RepairClient> clients;

  Daemon() = default;
  Daemon(Daemon&&) = default;
  Daemon& operator=(Daemon&&) = default;
  ~Daemon() {
    clients.clear();
    if (server) server->Stop();
  }
};

/// Starts a server, registers the graph and connects the clients.
Result<Daemon> SetUp(const Args& args, const Inputs& in, int attempt) {
  server::ServerOptions so;
  so.listen = "unix:" + args.scratch + "/pb-" + std::to_string(getpid()) +
              "-" + std::to_string(attempt) + ".sock";
  so.exec_threads = in.options.exec.num_threads;
  Daemon d;
  auto started = IdRepairServer::Start(std::move(so));
  if (!started.ok()) return started.status();
  d.server = std::move(started).value();
  auto admin = RepairClient::Connect(d.server->address());
  if (!admin.ok()) return admin.status();
  server::RegisterGraphRequest reg;
  reg.name = kGraphName;
  reg.graph_text = in.graph_text;
  reg.options = in.options;
  auto version = admin->RegisterGraph(reg);
  if (!version.ok()) return version.status();
  for (int c = 0; c < Clients(); ++c) {
    auto client = RepairClient::Connect(d.server->address());
    if (!client.ok()) return client.status();
    d.clients.push_back(std::move(client).value());
  }
  return d;
}

struct Sample {
  double round_trip = 0.0;          // seconds
  std::vector<double> batch_total;  // server-reported seconds per batch
};

/// True when `reply` answers `req` completely and OK.
bool ReplyOk(const RepairReply& reply, const RepairRequest& req) {
  if (reply.batches.size() != req.batches.size()) return false;
  for (const auto& b : reply.batches) {
    if (!b.completion.ok()) return false;
  }
  return true;
}

/// Records (timestamp order) and their truth rows, cut into the request
/// pool; `rows_of[k]` lists request k's truth rows batch by batch.
struct Pool {
  std::vector<RepairRequest> requests;
  std::vector<std::vector<std::vector<InRow>>> rows_of;
  size_t records = 0;
};

Pool MakePool(const Inputs& in, std::vector<GroundTruthRecord>* truth_store) {
  std::vector<TrackingRecord> records;
  ChronoOrder(in, &records, truth_store);
  const std::vector<InRow> rows = RowsOf(*truth_store);
  Pool pool;
  const size_t per_request = kBatchRecords * kBatchesPerRequest;
  for (size_t lo = 0; lo + per_request <= records.size(); lo += per_request) {
    RepairRequest req;
    req.name = kGraphName;
    std::vector<std::vector<InRow>> req_rows;
    for (size_t b = 0; b < kBatchesPerRequest; ++b) {
      std::vector<TrackingRecord> batch;
      std::vector<InRow> batch_rows;
      for (size_t k = lo + b * kBatchRecords; k < lo + (b + 1) * kBatchRecords;
           ++k) {
        batch.push_back(records[k]);
        batch_rows.push_back(rows[k]);
      }
      req.batches.push_back(std::move(batch));
      req_rows.push_back(std::move(batch_rows));
    }
    pool.requests.push_back(std::move(req));
    pool.rows_of.push_back(std::move(req_rows));
    pool.records += per_request;
  }
  return pool;
}

/// Checks every batch of one reply; adds its quality on success.
bool CheckReply(const RepairReply& reply,
                const std::vector<std::vector<InRow>>& rows, Quality* q) {
  for (size_t b = 0; b < reply.batches.size(); ++b) {
    const auto& recs = reply.batches[b].repaired;
    std::unordered_map<std::string_view, uint32_t> trajs;
    std::vector<OutRec> outs;
    outs.reserve(recs.size());
    for (const auto& r : recs) {
      uint32_t t = trajs.emplace(r.id, static_cast<uint32_t>(trajs.size()))
                       .first->second;
      outs.push_back(OutRec{r.id, static_cast<uint32_t>(r.loc), r.ts, t});
    }
    CheckResult c = CheckRecords(rows[b], outs);
    if (!c.ok) {
      std::cerr << "perfbench: daemon check failed: " << c.error << "\n";
      return false;
    }
    q->Add(c.quality);
  }
  return true;
}

struct Phase {
  double wall = 0.0;
  double cpu = 0.0;
  size_t records = 0;
  std::vector<Sample> samples;
};

/// Runs the closed loop on every client for `seconds`; each reply must equal
/// the reference reply of its request.
Phase RunPhase(Daemon& d, const Pool& pool,
               const std::vector<RepairReply>& reference, double seconds,
               Tracer* tr, Outcome* out) {
  const int clients = static_cast<int>(d.clients.size());
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<uint64_t> ok_count(clients, 0), fail_count(clients, 0);
  Phase ph;
  CpuStopwatch cpu;
  double t0 = NowSeconds();
  const double end = t0 + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t k = static_cast<size_t>(c);
      do {
        const RepairRequest& req = pool.requests[k % pool.requests.size()];
        const RepairReply& want = reference[k % pool.requests.size()];
        Sample s;
        double r0 = NowSeconds();
        std::optional<Result<RepairReply>> reply;
        {
          Tracer::Scope span(tr, "server.request");
          reply.emplace(d.clients[c].Repair(req));
        }
        s.round_trip = NowSeconds() - r0;
        bool ok = reply->ok() && ReplyOk(**reply, req);
        if (ok) {
          for (size_t b = 0; b < (*reply)->batches.size(); ++b) {
            const auto& got = (*reply)->batches[b];
            ok = ok && got.repaired == want.batches[b].repaired;
            s.batch_total.push_back(got.seconds_total);
          }
        }
        (ok ? ok_count : fail_count)[c]++;
        per_client[c].push_back(std::move(s));
        k += static_cast<size_t>(clients);
      } while (NowSeconds() < end);
    });
  }
  for (auto& t : threads) t.join();
  ph.wall = NowSeconds() - t0;
  ph.cpu = cpu.ElapsedSeconds();
  for (int c = 0; c < clients; ++c) {
    for (uint64_t i = 0; i < ok_count[c]; ++i) out->Op(true);
    for (uint64_t i = 0; i < fail_count[c]; ++i) out->Op(false);
    ph.records += ok_count[c] * kBatchRecords * kBatchesPerRequest;
    for (auto& s : per_client[c]) ph.samples.push_back(std::move(s));
  }
  return ph;
}


}  // namespace

Outcome RunDaemon(const Args& args, const Inputs& in) {
  Outcome out;
  std::vector<GroundTruthRecord> truth;
  Pool pool = MakePool(in, &truth);
  if (pool.requests.empty()) {
    std::cerr << "perfbench: input too small for one request\n";
    out.Op(false);
    return out;
  }

  // Set-up: server start + RegisterGraph + client connects, repeated; the
  // last daemon serves the run.
  std::vector<double> setups;
  std::optional<Daemon> daemon;
  for (int attempt = 0; attempt < 5; ++attempt) {
    daemon.reset();
    double t0 = NowSeconds();
    auto d = SetUp(args, in, attempt);
    setups.push_back(NowSeconds() - t0);
    out.Op(d.ok());
    if (!d.ok()) {
      std::cerr << "perfbench: daemon set-up failed: " << d.status().ToString()
                << "\n";
      return out;
    }
    daemon.emplace(std::move(d).value());
  }

  // Warm-up: every pool request once, each reply checked in full; these
  // replies are the reference for the timed loop.
  std::vector<RepairReply> reference;
  Quality quality;
  for (size_t k = 0; k < pool.requests.size(); ++k) {
    auto reply = daemon->clients[0].Repair(pool.requests[k]);
    bool ok = reply.ok() && ReplyOk(*reply, pool.requests[k]) &&
              CheckReply(*reply, pool.rows_of[k], &quality);
    out.Op(ok);
    if (!ok) return out;
    reference.push_back(std::move(reply).value());
  }

  if (!args.trace) {
    Phase ph = RunPhase(*daemon, pool, reference, args.seconds, nullptr, &out);
    std::vector<double> rt;
    for (const Sample& s : ph.samples) rt.push_back(s.round_trip * 1e3);
    double records = static_cast<double>(ph.records);
    out.Set("setup_s", Median(setups), "s");
    out.Set("records_per_s", records / ph.wall, "1/s");
    out.Set("cpu_ms_per_krecord",
            records > 0 ? ph.cpu * 1e3 / (records / 1e3) : 0.0, "ms");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.Set("request_ms_p50", Percentile(rt, 50), "ms");
    out.Set("f_measure", quality.FMeasure(), "ratio");
    std::cout << "# samples: " << rt.size() << " requests from "
              << daemon->clients.size() << " clients, " << pool.requests.size()
              << " distinct\n";
    return out;
  }

  InitLayerMetrics(&out);
  Tracer tr;
  TraceGraphLayers(tr, in, /*reachability=*/true, &out);
  // Alternate traced and untraced phases of one second each.
  std::vector<Sample> traced;
  std::vector<double> plain_rt_ms;
  double traced_wall = 0.0, plain_wall = 0.0, unaccounted = 0.0;
  size_t traced_records = 0, plain_records = 0;
  const double end = NowSeconds() + args.seconds;
  do {
    uint32_t run = tr.NewRun();
    Phase t = RunPhase(*daemon, pool, reference, 1.0, &tr, &out);
    traced_wall += t.wall;
    traced_records += t.records;
    unaccounted += t.wall - tr.RootSeconds(run) /
                               static_cast<double>(daemon->clients.size());
    for (auto& s : t.samples) traced.push_back(std::move(s));
    Phase p = RunPhase(*daemon, pool, reference, 1.0, nullptr, &out);
    plain_wall += p.wall;
    plain_records += p.records;
    for (const Sample& s : p.samples) plain_rt_ms.push_back(s.round_trip * 1e3);
  } while (NowSeconds() < end);

  std::vector<double> batch_ms, overhead_ms;
  for (const Sample& s : traced) {
    double slowest = 0.0;
    for (double b : s.batch_total) {
      batch_ms.push_back(b * 1e3);
      slowest = std::max(slowest, b);
    }
    overhead_ms.push_back((s.round_trip - slowest) * 1e3);
  }
  out.Set("server.batch_repair_ms_p50", Median(batch_ms));
  out.Set("server.request_ms_p95", Percentile(plain_rt_ms, 95));
  out.Set("server.overhead_ms_p50", Median(overhead_ms));

  // Wire codec cost on the pool's own payloads, off the request path.
  std::vector<double> enc_us, dec_us;
  for (size_t k = 0; k < pool.requests.size(); ++k) {
    double e0 = NowSeconds();
    std::string bytes = server::EncodeRepairRequest(pool.requests[k]);
    enc_us.push_back((NowSeconds() - e0) * 1e6);
    std::string reply_bytes = server::EncodeRepairReply(reference[k]);
    double d0 = NowSeconds();
    server::BinaryReader reader(reply_bytes);
    RepairReply decoded;
    Status st = server::DecodeRepairReply(&reader, &decoded);
    dec_us.push_back((NowSeconds() - d0) * 1e6);
    out.Op(st.ok() && decoded.batches.size() == reference[k].batches.size());
  }
  out.Set("server.encode_request_us", Median(enc_us));
  out.Set("server.decode_reply_us", Median(dec_us));

  auto stats = daemon->clients[0].Stats(server::StatsRequest{});
  out.Op(stats.ok());
  if (stats.ok()) {
    out.Set("server.admitted", static_cast<double>(stats->admission.admitted));
    out.Set("server.rejected", static_cast<double>(stats->admission.rejected));
    out.Set("server.queue_peak",
            static_cast<double>(stats->admission.queue_peak));
  }
  double traced_rps = traced_records / traced_wall;
  double plain_rps = plain_records / plain_wall;
  out.Set("trace.overhead", traced_rps > 0 ? plain_rps / traced_rps - 1.0 : 0.0);
  out.Set("trace.unaccounted_s", unaccounted);
  std::cout << "# samples: " << traced.size() << " traced requests\n";
  tr.WriteJsonl(args.scratch + "/spans_" + in.name + ".jsonl");
  return out;
}

}  // namespace perfbench
