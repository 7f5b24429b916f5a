#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "graph/serialization.h"
#include "obs/metrics.h"
#include "repair/repairer.h"

namespace idrepair {
namespace server {

namespace {

constexpr int kPollIntervalMs = 50;
constexpr int kListenBacklog = 16;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

std::string EnvelopeOnly(const Status& status) {
  std::string out;
  BinaryWriter w(&out);
  EncodeStatus(&w, status);
  return out;
}

std::string Envelope(const std::string& body) {
  std::string out;
  BinaryWriter w(&out);
  EncodeStatus(&w, Status::OK());
  out.append(body);
  return out;
}

/// Flattens a repaired set back to wire records, trajectory order — the
/// same order a local caller sees, so server and one-shot output compare
/// byte-for-byte.
std::vector<TrackingRecord> FlattenSet(const TrajectorySet& set) {
  std::vector<TrackingRecord> records;
  records.reserve(set.total_records());
  for (const Trajectory& t : set.trajectories()) {
    for (const TrajectoryPoint& p : t.points()) {
      records.push_back(TrackingRecord{t.id(), p.loc, p.ts});
    }
  }
  return records;
}

struct ServerMetrics {
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Gauge* inflight;
  obs::Gauge* queue_peak;

  static ServerMetrics& Get() {
    static ServerMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      ServerMetrics built;
      built.admitted = reg.GetCounter(
          "idrepair_server_admitted_total", obs::Stability::kRuntime,
          "Repair batches admitted by the daemon");
      built.rejected = reg.GetCounter(
          "idrepair_server_rejected_total", obs::Stability::kRuntime,
          "Repair batches shed with ResourceExhausted");
      built.completed = reg.GetCounter(
          "idrepair_server_completed_total", obs::Stability::kRuntime,
          "Repair batches finished (any completion status)");
      built.inflight = reg.GetGauge(
          "idrepair_server_inflight", obs::Stability::kRuntime,
          "Admitted-but-unfinished repair batches");
      built.queue_peak = reg.GetGauge(
          "idrepair_server_queue_peak", obs::Stability::kRuntime,
          "High-water mark of admitted-but-unfinished repair batches");
      return built;
    }();
    return m;
  }
};

}  // namespace

IdRepairServer::IdRepairServer(ServerOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<IdRepairServer>> IdRepairServer::Start(
    ServerOptions options) {
  std::unique_ptr<IdRepairServer> srv(new IdRepairServer(std::move(options)));
  if (!srv->options_.load_dir.empty()) {
    auto loaded = srv->registry_.LoadDir(srv->options_.load_dir);
    IDREPAIR_RETURN_NOT_OK(loaded.status());
  }
  IDREPAIR_RETURN_NOT_OK(srv->Listen());
  srv->accept_thread_ = std::thread([s = srv.get()] { s->AcceptLoop(); });
  return srv;
}

IdRepairServer::~IdRepairServer() { Stop(); }

Status IdRepairServer::Listen() {
  auto parsed = ParseAddress(options_.listen);
  IDREPAIR_RETURN_NOT_OK(parsed.status());
  Address address = std::move(parsed).value();
  if (address.is_unix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::IoError(Errno("socket(unix)"));
    ::unlink(address.path.c_str());  // replace a stale socket file
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      return Status::IoError(Errno("bind " + FormatAddress(address)));
    }
    unix_path_ = address.path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::IoError(Errno("socket(tcp)"));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &sa.sin_addr) != 1) {
      return Status::InvalidArgument(
          "listen host must be a numeric IPv4 address");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      return Status::IoError(Errno("bind " + FormatAddress(address)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return Status::IoError(Errno("getsockname"));
    }
    address.port = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return Status::IoError(Errno("listen"));
  }
  address_ = FormatAddress(address);
  return Status::OK();
}

void IdRepairServer::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

bool IdRepairServer::WaitForShutdownRequest(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  if (timeout_ms < 0) {
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
    return true;
  }
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

AdmissionStats IdRepairServer::admission() const {
  AdmissionStats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  stats.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  stats.max_inflight = options_.max_inflight;
  return stats;
}

void IdRepairServer::AcceptLoop() {
  while (!stopping()) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready <= 0) continue;  // timeout tick or EINTR: recheck stop flag
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (stopping()) {
      ::close(fd);
      break;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void IdRepairServer::ServeConnection(int fd) {
  auto cancelled = [this] { return stopping(); };
  while (!stopping()) {
    auto frame = ReadFrame(fd, cancelled);
    if (!frame.ok()) break;  // peer closed, garbage, or shutdown tick
    std::string reply = HandleRequest(*frame);
    if (!WriteFrame(fd, frame->type, reply).ok()) break;
  }
  ::close(fd);
}

std::string IdRepairServer::HandleRequest(const Frame& frame) {
  switch (frame.type) {
    case MsgType::kRegisterGraph:
      return HandleRegisterGraph(frame.payload);
    case MsgType::kSnapshot:
      return HandleSnapshot(frame.payload);
    case MsgType::kRepair:
      return HandleRepair(frame.payload);
    case MsgType::kStats:
      return HandleStats(frame.payload);
    case MsgType::kShutdown: {
      {
        std::lock_guard<std::mutex> lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      return EnvelopeOnly(Status::OK());
    }
  }
  return EnvelopeOnly(Status::Internal("unhandled message type"));
}

std::string IdRepairServer::HandleRegisterGraph(std::string_view payload) {
  RegisterGraphRequest req;
  Status st = DecodeRegisterGraphRequest(payload, &req);
  if (!st.ok()) return EnvelopeOnly(st);
  std::istringstream graph_stream(req.graph_text);
  auto graph = ReadTransitionGraph(graph_stream);
  if (!graph.ok()) return EnvelopeOnly(graph.status());
  RepairOptions options = req.options;
  if (options_.exec_threads > 0) {
    options.exec.num_threads = options_.exec_threads;
  }
  auto version = registry_.Register(req.name, std::move(graph).value(),
                                    options, std::move(req.corpus));
  if (!version.ok()) return EnvelopeOnly(version.status());
  RegisterGraphReply reply;
  reply.version = *version;
  return Envelope(EncodeRegisterGraphReply(reply));
}

std::string IdRepairServer::HandleSnapshot(std::string_view payload) {
  SnapshotRequest req;
  Status st = DecodeSnapshotRequest(payload, &req);
  if (!st.ok()) return EnvelopeOnly(st);
  std::string dir = req.dir.empty() ? options_.snapshot_dir : req.dir;
  if (dir.empty()) {
    return EnvelopeOnly(Status::InvalidArgument(
        "snapshot needs a dir (none in request, no --snapshot-dir)"));
  }
  auto saved = registry_.SaveSnapshots(dir);
  if (!saved.ok()) return EnvelopeOnly(saved.status());
  SnapshotReply reply;
  reply.num_saved = *saved;
  reply.dir = dir;
  return Envelope(EncodeSnapshotReply(reply));
}

std::string IdRepairServer::HandleRepair(std::string_view payload) {
  RepairRequest req;
  Status st = DecodeRepairRequest(payload, &req);
  if (!st.ok()) return EnvelopeOnly(st);
  auto acquired = registry_.Acquire(req.name);
  if (!acquired.ok()) return EnvelopeOnly(acquired.status());
  BundlePtr bundle = std::move(acquired).value();

  if (req.use_corpus) {
    if (!req.batches.empty()) {
      return EnvelopeOnly(Status::InvalidArgument(
          "repair: corpus mode and inline batches are mutually exclusive"));
    }
    if (bundle->corpus == nullptr) {
      return EnvelopeOnly(Status::InvalidArgument(
          "repair: '" + req.name + "' has no resident corpus"));
    }
  }
  for (const auto& batch : req.batches) {
    for (const TrackingRecord& rec : batch) {
      if (rec.loc >= bundle->graph.num_locations()) {
        return EnvelopeOnly(Status::InvalidArgument(
            "repair: record references unknown location id " +
            std::to_string(rec.loc)));
      }
    }
  }

  size_t jobs = req.use_corpus ? 1 : req.batches.size();
  if (jobs == 0) return Envelope(EncodeRepairReply(RepairReply{}));

  // Admission: reserve slots atomically; shed the whole request when the
  // reservation overshoots the bound (a half-admitted batch list would
  // make per-batch output order depend on load).
  int64_t after =
      inflight_.fetch_add(static_cast<int64_t>(jobs),
                          std::memory_order_relaxed) +
      static_cast<int64_t>(jobs);
  if (after > static_cast<int64_t>(options_.max_inflight)) {
    inflight_.fetch_sub(static_cast<int64_t>(jobs),
                        std::memory_order_relaxed);
    rejected_.fetch_add(jobs, std::memory_order_relaxed);
    if (obs::Enabled()) {
      ServerMetrics::Get().rejected->Increment(jobs);
    }
    return EnvelopeOnly(Status::ResourceExhausted(
        "repair queue full: " + std::to_string(jobs) +
        " batches would exceed max_inflight=" +
        std::to_string(options_.max_inflight)));
  }
  admitted_.fetch_add(jobs, std::memory_order_relaxed);
  int64_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (after > peak &&
         !queue_peak_.compare_exchange_weak(peak, after,
                                            std::memory_order_relaxed)) {
  }
  if (obs::Enabled()) {
    ServerMetrics& m = ServerMetrics::Get();
    m.admitted->Increment(jobs);
    m.inflight->Set(inflight_.load(std::memory_order_relaxed));
    m.queue_peak->Set(queue_peak_.load(std::memory_order_relaxed));
  }

  RepairOptions options = bundle->options;
  if (options_.exec_threads > 0) {
    options.exec.num_threads = options_.exec_threads;
  }
  // Per-request budget beats the bundle's registered deadline beats the
  // server default — all three land on the engines' graceful-degradation
  // path, so an over-budget repair degrades instead of being killed.
  if (req.budget_ms > 0) {
    options.deadline_ms = req.budget_ms;
  } else if (options.deadline_ms == 0 && options_.default_deadline_ms > 0) {
    options.deadline_ms = options_.default_deadline_ms;
  }
  if (req.use_corpus) options.resident_lig = bundle->lig.get();

  // Both wire engine selectors (0 = core, 1 = the retired partitioned
  // engine, which produced byte-identical output) run the one batch engine.
  IdRepairer engine(bundle->graph, options);

  std::vector<std::optional<Result<RepairResult>>> slots(jobs);
  std::vector<TrajectorySet> sets(jobs);
  if (req.use_corpus) {
    // The resident set itself — pointer identity is what lets the engine
    // adopt the snapshot-loaded LIG instead of rebuilding it.
  } else {
    for (size_t i = 0; i < jobs; ++i) {
      sets[i] = TrajectorySet::FromRecords(req.batches[i]);
    }
  }

  TaskGroup group(&ThreadPool::Default());
  for (size_t i = 0; i < jobs; ++i) {
    group.Spawn([this, i, &slots, &sets, &engine, &req, &bundle] {
      const TrajectorySet& set =
          req.use_corpus ? *bundle->corpus : sets[i];
      slots[i].emplace(engine.Repair(set));
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Enabled()) {
        ServerMetrics& m = ServerMetrics::Get();
        m.completed->Increment();
        m.inflight->Set(inflight_.load(std::memory_order_relaxed));
      }
      return Status::OK();  // per-batch errors travel in the slot
    });
  }
  (void)group.Wait();

  RepairReply reply;
  reply.batches.reserve(jobs);
  for (size_t i = 0; i < jobs; ++i) {
    BatchReply batch;
    if (!slots[i].has_value()) {
      batch.completion = Status::Internal("batch task never ran");
    } else if (!slots[i]->ok()) {
      batch.completion = slots[i]->status();
    } else {
      const RepairResult& result = **slots[i];
      batch.completion = result.completion;
      batch.repaired = FlattenSet(result.repaired);
      batch.num_candidates = result.candidates.size();
      batch.num_selected = result.selected.size();
      batch.num_rewrites = result.rewrites.size();
      batch.total_effectiveness = result.total_effectiveness;
      batch.seconds_total = result.stats.seconds_total;
    }
    reply.batches.push_back(std::move(batch));
  }
  return Envelope(EncodeRepairReply(reply));
}

std::string IdRepairServer::HandleStats(std::string_view payload) {
  StatsRequest req;
  Status st = DecodeStatsRequest(payload, &req);
  if (!st.ok()) return EnvelopeOnly(st);
  StatsReply reply;
  reply.entries = registry_.List();
  reply.admission = admission();
  if (req.include_prometheus) {
    reply.prometheus = obs::MetricsRegistry::Global().RenderPrometheus(true);
  }
  return Envelope(EncodeStatsReply(reply));
}

}  // namespace server
}  // namespace idrepair
