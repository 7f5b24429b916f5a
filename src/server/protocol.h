#ifndef IDREPAIR_SERVER_PROTOCOL_H_
#define IDREPAIR_SERVER_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "repair/options.h"
#include "server/registry.h"
#include "server/wire_format.h"
#include "traj/tracking_record.h"

namespace idrepair {
namespace server {

// ---- Framing ---------------------------------------------------------
//
// Every message travels as one length-prefixed frame over a stream socket
// (TCP or Unix domain):
//
//   u32 magic 'IDRF'   u32 payload_len   u8 type   payload bytes
//
// Responses echo the request's type; a response payload always begins with
// an encoded Status (u32 code, string message) followed by the typed body,
// which is present only when the status is OK.

inline constexpr uint32_t kFrameMagic = 0x46524449u;  // "IDRF"
inline constexpr size_t kFrameHeaderBytes = 9;
/// Upper bound on one frame's payload: oversized length prefixes are
/// rejected before any allocation happens (garbage on the wire must not
/// look like a 4 GB read).
inline constexpr size_t kMaxFramePayload = 64u << 20;

enum class MsgType : uint8_t {
  kRegisterGraph = 1,
  kSnapshot = 2,
  kRepair = 3,
  kStats = 4,
  kShutdown = 5,
};

struct Frame {
  MsgType type = MsgType::kStats;
  std::string payload;
};

/// Writes one frame, handling short writes. SIGPIPE-safe (MSG_NOSIGNAL).
Status WriteFrame(int fd, MsgType type, std::string_view payload);

/// Reads one frame. Blocks in short poll() rounds and rechecks `cancelled`
/// between them so a stopping server can abandon idle connections; a null
/// predicate blocks until data or EOF. Peer close at a frame boundary and
/// garbage both surface as a non-OK Status — the caller's reaction (drop
/// the connection) is the same.
Result<Frame> ReadFrame(int fd, const std::function<bool()>& cancelled);

// ---- Addresses -------------------------------------------------------

/// A listen/dial target: "unix:/path/to.sock", "tcp:host:port", or
/// "tcp:port" (host defaults to 127.0.0.1). Port 0 asks the kernel for an
/// ephemeral port; the server reports the bound address.
struct Address {
  bool is_unix = false;
  std::string path;               // unix
  std::string host = "127.0.0.1";  // tcp
  uint16_t port = 0;               // tcp
};

Result<Address> ParseAddress(const std::string& spec);
std::string FormatAddress(const Address& address);

/// Connects a blocking stream socket to `address`; returns the fd.
Result<int> DialAddress(const Address& address);

// ---- Status envelope -------------------------------------------------

void EncodeStatus(BinaryWriter* w, const Status& status);
/// Reconstructs an encoded Status; wire corruption latches on the reader.
Status DecodeStatus(BinaryReader* r);

// ---- Request / reply payloads ----------------------------------------

struct RegisterGraphRequest {
  std::string name;
  /// The graph in the graph/serialization text format — one canonical
  /// human-auditable graph encoding everywhere.
  std::string graph_text;
  RepairOptions options;  // persistable fields only travel
  /// Optional resident corpus to pin (and LIG-index) with the graph.
  std::vector<TrackingRecord> corpus;
};

struct RegisterGraphReply {
  uint64_t version = 0;
};

struct SnapshotRequest {
  /// Target directory; empty selects the server's --snapshot-dir.
  std::string dir;
};

struct SnapshotReply {
  uint64_t num_saved = 0;
  std::string dir;
};

struct RepairRequest {
  std::string name;
  /// Per-request budget, mapped onto RepairOptions::deadline_ms (graceful
  /// degradation); 0 keeps the bundle's registered deadline.
  int64_t budget_ms = 0;
  /// Batch-engine selector. 0 = core. 1 named the partitioned engine, which
  /// was byte-identical to core and is retired; it is still accepted and
  /// runs core, so old clients keep working. Values > 1 are refused.
  uint8_t engine = 0;
  /// Repair the registered resident corpus (load-not-rebuild: the bundle's
  /// snapshot-loaded LIG index is reused) instead of shipping batches.
  bool use_corpus = false;
  /// Independent record batches; each is repaired as its own trajectory
  /// set, dispatched onto the exec pool.
  std::vector<std::vector<TrackingRecord>> batches;
};

struct BatchReply {
  /// OK, or kDeadlineExceeded for a graceful partial result (the repaired
  /// records below are still complete and internally consistent).
  Status completion;
  /// The repaired records, flattened in trajectory order — byte-identical
  /// to flattening a local engine run on the same input.
  std::vector<TrackingRecord> repaired;
  uint64_t num_candidates = 0;
  uint64_t num_selected = 0;
  uint64_t num_rewrites = 0;
  double total_effectiveness = 0.0;
  double seconds_total = 0.0;
};

struct RepairReply {
  std::vector<BatchReply> batches;
};

struct StatsRequest {
  bool include_prometheus = false;
};

/// The admission-control counters (see server.h for semantics).
struct AdmissionStats {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  int64_t inflight = 0;
  int64_t queue_peak = 0;
  uint64_t max_inflight = 0;
};

struct StatsReply {
  std::vector<GraphRegistry::EntryInfo> entries;
  AdmissionStats admission;
  /// RenderPrometheus output when the request asked for it, else empty.
  std::string prometheus;
};

// Encode/Decode pairs. Decoders fully validate (bounded counts, enum
// ranges, exact consumption) and return Corruption on malformed input.
std::string EncodeRegisterGraphRequest(const RegisterGraphRequest& req);
Status DecodeRegisterGraphRequest(std::string_view bytes,
                                  RegisterGraphRequest* req);
std::string EncodeRegisterGraphReply(const RegisterGraphReply& reply);
Status DecodeRegisterGraphReply(BinaryReader* r, RegisterGraphReply* reply);

std::string EncodeSnapshotRequest(const SnapshotRequest& req);
Status DecodeSnapshotRequest(std::string_view bytes, SnapshotRequest* req);
std::string EncodeSnapshotReply(const SnapshotReply& reply);
Status DecodeSnapshotReply(BinaryReader* r, SnapshotReply* reply);

std::string EncodeRepairRequest(const RepairRequest& req);
Status DecodeRepairRequest(std::string_view bytes, RepairRequest* req);
std::string EncodeRepairReply(const RepairReply& reply);
Status DecodeRepairReply(BinaryReader* r, RepairReply* reply);

std::string EncodeStatsRequest(const StatsRequest& req);
Status DecodeStatsRequest(std::string_view bytes, StatsRequest* req);
std::string EncodeStatsReply(const StatsReply& reply);
Status DecodeStatsReply(BinaryReader* r, StatsReply* reply);

}  // namespace server
}  // namespace idrepair

#endif  // IDREPAIR_SERVER_PROTOCOL_H_
