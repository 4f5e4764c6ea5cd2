#ifndef DBLSH_SERVE_SERVER_H_
#define DBLSH_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/collection.h"
#include "exec/task_executor.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace dblsh::serve {

/// One collection the server exposes, under its wire name. The Collection
/// stays owned by the caller and must outlive the server.
struct ServedCollection {
  std::string name;
  Collection* collection = nullptr;
};

/// One shard's replication position, as reported by kReplicaStatus.
struct ReplicationShardReport {
  uint64_t applied_lsn = 0;  ///< last LSN applied locally
  uint64_t primary_lsn = 0;  ///< primary's watermark (lag = difference)
  uint64_t records_applied = 0;  ///< records applied to this shard
};

/// A replica's self-report, produced by the ServerOptions hook below.
/// Defined here (not in src/replication/) so the serve layer needs no
/// replication header to answer kReplicaStatus.
struct ReplicationReport {
  std::string primary;  ///< "host:port" this replica follows
  std::vector<ReplicationShardReport> shards;
  uint64_t records_applied = 0;  ///< total records applied since start
};

/// Server construction knobs.
struct ServerOptions {
  /// IPv4 address to bind (dotted quad; "127.0.0.1" default).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, reported by Server::port().
  uint16_t port = 0;
  /// Concurrent connection cap. A client connecting beyond it receives a
  /// single kOverloaded response frame and is closed (retryable shed).
  size_t max_connections = 32;
  /// Frames whose payload_len exceeds this are rejected with
  /// kProtocolError before any allocation.
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Granularity at which blocked reads re-check the shutdown flag.
  int poll_interval_ms = 50;
  /// Send timeout (seconds) on accepted sockets: a peer that stops
  /// draining its responses errors out instead of wedging a writer.
  int send_timeout_s = 5;
  /// Backpressure limit: queries admitted but not yet completed. At the
  /// limit a search sheds with a retryable kOverloaded instead of queueing
  /// unboundedly; a SearchBatch of more queries than this can never be
  /// admitted and is refused with kInvalidArgument.
  size_t max_inflight = 1024;
  /// Executor running the admitted Search / SearchBatch tasks; nullptr
  /// uses exec::TaskExecutor::Default(). Must outlive the server.
  exec::TaskExecutor* query_executor = nullptr;
  /// Replica self-report hook: non-null marks this server a replica and
  /// answers kReplicaStatus from it (a Replica wires its Report() in
  /// here). Null (default) answers as a primary from the collections'
  /// own applied LSNs.
  std::function<ReplicationReport()> replication_report;
};

/// Monotonic server counters (Server::Stats, also served over the wire by
/// OpCode::kStats). A dispatched call is one Collection::Search (kSearch,
/// one query) or SearchBatch (kSearchBatch, its rows):
/// `batched_queries / batches_dispatched` is the mean queries per call.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< shed at max_connections
  uint64_t connections_active = 0;
  uint64_t requests = 0;          ///< well-formed frames handled
  uint64_t searches = 0;          ///< kSearch + kSearchBatch queries seen
  uint64_t upserts = 0;
  uint64_t deletes = 0;
  uint64_t protocol_errors = 0;   ///< malformed frames / payloads
  uint64_t shed_overload = 0;     ///< queries refused at max_inflight
  uint64_t rejected_deadline = 0; ///< queries expired before execution
  uint64_t batches_dispatched = 0; ///< Search / SearchBatch calls executed
  uint64_t batched_queries = 0;    ///< queries executed inside those calls
  uint64_t max_batch_size = 0;     ///< most queries in one call
  /// batched_queries / batches_dispatched (0 when nothing dispatched).
  double mean_batch_size = 0.0;
  uint64_t replication_subscriptions = 0;  ///< kSubscribe streams served
  uint64_t replication_records_shipped = 0;  ///< WAL records streamed out
};

/// Framed-TCP serving front-end over a set of named Collections — the
/// process boundary that turns the executor's batched fan-out into
/// multi-client throughput:
///
///   auto server = serve::Server::Start(
///       {{"main", &collection}}, options).value();
///   // ... clients connect to ("127.0.0.1", server->port()) ...
///   server->Shutdown();   // graceful drain
///
/// Request flow: the acceptor task admits up to `max_connections`
/// connections (each served by a long-lived reader task on a dedicated
/// executor owned by the server — no raw threads). A reader decodes
/// frames (magic/version/length/checksum gates, all failures answered
/// with kProtocolError or dropped without trusting the stream), then:
/// a Search is admitted and dispatched at once as one Collection::Search
/// task on the query executor, a SearchBatch as one SearchBatch task, and
/// the task writes the response to its connection; Upsert/Delete run
/// inline on the reader (the Collection's writer lock serializes them);
/// Ping/Stats answer immediately.
///
/// Robustness contract:
///  - deadline propagation: a request whose client-supplied budget
///    (deadline_us) elapsed is answered kDeadlineExceeded without
///    touching the index — checked at admission and again at dispatch;
///  - backpressure: past `max_inflight` queued queries (or
///    `max_connections` peers) requests shed with retryable kOverloaded
///    instead of growing queues unboundedly;
///  - client death: SIGPIPE is ignored process-wide and every send uses
///    MSG_NOSIGNAL, so a client vanishing mid-response tears down only
///    its own connection — other connections' queries are unaffected;
///  - shutdown: Shutdown() stops intake, drains admitted queries (they
///    complete and their responses are written), then closes connections
///    and joins every serving task.
///
/// Thread-safety: all public members are safe to call concurrently.
class Server {
 public:
  /// Binds, spins up the acceptor and starts serving the given
  /// collections. Fails with InvalidArgument on duplicate or empty names
  /// / null collections, IoError when the bind fails.
  static Result<std::unique_ptr<Server>> Start(
      std::vector<ServedCollection> collections,
      const ServerOptions& options = {});

  /// Graceful Shutdown(), then joins every serving task.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The TCP port actually bound (the ephemeral one when options.port
  /// was 0).
  uint16_t port() const { return port_; }

  /// Snapshot of the serving counters.
  ServerStats Stats() const;

  /// Graceful drain: stop accepting, refuse new requests with
  /// kShuttingDown, wait for admitted searches (they complete and their
  /// responses are written; the calling thread runs queued ones itself,
  /// so a saturated query executor cannot stall the drain), close
  /// connections. Idempotent; blocks until quiesced.
  void Shutdown();

 private:
  /// One accepted connection: its socket, write serialization, and
  /// liveness. Held by shared_ptr from the reader task and every
  /// in-flight response callback; the destructor (last reference,
  /// wherever it lands) closes the fd and deregisters from the server.
  struct Connection {
    Connection(Server* server, int fd) : server(server), fd(fd) {}
    ~Connection();
    /// Serialized, liveness-checked frame write; a failed send marks the
    /// connection dead (later writes become no-ops).
    Status WriteFrame(const std::vector<uint8_t>& frame);
    Server* server;
    int fd;
    std::mutex write_mutex;
    bool alive = true;  ///< guarded by write_mutex
  };

  Server(std::vector<ServedCollection> collections,
         const ServerOptions& options);

  /// Long-lived acceptor task: poll-accept with shed-at-capacity.
  void AcceptLoop();
  /// Long-lived per-connection reader task: frame decode + dispatch.
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  /// Decodes and serves one well-framed request; returns false when the
  /// connection must be dropped (unrecoverable stream state).
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header,
                   const std::vector<uint8_t>& payload);
  /// Op handler (payload already checksum-verified): one query, one
  /// Collection::Search task.
  void HandleSearch(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, const std::vector<uint8_t>& payload);
  /// Op handler: pre-formed batch, one Collection::SearchBatch task.
  void HandleSearchBatch(const std::shared_ptr<Connection>& conn,
                         uint64_t request_id,
                         const std::vector<uint8_t>& payload);
  /// Op handler: transactional insert/replace, inline on the reader.
  void HandleUpsert(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, const std::vector<uint8_t>& payload);
  /// Op handler: tombstone one id, inline on the reader.
  void HandleDelete(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, const std::vector<uint8_t>& payload);
  /// Op handler: collection + counter snapshot.
  void HandleStats(const std::shared_ptr<Connection>& conn,
                   uint64_t request_id);
  /// Op handler: durable checkpoint of one collection, inline on the
  /// reader (checkpointing takes the shard write locks briefly, then does
  /// its file IO off-lock).
  void HandleCheckpoint(const std::shared_ptr<Connection>& conn,
                        uint64_t request_id,
                        const std::vector<uint8_t>& payload);
  /// Op handler: dedicates this connection's reader to one shard's
  /// replication feed (ack + snapshot chunks or WAL-record stream).
  /// Returns false when the connection must drop afterwards (a tail
  /// stream only ends by disconnect); a completed snapshot stream returns
  /// true and the connection resumes request mode.
  bool HandleSubscribe(const std::shared_ptr<Connection>& conn,
                       uint64_t request_id,
                       const std::vector<uint8_t>& payload);
  /// Op handler: replication role + per-shard LSN report.
  void HandleReplicaStatus(const std::shared_ptr<Connection>& conn,
                           uint64_t request_id,
                           const std::vector<uint8_t>& payload);
  /// Admission shared by both search ops: `queries` queries count against
  /// max_inflight; a request refused while draining, past its deadline
  /// (`deadline_us`, 0 = none), over the limit, or larger than the limit
  /// is answered with its typed status and `run` never runs. Otherwise
  /// `run` becomes one task on the query executor that re-checks the
  /// deadline before touching the index and returns the OK response body
  /// (or the failed status); the task answers exactly once, off-lock.
  void Dispatch(const std::shared_ptr<Connection>& conn, OpCode op,
                uint64_t request_id, uint64_t queries, uint32_t deadline_us,
                std::function<Result<std::vector<uint8_t>>()> run);
  /// Sends a status-only response frame.
  void SendError(const std::shared_ptr<Connection>& conn, OpCode op,
                 uint64_t request_id, WireStatus status,
                 const std::string& message);
  /// Collection registered under `name`, or nullptr.
  Collection* Find(const std::string& name) const;
  /// Deregistration hook called by ~Connection.
  void OnConnectionClosed();

  const ServerOptions options_;
  std::map<std::string, Collection*> collections_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_done_{false};
  std::mutex shutdown_mutex_;  ///< serializes Shutdown callers

  // Declared before io_pool_ so destruction joins the acceptor/reader
  // tasks while the connection-tracking and admission state they touch
  // is still alive (members destroy in reverse order; a connection
  // admitted in the window after Shutdown()'s wait returns must not lock
  // a dead mutex).
  mutable std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  size_t active_connections_ = 0;  ///< guarded by conn_mutex_

  // Search admission. Admission reads stopping_ under this mutex, so once
  // Shutdown() has taken it after setting stopping_, inflight_ only falls.
  // The counters below inflight_ are the ServerStats fields of the same
  // names; all of them are guarded by admit_mutex_.
  mutable std::mutex admit_mutex_;
  std::condition_variable drained_cv_;  ///< inflight_ reached 0
  uint64_t inflight_ = 0;  ///< admitted - completed queries
  uint64_t shed_overload_ = 0;
  uint64_t rejected_deadline_ = 0;
  uint64_t batches_dispatched_ = 0;
  uint64_t batched_queries_ = 0;
  uint64_t max_batch_size_ = 0;
  exec::TaskExecutor* query_pool_;  ///< runs the admitted search tasks

  // Dedicated IO executor: 1 acceptor + one worker per admitted
  // connection (all long-lived tasks; sized accordingly).
  std::unique_ptr<exec::TaskExecutor> io_pool_;

  // Counters (see ServerStats).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> searches_{0};
  std::atomic<uint64_t> upserts_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> replication_subscriptions_{0};
  std::atomic<uint64_t> replication_records_shipped_{0};
};

}  // namespace dblsh::serve

#endif  // DBLSH_SERVE_SERVER_H_
