#ifndef FUSION_FLIGHT_SERVER_H_
#define FUSION_FLIGHT_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session_context.h"
#include "flight/wire.h"

namespace fusion {
namespace flight {

/// Server tunables.
struct FlightServerOptions {
  /// TCP port; 0 binds an ephemeral port (see FlightServer::port()).
  int port = 0;
  std::string bind_address = "127.0.0.1";
  /// Connections beyond this are accepted and immediately refused with
  /// a ResourcesExhausted error frame (fail-fast, like admission).
  int max_connections = 1024;
  /// Bounded per-session send queue (frames). The do-get pump blocks
  /// pushing into a full queue, so a slow client back-pressures query
  /// execution instead of buffering the result set.
  int send_queue_frames = 4;
  /// Per-frame size cap on both directions; 0 = ipc::MaxFrameBytes().
  int64_t max_frame_bytes = 0;
  /// Deadline applied to queries that don't carry their own timeout
  /// (0 = none). Expiry cancels the query and sends an error frame.
  int64_t default_timeout_ms = 0;
  /// Bytes of serialized results a session may hold queued; reservations
  /// are charged to the runtime's memory pool ("flight.session.<id>"),
  /// so server result buffering is visible to admission watermarks.
  int64_t session_memory_bytes = 64 << 20;
  /// Total bytes one do-put upload may accumulate server-side before
  /// kPutDone (each frame is additionally capped by max_frame_bytes).
  /// Held batches are charged to the pool as "flight.put.<id>"; going
  /// over either limit fails the put with ResourcesExhausted.
  int64_t max_put_bytes = 256 << 20;
};

/// Counters exposed by FlightServer::stats(); plain snapshot struct.
struct FlightServerStats {
  int64_t accepted = 0;           ///< connections accepted
  int64_t refused = 0;            ///< over max_connections or accept fault
  int64_t active_sessions = 0;
  int64_t peak_sessions = 0;
  int64_t queries_started = 0;
  int64_t queries_ok = 0;
  int64_t queries_err = 0;        ///< failed with a non-cancel error
  int64_t queries_cancelled = 0;  ///< deadline / drain / disconnect kills
  int64_t queries_rejected = 0;   ///< admission-control rejections
  int64_t prepared_statements = 0;
  int64_t puts = 0;
  int64_t batches_sent = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t frame_errors = 0;       ///< malformed/hostile frames rejected
};

/// Outcome of a graceful drain (Shutdown).
struct DrainResult {
  int64_t finished = 0;   ///< in-flight queries that completed
  /// In-flight queries cancelled during the drain, whether by the drain
  /// deadline or by their own query timeout expiring mid-drain.
  int64_t cancelled = 0;
};

/// \brief TCP query server speaking the Flight-like do-get/do-put
/// protocol of flight/wire.h over one shared SessionContext.
///
/// A listener thread accepts connections; each connection becomes a
/// *session* with two threads: a handler that reads request frames and
/// drives query execution (through SessionContext::ExecuteSqlStream —
/// the PR-7 admission gate, plan cache and scheduler task groups all
/// apply per query), and a writer that drains the session's bounded
/// send queue to the socket. Results stream back batch-by-batch as
/// dictionary-preserving IPC blobs; the bounded queue plus blocking
/// socket writes give end-to-end backpressure.
///
/// Robustness contract: any malformed frame, connection drop, fault
/// injection (flight.accept / flight.read / flight.write), deadline
/// expiry or admission rejection ends with a clean error frame and/or
/// session teardown that cancels the in-flight query, joins its task
/// group and releases every memory reservation — no leaked pool bytes,
/// consumers, or threads.
///
/// Shutdown(drain_ms) is the graceful drain: stop accepting, let
/// in-flight queries finish (up to the deadline), flush send queues,
/// then cancel stragglers and join everything.
class FlightServer {
 public:
  /// Bind, listen and start the accept loop.
  static Result<std::unique_ptr<FlightServer>> Start(
      core::SessionContextPtr session, FlightServerOptions options = {});

  ~FlightServer();

  /// The bound port (useful with options.port == 0).
  int port() const { return port_; }

  FlightServerStats stats() const;

  /// Graceful drain; safe to call once. Returns how many in-flight
  /// queries finished vs. were cancelled at the drain deadline.
  DrainResult Shutdown(int64_t drain_timeout_ms = 5000);

 private:
  struct Session;

  FlightServer(core::SessionContextPtr session, FlightServerOptions options);

  void AcceptLoop();
  void RunSession(Session* session);
  void WriterLoop(Session* session);
  void ReapFinishedSessions();

  // Request handlers; all errors become kError frames on the session.
  Status HandleDoGet(Session* session, const Frame& frame);
  Status HandleDoGetPrepared(Session* session, const Frame& frame);
  Status HandlePrepare(Session* session, const Frame& frame);
  Status HandleClosePrepared(Session* session, const Frame& frame);
  Status HandleDoPut(Session* session, const Frame& frame);
  /// The one do-get path: sets up the query's cancellation token and
  /// in-flight flag, streams the result `open` starts under that token,
  /// and counts the outcome.
  Status RunDoGet(
      Session* session, uint64_t timeout_ms,
      const std::function<Result<core::QueryStreamPtr>(exec::CancellationTokenPtr)>& open);
  Status StreamQuery(Session* session, core::QueryStreamPtr stream,
                     int64_t timeout_ms);

  core::SessionContextPtr session_ctx_;
  FlightServerOptions options_;
  int64_t max_frame_bytes_ = 0;
  Socket listener_;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};

  mutable std::mutex sessions_mu_;
  std::condition_variable sessions_cv_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<uint64_t> next_session_id_{0};
  bool shut_down_ = false;

  // Stats counters (relaxed; snapshotted by stats()).
  std::atomic<int64_t> accepted_{0}, refused_{0}, active_sessions_{0},
      peak_sessions_{0}, queries_started_{0}, queries_ok_{0}, queries_err_{0},
      queries_cancelled_{0}, queries_rejected_{0}, prepared_statements_{0},
      puts_{0}, batches_sent_{0}, bytes_sent_{0}, bytes_received_{0},
      frame_errors_{0}, drain_finished_{0}, drain_cancelled_{0};
};

}  // namespace flight
}  // namespace fusion

#endif  // FUSION_FLIGHT_SERVER_H_
