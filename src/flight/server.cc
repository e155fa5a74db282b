#include "flight/server.h"

#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <deque>
#include <unordered_map>

#include "arrow/ipc.h"
#include "catalog/memory_table.h"
#include "common/fault_injector.h"
#include "exec/memory_pool.h"

namespace fusion {
namespace flight {

namespace {

/// Any dictionary-encoded column left in the batch? (Sets the frame's
/// kFlagDictionary bit; purely informational for clients/stats.)
bool HasDictionaryColumn(const RecordBatch& batch) {
  for (int i = 0; i < batch.num_columns(); ++i) {
    if (batch.column(i)->type().is_dictionary()) return true;
  }
  return false;
}

}  // namespace

/// One client connection: a handler thread that reads request frames
/// and executes queries, plus a writer thread draining the bounded
/// send queue. All outbound frames go through the queue so the writer
/// is the only thread touching the socket's send side.
struct FlightServer::Session {
  uint64_t id = 0;
  Socket socket;
  std::thread handler;
  std::thread writer;

  // Bounded send queue (frames + byte budget) --------------------------
  struct Outgoing {
    FrameType type;
    uint8_t flags;
    std::vector<uint8_t> body;
  };
  std::mutex mu;
  std::condition_variable cv_space;  ///< signalled when the queue drains
  std::condition_variable cv_data;   ///< signalled when a frame arrives
  std::deque<Outgoing> queue;
  int64_t queued_bytes = 0;
  bool flush_and_finish = false;  ///< no more pushes; writer exits when empty
  bool write_failed = false;      ///< socket send failed; connection is dead
  /// Charges queued result bytes to the runtime memory pool
  /// ("flight.session.<id>"); guarded by `mu`.
  std::unique_ptr<exec::MemoryReservation> reservation;

  // Query-in-flight state (drain/disconnect cancellation) --------------
  std::atomic<bool> in_flight{false};
  std::mutex token_mu;
  exec::CancellationTokenPtr active_token;
  std::atomic<bool> drain_requested{false};
  std::atomic<bool> done{false};

  /// Serializes fd access for close vs. cross-thread shutdown: only the
  /// handler ever closes, but the writer and Shutdown() call shutdown()
  /// to wake blocked peers — without the mutex they could read the fd
  /// concurrently with Close() writing -1, or hit a recycled descriptor
  /// after close. shutdown() on a still-open fd during concurrent
  /// send/recv is well-defined, so SendFrame/ReadFrame need no lock.
  std::mutex socket_mu;

  /// Drain phase 1: shut the read side of an idle session. A request
  /// the client already sent but the handler has not read yet (unread
  /// socket bytes) counts as in flight.
  void ShutdownReadIfIdle() {
    std::lock_guard<std::mutex> lock(socket_mu);
    if (!socket.valid() || in_flight.load()) return;
    int unread = 0;
    if (::ioctl(socket.fd(), FIONREAD, &unread) == 0 && unread > 0) return;
    ::shutdown(socket.fd(), SHUT_RD);
  }
  void ShutdownSocketBoth() {
    std::lock_guard<std::mutex> lock(socket_mu);
    socket.ShutdownBoth();
  }
  void CloseSocket() {
    std::lock_guard<std::mutex> lock(socket_mu);
    socket.Close();
  }

  // Prepared statements are per-connection; only the handler touches
  // the map, so it needs no lock.
  std::unordered_map<uint64_t, logical::PlanPtr> prepared;
  uint64_t next_prepared_handle = 1;

  void CancelActiveQuery() {
    std::lock_guard<std::mutex> lock(token_mu);
    if (active_token != nullptr) active_token->Cancel();
  }

  /// Push one frame into the bounded send queue; blocks while the
  /// queue is at its frame or byte budget (the backpressure edge).
  /// Fails when the connection has died or the memory grant is refused.
  Status Push(FrameType type, uint8_t flags, std::vector<uint8_t> body,
              int max_frames, int64_t max_bytes) {
    std::unique_lock<std::mutex> lock(mu);
    const int64_t bytes = static_cast<int64_t>(body.size());
    cv_space.wait(lock, [&] {
      return write_failed ||
             (static_cast<int>(queue.size()) < max_frames &&
              (queued_bytes == 0 || queued_bytes + bytes <= max_bytes));
    });
    if (write_failed) {
      return Status::IOError("flight: connection lost");
    }
    Status grow = reservation->ResizeTo(queued_bytes + bytes);
    if (!grow.ok()) return grow;
    queued_bytes += bytes;
    queue.push_back({type, flags, std::move(body)});
    cv_data.notify_one();
    return Status::OK();
  }
};

FlightServer::FlightServer(core::SessionContextPtr session,
                           FlightServerOptions options)
    : session_ctx_(std::move(session)), options_(options) {
  max_frame_bytes_ = options_.max_frame_bytes > 0 ? options_.max_frame_bytes
                                                  : ipc::MaxFrameBytes();
}

Result<std::unique_ptr<FlightServer>> FlightServer::Start(
    core::SessionContextPtr session, FlightServerOptions options) {
  auto server = std::unique_ptr<FlightServer>(
      new FlightServer(std::move(session), options));
  FUSION_ASSIGN_OR_RAISE(
      server->listener_,
      ListenTcp(server->options_.bind_address, server->options_.port,
                &server->port_));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

FlightServer::~FlightServer() { Shutdown(0); }

FlightServerStats FlightServer::stats() const {
  FlightServerStats s;
  s.accepted = accepted_.load();
  s.refused = refused_.load();
  s.active_sessions = active_sessions_.load();
  s.peak_sessions = peak_sessions_.load();
  s.queries_started = queries_started_.load();
  s.queries_ok = queries_ok_.load();
  s.queries_err = queries_err_.load();
  s.queries_cancelled = queries_cancelled_.load();
  s.queries_rejected = queries_rejected_.load();
  s.prepared_statements = prepared_statements_.load();
  s.puts = puts_.load();
  s.batches_sent = batches_sent_.load();
  s.bytes_sent = bytes_sent_.load();
  s.bytes_received = bytes_received_.load();
  s.frame_errors = frame_errors_.load();
  return s;
}

void FlightServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (draining_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener closed or fatal
    }
    if (draining_.load()) {
      ::close(fd);
      return;
    }
    // Scripted accept fault: the connection is dropped as if the
    // network setup failed (clients see a reset; tests assert cleanup).
    if (!FaultInjector::Maybe("flight.accept").ok()) {
      refused_.fetch_add(1);
      ::close(fd);
      continue;
    }
    ReapFinishedSessions();
    if (active_sessions_.load() >= options_.max_connections) {
      refused_.fetch_add(1);
      Socket refuse(fd, "flight");
      refuse.SendFrame(FrameType::kError, 0,
                       EncodeError(Status::ResourcesExhausted(
                           "flight: connection limit reached")));
      continue;  // Socket dtor closes fd
    }
    accepted_.fetch_add(1);
    auto session = std::make_unique<Session>();
    session->id = next_session_id_.fetch_add(1);
    session->socket = Socket(fd, "flight");
    session->reservation = std::make_unique<exec::MemoryReservation>(
        session_ctx_->env()->memory_pool,
        "flight.session." + std::to_string(session->id));
    Session* raw = session.get();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      int64_t active = active_sessions_.fetch_add(1) + 1;
      int64_t peak = peak_sessions_.load();
      while (active > peak && !peak_sessions_.compare_exchange_weak(peak, active)) {
      }
      sessions_.push_back(std::move(session));
    }
    raw->writer = std::thread([this, raw] { WriterLoop(raw); });
    raw->handler = std::thread([this, raw] { RunSession(raw); });
  }
}

void FlightServer::ReapFinishedSessions() {
  // Joining with sessions_mu_ held would deadlock: RunSession sets done
  // and then acquires sessions_mu_ for its final notify, so a handler
  // observed as done may still be blocked on this very mutex. Move
  // finished sessions out under the lock, join them after releasing it.
  std::vector<std::unique_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& s : finished) {
    if (s->handler.joinable()) s->handler.join();
  }
}

void FlightServer::WriterLoop(Session* s) {
  for (;;) {
    Session::Outgoing frame;
    {
      std::unique_lock<std::mutex> lock(s->mu);
      s->cv_data.wait(lock, [&] {
        return !s->queue.empty() || s->flush_and_finish || s->write_failed;
      });
      if (s->write_failed || (s->queue.empty() && s->flush_and_finish)) return;
      frame = std::move(s->queue.front());
      s->queue.pop_front();
      // The reservation charges queued frames only. Releasing this one
      // before it is sent means a peer that holds every reply never
      // finds the session still charged for one.
      s->queued_bytes -= static_cast<int64_t>(frame.body.size());
      s->reservation->ResizeTo(s->queued_bytes);
      s->cv_space.notify_all();
    }
    Status st = s->socket.SendFrame(frame.type, frame.flags, frame.body);
    if (st.ok()) {
      bytes_sent_.fetch_add(
          static_cast<int64_t>(frame.body.size() + kFrameHeaderBytes));
      continue;
    }
    {
      // Connection dead: discard everything queued, release the
      // reservation, and kill the query feeding the queue so the pump
      // unblocks within one batch.
      std::lock_guard<std::mutex> lock(s->mu);
      s->write_failed = true;
      s->queue.clear();
      s->queued_bytes = 0;
      s->reservation->ResizeTo(0);
      s->cv_space.notify_all();
      s->cv_data.notify_all();
    }
    // Wake the handler if it is parked in ReadFrame waiting for the next
    // request (and the peer waiting for the frame we dropped):
    // shutdown() fails their blocked recv without closing the fd, so the
    // handler remains the only closer.
    s->ShutdownSocketBoth();
    s->CancelActiveQuery();
    return;
  }
}

Status FlightServer::StreamQuery(Session* s, core::QueryStreamPtr stream,
                                 int64_t /*timeout_ms*/) {
  uint64_t rows = 0;
  uint64_t batches = 0;
  ipc::SerializeOptions ser;
  ser.preserve_dictionary = true;
  for (;;) {
    auto batch = stream->Next();
    if (!batch.ok()) {
      stream->Close();
      return batch.status();
    }
    if (*batch == nullptr) break;
    uint8_t flags = HasDictionaryColumn(**batch) ? kFlagDictionary : 0;
    std::vector<uint8_t> blob = ipc::SerializeBatch(**batch, ser);
    if (static_cast<int64_t>(blob.size()) > max_frame_bytes_) {
      stream->Cancel();
      stream->Close();
      return Status::IOError("flight: result batch exceeds max frame size");
    }
    rows += static_cast<uint64_t>((*batch)->num_rows());
    ++batches;
    Status pushed =
        s->Push(FrameType::kBatch, flags, std::move(blob),
                options_.send_queue_frames, options_.session_memory_bytes);
    if (!pushed.ok()) {
      // Client gone or memory denied: cancel, unwind, release.
      stream->Cancel();
      stream->Close();
      return pushed;
    }
    batches_sent_.fetch_add(1);
  }
  FUSION_RETURN_NOT_OK(stream->Close());
  BodyWriter end;
  end.PutU64(rows);
  end.PutU64(batches);
  return s->Push(FrameType::kStreamEnd, 0, end.Finish(),
                 options_.send_queue_frames, options_.session_memory_bytes);
}

Status FlightServer::RunDoGet(
    Session* s, uint64_t timeout_ms,
    const std::function<Result<core::QueryStreamPtr>(exec::CancellationTokenPtr)>& open) {
  int64_t timeout = timeout_ms > 0 ? static_cast<int64_t>(timeout_ms)
                                   : options_.default_timeout_ms;
  auto token = timeout > 0 ? exec::CancellationToken::WithTimeout(timeout)
                           : exec::CancellationToken::Make();
  {
    std::lock_guard<std::mutex> lock(s->token_mu);
    s->active_token = token;
  }
  s->in_flight.store(true);
  queries_started_.fetch_add(1);
  auto stream = open(token);
  Status st = stream.ok() ? StreamQuery(s, std::move(*stream), timeout)
                          : stream.status();
  s->in_flight.store(false);
  {
    std::lock_guard<std::mutex> lock(s->token_mu);
    s->active_token = nullptr;
  }
  if (st.ok()) {
    queries_ok_.fetch_add(1);
  } else if (st.IsCancelled()) {
    queries_cancelled_.fetch_add(1);
  } else if (st.IsResourcesExhausted()) {
    queries_rejected_.fetch_add(1);
  } else {
    queries_err_.fetch_add(1);
  }
  if (s->drain_requested.load()) {
    // Single drain-accounting point, taken where the outcome is known:
    // a query cancelled during drain counts exactly once whether the
    // drain deadline or its own timeout killed it.
    if (st.ok()) {
      drain_finished_.fetch_add(1);
    } else if (st.IsCancelled()) {
      drain_cancelled_.fetch_add(1);
    }
  }
  return st;
}

Status FlightServer::HandleDoGet(Session* s, const Frame& frame) {
  BodyReader r(frame.body);
  FUSION_ASSIGN_OR_RAISE(uint64_t timeout_ms, r.U64());
  FUSION_ASSIGN_OR_RAISE(std::string sql, r.String());
  FUSION_RETURN_NOT_OK(r.Done());
  return RunDoGet(s, timeout_ms, [&](exec::CancellationTokenPtr token) {
    return session_ctx_->ExecuteSqlStream(sql, std::move(token));
  });
}

Status FlightServer::HandlePrepare(Session* s, const Frame& frame) {
  BodyReader r(frame.body);
  FUSION_ASSIGN_OR_RAISE(std::string sql, r.String());
  FUSION_RETURN_NOT_OK(r.Done());
  FUSION_ASSIGN_OR_RAISE(auto plan, session_ctx_->CreateLogicalPlan(sql));
  uint64_t handle = s->next_prepared_handle++;
  s->prepared[handle] = std::move(plan);
  prepared_statements_.fetch_add(1);
  BodyWriter w;
  w.PutU64(handle);
  return s->Push(FrameType::kPrepared, 0, w.Finish(),
                 options_.send_queue_frames, options_.session_memory_bytes);
}

Status FlightServer::HandleDoGetPrepared(Session* s, const Frame& frame) {
  BodyReader r(frame.body);
  FUSION_ASSIGN_OR_RAISE(uint64_t handle, r.U64());
  FUSION_ASSIGN_OR_RAISE(uint64_t timeout_ms, r.U64());
  FUSION_RETURN_NOT_OK(r.Done());
  auto it = s->prepared.find(handle);
  if (it == s->prepared.end()) {
    return Status::KeyError("flight: unknown prepared statement handle " +
                            std::to_string(handle));
  }
  // Prepared statements skip re-parsing; optimization still goes
  // through OptimizeCached, so repeats hit the plan cache.
  return RunDoGet(s, timeout_ms, [&](exec::CancellationTokenPtr token) {
    return session_ctx_->ExecutePlanStream(it->second, std::move(token));
  });
}

Status FlightServer::HandleClosePrepared(Session* s, const Frame& frame) {
  BodyReader r(frame.body);
  FUSION_ASSIGN_OR_RAISE(uint64_t handle, r.U64());
  FUSION_RETURN_NOT_OK(r.Done());
  s->prepared.erase(handle);
  BodyWriter w;
  w.PutU64(0);
  return s->Push(FrameType::kOk, 0, w.Finish(),
                 options_.send_queue_frames, options_.session_memory_bytes);
}

Status FlightServer::HandleDoPut(Session* s, const Frame& frame) {
  BodyReader r(frame.body);
  FUSION_ASSIGN_OR_RAISE(std::string table, r.String());
  FUSION_RETURN_NOT_OK(r.Done());
  const bool replace = (frame.flags & kFlagReplaceTable) != 0;

  // Consume the upload to kPutDone even after a bad batch, so the
  // client's synchronous send of the full stream never deadlocks
  // against our error reply; only the first error is reported.
  //
  // Accumulated batches are charged to the runtime pool (wire bytes as
  // the proxy for decoded size) and capped by max_put_bytes, so a
  // client streaming frames before kPutDone can neither exceed the
  // configured total nor allocate invisibly to admission. After the
  // first error, frames are drained and dropped without accumulating.
  exec::MemoryReservation put_reservation(
      session_ctx_->env()->memory_pool, "flight.put." + std::to_string(s->id));
  int64_t put_bytes = 0;
  Status first_error;
  std::vector<RecordBatchPtr> batches;
  int64_t rows = 0;
  for (;;) {
    auto next = s->socket.ReadFrame(max_frame_bytes_);
    if (!next.ok()) return next.status();  // connection-level: tear down
    bytes_received_.fetch_add(
        static_cast<int64_t>(next->body.size() + kFrameHeaderBytes));
    if (next->type == FrameType::kPutDone) break;
    if (next->type != FrameType::kPutBatch) {
      return Status::IOError("flight: unexpected frame during do-put");
    }
    if (!first_error.ok()) continue;
    const int64_t frame_bytes = static_cast<int64_t>(next->body.size());
    if (put_bytes + frame_bytes > options_.max_put_bytes) {
      first_error = Status::ResourcesExhausted(
          "flight: do-put upload exceeds max_put_bytes=" +
          std::to_string(options_.max_put_bytes));
      continue;
    }
    Status grow = put_reservation.ResizeTo(put_bytes + frame_bytes);
    if (!grow.ok()) {
      first_error = grow;
      continue;
    }
    put_bytes = put_bytes + frame_bytes;
    auto batch = ipc::DeserializeBatch(next->body.data(), next->body.size());
    if (!batch.ok()) {
      first_error = batch.status();
      continue;
    }
    if (!batches.empty() &&
        !(*batch)->schema()->Equals(*batches.front()->schema())) {
      first_error = Status::Invalid("flight: put batches disagree on schema");
      continue;
    }
    rows += (*batch)->num_rows();
    batches.push_back(std::move(*batch));
  }
  FUSION_RETURN_NOT_OK(first_error);
  if (batches.empty()) {
    return Status::Invalid("flight: do-put requires at least one batch");
  }
  SchemaPtr schema = batches.front()->schema();
  FUSION_ASSIGN_OR_RAISE(
      auto provider,
      catalog::MemoryTable::Make(std::move(schema), std::move(batches)));
  // The catalog's RegisterTable replaces silently; the wire contract
  // requires the explicit kFlagReplaceTable opt-in for that.
  if (session_ctx_->GetTable(table).ok()) {
    if (!replace) {
      return Status::Invalid("flight: table '" + table +
                             "' already exists (set the replace flag)");
    }
    session_ctx_->DeregisterTable(table);  // bumps the catalog epoch
  }
  FUSION_RETURN_NOT_OK(session_ctx_->RegisterTable(table, provider));
  puts_.fetch_add(1);
  BodyWriter w;
  w.PutU64(static_cast<uint64_t>(rows));
  return s->Push(FrameType::kOk, 0, w.Finish(),
                 options_.send_queue_frames, options_.session_memory_bytes);
}

void FlightServer::RunSession(Session* s) {
  bool hard_failure = false;
  for (;;) {
    auto frame = s->socket.ReadFrame(max_frame_bytes_);
    if (!frame.ok()) {
      // Clean hangup, connection loss, injected flight.read fault, or
      // a malformed/hostile header: once framing is unreliable nothing
      // later on the socket can be trusted, so tear the session down.
      if (!IsHangup(frame.status())) {
        frame_errors_.fetch_add(1);
        hard_failure = true;
      }
      break;
    }
    bytes_received_.fetch_add(
        static_cast<int64_t>(frame->body.size() + kFrameHeaderBytes));
    Status st;
    switch (frame->type) {
      case FrameType::kPing: {
        BodyWriter w;
        w.PutU64(0);
        st = s->Push(FrameType::kOk, 0, w.Finish(),
                     options_.send_queue_frames, options_.session_memory_bytes);
        break;
      }
      case FrameType::kDoGet:
        st = HandleDoGet(s, *frame);
        break;
      case FrameType::kPrepare:
        st = HandlePrepare(s, *frame);
        break;
      case FrameType::kDoGetPrepared:
        st = HandleDoGetPrepared(s, *frame);
        break;
      case FrameType::kClosePrepared:
        st = HandleClosePrepared(s, *frame);
        break;
      case FrameType::kDoPut:
        st = HandleDoPut(s, *frame);
        break;
      default:
        st = Status::IOError("flight: unexpected frame type " +
                             std::to_string(static_cast<int>(frame->type)));
        frame_errors_.fetch_add(1);
    }
    if (!st.ok()) {
      // Per-request errors go back as an error frame; if even that
      // cannot be queued the connection is dead.
      Status sent =
          s->Push(FrameType::kError, 0, EncodeError(st),
                  options_.send_queue_frames, options_.session_memory_bytes);
      if (!sent.ok()) {
        hard_failure = true;
        break;
      }
    }
    if (s->drain_requested.load()) {
      // Drain: this request (queued results or error frame included,
      // flushed below) was the session's last. Drain outcome accounting
      // happens in the do-get handlers, where the query result is known.
      break;
    }
  }
  // Teardown: flush what the client can still receive, then join the
  // writer, release the reservation, close.
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (hard_failure) {
      s->queue.clear();
      s->queued_bytes = 0;
      s->reservation->ResizeTo(0);
      s->write_failed = true;
    }
    s->flush_and_finish = true;
    s->cv_data.notify_all();
    s->cv_space.notify_all();
  }
  if (s->writer.joinable()) s->writer.join();
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->queue.clear();
    s->queued_bytes = 0;
    s->reservation->ResizeTo(0);
  }
  // Drop the pool consumer now (not at object reap) so "zero leaked
  // bytes/consumers after disconnect" holds as soon as the session ends.
  s->reservation.reset();
  s->CloseSocket();
  s->done.store(true);
  active_sessions_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_cv_.notify_all();
  }
}

DrainResult FlightServer::Shutdown(int64_t drain_timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (shut_down_) {
      return DrainResult{drain_finished_.load(), drain_cancelled_.load()};
    }
    shut_down_ = true;
  }
  draining_.store(true);
  // Stop accepting: wake the blocked accept() and join the listener.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // Phase 1 — signal every session. Idle sessions get their read side
  // shut so the blocked ReadFrame wakes as a clean hangup; sessions
  // with a query in flight or a request waiting to be read are left to
  // finish it (RunSession breaks after the current request once
  // drain_requested is set).
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) {
      s->drain_requested.store(true);
      s->ShutdownReadIfIdle();
    }
  }
  // Phase 2 — wait for in-flight work to finish and queues to flush.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(drain_timeout_ms);
  {
    std::unique_lock<std::mutex> lock(sessions_mu_);
    sessions_cv_.wait_until(lock, deadline, [&] {
      for (const auto& s : sessions_) {
        if (!s->done.load()) return false;
      }
      return true;
    });
  }
  // Phase 3 — the drain deadline has passed: cancel stragglers and
  // sever their sockets so every thread unwinds promptly.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) {
      if (!s->done.load()) {
        s->CancelActiveQuery();
        s->ShutdownSocketBoth();
      }
    }
  }
  // Phase 4 — join everything unconditionally (cancellation lands
  // within one batch; dead sockets fail queued writes immediately).
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    if (s->handler.joinable()) s->handler.join();
  }
  return DrainResult{drain_finished_.load(), drain_cancelled_.load()};
}

}  // namespace flight
}  // namespace fusion
