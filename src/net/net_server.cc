// Copyright (c) 2026 moqo authors. MIT license.

#include "net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "cost/objective.h"
#include "rt/failpoint.h"
#include "service/frontier_session.h"
#include "service/optimization_service.h"

namespace moqo {
namespace net {
namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Lock-free wire-path counters. Shared with the metric samplers
/// registered on the service, which may outlive the server.
struct NetServer::Counters {
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> sessions_opened{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> pushes_sent{0};
  std::atomic<uint64_t> pushes_dropped{0};
  std::atomic<uint64_t> push_queue_depth{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> connections_reaped{0};
};

/// One TCP connection and the session bound to it. The loop thread owns
/// everything except the outbox, which session callbacks append to under
/// outbox_mu.
struct NetServer::Connection {
  Connection(size_t max_frame_bytes, size_t max_queued_pushes)
      : decoder(max_frame_bytes), outbox(max_queued_pushes) {}

  int fd = -1;
  uint64_t trace_id = 0;
  FrameDecoder decoder;
  std::shared_ptr<FrontierSession> session;
  int refined_id = -1;
  int done_id = -1;
  /// The connection holds exactly one opener handle; Cancel() must run
  /// exactly once (CANCEL frame or teardown, whichever comes first).
  bool cancel_sent = false;
  /// Flipped exactly once, under outbox_mu (CloseConnection): an Enqueue
  /// that saw it false under the same mutex completed its outbox push and
  /// flush registration before teardown cleared anything.
  std::atomic<bool> closed{false};
  /// Deadline bookkeeping (PR 8). accepted_at_us and saw_frame are loop
  /// thread only; last_activity_us is also stamped by FlushOutbox, which
  /// Stop() may call off-loop — hence atomic.
  int64_t accepted_at_us = 0;
  std::atomic<int64_t> last_activity_us{0};
  bool saw_frame = false;

  Mutex outbox_mu;
  PushQueue outbox MOQO_GUARDED_BY(outbox_mu);
  /// Bytes of outbox.front() already written (partial sends); that entry
  /// is pinned — never dropped by backpressure.
  size_t write_offset MOQO_GUARDED_BY(outbox_mu) = 0;
};

NetServer::NetServer(OptimizationService* service, NetOptions options)
    : service_(service),
      options_(std::move(options)),
      counters_(std::make_shared<Counters>()) {}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start() {
  if (started_) return true;
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1 ||
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      listen(listen_fd_, 128) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  RegisterMetrics();
  running_.store(true, std::memory_order_release);
  loop_ = std::thread(&NetServer::LoopMain, this);
  started_ = true;
  return true;
}

void NetServer::Stop() {
  if (loop_.joinable()) {
    running_.store(false, std::memory_order_release);
    Wake();
    loop_.join();
  }
  // The loop is gone; tear down connections from this thread.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) remaining.push_back(conn);
  for (auto& conn : remaining) CloseConnection(conn);
  connections_.clear();
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) close(*fd);
    *fd = -1;
  }
  started_ = false;
}

NetStatsSnapshot NetServer::Stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  NetStatsSnapshot s;
  s.connections_accepted = counters_->connections_accepted.load(kRelaxed);
  s.connections_active = counters_->connections_active.load(kRelaxed);
  s.sessions_opened = counters_->sessions_opened.load(kRelaxed);
  s.bytes_in = counters_->bytes_in.load(kRelaxed);
  s.bytes_out = counters_->bytes_out.load(kRelaxed);
  s.frames_in = counters_->frames_in.load(kRelaxed);
  s.pushes_sent = counters_->pushes_sent.load(kRelaxed);
  s.pushes_dropped = counters_->pushes_dropped.load(kRelaxed);
  s.push_queue_depth = counters_->push_queue_depth.load(kRelaxed);
  s.protocol_errors = counters_->protocol_errors.load(kRelaxed);
  s.connections_reaped = counters_->connections_reaped.load(kRelaxed);
  return s;
}

void NetServer::RegisterMetrics() {
  if (metrics_registered_) return;
  metrics_registered_ = true;
  MetricsRegistry* registry = service_->metrics_registry();
  // Samplers capture the counters by shared_ptr: a scrape after this
  // server is destroyed still reads the final values.
  auto counters = counters_;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  registry->AddCounter(
      "moqo_net_connections_total", "Connections accepted by the front end",
      [counters] {
        return static_cast<double>(counters->connections_accepted.load(kRelaxed));
      });
  registry->AddGauge(
      "moqo_net_connections_active", "Currently open connections",
      [counters] {
        return static_cast<double>(counters->connections_active.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_sessions_total", "Frontier sessions opened over the wire",
      [counters] {
        return static_cast<double>(counters->sessions_opened.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_bytes_total", "Bytes received by the front end",
      {{"direction", "in"}}, [counters] {
        return static_cast<double>(counters->bytes_in.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_bytes_total", "Bytes written by the front end",
      {{"direction", "out"}}, [counters] {
        return static_cast<double>(counters->bytes_out.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_frames_in_total", "Complete frames decoded from clients",
      [counters] {
        return static_cast<double>(counters->frames_in.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_pushes_total", "Frontier updates written to clients",
      [counters] {
        return static_cast<double>(counters->pushes_sent.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_pushes_dropped_total",
      "Frontier updates superseded by newest-wins backpressure",
      [counters] {
        return static_cast<double>(counters->pushes_dropped.load(kRelaxed));
      });
  registry->AddGauge(
      "moqo_net_push_queue_depth", "Frames queued across all connections",
      [counters] {
        return static_cast<double>(counters->push_queue_depth.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_protocol_errors_total",
      "Connections failed on malformed or out-of-order frames",
      [counters] {
        return static_cast<double>(counters->protocol_errors.load(kRelaxed));
      });
  registry->AddCounter(
      "moqo_net_connections_reaped_total",
      "Connections closed by the handshake/idle deadline sweep",
      [counters] {
        return static_cast<double>(
            counters->connections_reaped.load(kRelaxed));
      });
}

void NetServer::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  ssize_t ignored = write(wake_fd_, &one, sizeof(one));
  (void)ignored;  // A full eventfd counter is itself a pending wake.
}

int NetServer::EpollTimeoutMs() const {
  int64_t tightest = -1;
  for (int64_t deadline :
       {options_.handshake_timeout_ms, options_.idle_timeout_ms}) {
    if (deadline > 0 && (tightest < 0 || deadline < tightest)) {
      tightest = deadline;
    }
  }
  if (tightest < 0) return -1;
  // A quarter of the tightest deadline bounds reap latency to ~1.25x the
  // configured timeout; the floor/cap keep a pathological config from
  // either spinning or stalling the sweep.
  return static_cast<int>(std::min<int64_t>(250, std::max<int64_t>(5, tightest / 4)));
}

void NetServer::ReapExpiredConnections() {
  const int64_t now_us = SteadyNowUs();
  std::vector<std::shared_ptr<Connection>> expired;
  for (const auto& [fd, conn] : connections_) {
    if (options_.handshake_timeout_ms > 0 && !conn->saw_frame &&
        now_us - conn->accepted_at_us >
            options_.handshake_timeout_ms * 1000) {
      expired.push_back(conn);
    } else if (options_.idle_timeout_ms > 0 &&
               now_us - conn->last_activity_us.load(
                            std::memory_order_relaxed) >
                   options_.idle_timeout_ms * 1000) {
      expired.push_back(conn);
    }
  }
  // Close outside the iteration: SendErrorAndClose erases from
  // connections_.
  for (const auto& conn : expired) {
    counters_->connections_reaped.fetch_add(1, Counters::kRelaxed);
    SendErrorAndClose(conn, ErrorCode::kTimeout,
                      conn->saw_frame ? "idle timeout" : "handshake timeout");
  }
}

void NetServer::LoopMain() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const int timeout_ms = EpollTimeoutMs();
  while (running_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // Closed earlier this batch.
      std::shared_ptr<Connection> conn = it->second;
      bool ok = (events[i].events & (EPOLLHUP | EPOLLERR)) == 0;
      // Exception fence: a throw escaping the handlers (an injected
      // failpoint throw, or a real bug) must cost one connection, never
      // the event loop — every other session on this server depends on
      // the loop staying up.
      try {
        if (ok && (events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
          ok = HandleReadable(conn);
        }
        if (ok && (events[i].events & EPOLLOUT) != 0) {
          ok = FlushOutbox(conn);
        }
      } catch (...) {
        ok = false;
      }
      if (!ok) CloseConnection(conn);
    }
    // Frames enqueued by session callbacks since the last pass.
    std::vector<std::weak_ptr<Connection>> pending;
    {
      MutexLock lock(pending_mu_);
      pending.swap(pending_flush_);
    }
    for (const std::weak_ptr<Connection>& weak : pending) {
      std::shared_ptr<Connection> conn = weak.lock();
      if (conn == nullptr ||
          conn->closed.load(std::memory_order_relaxed)) {
        continue;
      }
      if (!FlushOutbox(conn)) CloseConnection(conn);
    }
    if (timeout_ms >= 0) ReapExpiredConnections();
  }
}

void NetServer::HandleAccept() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN: drained (or transient error; retry later).
    // Injected accept failure: the client sees an immediate RST/EOF, as
    // with a real fd-exhaustion or early-close fault.
    if (MOQO_FAILPOINT_HIT("net.accept")) {
      close(fd);
      continue;
    }
    TraceSpan span(service_->tracer(), "net", "net.accept");
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(options_.max_frame_bytes,
                                             options_.max_queued_pushes);
    conn->fd = fd;
    conn->trace_id = service_->tracer()->NextId();
    conn->accepted_at_us = SteadyNowUs();
    conn->last_activity_us.store(conn->accepted_at_us,
                                 std::memory_order_relaxed);
    epoll_event ev{};
    // ET for both directions: reads drain to EAGAIN, writes resume on the
    // writability edge after a short write.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    counters_->connections_accepted.fetch_add(1, Counters::kRelaxed);
    counters_->connections_active.fetch_add(1, Counters::kRelaxed);
  }
}

bool NetServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  TraceSpan span(service_->tracer(), "net", "net.read", conn->trace_id);
  // Injected read fault: connection closes exactly as on a recv error.
  MOQO_FAILPOINT_RETURN("net.read", false);
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) return false;  // Peer closed.
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    counters_->bytes_in.fetch_add(static_cast<uint64_t>(n),
                                  Counters::kRelaxed);
    conn->last_activity_us.store(SteadyNowUs(), std::memory_order_relaxed);
    conn->decoder.Feed(buf, static_cast<size_t>(n));
    MsgType type;
    std::vector<uint8_t> payload;
    while (true) {
      const FrameDecoder::Status status = conn->decoder.Next(&type, &payload);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kBadHeader ||
          status == FrameDecoder::Status::kOversized) {
        FailConnection(conn, ErrorCode::kProtocol,
                       status == FrameDecoder::Status::kOversized
                           ? "frame exceeds size limit"
                           : "bad frame header");
        return false;
      }
      counters_->frames_in.fetch_add(1, Counters::kRelaxed);
      conn->saw_frame = true;  // Handshake deadline satisfied.
      if (!HandleFrame(conn, type, payload)) return false;
    }
  }
  return true;
}

bool NetServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                            MsgType type,
                            const std::vector<uint8_t>& payload) {
  switch (type) {
    case MsgType::kOpenFrontier:
      return HandleOpenFrontier(conn, payload);
    case MsgType::kSelect:
      return HandleSelect(conn, payload);
    case MsgType::kCancel:
      if (conn->session == nullptr) {
        FailConnection(conn, ErrorCode::kProtocol, "CANCEL before OPEN");
        return false;
      }
      if (!conn->cancel_sent) {
        conn->cancel_sent = true;
        conn->session->Cancel();  // Completion arrives as a DONE frame.
      }
      return true;
    case MsgType::kClose:
      FlushOutbox(conn);  // Best-effort drain of queued frames.
      CloseConnection(conn);
      return false;
    default:
      FailConnection(conn, ErrorCode::kProtocol, "unexpected message type");
      return false;
  }
}

bool NetServer::HandleOpenFrontier(const std::shared_ptr<Connection>& conn,
                                   const std::vector<uint8_t>& payload) {
  OpenFrontierMsg msg;
  if (!DecodeOpenFrontier(payload.data(), payload.size(), &msg)) {
    FailConnection(conn, ErrorCode::kProtocol, "malformed OPEN_FRONTIER");
    return false;
  }
  if (conn->session != nullptr) {
    FailConnection(conn, ErrorCode::kProtocol,
                   "one session per connection; OPEN already served");
    return false;
  }
  if (msg.objectives.empty() ||
      msg.objectives.size() > static_cast<size_t>(kNumObjectives) ||
      msg.algorithm >= static_cast<int8_t>(kNumAlgorithmKinds)) {
    FailConnection(conn, ErrorCode::kProtocol, "invalid problem spec");
    return false;
  }
  // A NaN or infinite alpha would run NaN-alpha rungs whose cache entries
  // no later insert can replace; an unbounded max_steps would reserve the
  // whole ladder on this thread.
  if (!std::isfinite(msg.alpha) || !std::isfinite(msg.alpha_start) ||
      !std::isfinite(msg.alpha_target) || msg.max_steps > kMaxLadderSteps) {
    FailConnection(conn, ErrorCode::kProtocol, "invalid ladder");
    return false;
  }
  std::vector<Objective> objectives;
  objectives.reserve(msg.objectives.size());
  for (uint8_t value : msg.objectives) {
    if (value >= static_cast<uint8_t>(kNumObjectives)) {
      FailConnection(conn, ErrorCode::kProtocol, "unknown objective");
      return false;
    }
    objectives.push_back(static_cast<Objective>(value));
  }
  std::shared_ptr<const Query> query =
      options_.resolve_query ? options_.resolve_query(msg.query_id) : nullptr;
  if (query == nullptr) {
    FailConnection(conn, ErrorCode::kUnknownQuery,
                   "unknown query id: " + msg.query_id);
    return false;
  }

  ProblemSpec spec;
  spec.query = std::move(query);
  spec.objectives = ObjectiveSet(std::move(objectives));
  if (msg.algorithm >= 0) {
    spec.algorithm = static_cast<AlgorithmKind>(msg.algorithm);
  }
  if (msg.alpha > 0) spec.alpha = msg.alpha;
  if (msg.parallelism > 0) spec.parallelism = msg.parallelism;
  SessionOptions session_options;
  session_options.alpha_start = msg.alpha_start;
  session_options.alpha_target = msg.alpha_target;
  session_options.max_steps = msg.max_steps;
  session_options.step_deadline_ms = msg.step_deadline_ms;
  session_options.quick_first = msg.quick_first != 0;

  std::shared_ptr<FrontierSession> session =
      service_->OpenFrontier(std::move(spec), session_options);
  conn->session = session;
  counters_->sessions_opened.fetch_add(1, Counters::kRelaxed);

  // Both callbacks hold the connection alive; CloseConnection removes
  // them (RemoveCallback blocks out in-flight deliveries) before the
  // socket closes, so an enqueue never races a dead connection.
  conn->refined_id =
      session->OnRefined([this, conn](const RefinedFrontier& refined) {
        // Fenced: this runs inside Publish's delivery loop, which also
        // serves every OTHER subscriber of the session. A throw here (an
        // injected encode fault, an allocation failure on a huge
        // frontier) must cost exactly one dropped push on this
        // connection — not the rung that produced the frontier, and not
        // the deliveries queued behind us.
        try {
          TraceSpan push_span(service_->tracer(), "net", "net.push",
                              conn->trace_id);
          MOQO_FAILPOINT("net.push.encode");
          const FrontierUpdateMsg update =
              MakeFrontierUpdate(refined.step, refined.alpha,
                                 refined.from_cache, refined.step_ms,
                                 *refined.plan_set);
          push_span.AddArg("plans", update.num_plans());
          Enqueue(conn, EncodeFrontierUpdate(update), /*is_frontier=*/true);
        } catch (...) {
          counters_->pushes_dropped.fetch_add(1, Counters::kRelaxed);
        }
      });
  conn->done_id = session->OnDone([this, conn, session] {
    DoneMsg done;
    done.target_reached = session->TargetReached() ? 1 : 0;
    done.cancelled = session->Cancelled() ? 1 : 0;
    done.degraded = session->Degraded() ? 1 : 0;
    done.shed = session->Shed() ? 1 : 0;
    done.rejected = session->Rejected() ? 1 : 0;
    done.steps_published = session->StepsPublished();
    done.best_alpha = session->BestAlpha();
    Enqueue(conn, EncodeDone(done), /*is_frontier=*/false);
  });
  // The OnRefined replay already queued any open-time frontier; push it
  // out now rather than waiting for the eventfd round trip.
  return FlushOutbox(conn);
}

bool NetServer::HandleSelect(const std::shared_ptr<Connection>& conn,
                             const std::vector<uint8_t>& payload) {
  SelectMsg msg;
  if (!DecodeSelect(payload.data(), payload.size(), &msg)) {
    FailConnection(conn, ErrorCode::kProtocol, "malformed SELECT");
    return false;
  }
  if (conn->session == nullptr) {
    FailConnection(conn, ErrorCode::kProtocol, "SELECT before OPEN");
    return false;
  }
  if (msg.weights.size() > static_cast<size_t>(kNumObjectives) ||
      msg.bounds.size() > static_cast<size_t>(kNumObjectives)) {
    FailConnection(conn, ErrorCode::kProtocol, "preference too wide");
    return false;
  }
  Preference preference;  // Empty weights/bounds = uniform/unbounded.
  if (!msg.weights.empty()) {
    WeightVector weights(static_cast<int>(msg.weights.size()));
    for (size_t i = 0; i < msg.weights.size(); ++i) {
      weights[static_cast<int>(i)] = msg.weights[i];
    }
    preference.weights = weights;
  }
  if (!msg.bounds.empty()) {
    BoundVector bounds(static_cast<int>(msg.bounds.size()));
    for (size_t i = 0; i < msg.bounds.size(); ++i) {
      bounds[static_cast<int>(i)] = msg.bounds[i];
    }
    preference.bounds = bounds;
  }

  const SessionSelection selection = conn->session->Select(preference);
  SelectResultMsg result;
  result.tag = msg.tag;
  result.step = selection.step;
  result.alpha = selection.alpha;
  result.plan_index = selection.selection.index;
  result.weighted_cost = selection.selection.weighted_cost;
  for (int i = 0; i < selection.selection.cost.size(); ++i) {
    result.cost.push_back(selection.selection.cost[i]);
  }
  Enqueue(conn, EncodeSelectResult(result), /*is_frontier=*/false);
  return FlushOutbox(conn);
}

void NetServer::Enqueue(const std::shared_ptr<Connection>& conn,
                        std::string frame, bool is_frontier) {
  {
    MutexLock lock(conn->outbox_mu);
    if (conn->closed.load(std::memory_order_relaxed)) return;
    const size_t dropped =
        conn->outbox.Push(std::move(frame), is_frontier, conn->write_offset);
    counters_->pushes_dropped.fetch_add(dropped, Counters::kRelaxed);
    counters_->push_queue_depth.fetch_add(1 - dropped, Counters::kRelaxed);
    // Flush registration stays under outbox_mu: CloseConnection flips
    // closed under this same mutex, so the registration is strictly
    // ordered against teardown — a frame either never enters a closing
    // outbox, or enters with its flush request already queued.
    MutexLock pending(pending_mu_);
    pending_flush_.push_back(conn);
  }
  Wake();
}

bool NetServer::FlushOutbox(const std::shared_ptr<Connection>& conn) {
  MutexLock lock(conn->outbox_mu);
  if (conn->closed.load(std::memory_order_relaxed)) return false;
  // Injected write fault: caller closes, as on a hard send error.
  MOQO_FAILPOINT_RETURN("net.write", false);
  while (!conn->outbox.empty()) {
    const PushQueue::Entry& head = conn->outbox.front();
    const char* data = head.bytes.data() + conn->write_offset;
    const size_t left = head.bytes.size() - conn->write_offset;
    const ssize_t n = send(conn->fd, data, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // EPOLLOUT.
      if (errno == EINTR) continue;
      return false;
    }
    counters_->bytes_out.fetch_add(static_cast<uint64_t>(n),
                                   Counters::kRelaxed);
    conn->last_activity_us.store(SteadyNowUs(), std::memory_order_relaxed);
    conn->write_offset += static_cast<size_t>(n);
    if (conn->write_offset == head.bytes.size()) {
      if (head.is_frontier) {
        counters_->pushes_sent.fetch_add(1, Counters::kRelaxed);
      }
      conn->outbox.pop_front();
      conn->write_offset = 0;
      counters_->push_queue_depth.fetch_sub(1, Counters::kRelaxed);
    }
  }
  return true;
}

void NetServer::FailConnection(const std::shared_ptr<Connection>& conn,
                               ErrorCode code, const std::string& message) {
  counters_->protocol_errors.fetch_add(1, Counters::kRelaxed);
  SendErrorAndClose(conn, code, message);
}

void NetServer::SendErrorAndClose(const std::shared_ptr<Connection>& conn,
                                  ErrorCode code,
                                  const std::string& message) {
  Enqueue(conn, EncodeError(code, message), /*is_frontier=*/false);
  FlushOutbox(conn);  // Best effort; the close is happening regardless.
  CloseConnection(conn);
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    // The closed flip and the outbox clear are one atomic step with
    // respect to Enqueue (which checks closed under this mutex): no frame
    // can land in the outbox after it was cleared, and no flush
    // registration can outlive the connection with its frame unaccounted.
    MutexLock lock(conn->outbox_mu);
    if (conn->closed.exchange(true)) return;
    counters_->push_queue_depth.fetch_sub(conn->outbox.Clear(),
                                          Counters::kRelaxed);
    conn->write_offset = 0;
  }
  if (conn->session != nullptr) {
    // Callback removal first: RemoveCallback blocks until in-flight
    // deliveries finish, so no enqueue can follow. Then release this
    // connection's one opener handle.
    if (conn->refined_id >= 0) conn->session->RemoveCallback(conn->refined_id);
    if (conn->done_id >= 0) conn->session->RemoveCallback(conn->done_id);
    if (!conn->cancel_sent) conn->session->Cancel();
    conn->session.reset();
  }
  if (epoll_fd_ >= 0) epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  connections_.erase(conn->fd);
  counters_->connections_active.fetch_sub(1, Counters::kRelaxed);
}

}  // namespace net
}  // namespace moqo
