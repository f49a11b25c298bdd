#include "bgr/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "bgr/common/stopwatch.hpp"
#include "bgr/obs/run_report.hpp"
#include "bgr/obs/trace.hpp"

namespace bgr::serve {

namespace {

constexpr const char* kStdioClient = "stdio";

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.dataset_cache_capacity, config_.result_cache_capacity) {
  event_epoch_ = std::chrono::steady_clock::now();
  scheduler_ = std::make_unique<JobScheduler>(
      config_.scheduler, &cache_,
      [this](const std::string& client, const JsonValue& event) {
        emit(client, event);
      });
  register_telemetry();
}

Server::~Server() {
  admin_.reset();  // stop scrapes before the things the gauges sample
  close_tcp();
  // The scheduler joins its runners before cache_/emit go away.
  scheduler_.reset();
}

void Server::register_telemetry() {
  hub_.add_gauge(
      "serve.queue_depth", "Queued (not yet started) jobs per client.",
      [this] {
        std::vector<GaugeSample> out;
        for (const auto& [client, depth] : scheduler_->queue_depths()) {
          GaugeSample sample;
          sample.labels.emplace_back("client", client);
          sample.value = static_cast<double>(depth);
          out.push_back(std::move(sample));
        }
        return out;
      });
  hub_.add_gauge("serve.inflight_jobs", "Jobs currently running.", [this] {
    return std::vector<GaugeSample>{
        {{}, static_cast<double>(scheduler_->running_jobs())}};
  });
  hub_.add_gauge(
      "serve.cache_entries",
      "DesignCache resident entries by level (dataset/result).", [this] {
        const DesignCache::Usage usage = cache_.usage();
        GaugeSample dataset;
        dataset.labels.emplace_back("level", "dataset");
        dataset.value = static_cast<double>(usage.dataset_entries);
        GaugeSample result;
        result.labels.emplace_back("level", "result");
        result.value = static_cast<double>(usage.result_entries);
        return std::vector<GaugeSample>{std::move(dataset), std::move(result)};
      });
  hub_.add_gauge(
      "serve.cache_bytes",
      "Approximate DesignCache resident bytes by level.", [this] {
        const DesignCache::Usage usage = cache_.usage();
        GaugeSample dataset;
        dataset.labels.emplace_back("level", "dataset");
        dataset.value = static_cast<double>(usage.dataset_bytes);
        GaugeSample result;
        result.labels.emplace_back("level", "result");
        result.value = static_cast<double>(usage.result_bytes);
        return std::vector<GaugeSample>{std::move(dataset), std::move(result)};
      });
  hub_.add_gauge("exec.pool_workers", "Workers on the shared compute pool.",
                 [this] {
                   ThreadPool* pool = scheduler_->pool();
                   return std::vector<GaugeSample>{
                       {{}, pool != nullptr
                                ? static_cast<double>(pool->worker_count())
                                : 0.0}};
                 });
  hub_.add_gauge("exec.pool_busy_workers",
                 "Pool workers executing a task right now.", [this] {
                   ThreadPool* pool = scheduler_->pool();
                   return std::vector<GaugeSample>{
                       {{}, pool != nullptr
                                ? static_cast<double>(pool->active_workers())
                                : 0.0}};
                 });

  const JobScheduler::LatencyWindows& lat = scheduler_->latency();
  hub_.add_window("serve.queue_wait_us",
                  "Rolling accepted-to-started wait (microseconds).",
                  &lat.queue_wait_us);
  hub_.add_window("serve.e2e_us",
                  "Rolling accepted-to-done end-to-end latency "
                  "(microseconds, completed jobs).",
                  &lat.e2e_us);
  hub_.add_window("serve.phase_parse_us",
                  "Rolling parse-phase latency (microseconds).",
                  &lat.parse_us);
  hub_.add_window("serve.phase_route_us",
                  "Rolling route-phase latency (microseconds).",
                  &lat.route_us);
  hub_.add_window("serve.phase_channel_us",
                  "Rolling channel-phase latency (microseconds).",
                  &lat.channel_us);
  hub_.add_window("serve.phase_verify_us",
                  "Rolling verify-phase latency (microseconds).",
                  &lat.verify_us);
  hub_.add_window("serve.phase_report_us",
                  "Rolling report-phase latency (microseconds).",
                  &lat.report_us);
}

void Server::emit(const std::string& client, const JsonValue& event) {
  std::string line;
  std::lock_guard<std::mutex> out_lock(out_mutex_);
  {
    // Stamp under out_mutex_: the stream order, the sequence numbers and
    // the timestamps all agree (seq strictly increasing, ts_us
    // non-decreasing on the steady clock).
    JsonValue stamped = event;
    stamped.set("ts_us",
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - event_epoch_)
                    .count());
    stamped.set("seq", event_seq_++);
    line = response_line(stamped) + "\n";
  }
  if (client == kStdioClient) {
    if (stdio_out_ != nullptr) {
      (*stdio_out_) << line;
      stdio_out_->flush();
    }
    return;
  }
  int fd = -1;
  {
    std::lock_guard<std::mutex> conn_lock(conn_mutex_);
    auto it = client_fds_.find(client);
    if (it != client_fds_.end()) fd = it->second;
  }
  if (fd < 0) return;  // client disconnected; drop the event
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, data, left, 0);
    if (n <= 0) return;  // connection broke mid-write; drop the rest
    data += n;
    left -= static_cast<std::size_t>(n);
  }
}

bool Server::handle_line(const std::string& client, const std::string& line,
                         bool allow_shutdown) {
  const ParsedRequest parsed = parse_request_line(line);
  switch (parsed.kind) {
    case ParsedRequest::Kind::kError: {
      JsonValue event = make_event("rejected", parsed.job.id);
      event.set("reason", parsed.error);
      emit(client, event);
      return true;
    }
    case ParsedRequest::Kind::kControl: {
      switch (parsed.control.kind) {
        case ControlRequest::Kind::kPing:
          emit(client, make_event("pong"));
          return true;
        case ControlRequest::Kind::kCancel: {
          switch (scheduler_->cancel(client, parsed.control.target)) {
            case CancelOutcome::kCancelledQueued:
              // The scheduler already emitted the terminal "cancelled"
              // event for the dequeued job.
              break;
            case CancelOutcome::kCancellingRunning:
              emit(client,
                   make_event("cancelling", parsed.control.target));
              break;
            case CancelOutcome::kUnknown:
              emit(client,
                   make_event("unknown_job", parsed.control.target));
              break;
          }
          return true;
        }
        case ControlRequest::Kind::kShutdown: {
          if (allow_shutdown) return false;
          JsonValue event = make_event("rejected");
          event.set("reason",
                    "shutdown is honored from the stdio client only");
          emit(client, event);
          return true;
        }
      }
      return true;
    }
    case ParsedRequest::Kind::kJob: {
      const std::string id = parsed.job.id;
      // The scheduler emits "accepted" itself, under its own mutex,
      // before a runner can pop the job — so "started" never precedes it.
      const Admission admission = scheduler_->submit(client, parsed.job);
      if (!admission.accepted) {
        JsonValue event = make_event("rejected", id);
        event.set("reason", admission.reason);
        emit(client, event);
      }
      return true;
    }
  }
  return true;
}

int Server::run(std::istream& in, std::ostream& out) {
  Stopwatch watch;
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    stdio_out_ = &out;
  }
  if (!config_.trace_out.empty()) Trace::global().enable();
  if (config_.tcp_port >= 0 && !open_listener()) {
    JsonValue event = make_event("fatal");
    event.set("reason", "cannot bind loopback port " +
                            std::to_string(config_.tcp_port));
    emit(kStdioClient, event);
    return 1;
  }
  if (config_.admin_port >= 0) {
    admin_ = std::make_unique<AdminServer>(
        [this] { return hub_.render(MetricsRegistry::global()); },
        [this] { return !draining_.load(std::memory_order_relaxed); });
    if (!admin_->start(config_.admin_port)) {
      JsonValue event = make_event("fatal");
      event.set("reason", "cannot bind admin port " +
                              std::to_string(config_.admin_port));
      emit(kStdioClient, event);
      return 1;
    }
  }
  {
    JsonValue ready = make_event("ready");
    ready.set("pool_workers",
              static_cast<std::int64_t>(config_.scheduler.pool_workers));
    ready.set("max_jobs",
              static_cast<std::int64_t>(config_.scheduler.max_jobs));
    if (bound_port_ >= 0) {
      ready.set("port", static_cast<std::int64_t>(bound_port_));
    }
    if (admin_ != nullptr) {
      ready.set("admin_port", static_cast<std::int64_t>(admin_->port()));
    }
    emit(kStdioClient, ready);
  }

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!handle_line(kStdioClient, line, /*allow_shutdown=*/true)) break;
  }

  // Orderly shutdown: /readyz flips to draining first, then no new
  // clients, run out the queue, report. The admin endpoint stays up
  // through the drain so probes see the 503 instead of a dead port.
  draining_.store(true, std::memory_order_relaxed);
  close_tcp();
  scheduler_->drain_and_stop();
  if (!config_.trace_out.empty()) {
    Trace::global().save(config_.trace_out);
  }

  const JsonValue report = final_report(watch.seconds());
  if (!config_.metrics_out.empty()) {
    RunReport out_report("bgr_serve");
    out_report.root() = report;
    out_report.save(config_.metrics_out);
  }
  JsonValue bye = make_event("shutdown");
  bye.set("report", report);
  emit(kStdioClient, bye);
  return 0;
}

JsonValue Server::final_report(double wall_seconds) const {
  RunReport report("bgr_serve");
  const JobScheduler::Totals totals = scheduler_->totals();
  const DesignCache::Stats cache = cache_.stats();

  JsonValue& serve = report.section("serve");
  serve.set("pool_workers",
            static_cast<std::int64_t>(config_.scheduler.pool_workers));
  serve.set("max_jobs", static_cast<std::int64_t>(config_.scheduler.max_jobs));
  serve.set("queue_capacity",
            static_cast<std::int64_t>(config_.scheduler.queue_capacity));
  serve.set("tcp", bound_port_ >= 0);

  // Deterministic for a given request stream: every job either first-sees
  // its design (one dataset miss) or repeats it (exactly one hit, through
  // the result or the dataset level depending on timing — the *sum* is
  // schedule-independent even though the split is not).
  JsonValue& tot = report.section("totals");
  tot.set("jobs_accepted", totals.accepted);
  tot.set("jobs_rejected", totals.rejected);
  tot.set("jobs_completed", totals.completed);
  tot.set("jobs_failed", totals.failed);
  tot.set("jobs_cancelled", totals.cancelled);
  tot.set("cache_hits", cache.dataset_hits + cache.result_hits);
  tot.set("cache_misses", cache.dataset_misses);

  // Scheduling-dependent diagnostics live in "run" (stripped by the
  // semantic comparison in check_run_report.py).
  JsonValue& run = report.section("run");
  run.set("wall_seconds", wall_seconds);
  run.set("cache_result_hits", cache.result_hits);
  run.set("cache_result_misses", cache.result_misses);
  run.set("cache_dataset_hits", cache.dataset_hits);
  run.set("cache_evictions", cache.evictions);
  run.set("watchdog_flags", scheduler_->watchdog_flags());

  report.add_metrics(MetricsRegistry::global());
  return report.root();
}

bool Server::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    bound_port_ = static_cast<std::int32_t>(ntohs(bound.sin_port));
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  std::int64_t next_client = 0;
  while (!tcp_stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (tcp_stopping_.load(std::memory_order_relaxed)) break;
      continue;  // transient accept failure (EINTR, aborted handshake)
    }
    // Events are small writes; without this, the second of two back-to-
    // back events waits for the client's delayed ACK (Nagle).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string client = "tcp:" + std::to_string(next_client++);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      client_fds_[client] = fd;
    }
    conn->thread = std::thread(
        [this, fd, client] { connection_loop(fd, client); });
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.push_back(std::move(conn));
  }
}

void Server::connection_loop(int fd, std::string client) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) {
        handle_line(client, line, /*allow_shutdown=*/false);
      }
    }
    buffer.erase(0, start);
  }
  // Unroute events first so in-flight jobs drop instead of writing to a
  // dead fd; the job itself keeps running to completion.
  std::lock_guard<std::mutex> lock(conn_mutex_);
  client_fds_[client] = -1;
}

void Server::close_tcp() {
  if (listen_fd_ < 0 && connections_.empty()) return;
  tcp_stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(connections_);
    for (auto& [client, fd] : client_fds_) fd = -1;
  }
  for (auto& conn : conns) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

}  // namespace bgr::serve
