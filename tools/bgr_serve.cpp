// Routing-as-a-service daemon: accepts NDJSON route jobs on stdin (and an
// optional loopback TCP socket), runs them concurrently on one shared
// worker pool with warm per-design caches, and streams one NDJSON
// response per event back to the submitting client (DESIGN.md §12).
//
//   bgr_serve [options]
//     --threads N         total compute threads (0 = hardware); N jobs
//                         co-tenant on one pool of N-1 workers — each
//                         job's result is bit-identical to a solo run
//     --jobs K            jobs in flight at once (default 2)
//     --queue K           admission bound on queued jobs (default 64)
//     --port P            also listen on loopback TCP port P (0 picks an
//                         ephemeral port, reported in the ready event)
//     --admin-port P      loopback HTTP telemetry endpoint (GET /metrics,
//                         /healthz, /readyz); 0 picks an ephemeral port,
//                         reported in the ready event as "admin_port"
//     --metrics-out FILE  write the final "bgr_serve" run report (JSON)
//     --trace-out FILE    write a Chrome trace (one phase span per job
//                         phase, names carry the job's trace id)
//     --log-format {text,json}
//                         diagnostic log sink format (default text)
//
// Requests (one JSON object per line):
//   {"id":"j1","dataset":"C1P1","options":{"rc":true},"report":true}
//   {"id":"j2","design":"bgr-design 1\n...","verify":true}
//   {"cancel":"j1"}   {"ping":true}   {"shutdown":true}
//
// The daemon exits 0 on {"shutdown":true} or end of stdin, after running
// out everything already admitted.
#include <cstring>
#include <iostream>

#include "bgr/common/log.hpp"
#include "bgr/exec/exec_context.hpp"
#include "bgr/serve/server.hpp"
#include "cli_common.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bgr_serve [--threads N] [--jobs K] [--queue K] "
               "[--port P] [--admin-port P] [--metrics-out FILE] "
               "[--trace-out FILE] [--log-format text|json] [--help]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgr;
  using cli::parse_int_option;

  serve::ServerConfig config;
  std::int32_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--threads") == 0) {
      if (!parse_int_option("--threads", next_value(), 0, 1024, &threads)) {
        return cli::kExitUsage;
      }
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if (!parse_int_option("--jobs", next_value(), 1, 256,
                            &config.scheduler.max_jobs)) {
        return cli::kExitUsage;
      }
    } else if (std::strcmp(arg, "--queue") == 0) {
      if (!parse_int_option("--queue", next_value(), 1, 1 << 20,
                            &config.scheduler.queue_capacity)) {
        return cli::kExitUsage;
      }
    } else if (std::strcmp(arg, "--port") == 0) {
      if (!parse_int_option("--port", next_value(), 0, 65535,
                            &config.tcp_port)) {
        return cli::kExitUsage;
      }
    } else if (std::strcmp(arg, "--admin-port") == 0) {
      if (!parse_int_option("--admin-port", next_value(), 0, 65535,
                            &config.admin_port)) {
        return cli::kExitUsage;
      }
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      const char* value = next_value();
      if (value == nullptr) return cli::missing_value("--metrics-out");
      config.metrics_out = value;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      const char* value = next_value();
      if (value == nullptr) return cli::missing_value("--trace-out");
      config.trace_out = value;
    } else if (std::strcmp(arg, "--log-format") == 0) {
      std::size_t format = 0;
      if (!cli::parse_choice_option("--log-format", next_value(),
                                    {"text", "json"}, &format)) {
        return cli::kExitUsage;
      }
      set_log_format(format == 0 ? LogFormat::kText : LogFormat::kJson);
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return cli::kExitOk;
    } else {
      return cli::unknown_option(arg, usage);
    }
  }

  // The runner thread of each job participates in its parallel regions,
  // so a budget of N compute threads means N-1 pool workers; 1 thread
  // runs everything serially (no pool at all).
  if (threads == 0) threads = ExecContext::hardware_threads();
  config.scheduler.pool_workers = threads > 1 ? threads - 1 : 0;

  try {
    serve::Server server(std::move(config));
    return server.run(std::cin, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return cli::kExitFailure;
  }
}
