/// \file viracocha_server.cpp
/// Standalone Viracocha post-processing server.
///
/// Runs the scheduler + worker backend and serves visualization clients on
/// a TCP port — the HPC-side half of the paper's Figure 2 as its own
/// process.
///
///   viracocha-server [--port N] [--workers N] [--cache-mb N]
///                    [--policy lru|lfu|fbr] [--l2-dir PATH]
///                    [--net-threads N] [--no-compression]
///                    [--dms-messages] [--shards N] [--repl N]
///                    [--trace-out FILE] [--metrics-out FILE]
///
/// Clients are served by the epoll frontend (net::EventLoop) on
/// --net-threads event-loop threads. Clients that ask for LZ wire
/// compression in their hello get it unless --no-compression is given;
/// clients ask for none by default.
///
/// The server runs until stdin reaches EOF (or the process is signalled),
/// so `viracocha-server < /dev/null` starts and stops immediately while
/// `viracocha-server` under a terminal serves until Ctrl-D.
///
/// Observability: with --trace-out / --metrics-out, the server dumps the
/// Chrome trace and the metrics text on shutdown, and SIGUSR1 triggers a
/// live dump at any time without stopping service.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "algo/cfd_command.hpp"
#include "core/backend.hpp"
#include "obs/tracer.hpp"
#include "util/log.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: viracocha-server [--port N] [--workers N] [--cache-mb N]\n"
               "                        [--policy lru|lfu|fbr] [--l2-dir PATH]\n"
               "                        [--net-threads N] [--no-compression]\n"
               "                        [--dms-messages] [--verbose] [--shards N] [--repl N]\n"
               "                        [--trace-out FILE] [--metrics-out FILE]\n"
               "  --net-threads N    event-loop threads of the TCP frontend (default 1)\n"
               "  --no-compression   never grant LZ wire compression, even to clients\n"
               "                     that ask for it (clients ask for none by default)\n");
}

volatile std::sig_atomic_t g_dump_requested = 0;
volatile std::sig_atomic_t g_exit_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }
void on_terminate(int) { g_exit_requested = 1; }

std::string g_trace_out;
std::string g_metrics_out;

void dump_observability() {
  if (!g_trace_out.empty()) {
    if (vira::obs::write_chrome_trace_file(g_trace_out)) {
      std::printf("viracocha-server: trace (%zu spans) -> %s\n",
                  vira::obs::Tracer::instance().size(), g_trace_out.c_str());
    }
  }
  if (!g_metrics_out.empty()) {
    if (vira::obs::write_metrics_file(g_metrics_out)) {
      std::printf("viracocha-server: metrics -> %s\n", g_metrics_out.c_str());
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vira;

  core::BackendConfig config;
  std::uint16_t port = 5999;

  for (int arg = 1; arg < argc; ++arg) {
    const std::string flag = argv[arg];
    auto next = [&]() -> const char* {
      if (arg + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++arg];
    };
    if (flag == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (flag == "--workers") {
      config.workers = std::atoi(next());
    } else if (flag == "--cache-mb") {
      config.l1_cache_bytes = static_cast<std::uint64_t>(std::atoll(next())) << 20;
    } else if (flag == "--policy") {
      config.cache_policy = next();
    } else if (flag == "--l2-dir") {
      config.l2_directory = next();
    } else if (flag == "--net-threads") {
      config.net.threads = std::atoi(next());
    } else if (flag == "--no-compression") {
      config.net.allow_compression = false;
    } else if (flag == "--dms-messages") {
      config.dms_over_messages = true;
    } else if (flag == "--shards") {
      config.dms_shards = std::atoi(next());
    } else if (flag == "--repl") {
      config.dms_replication = std::atoi(next());
    } else if (flag == "--trace-out") {
      g_trace_out = next();
    } else if (flag == "--metrics-out") {
      g_metrics_out = next();
    } else if (flag == "--verbose") {
      util::Logger::instance().set_level(util::LogLevel::kDebug);
    } else if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      usage();
      return 2;
    }
  }

  if (!g_trace_out.empty()) {
    obs::Tracer::instance().enable();
  }
  // No SA_RESTART: a signal must interrupt the blocking fgets below so
  // SIGUSR1 dumps promptly and SIGINT/SIGTERM shuts down with a dump.
  struct sigaction dump_action {};
  dump_action.sa_handler = on_sigusr1;
  sigaction(SIGUSR1, &dump_action, nullptr);
  struct sigaction exit_action {};
  exit_action.sa_handler = on_terminate;
  sigaction(SIGINT, &exit_action, nullptr);
  sigaction(SIGTERM, &exit_action, nullptr);

  algo::register_builtin_commands();
  core::Backend backend(config);
  std::uint16_t bound = 0;
  try {
    bound = backend.serve_tcp(port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "viracocha-server: cannot listen on port %u: %s\n", port, e.what());
    return 1;
  }
  std::printf("viracocha-server: %d workers, %s caches, listening on 127.0.0.1:%u\n",
              config.workers, config.cache_policy.c_str(), bound);
  std::printf("(serving until stdin closes)\n");
  std::fflush(stdout);

  // Serve until EOF on stdin, SIGINT or SIGTERM. A SIGUSR1 interrupts the
  // read, dumps the trace/metrics and resumes service.
  char buffer[256];
  while (!g_exit_requested) {
    if (std::fgets(buffer, sizeof(buffer), stdin) != nullptr) {
      if (std::strncmp(buffer, "quit", 4) == 0) {
        break;
      }
      continue;
    }
    if (g_dump_requested) {
      g_dump_requested = 0;
      dump_observability();
      std::clearerr(stdin);  // EINTR marks stdin EOF-ish; keep serving
      continue;
    }
    break;  // genuine EOF (or termination signal)
  }
  std::printf("viracocha-server: shutting down\n");
  backend.shutdown();
  dump_observability();
  return 0;
}
