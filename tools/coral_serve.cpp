// coral_serve: the CORAL query server (docs/SERVER.md).
//
//   coral_serve [--port=N] [--host=ADDR] [--max-inflight=N]
//               [--max-queue=N] [--deadline-ms=N]
//               [--consult=FILE.crl ...]
//
// Boots a Database, consults each --consult file into it, then serves
// the JSONL/HTTP wire protocol until SIGINT/SIGTERM. The bound port is
// printed on stdout as "listening on PORT" (useful with --port=0 for
// tests). Admission knobs:
//
//   --max-inflight  worker threads (concurrent queries), default 4
//   --max-queue     waiting requests before shedding, default 64
//   --deadline-ms   default per-query deadline for new sessions
//
// Exits nonzero when a consult file fails or the port cannot be bound.

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <coral/coral.h>
#include <coral/server.h>

namespace {
coral::server::Server* g_server = nullptr;
void HandleSignal(int) {
  if (g_server != nullptr) g_server->Stop();
}
}  // namespace

int main(int argc, char** argv) {
  coral::server::ServerOptions opts;
  std::vector<std::string> consults;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      opts.port = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--host=", 0) == 0) {
      opts.host = arg.substr(7);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      opts.max_inflight = static_cast<size_t>(std::atoi(arg.c_str() + 15));
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      opts.max_queue = static_cast<size_t>(std::atoi(arg.c_str() + 12));
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      opts.default_deadline_ms = std::atoll(arg.c_str() + 14);
    } else if (arg.rfind("--consult=", 0) == 0) {
      consults.push_back(arg.substr(10));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: coral_serve [--port=N] [--host=ADDR]"
                   " [--max-inflight=N] [--max-queue=N] [--deadline-ms=N]"
                   " [--consult=FILE.crl ...]\n";
      return 0;
    } else {
      std::cerr << "coral_serve: unknown flag " << arg << "\n";
      return 2;
    }
  }

  coral::Database db;
  for (const std::string& file : consults) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "coral_serve: cannot open " << file << "\n";
      return 2;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto result = db.Consult(text);
    if (!result.ok()) {
      std::cerr << "coral_serve: " << file << ": "
                << result.status().ToString() << "\n";
      return 2;
    }
  }

  coral::server::Server server(&db, opts);
  coral::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "coral_serve: " << started.ToString() << "\n";
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::cout << "listening on " << server.port() << std::endl;
  server.Wait();
  std::cout << "shutdown: " << server.metrics()->ToJson() << std::endl;
  return 0;
}
