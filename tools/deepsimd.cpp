// deepsimd — the multi-tenant simulation daemon (docs/service.md).
//
// Speaks line-delimited JSON: one request per line in, one response per
// line out, responses in submission order.  Requests:
//
//   {"op": "run", "spec": { ...JobSpec fields... }}
//   {"op": "stats"}            -> service instrument snapshot (svc.*)
//   {"op": "quit"}             -> drain and exit
//
// By default the daemon serves stdin/stdout — the transport composes with
// anything that can pipe (CI, socat, an inetd-style supervisor).  With
// --socket PATH it listens on a Unix stream socket instead and serves one
// connection at a time with the same protocol.
//
//   deepsimd [options]
//     --workers N        in-process session workers        (default 2)
//     --workers-procs N  fork-per-job workers: each job simulates in its
//                        own forked child (hard isolation)
//     --queue N          pending-job capacity before load shedding
//                                                          (default 16)
//     --cache N          result-cache entries, 0 disables  (default 64)
//     --socket PATH      serve a Unix socket instead of stdin/stdout
//     --help
//
// Requests pipeline: every line is submitted as soon as it is read, jobs
// run concurrently on the worker pool, and a writer thread emits results
// in submission order — so a hot cache answers a burst at queue speed.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "cli_args.hpp"
#include "svc/service.hpp"

namespace dsv = deep::svc;
namespace dt = deep::tools;

namespace {

struct Options {
  dsv::ServiceConfig service;
  std::string socket_path;
};

void usage() {
  std::puts(
      "deepsimd — multi-tenant simulation service\n"
      "  --workers N   --workers-procs N   --queue N   --cache N\n"
      "  --socket PATH   --help\n"
      "protocol: one JSON request per line on stdin (or the socket):\n"
      "  {\"op\":\"run\",\"spec\":{...}}  {\"op\":\"stats\"}  {\"op\":\"quit\"}");
}

/// Fills `opt` from argv; false on --help, an unknown flag or a missing or
/// non-integer value.
bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return false;
    // Every other option takes a value.
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    bool ok = true;
    if (arg == "--workers" || arg == "--workers-procs") {
      ok = dt::parse_int(value, opt.service.workers);
      opt.service.fork_per_job = arg == "--workers-procs";
    } else if (arg == "--queue") {
      ok = dt::parse_int(value, opt.service.queue_capacity);
    } else if (arg == "--cache") {
      ok = dt::parse_int(value, opt.service.cache_entries);
    } else if (arg == "--socket") {
      ok = value != nullptr;
      if (ok) opt.socket_path = value;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "option '%s' needs %s\n", arg.c_str(),
                   value == nullptr ? "a value" : "an integer value");
      return false;
    }
  }
  return true;
}

/// One protocol conversation: reads requests from `in` until EOF or a quit
/// op, pipelines them through the service, writes responses to `out` in
/// submission order.  Returns false when a quit op asked the daemon to stop
/// for good.
bool serve_stream(dsv::Service& service, std::istream& in, std::ostream& out) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::string> ready;  // rendered responses, submission order
  bool done = false;

  // Writer: emits responses as they become ready, preserving order.
  std::thread writer([&] {
    for (;;) {
      std::string line;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !ready.empty() || done; });
        if (ready.empty()) return;
        line = std::move(ready.front());
        ready.pop_front();
      }
      out << line << '\n' << std::flush;
    }
  });

  // In-order delivery with pipelining: waiter threads would reorder, so a
  // single collector waits on ids FIFO.  Submission happens on this thread;
  // collection on another, so slow jobs never stall the read loop.
  std::deque<std::uint64_t> pending;
  std::mutex pending_mu;
  std::condition_variable pending_cv;
  bool reader_done = false;
  std::thread collector([&] {
    for (;;) {
      std::uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(pending_mu);
        pending_cv.wait(lock, [&] { return !pending.empty() || reader_done; });
        if (pending.empty()) return;
        id = pending.front();
        pending.pop_front();
      }
      const dsv::JobResult r = service.wait(id);
      {
        std::lock_guard<std::mutex> lock(mu);
        ready.push_back(r.to_json().dump());
      }
      cv.notify_one();
    }
  });

  // Non-job responses (stats, protocol errors, quit acks) flow through the
  // same writer; they answer promptly and may overtake responses of jobs
  // still simulating — run responses themselves always keep their
  // submission order.
  auto emit_now = [&](const deep::svc::Json& j) {
    std::lock_guard<std::mutex> lock(mu);
    ready.push_back(j.dump());
    cv.notify_one();
  };

  bool quit = false;
  std::string line;
  while (!quit && std::getline(in, line)) {
    if (line.empty()) continue;
    const dsv::ParseResult parsed = dsv::Json::parse(line);
    if (!parsed.ok) {
      dsv::Json err = dsv::Json::object();
      err.set("status", "rejected");
      dsv::Reject reject{"bad_json", "",
                         parsed.error + " at byte " +
                             std::to_string(parsed.offset)};
      err.set("reject", reject.to_json());
      emit_now(err);
      continue;
    }
    const dsv::Json* op = parsed.value.find("op");
    const std::string op_name =
        op != nullptr && op->is_string() ? op->as_string() : "";
    if (op_name == "run") {
      const dsv::Json* spec = parsed.value.find("spec");
      const std::uint64_t id =
          service.submit(spec != nullptr ? spec->dump() : "null");
      {
        std::lock_guard<std::mutex> lock(pending_mu);
        pending.push_back(id);
      }
      pending_cv.notify_one();
    } else if (op_name == "stats") {
      dsv::Json j = dsv::Json::object();
      j.set("status", "ok");
      j.set("stats", service.stats_json());
      emit_now(j);
    } else if (op_name == "quit") {
      dsv::Json j = dsv::Json::object();
      j.set("status", "ok");
      emit_now(j);
      quit = true;
    } else {
      dsv::Json err = dsv::Json::object();
      err.set("status", "rejected");
      dsv::Reject reject{"bad_op", "op",
                         "expected \"run\", \"stats\" or \"quit\""};
      err.set("reject", reject.to_json());
      emit_now(err);
    }
  }

  {
    std::lock_guard<std::mutex> lock(pending_mu);
    reader_done = true;
  }
  pending_cv.notify_all();
  collector.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  writer.join();
  return !quit;
}

int serve_socket(dsv::Service& service, const std::string& path) {
  const int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    close(listener);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  unlink(path.c_str());
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listener, 8) != 0) {
    std::perror("bind/listen");
    close(listener);
    return 1;
  }
  std::fprintf(stderr, "deepsimd: serving %s\n", path.c_str());
  for (;;) {
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    // One conversation at a time; concurrency lives in the worker pool.
    // A buffered bidirectional stream over the fd keeps the protocol code
    // identical to the stdin/stdout path.
    std::string input;
    char buf[4096];
    for (;;) {
      const ssize_t n = read(fd, buf, sizeof buf);
      if (n <= 0) break;
      input.append(buf, static_cast<std::size_t>(n));
      // A half-duplex turn ends when the client shuts down its write side;
      // simple clients send everything then shutdown(SHUT_WR).
    }
    std::istringstream in(input);
    std::ostringstream out;
    const bool keep_going = serve_stream(service, in, out);
    const std::string& reply = out.str();
    std::size_t off = 0;
    while (off < reply.size()) {
      const ssize_t n = write(fd, reply.data() + off, reply.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fd);
    if (!keep_going) break;
  }
  close(listener);
  unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  dsv::Service service(opt.service);
  if (!opt.socket_path.empty())
    return serve_socket(service, opt.socket_path);
  serve_stream(service, std::cin, std::cout);
  return 0;
}
