#pragma once
// The benchmark's three workloads, each with an untraced measuring run
// (end-to-end metrics) and a traced pass (per-layer metrics).  Workloads
// reach the simulator only through svc::JobSpec, svc::run_session and
// svc::Service.
//
//   offload-cholesky  paper-scale offloaded OmpSs cholesky, serial engine:
//                     the simulator (engine, MPI, torus) does the work.
//   halo-stencil      paper-scale Jacobi HSCP on the 5-partition windowed
//                     engine (one worker): app numerics dominate.
//   service-mix       one svc::Service, 2 workers, 2 closed-loop clients
//                     replaying a seeded Zipf(0.9) stream of small specs.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;  // recorded session outcomes (expected.json)
  std::string spans_path;     // where the traced pass writes its spans
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines before the result
  bool correct() const { return attempted > 0 && failed == 0; }
};

bool known_workload(const std::string& name);

/// Runs one workload.  Throws std::runtime_error when the benchmark itself
/// cannot run (missing expected outcomes, unwritable span file).
RunResult run_workload(const RunOptions& opts);

}  // namespace perfbench
