#pragma once
// Per-layer probes: host-time micro-measurements taken from the benchmark's
// own code around calls into each layer's public functions, plus the
// allocation counts of the torus and MPI eager hot paths.  Each timed probe
// repeats its measurement and reports the median.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "svc/jobspec.hpp"

namespace perfbench {

struct ProbeInputs {
  /// Specs whose DeepSystem supplies the shape of each probed fabric.
  deep::svc::JobSpec torus_spec, fattree_spec, dragonfly_spec;
  /// Message size the fabric and CBP probes send: the dominant size of the
  /// workload's mpi.msg_bytes histogram.
  std::int64_t msg_bytes = 1024;
  /// The workload's spec texts, for svc.parse_ns and sys.build_ms.
  std::vector<std::string> spec_texts;
};

/// Runs every probe; appends the per-layer metrics they produce, each
/// inside a "probe.<metric>" span when `spans` is set.
void run_probes(const ProbeInputs& in, Spans* spans, std::vector<Metric>& out);

}  // namespace perfbench
