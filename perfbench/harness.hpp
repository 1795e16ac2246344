#pragma once
// Shared pieces of the repository benchmark: clocks, the percentile
// routine, the seeded service-mix spec stream, registry-snapshot reading,
// the simulated-outcome check, in-memory spans and the result line.
//
// Everything here is the benchmark's own logic; the simulator is reached
// only through svc::JobSpec, svc::run_session, svc::Service and the public
// functions the per-layer probes call.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "svc/session.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and allocation counting
// ---------------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// operator new calls made so far by the calling thread (alloc_count.cpp
/// replaces the global allocation functions in every benchmark binary).
std::size_t thread_allocs();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v);

/// Nearest-rank percentile of `v`.  `beyond` is how many samples lie past
/// the reported rank: a percentile is only trustworthy when it has at
/// least ten samples beyond it.
struct Percentile {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Percentile percentile(std::vector<double> v, double pct);

/// The highest percentile, at most p99 and at least the median, that keeps
/// ten samples beyond it (the median when there are too few samples).
Percentile tail_percentile(std::vector<double> v);

/// splitmix64: the benchmark's only random source, so a seed names the
/// same inputs on every host and standard library.
std::uint64_t mix64(std::uint64_t x);

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

/// The two paper-scale session workloads, as JobSpec text.
std::string session_spec_text(const std::string& workload);

/// The service-mix spec universe: 4 workloads x {deep, fattree, dragonfly}
/// x booster {8, 16, 32} x {plain, adaptive routing, gateway kill/heal}.
const std::vector<std::string>& mix_specs();

/// The job stream a seed names: job `i` is a seeded Zipf(0.9) draw over
/// a fixed assignment of mix_specs() to popularity ranks.  Random access,
/// so the stream is identical however many clients consume it.
class MixStream {
 public:
  explicit MixStream(std::uint64_t seed) : seed_(seed) {}
  /// Index into mix_specs() of the `i`-th job.
  std::size_t at(std::uint64_t i) const;

 private:
  std::uint64_t seed_;
};

/// Stencil cell updates one session of `spec` performs (0 for the other
/// workloads): procs x 64 rows x 256 columns x 10 sweeps x steps, the
/// fixed stencil shape of svc::run_session.
double stencil_cells(const deep::svc::JobSpec& spec);

// ---------------------------------------------------------------------------
// Registry snapshots
// ---------------------------------------------------------------------------

struct Hist {
  std::int64_t count = 0;
  std::int64_t max = 0;
  std::map<int, std::int64_t> buckets;  // log2 bucket -> samples
  void merge(const Hist& o);
  /// Nearest-rank percentile over the log2 buckets (bucket upper bound,
  /// capped at max), the same rule obs::HistogramCell uses.
  std::int64_t percentile(int pct) const;
  /// Upper bound of the most populated bucket, capped at max.
  std::int64_t dominant() const;
};

struct Snapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, Hist> hists;
  std::int64_t counter(const std::string& name) const;
  Hist hist(const std::string& name) const;
  void merge(const Snapshot& o);
};

/// Parses obs::Registry::to_json() / Service::stats_json() text.
Snapshot parse_snapshot(const std::string& json);

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// The simulated outcome a session workload must reproduce exactly.
struct Outcome {
  std::uint64_t events = 0;
  std::int64_t final_ps = 0;
  double checksum = 0.0;
};

/// Reads the recorded outcome of `workload` from the expected-outcome file.
std::optional<Outcome> load_expected(const std::string& path,
                                     const std::string& workload);

/// True when `got` completed ok and matches `want` bit for bit; otherwise
/// `why` says what differed.
bool outcome_matches(const Outcome& want, const deep::svc::SessionResult& got,
                     std::string& why);

std::uint64_t fingerprint_hash(const deep::svc::SessionResult& r);

// ---------------------------------------------------------------------------
// Spans and the result line
// ---------------------------------------------------------------------------

/// In-memory span log, written out once when the traced pass ends.
class Spans {
 public:
  /// Opens a span; `trace` groups the spans of one job.
  std::size_t begin(const std::string& name, std::size_t parent = 0,
                    std::uint64_t trace = 0);
  void end(std::size_t id);
  bool write(const std::string& path) const;
  /// Self time (duration minus covered child time) summed per span name.
  std::map<std::string, double> self_ms() const;

 private:
  struct Span {
    std::string name;
    std::size_t parent = 0;  // 0 = root
    std::uint64_t trace = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_{Span{}};  // id 0 is the implicit root
};

/// Scoped span for single-threaded phases.
class SpanScope {
 public:
  SpanScope(Spans* spans, const std::string& name, std::size_t parent = 0)
      : spans_(spans), id_(spans ? spans->begin(name, parent) : 0) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::size_t id() const { return id_; }

 private:
  Spans* spans_;
  std::size_t id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& m);

}  // namespace perfbench
