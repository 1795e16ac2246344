// deepsim — command-line front end for the simulated DEEP machine.
//
// Parses its flags (`deepsim --help` lists them) into a svc::JobSpec,
// validates it the way the service does, and runs it through
// svc::run_session — the workload drivers deepsimd serves.  Prints a
// one-line result, optionally the system report, a Chrome/Perfetto trace
// and a metrics snapshot or time series.
//
// Exit codes: 0 when the run completed and the workload verified; 2 on an
// unknown flag, a missing or non-integer value, or a spec the service would
// reject (printed as `code field: message`); 1 when the session failed
// (simulation error, failed verification, unwritable output file).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "cli_args.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "svc/session.hpp"
#include "sys/system.hpp"
#include "util/csv.hpp"

namespace ds = deep::sim;
namespace dsv = deep::svc;
namespace dsy = deep::sys;
namespace dt = deep::tools;

namespace {

/// What the CLI does with a run besides simulating it.
struct Outputs {
  bool auto_workers = false;
  bool auto_partitions = false;
  bool wallclock_metrics = false;
  bool report = false;
  std::string trace_file;
  std::string metrics_file;
  long metrics_interval_us = 0;  // 0 = final snapshot only
};

void usage() {
  std::puts(
      "deepsim — simulated DEEP cluster-booster machine\n"
      "  --cluster N          cluster nodes                      (4)\n"
      "  --booster N          booster nodes                      (8)\n"
      "  --gateways N         Booster Interface nodes            (2)\n"
      "  --topology NAME      deep|fattree|dragonfly booster fabric (deep)\n"
      "  --adaptive           congestion-aware fattree/dragonfly routing\n"
      "  --workload NAME      stencil|cholesky|nbody|spmv        (stencil)\n"
      "  --procs N            HSCP width (booster ranks)         (4)\n"
      "  --steps N            coupling steps / iterations        (3)\n"
      "  --workers N|auto     engine worker threads; auto: one per host\n"
      "                       core, clamped to the partitions    (1)\n"
      "  --partitions N|auto  engine partitions: the booster torus splits\n"
      "                       into N-1 blocks, the cluster stays on\n"
      "                       partition 0; auto: from the host cores (1)\n"
      "  --wallclock-metrics  per-worker barrier-wait histograms (wall\n"
      "                       clock, hence non-deterministic)\n"
      "  --trace FILE         write a Chrome/Perfetto trace\n"
      "  --report             print the full system report\n"
      "  --metrics-out FILE   write a metrics snapshot (.json or .csv)\n"
      "  --metrics-interval US  sample metrics every US microseconds of\n"
      "                       simulated time (a .csv output becomes a\n"
      "                       wide time series)\n"
      "  --help\n"
      "exit 0 on a verified run, 2 on a bad flag or a rejected spec, 1 on a\n"
      "failed run");
}

/// Fills `spec` and `out` from argv; false on --help, an unknown flag or a
/// missing or malformed value.
bool parse(int argc, char** argv, dsv::JobSpec& spec, Outputs& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    // Flags that take a value consume it; a missing one fails the parse.
    auto text = [&](std::string& dst) {
      if (value != nullptr) dst = argv[++i];
      return value != nullptr;
    };
    auto number = [&](auto& dst) {
      const bool ok = dt::parse_int(value, dst);
      if (ok) ++i;
      return ok;
    };
    auto count_or_auto = [&](int& dst, bool& is_auto) {
      is_auto = value != nullptr && std::string(value) == "auto";
      if (is_auto) ++i;
      return is_auto || number(dst);
    };
    bool ok = true;
    if (arg == "--report") {
      out.report = true;
    } else if (arg == "--adaptive") {
      spec.adaptive = true;
    } else if (arg == "--wallclock-metrics") {
      out.wallclock_metrics = true;
    } else if (arg == "--cluster") {
      ok = number(spec.cluster);
    } else if (arg == "--booster") {
      ok = number(spec.booster);
    } else if (arg == "--gateways") {
      ok = number(spec.gateways);
    } else if (arg == "--procs") {
      ok = number(spec.procs);
    } else if (arg == "--steps") {
      ok = number(spec.steps);
    } else if (arg == "--topology") {
      ok = text(spec.topology);
    } else if (arg == "--workload") {
      ok = text(spec.workload);
    } else if (arg == "--workers") {
      ok = count_or_auto(spec.workers, out.auto_workers);
    } else if (arg == "--partitions") {
      ok = count_or_auto(spec.partitions, out.auto_partitions);
    } else if (arg == "--trace") {
      ok = text(out.trace_file);
    } else if (arg == "--metrics-out") {
      ok = text(out.metrics_file);
    } else if (arg == "--metrics-interval") {
      ok = number(out.metrics_interval_us);
    } else if (arg == "--help") {
      return false;
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

/// Resolves `auto` worker and partition counts against the host.
void resolve_auto(dsv::JobSpec& spec, const Outputs& out) {
  const int host = static_cast<int>(std::thread::hardware_concurrency());
  if (out.auto_partitions) {
    // One partition per available core (the booster blocks parallelise;
    // partition 0 carries the cluster side), capped so tiny machines do not
    // get sliced thinner than their booster.
    spec.partitions = std::max(1, std::min({host, 1 + spec.booster, 8}));
    std::printf("auto partitions: %d (host cpus %d)\n", spec.partitions, host);
  }
  if (out.auto_workers) {
    // One worker per host core, clamped to the partition count — extra
    // workers would only park at the window barriers.
    spec.workers = dsy::auto_workers(host, spec.partitions);
    std::printf("auto workers: %d (host cpus %d, %d partitions)\n",
                spec.workers, host, spec.partitions);
  }
}

}  // namespace

int main(int argc, char** argv) {
  dsv::JobSpec spec;
  Outputs out;
  if (!parse(argc, argv, spec, out)) {
    usage();
    return 2;
  }
  resolve_auto(spec, out);
  spec.metrics = !out.metrics_file.empty() || out.metrics_interval_us > 0;
  dsv::Reject reject;
  if (!spec.validate(reject)) {
    std::fprintf(stderr, "%s %s: %s\n", reject.code.c_str(),
                 reject.field.c_str(), reject.message.c_str());
    return 2;
  }

  // The drive captures what the session's result does not carry while the
  // system is alive.  Periodic sampling cannot self-reschedule engine events
  // (run() would never drain the queue), so it steps the engine one interval
  // at a time and snapshots the registry between steps.
  const bool csv = out.metrics_file.ends_with(".csv");
  ds::Tracer tracer;
  std::string metrics_csv;
  std::size_t instruments = 0;
  const auto drive = [&](dsy::DeepSystem& system) {
    ds::Engine& engine = system.engine();
    if (out.wallclock_metrics) engine.set_wallclock_metrics(true);
    if (!out.trace_file.empty()) engine.set_tracer(&tracer);
    deep::obs::Registry* metrics = system.metrics();
    if (out.metrics_interval_us > 0 && metrics != nullptr) {
      // One row per interval, stamped with its boundary: the last one may
      // lie past the final event, where the engine clock stops.
      deep::util::Table samples(metrics->sample_columns());
      const ds::Duration step =
          ds::from_micros(static_cast<double>(out.metrics_interval_us));
      for (ds::TimePoint t = engine.now() + step;; t = t + step) {
        const bool more = engine.run_until(t);
        metrics->append_sample(samples, t);
        if (!more) break;
      }
      metrics_csv = samples.to_csv();
    } else {
      system.run();
      if (metrics != nullptr && csv)
        metrics_csv = metrics->to_csv_table().to_csv();
    }
    if (metrics != nullptr) instruments = metrics->size();
  };

  const dsv::SessionResult r = dsv::run_session(spec, drive);
  if (!r.error.empty()) {
    std::fprintf(stderr, "simulation failed: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("%s: %d steps, checksum %.6g\n", spec.workload.c_str(),
              spec.steps, r.checksum);
  std::printf("simulated %s, %llu events\n",
              ds::TimePoint{r.final_ps}.str().c_str(),
              static_cast<unsigned long long>(r.events));
  if (out.report) std::printf("\n%s", r.report.c_str());
  if (!out.trace_file.empty()) {
    tracer.write_chrome_json(out.trace_file);
    std::printf("trace written to %s (%zu events)\n", out.trace_file.c_str(),
                tracer.num_events());
  }
  if (!out.metrics_file.empty()) {
    std::ofstream file(out.metrics_file);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.metrics_file.c_str());
      return 1;
    }
    file << (csv ? metrics_csv : r.metrics_json + '\n');
    std::printf("metrics written to %s (%zu instruments)\n",
                out.metrics_file.c_str(), instruments);
  }
  std::printf("%s\n", r.ok ? "OK" : "FAILED");
  return r.ok ? 0 : 1;
}
