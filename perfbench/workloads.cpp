#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "probes.hpp"
#include "svc/service.hpp"
#include "sys/system.hpp"

namespace perfbench {

namespace {

namespace dsv = deep::svc;

constexpr int kSetupReps = 10;
constexpr int kMinSessions = 3;

dsv::JobSpec parse_or_throw(const std::string& text) {
  dsv::Reject reject;
  std::optional<dsv::JobSpec> spec = dsv::JobSpec::from_text(text, reject);
  if (!spec) throw std::runtime_error("bad benchmark spec: " + reject.message);
  return *spec;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Timed session plus its outcome check; a mismatch counts as a failure.
struct Checked {
  double wall_s = 0.0;
  dsv::SessionResult result;
};

Checked checked_session(const dsv::JobSpec& spec, const Outcome& want,
                        RunResult& out, Spans* spans = nullptr,
                        const char* span_name = nullptr) {
  Checked c;
  const std::int64_t t0 = now_ns();
  {
    SpanScope span(span_name ? spans : nullptr, span_name ? span_name : "");
    c.result = dsv::run_session(spec);
  }
  c.wall_s = seconds_since(t0);
  ++out.attempted;
  std::string why;
  if (!outcome_matches(want, c.result, why)) {
    ++out.failed;
    out.notes.push_back("output check failed: " + why);
  }
  return c;
}

/// The layer counts every workload reports, from a registry snapshot.
void add_counts(const Snapshot& s, std::vector<Metric>& m) {
  const auto count = [&](const std::string& name, const char* unit = "count") {
    m.push_back({name, static_cast<double>(s.counter(name)), unit});
  };
  count("sim.events");
  count("sim.fiber_switches");
  count("sim.windows");
  count("sim.cross_events");
  count("net.extoll.messages");
  count("net.extoll.bytes", "B");
  count("net.extoll.hops");
  count("net.extoll.link_busy_ps", "sim_ps");
  count("net.infiniband.messages");
  count("cbp.forwarded");
  count("cbp.forwarded_bytes", "B");
  count("cbp.retries");
  count("cbp.failovers");
  count("mpi.eager_sends");
  count("mpi.rendezvous_sends");
  const Hist wait = s.hist("mpi.wait_ns");
  m.push_back({"mpi.sim_wait_p50", static_cast<double>(wait.percentile(50)),
               "sim_ns"});
  m.push_back({"mpi.sim_wait_p99", static_cast<double>(wait.percentile(99)),
               "sim_ns"});
  count("ompss.tasks");
  count("ompss.offloads");
}

double metric_value(const std::vector<Metric>& m, const std::string& name) {
  for (const Metric& x : m)
    if (x.name == name) return x.value;
  return 0.0;
}

/// Each probe is one attempted operation; a value below zero marks a probe
/// whose own check failed.
void count_probes(RunResult& out, std::size_t first) {
  for (std::size_t i = first; i < out.metrics.size(); ++i) {
    const Metric& x = out.metrics[i];
    ++out.attempted;
    if (x.value < 0.0) {
      ++out.failed;
      out.notes.push_back("probe failed its check: " + x.name);
    }
  }
}

void write_spans(const Spans& spans, const std::string& path, RunResult& out) {
  if (!path.empty() && !spans.write(path))
    throw std::runtime_error("cannot write spans to " + path);
  for (const auto& [name, ms] : spans.self_ms())
    out.notes.push_back(fmt("span self time %8.1f ms  ", ms) + name);
}

// ---------------------------------------------------------------------------
// Session workloads: offload-cholesky, halo-stencil
// ---------------------------------------------------------------------------

RunResult run_session_workload(const RunOptions& opts) {
  const std::string text = session_spec_text(opts.workload);
  const std::optional<Outcome> want =
      load_expected(opts.expected_path, opts.workload);
  if (!want)
    throw std::runtime_error("no recorded outcome for " + opts.workload +
                             " in " + opts.expected_path);
  RunResult out;

  const dsv::JobSpec spec = parse_or_throw(text);

  if (!opts.trace) {
    // Set-up: parse + validate, to_config, DeepSystem construction.  The
    // repetitions are spread over the run, between sessions, so the median
    // samples the same host conditions the sessions see.
    std::vector<double> setup;
    const auto measure_setup = [&](int reps) {
      for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = now_ns();
        const dsv::JobSpec parsed = parse_or_throw(text);
        auto system =
            std::make_unique<deep::sys::DeepSystem>(parsed.to_config());
        setup.push_back(seconds_since(t0));
      }
    };
    // One untimed session first: pools and route memos reach their steady
    // size, which every later session of a long-lived process sees.
    (void)checked_session(spec, *want, out);
    std::vector<double> walls;
    const std::int64_t start = now_ns();
    while (static_cast<int>(walls.size()) < kMinSessions ||
           seconds_since(start) < opts.seconds) {
      walls.push_back(checked_session(spec, *want, out).wall_s);
      measure_setup(kSetupReps);
    }
    // One job = one session, run back to back: throughput is 1 / wall_s.
    const double wall = median(walls);
    const Percentile tail = tail_percentile(walls);
    out.metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", wall, "s"},
        {"events_per_s", static_cast<double>(want->events) / wall, "1/s"},
        {"jobs_per_s", 1.0 / wall, "1/s"},
        {"latency_tail_ms", tail.value * 1e3, "ms"},
        {"miss_latency_p50_ms", wall * 1e3, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    out.notes.push_back(fmt("sessions %.0f; latency_tail is p%.1f with %.0f "
                            "samples beyond",
                            static_cast<double>(walls.size()), tail.pct,
                            static_cast<double>(tail.beyond)));
    return out;
  }

  // Traced pass.  The first session is the source of the layer counts.
  Spans spans;
  const std::size_t pass = spans.begin("pass." + opts.workload);
  for (int r = 0; r < 3; ++r) {
    std::unique_ptr<deep::sys::DeepSystem> system;
    {
      SpanScope s(&spans, "svc.parse", pass);
      (void)parse_or_throw(text);
    }
    SpanScope s(&spans, "sys.build", pass);
    system = std::make_unique<deep::sys::DeepSystem>(spec.to_config());
  }
  const Checked first = checked_session(spec, *want, out);
  const Snapshot snap = parse_snapshot(first.result.metrics_json);

  // Sessions alternate untraced (u), traced (t), metrics-off and, for a
  // partitioned engine, 2-worker runs in a mirrored order so warm-up drift
  // cancels out of the ratios.
  dsv::JobSpec metrics_off = spec;
  metrics_off.metrics = false;
  dsv::JobSpec two_workers = spec;
  two_workers.workers = 2;
  const bool partitioned = spec.partitions > 1;
  std::vector<double> u, t, off, w2;
  const auto run_u = [&] { u.push_back(checked_session(spec, *want, out).wall_s); };
  const auto run_off = [&] {
    off.push_back(checked_session(metrics_off, *want, out).wall_s);
  };
  const auto run_t = [&] {
    t.push_back(
        checked_session(spec, *want, out, &spans, "svc.run_session").wall_s);
  };
  const auto run_w2 = [&] {
    if (partitioned)
      w2.push_back(checked_session(two_workers, *want, out).wall_s);
  };
  run_u(), run_off(), run_t(), run_w2();
  run_w2(), run_t(), run_off(), run_u();

  std::vector<Metric>& m = out.metrics;
  add_counts(snap, m);
  ProbeInputs in;
  in.torus_spec = spec;
  in.fattree_spec = spec;
  in.fattree_spec.topology = "fattree";
  in.dragonfly_spec = spec;
  in.dragonfly_spec.topology = "dragonfly";
  in.msg_bytes = std::max<std::int64_t>(1, snap.hist("mpi.msg_bytes").dominant());
  in.spec_texts = {text};
  const std::size_t first_probe = m.size();
  run_probes(in, &spans, m);
  count_probes(out, first_probe);
  spans.end(pass);

  const double wall_u = mean(u);
  m.push_back({"sim.parallel_efficiency",
               partitioned ? wall_u / (2.0 * mean(w2)) : 1.0, "ratio"});
  m.push_back({"apps.numerics_share",
               metric_value(m, "apps.jacobi_ns_per_cell") *
                   stencil_cells(spec) / (wall_u * 1e9),
               "ratio"});
  m.push_back({"obs.metrics_overhead", wall_u / mean(off) - 1.0, "ratio"});
  m.push_back({"svc.cache_hit_ratio", 0.0, "ratio"});
  m.push_back({"svc.cache_evictions", 0.0, "count"});
  m.push_back({"svc.queue_rejects", 0.0, "count"});
  m.push_back({"trace.overhead", mean(t) / wall_u - 1.0, "ratio"});
  out.notes.push_back(fmt("dominant message %.0f B; untraced wall %.4f s, "
                          "traced %.4f s",
                          static_cast<double>(in.msg_bytes), wall_u, mean(t)));
  write_spans(spans, opts.spans_path, out);
  return out;
}

// ---------------------------------------------------------------------------
// service-mix
// ---------------------------------------------------------------------------

struct Job {
  std::size_t spec = 0;
  double latency_ms = 0.0;
  bool hit = false;
  bool ok = false;  // status "ok" and the session verified
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
};

struct Loop {
  std::vector<Job> jobs;
  double seconds = 0.0;
};

/// `clients` closed-loop clients, each submitting the stream's next job and
/// waiting for it, until `seconds` have passed or `max_jobs` were taken.
Loop client_loop(dsv::Service& service, const MixStream& stream, int clients,
                 double seconds, std::uint64_t max_jobs, Spans* spans) {
  std::atomic<std::uint64_t> next{0};
  std::mutex mu;
  Loop loop;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<Job> mine;
      for (;;) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= max_jobs || now_ns() >= deadline) break;
        Job job;
        job.spec = stream.at(i);
        const std::string& text = mix_specs()[job.spec];
        const std::int64_t t0 = now_ns();
        std::size_t span = 0;
        if (spans != nullptr) span = spans->begin("svc.job", 0, i + 1);
        std::size_t s = spans ? spans->begin("svc.submit", span, i + 1) : 0;
        const std::uint64_t id = service.submit(text);
        if (spans != nullptr) {
          spans->end(s);
          s = spans->begin("svc.wait", span, i + 1);
        }
        dsv::JobResult r = service.wait(id);
        if (spans != nullptr) {
          spans->end(s);
          spans->end(span);
        }
        job.latency_ms = static_cast<double>(now_ns() - t0) / 1e6;
        job.hit = r.cache_hit;
        job.ok = r.status == "ok" && r.session.ok;
        job.fingerprint = fingerprint_hash(r.session);
        job.events = r.session.events;
        mine.push_back(job);
      }
      std::lock_guard<std::mutex> lock(mu);
      loop.jobs.insert(loop.jobs.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& th : threads) th.join();
  loop.seconds = seconds_since(start);
  return loop;
}

/// Solo run_session reference of one mix spec.
struct Reference {
  std::uint64_t fingerprint = 0;
  double wall_s = 0.0;
  dsv::SessionResult result;
};

Reference solo_reference(const dsv::JobSpec& spec) {
  Reference ref;
  const std::int64_t t0 = now_ns();
  ref.result = dsv::run_session(spec);
  ref.wall_s = seconds_since(t0);
  ref.fingerprint = fingerprint_hash(ref.result);
  return ref;
}

/// Every job must end ok with the fingerprint of its spec's solo run.
void check_jobs(const std::vector<Job>& jobs,
                std::map<std::size_t, std::uint64_t>& refs, RunResult& out) {
  for (const Job& job : jobs) {
    auto it = refs.find(job.spec);
    if (it == refs.end())
      it = refs.emplace(job.spec, solo_reference(parse_or_throw(
                                      mix_specs()[job.spec])).fingerprint)
               .first;
    ++out.attempted;
    if (!job.ok || job.fingerprint != it->second) {
      ++out.failed;
      out.notes.push_back("output check failed: " + mix_specs()[job.spec] +
                          (job.ok ? " (fingerprint differs from solo run)"
                                  : " (status not ok)"));
    }
  }
}

RunResult run_service_mix(const RunOptions& opts) {
  RunResult out;
  const dsv::ServiceConfig cfg;  // 2 workers, 16-deep queue, 64-entry cache
  const MixStream stream(opts.seed);
  std::map<std::size_t, std::uint64_t> refs;

  if (!opts.trace) {
    // Set-up is Service construction (its worker threads start), measured
    // before and after the loop.
    std::vector<double> setup;
    const auto measure_setup = [&] {
      for (int r = 0; r < 10 * kSetupReps; ++r) {
        const std::int64_t t0 = now_ns();
        auto service = std::make_unique<dsv::Service>(cfg);
        setup.push_back(seconds_since(t0));
      }
    };
    measure_setup();
    Loop loop;
    {
      dsv::Service service(cfg);
      loop = client_loop(service, stream, 2, opts.seconds, UINT64_MAX, nullptr);
    }
    measure_setup();
    check_jobs(loop.jobs, refs, out);
    std::vector<double> all, miss, miss_rate;
    for (const Job& job : loop.jobs) {
      all.push_back(job.latency_ms);
      if (job.hit) continue;
      miss.push_back(job.latency_ms);
      miss_rate.push_back(static_cast<double>(job.events) /
                          (job.latency_ms / 1e3));
    }
    const Percentile p50 = percentile(all, 50), tail = tail_percentile(all);
    const Percentile miss50 = percentile(miss, 50);
    out.metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", miss50.value / 1e3, "s"},
        {"events_per_s", median(miss_rate), "1/s"},
        {"jobs_per_s", static_cast<double>(all.size()) / loop.seconds, "1/s"},
        {"latency_tail_ms", tail.value, "ms"},
        {"miss_latency_p50_ms", miss50.value, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    out.notes.push_back(fmt("jobs %.0f, misses %.0f, distinct specs %.0f",
                            static_cast<double>(all.size()),
                            static_cast<double>(miss.size()),
                            static_cast<double>(refs.size())));
    // The overall median is a cache hit: two thread wake-ups, whose cost
    // moves with host load by more than any bound the benchmark may set, so
    // it is printed but not part of the result.
    out.notes.push_back(fmt("latency_p50_ms %.6g ms (ungated), %.0f samples "
                            "beyond",
                            p50.value, static_cast<double>(p50.beyond)));
    out.notes.push_back(fmt("latency_tail is p%.1f with %.0f samples beyond; "
                            "miss_latency_p50 has %.0f beyond",
                            tail.pct, static_cast<double>(tail.beyond),
                            static_cast<double>(miss50.beyond)));
    out.notes.push_back(
        fmt("live cache hit ratio %.4f",
            1.0 - static_cast<double>(miss.size()) / all.size()));
    return out;
  }

  // Traced pass.  Layer counts are summed over solo runs of the whole spec
  // universe, so they do not depend on the seed or the run length.
  Spans spans;
  const std::size_t pass = spans.begin("pass.service-mix");
  Snapshot snap;
  double wall_on = 0.0, wall_off = 0.0, cells = 0.0;
  for (std::size_t i = 0; i < mix_specs().size(); ++i) {
    const dsv::JobSpec spec = parse_or_throw(mix_specs()[i]);
    Reference ref;
    {
      SpanScope s(&spans, "svc.run_session", pass);
      ref = solo_reference(spec);
    }
    refs[i] = ref.fingerprint;
    snap.merge(parse_snapshot(ref.result.metrics_json));
    wall_on += ref.wall_s;
    cells += stencil_cells(spec);
    dsv::JobSpec quiet = spec;
    quiet.metrics = false;
    const Reference q = solo_reference(quiet);
    wall_off += q.wall_s;
    const Outcome want{ref.result.events, ref.result.final_ps,
                       ref.result.checksum};
    std::string why;
    out.attempted += 2;
    if (!outcome_matches(want, ref.result, why) ||
        !outcome_matches(want, q.result, why)) {
      ++out.failed;
      out.notes.push_back("output check failed: " + mix_specs()[i] + ": " + why);
    }
  }

  // Exact cache counts: one client replays the first 1000 jobs in order.
  Snapshot svc;
  {
    dsv::Service service(cfg);
    const Loop replay = client_loop(service, stream, 1, 1e9, 1000, nullptr);
    check_jobs(replay.jobs, refs, out);
    svc = parse_snapshot(service.stats_json());
  }
  // Tracing overhead: the same 2-client loop without and with spans.
  const double window = std::min(opts.seconds, 2.0);
  double jps_u = 0.0, jps_t = 0.0;
  for (Spans* s : {static_cast<Spans*>(nullptr), &spans}) {
    dsv::Service service(cfg);
    const Loop loop = client_loop(service, stream, 2, window, UINT64_MAX, s);
    check_jobs(loop.jobs, refs, out);
    (s ? jps_t : jps_u) = static_cast<double>(loop.jobs.size()) / loop.seconds;
  }

  std::vector<Metric>& m = out.metrics;
  add_counts(snap, m);
  ProbeInputs in;
  in.torus_spec = parse_or_throw(mix_specs()[0]);
  in.torus_spec.booster = in.torus_spec.procs = 32;
  in.fattree_spec = in.torus_spec;
  in.fattree_spec.topology = "fattree";
  in.dragonfly_spec = in.torus_spec;
  in.dragonfly_spec.topology = "dragonfly";
  in.msg_bytes = std::max<std::int64_t>(1, snap.hist("mpi.msg_bytes").dominant());
  in.spec_texts = mix_specs();
  const std::size_t first_probe = m.size();
  run_probes(in, &spans, m);
  count_probes(out, first_probe);
  spans.end(pass);

  const std::int64_t hits = svc.counter("svc.cache_hits");
  const std::int64_t misses = svc.counter("svc.cache_misses");
  m.push_back({"sim.parallel_efficiency", 1.0, "ratio"});
  m.push_back({"apps.numerics_share",
               metric_value(m, "apps.jacobi_ns_per_cell") * cells /
                   (wall_on * 1e9),
               "ratio"});
  m.push_back({"obs.metrics_overhead", wall_on / wall_off - 1.0, "ratio"});
  m.push_back({"svc.cache_hit_ratio",
               static_cast<double>(hits) / static_cast<double>(hits + misses),
               "ratio"});
  m.push_back({"svc.cache_evictions",
               static_cast<double>(svc.counter("svc.cache_evictions")),
               "count"});
  m.push_back({"svc.queue_rejects",
               static_cast<double>(svc.counter("svc.queue_rejects")), "count"});
  m.push_back({"trace.overhead", jps_u / jps_t - 1.0, "ratio"});
  out.notes.push_back(fmt("untraced %.1f jobs/s, traced %.1f jobs/s", jps_u,
                          jps_t));
  write_spans(spans, opts.spans_path, out);
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "offload-cholesky" || name == "halo-stencil" ||
         name == "service-mix";
}

RunResult run_workload(const RunOptions& opts) {
  return opts.workload == "service-mix" ? run_service_mix(opts)
                                        : run_session_workload(opts);
}

}  // namespace perfbench
