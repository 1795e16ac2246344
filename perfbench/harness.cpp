#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "svc/json.hpp"

namespace perfbench {

namespace dsv = deep::svc;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile percentile(std::vector<double> v, double pct) {
  Percentile p;
  p.pct = pct;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const double exact = pct / 100.0 * static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

Percentile tail_percentile(std::vector<double> v) {
  const double n = static_cast<double>(v.size());
  const double pct = n > 0 ? std::clamp(100.0 * (n - 10.0) / n, 50.0, 99.0)
                           : 50.0;
  return percentile(std::move(v), pct);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

std::string session_spec_text(const std::string& workload) {
  if (workload == "offload-cholesky")
    return R"({"workload":"cholesky","cluster":128,"booster":384,)"
           R"("gateways":8,"procs":384})";
  if (workload == "halo-stencil")
    return R"({"workload":"stencil","cluster":128,"booster":384,)"
           R"("gateways":8,"procs":384,"partitions":5,"workers":1})";
  return "";
}

const std::vector<std::string>& mix_specs() {
  static const std::vector<std::string> specs = [] {
    std::vector<std::string> out;
    for (const char* workload : {"stencil", "spmv", "nbody", "cholesky"}) {
      for (const char* topology : {"deep", "fattree", "dragonfly"}) {
        for (const int booster : {8, 16, 32}) {
          for (int variant = 0; variant < 3; ++variant) {
            char buf[320];
            const char* extra =
                variant == 1 ? R"(,"adaptive":true)"
                : variant == 2
                    ? R"(,"faults":{"gateways":[{"at_us":1400,"gateway":0},)"
                      R"({"at_us":1600,"gateway":0,"up":true}]})"
                    : "";
            std::snprintf(buf, sizeof buf,
                          R"({"workload":"%s","topology":"%s","cluster":4,)"
                          R"("booster":%d,"gateways":2,"procs":%d%s})",
                          workload, topology, booster, booster, extra);
            out.emplace_back(buf);
          }
        }
      }
    }
    return out;
  }();
  return specs;
}

namespace {

/// Zipf(0.9) over ranks 1..n, as a cumulative table.
const std::vector<double>& zipf_cdf() {
  static const std::vector<double> cdf = [] {
    const std::size_t n = mix_specs().size();
    std::vector<double> c(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), 0.9);
      c[k] = total;
    }
    for (double& x : c) x /= total;
    return c;
  }();
  return cdf;
}

}  // namespace

std::size_t MixStream::at(std::uint64_t i) const {
  const std::vector<double>& cdf = zipf_cdf();
  const double u = unit_interval(mix64(mix64(seed_) + i));
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin()),
      cdf.size() - 1);
  // Rank k holds workload k % 4, booster size (k / 4) % 3, topology
  // (k / 12) % 3 and variant k / 36: every run of 12 ranks mixes all four
  // workloads at all three sizes.  The assignment is fixed, so every seed
  // has the same cost profile over the ranks and the seed only draws the
  // job sequence; run-to-run spread then does not depend on the seed.
  const std::size_t w = k % 4, b = (k / 4) % 3, t = (k / 12) % 3, v = k / 36;
  // mix_specs() order: workload, topology, booster, variant.
  return ((w * 3 + t) * 3 + b) * 3 + v;
}

double stencil_cells(const dsv::JobSpec& spec) {
  if (spec.workload != "stencil") return 0.0;
  return static_cast<double>(spec.procs) * 64.0 * 256.0 * 10.0 *
         static_cast<double>(spec.steps);
}

// ---------------------------------------------------------------------------
// Registry snapshots
// ---------------------------------------------------------------------------

namespace {

std::int64_t bucket_upper(int b) {
  if (b <= 0) return 0;
  if (b >= 63) return INT64_MAX;
  return (std::int64_t{1} << b) - 1;
}

}  // namespace

void Hist::merge(const Hist& o) {
  count += o.count;
  max = std::max(max, o.max);
  for (const auto& [b, n] : o.buckets) buckets[b] += n;
}

std::int64_t Hist::percentile(int pct) const {
  if (count == 0) return 0;
  const std::int64_t rank = std::max<std::int64_t>(1, (count * pct + 99) / 100);
  std::int64_t cum = 0;
  for (const auto& [b, n] : buckets) {
    cum += n;
    if (cum >= rank) return std::min(bucket_upper(b), max);
  }
  return max;
}

std::int64_t Hist::dominant() const {
  int best = 0;
  std::int64_t best_n = -1;
  for (const auto& [b, n] : buckets) {
    if (n > best_n) {
      best = b;
      best_n = n;
    }
  }
  return std::min(bucket_upper(best), max);
}

std::int64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Hist Snapshot::hist(const std::string& name) const {
  const auto it = hists.find(name);
  return it == hists.end() ? Hist{} : it->second;
}

void Snapshot::merge(const Snapshot& o) {
  for (const auto& [k, v] : o.counters) counters[k] += v;
  for (const auto& [k, h] : o.hists) hists[k].merge(h);
}

Snapshot parse_snapshot(const std::string& json) {
  Snapshot s;
  const dsv::Json::ParseResult parsed = dsv::Json::parse(json);
  if (!parsed.ok) return s;
  const dsv::Json* list = parsed.value.find("metrics");
  if (list == nullptr || !list->is_array()) return s;
  for (const dsv::Json& e : list->items()) {
    const dsv::Json* name = e.find("name");
    const dsv::Json* kind = e.find("kind");
    if (name == nullptr || kind == nullptr) continue;
    if (kind->as_string() == "histogram") {
      Hist h;
      if (const dsv::Json* c = e.find("count")) h.count = c->as_int();
      if (const dsv::Json* m = e.find("max")) h.max = m->as_int();
      if (const dsv::Json* bs = e.find("buckets"); bs && bs->is_array())
        for (const dsv::Json& b : bs->items())
          if (b.is_array() && b.items().size() == 2)
            h.buckets[static_cast<int>(b.items()[0].as_int())] +=
                b.items()[1].as_int();
      s.hists[name->as_string()] = std::move(h);
    } else if (const dsv::Json* v = e.find("value")) {
      s.counters[name->as_string()] = v->as_int();
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

std::optional<Outcome> load_expected(const std::string& path,
                                     const std::string& workload) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  const dsv::Json::ParseResult parsed = dsv::Json::parse(text.str());
  if (!parsed.ok) return std::nullopt;
  const dsv::Json* w = parsed.value.find(workload);
  if (w == nullptr) return std::nullopt;
  const dsv::Json* events = w->find("events");
  const dsv::Json* final_ps = w->find("final_ps");
  const dsv::Json* checksum = w->find("checksum");
  if (events == nullptr || !events->is_int() || final_ps == nullptr ||
      !final_ps->is_int() || checksum == nullptr || !checksum->is_number())
    return std::nullopt;
  Outcome o;
  o.events = static_cast<std::uint64_t>(events->as_int());
  o.final_ps = final_ps->as_int();
  o.checksum = checksum->as_double();
  return o;
}

bool outcome_matches(const Outcome& want, const dsv::SessionResult& got,
                     std::string& why) {
  char buf[256];
  if (!got.ok) {
    why = "session not ok: " + got.error;
  } else if (got.events != want.events) {
    std::snprintf(buf, sizeof buf, "events %llu != expected %llu",
                  static_cast<unsigned long long>(got.events),
                  static_cast<unsigned long long>(want.events));
    why = buf;
  } else if (got.final_ps != want.final_ps) {
    std::snprintf(buf, sizeof buf, "final_ps %lld != expected %lld",
                  static_cast<long long>(got.final_ps),
                  static_cast<long long>(want.final_ps));
    why = buf;
  } else if (got.checksum != want.checksum) {
    std::snprintf(buf, sizeof buf, "checksum %.17g != expected %.17g",
                  got.checksum, want.checksum);
    why = buf;
  } else {
    return true;
  }
  return false;
}

std::uint64_t fingerprint_hash(const dsv::SessionResult& r) {
  return dsv::fnv1a64(r.fingerprint());
}

// ---------------------------------------------------------------------------
// Spans and the result line
// ---------------------------------------------------------------------------

std::size_t Spans::begin(const std::string& name, std::size_t parent,
                         std::uint64_t trace) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, trace, t, 0});
  return spans_.size() - 1;
}

void Spans::end(std::size_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = t;
}

bool Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.size() > 1 ? spans_[1].start_ns : 0;
  out << "[";
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 1 ? ",\n" : "\n") << R"({"id":)" << i << R"(,"name":")"
        << s.name << R"(","parent":)" << s.parent << R"(,"trace":)"
        << s.trace << R"(,"start_ns":)" << s.start_ns - t0
        << R"(,"end_ns":)" << s.end_ns - t0 << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Spans::self_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = 1; i < spans_.size(); ++i)
    child_ns[spans_[i].parent] += spans_[i].end_ns - spans_[i].start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e6;
  }
  return out;
}

std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& m) {
  std::string out = R"({"correct": )";
  out += correct ? "true" : "false";
  out += R"(, "attempted": )" + std::to_string(attempted);
  out += R"(, "failed": )" + std::to_string(failed);
  out += R"(, "metrics": {)";
  char buf[512];
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
    std::snprintf(buf, sizeof buf, R"(%s"%s": {"value": %.17g, "unit": "%s"})",
                  i ? ", " : "", m[i].name.c_str(), v, m[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
