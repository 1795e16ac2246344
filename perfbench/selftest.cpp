// Tests of the benchmark's own logic (not of the simulator):
//
//   cmake --build <dir> --target perfbench_selftest && <dir>/perfbench_selftest
//
// Exit code 0 when every check passed.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "svc/jobspec.hpp"
#include "svc/session.hpp"

namespace {

namespace dsv = deep::svc;
using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_reports_samples_beyond() {
  const Percentile p50 = percentile(one_to(100), 50);
  CHECK(p50.value == 50 && p50.samples == 100 && p50.beyond == 50);
  const Percentile p99 = percentile(one_to(100), 99);
  CHECK(p99.value == 99 && p99.beyond == 1);
  // A p99 is trustworthy (ten samples beyond it) only from 1000 samples.
  CHECK(percentile(one_to(1000), 99).beyond == 10);
  CHECK(percentile(one_to(999), 99).beyond < 10);
  const Percentile small = percentile(one_to(5), 99);
  CHECK(small.value == 5 && small.beyond == 0);
  CHECK(percentile({}, 50).samples == 0);
  // The tail keeps ten samples beyond it, between the median and p99.
  CHECK(tail_percentile(one_to(2000)).pct == 99);
  const Percentile tail = tail_percentile(one_to(40));
  CHECK(tail.pct == 75 && tail.value == 30 && tail.beyond == 10);
  CHECK(tail_percentile(one_to(12)).pct == 50);
  CHECK(median(one_to(4)) == 2.5 && median(one_to(5)) == 3);
}

void same_seed_gives_same_stream() {
  const MixStream a(7), b(7), c(8);
  bool differs = false;
  std::set<std::size_t> seen;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    CHECK(a.at(i) == b.at(i));
    CHECK(a.at(i) < mix_specs().size());
    differs = differs || a.at(i) != c.at(i);
    seen.insert(a.at(i));
  }
  CHECK(differs);
  // Zipf(0.9) over 108 specs: the head repeats, the tail still shows up.
  CHECK(seen.size() > 54 && seen.size() < 2000);
  // Every spec of the universe is valid and names a distinct job.
  std::set<std::string> keys;
  for (const std::string& text : mix_specs()) {
    dsv::Reject reject;
    const auto spec = dsv::JobSpec::from_text(text, reject);
    CHECK(spec.has_value());
    if (spec) keys.insert(spec->canonical_key());
  }
  CHECK(mix_specs().size() == 108 && keys.size() == 108);
}

void output_check_rejects_perturbed_outcome() {
  const Outcome want{1000, 5'000'000, 1.25};
  dsv::SessionResult got;
  got.ok = true;
  got.events = want.events;
  got.final_ps = want.final_ps;
  got.checksum = want.checksum;
  std::string why;
  CHECK(outcome_matches(want, got, why));
  got.final_ps += 1;
  CHECK(!outcome_matches(want, got, why));
  CHECK(why.find("final_ps") != std::string::npos);
  got.final_ps = want.final_ps;
  got.checksum = std::nextafter(want.checksum, 2.0);
  CHECK(!outcome_matches(want, got, why));
  got.checksum = want.checksum;
  got.ok = false;
  CHECK(!outcome_matches(want, got, why));
}

void snapshot_percentiles_follow_the_registry() {
  deep::obs::Registry reg;
  const deep::obs::Histogram h = reg.histogram("x");
  for (int i = 1; i <= 1000; ++i) h.record(i * 7 % 3001);
  const Snapshot s = parse_snapshot(reg.to_json());
  const auto field = [&](const char* key) {
    const std::string json = reg.to_json();
    const std::size_t at = json.find(std::string("\"") + key + "\":");
    return std::stoll(json.substr(at + std::string(key).size() + 3));
  };
  CHECK(s.hist("x").count == 1000);
  CHECK(s.hist("x").percentile(50) == field("p50"));
  CHECK(s.hist("x").percentile(99) == field("p99"));
}

void halo_stencil_outcome_is_worker_invariant() {
  dsv::Reject reject;
  const auto spec =
      dsv::JobSpec::from_text(session_spec_text("halo-stencil"), reject);
  CHECK(spec.has_value() && spec->partitions == 5 && spec->workers == 1);
  if (!spec) return;
  dsv::JobSpec parallel = *spec;
  parallel.workers = 2;
  const dsv::SessionResult two = dsv::run_session(parallel);
  const dsv::SessionResult one = dsv::run_session(*spec);
  const Outcome want{two.events, two.final_ps, two.checksum};
  std::string why;
  CHECK(two.ok);
  CHECK(outcome_matches(want, one, why));
}

}  // namespace

int main() {
  percentile_reports_samples_beyond();
  same_seed_gives_same_stream();
  output_check_rejects_perturbed_outcome();
  snapshot_percentiles_follow_the_registry();
  halo_stencil_outcome_is_worker_invariant();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
