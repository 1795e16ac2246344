// Repository benchmark entry point (see perfbench/README.md).
//
//   perfbench --workload offload-cholesky|halo-stencil|service-mix
//             --seed N --seconds S --trace 0|1
//             --expected perfbench/expected.json [--spans FILE]
//
// Prints human-readable notes, then one JSON result line.  Exit code 0 when
// every output check passed, 1 when one failed, 2 on bad usage or when the
// benchmark itself could not run (no result line then).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected FILE [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.seconds = -1.0;
  std::string trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return usage("--seconds takes a number");
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--expected") {
      opts.expected_path = value;
    } else if (flag == "--spans") {
      opts.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes one value");
  if (!perfbench::known_workload(opts.workload))
    return usage("unknown or missing --workload");
  if (opts.seconds <= 0.0) return usage("--seconds must be positive");
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  opts.trace = trace == "1";

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& note : result.notes)
    std::printf("# %s\n", note.c_str());
  for (const perfbench::Metric& m : result.metrics)
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", perfbench::result_line(result.correct(), result.attempted,
                                             result.failed, result.metrics)
                          .c_str());
  return result.correct() ? 0 : 1;
}
