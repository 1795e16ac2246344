#pragma once
// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench prints the series behind one of the paper's figures/claims as
// an aligned table (add --csv for machine-readable output) plus a short
// SHAPE-CHECK verdict stating whether the qualitative claim reproduced.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "svc/json.hpp"
#include "util/csv.hpp"

namespace deep::bench {

inline bool want_csv(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--csv") == 0) return true;
  return false;
}

inline void print_table(const util::Table& table, bool csv) {
  if (csv)
    table.print_csv(std::cout);
  else
    table.print_pretty(std::cout);
}

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline int verdict(const std::string& claim, bool reproduced) {
  std::printf("\nSHAPE-CHECK [%s]: %s\n", reproduced ? "PASS" : "FAIL",
              claim.c_str());
  return reproduced ? 0 : 1;
}

/// The result schema scripts/check_bench.py gates: {"bench": NAME,
/// "rows": [{layer, name, unit, value, host_independent}], "history": []}.
/// A checked-in baseline (results/BENCH_<name>.json) has the same shape plus
/// its gate rows (layer "gate") and a dated history.
class BenchRows {
 public:
  void add(const char* layer, const std::string& name, const char* unit,
           svc::Json value, bool host_independent) {
    svc::Json row = svc::Json::object();
    row.set("layer", layer);
    row.set("name", name);
    row.set("unit", unit);
    row.set("value", std::move(value));
    row.set("host_independent", host_independent);
    rows_.push_back(std::move(row));
  }

  void write(const std::string& bench, const std::string& path) const {
    svc::Json doc = svc::Json::object();
    doc.set("bench", bench);
    doc.set("rows", rows_);
    doc.set("history", svc::Json::array());
    std::ofstream(path) << doc.dump() << '\n';
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  svc::Json rows_ = svc::Json::array();
};

}  // namespace deep::bench
