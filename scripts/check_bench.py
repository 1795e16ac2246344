#!/usr/bin/env python3
"""Gates a bench measurement against its checked-in baseline.

    scripts/check_bench.py parallel|service|topology
        [--build DIR] [--measured FILE] [--baseline FILE]

Without --measured, builds bench_<name> in DIR (default: build), runs it
and writes the measurement to results/BENCH_<name>_ci.json (bench_service
runs with --smoke).  The measurement is then gated against
results/BENCH_<name>.json (or --baseline).  On a pass, or a waive, the
checker appends a dated entry to the baseline's "history".  Exit 0 on pass
or waive, 1 on a failed gate, 2 on a usage or run error.

Measurements and baselines share one schema:

    {"bench": NAME,
     "rows": [{"layer", "name", "unit", "value", "host_independent"}],
     "history": [...]}

A baseline also holds the gate's thresholds as rows of layer "gate".  The
gates (docs/perf.md):

  parallel  outcomes identical at every worker count; the speedup at
            gate_workers at least speedup_floor.  A host with fewer CPUs
            than gate_workers cannot measure speedup: the floor is waived
            there, except under CI=true, where it fails.
  service   the probe job's fingerprint equal solo, as a cache miss and as
            a cache hit, and equal to the baseline's; hot repeats at least
            hot_floor times the cold throughput.
  topology  every matrix cell of the baseline present, reproduced across
            two runs, verified OK when chaos is off and with the baseline's
            fingerprint; the matrix flags; the relative orderings.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHES = ("parallel", "service", "topology")


def values(doc, gate=False):
    """The rows of `doc` as {name: value}: gate rows, or measured rows."""
    return {r["name"]: r["value"] for r in doc["rows"]
            if (r["layer"] == "gate") == gate}


def write_doc(doc, path):
    """Writes `doc` with one row or history entry per line."""
    def block(items):
        return ",\n".join("    " + json.dumps(i) for i in items)
    with open(path, "w") as f:
        f.write("{\n  \"bench\": %s,\n  \"rows\": [\n%s\n  ],\n"
                "  \"history\": [\n%s\n  ]\n}\n" %
                (json.dumps(doc["bench"]), block(doc["rows"]),
                 block(doc["history"])))


def check_parallel(m, gates, _base):
    floor = gates["speedup_floor"]
    gate_workers = gates["gate_workers"]
    host_cpus = m.get("host_cpus", 0)
    undersubscribed = m.get("undersubscribed", host_cpus < gate_workers)
    speedup = m.get("gate_speedup")
    print(f"  host_cpus={host_cpus} gate_workers={gate_workers} "
          f"floor={floor}")
    for name in m:
        if name.endswith(".wall_ms"):
            run = name[:-len(".wall_ms")]
            print(f"  {run:<12} wall {m[name]:>10.1f} ms  "
                  f"speedup {m[run + '.speedup']:>5.2f}")
    failures = []
    if not m.get("deterministic", False):
        failures.append("simulation outcomes differ across worker counts")
    entry = {"host_cpus": host_cpus, "undersubscribed": bool(undersubscribed),
             "gate_speedup": speedup}
    if undersubscribed:
        if os.environ.get("CI", "").lower() in ("1", "true", "yes"):
            failures.append(
                f"undersubscribed measurement in CI ({host_cpus} cpu(s) < "
                f"{gate_workers} workers): hosted runners have >= "
                f"{gate_workers} vCPUs, so the speedup floor would be waived "
                "silently; fix the runner shape or the bench invocation")
        return failures, "waived-undersubscribed", entry
    if speedup is None:
        failures.append("measurement carries no gate_speedup row")
    elif speedup < floor:
        failures.append(f"{gate_workers}-worker speedup {speedup:.2f} < "
                        f"floor {floor} (min over workloads)")
    return failures, "pass", entry


def check_service(m, gates, base):
    hot_floor = gates["hot_floor"]
    fp, base_fp = m.get("fingerprint"), base.get("fingerprint")
    hot_over_cold = m.get("hot_over_cold")
    print(f"  host_cpus={m.get('host_cpus')} workers={m.get('workers')} "
          f"smoke={m.get('smoke')}")
    for s in ("cold", "hot", "mixed"):
        if s + ".jobs" in m:
            print(f"  {s:<6} {m[s + '.jobs']:>5} jobs "
                  f"{m[s + '.jobs_per_s']:>10.1f} jobs/s  "
                  f"p99 {m[s + '.p99_ms']:.2f} ms  "
                  f"hits {m[s + '.cache_hits']} "
                  f"misses {m[s + '.cache_misses']}")
    print(f"  hot/cold {hot_over_cold:.1f}x (floor {hot_floor}); "
          f"fingerprint measured {fp} baseline {base_fp}"
          if hot_over_cold is not None else "  no hot_over_cold row")
    failures = []
    if not m.get("fingerprints_equal", False):
        failures.append("probe fingerprints diverged between solo run, cache "
                        "miss and cache hit: the cache returns results that "
                        "differ from fresh simulations")
    if base_fp is None or fp != base_fp:
        failures.append("probe fingerprint does not match the baseline: the "
                        "simulation's observable behaviour changed")
    if hot_over_cold is None or hot_over_cold < hot_floor:
        failures.append(f"hot/cold throughput ratio {hot_over_cold} < floor "
                        f"{hot_floor}: the determinism dividend is not paid")
    entry = {"host_cpus": m.get("host_cpus"), "smoke": m.get("smoke"),
             "hot_over_cold": hot_over_cold, "fingerprint": fp}
    return failures, "pass", entry


def cells(rows):
    """{cell: {field: value}} from the "cell.<topology>.<workload>.
    <static|adaptive>.<clean|chaos>.<field>" rows."""
    out = {}
    for name, value in rows.items():
        if name.startswith("cell."):
            cell, field = name[len("cell."):].rsplit(".", 1)
            out.setdefault(cell, {})[field] = value
    return out


def check_topology(m, _gates, base):
    measured, baseline = cells(m), cells(base)
    print(f"  {len(measured)} cells")
    failures = []
    if len(measured) != len(baseline) or not measured:
        failures.append(f"cell count changed: measured {len(measured)}, "
                        f"baseline {len(baseline)}")
    for cell, c in sorted(measured.items()):
        if not c.get("runs_identical"):
            failures.append(f"{cell}: two in-process runs diverged")
        if cell.endswith(".clean") and not c.get("ok"):
            failures.append(f"{cell}: clean cell failed verification")
        if cell not in baseline:
            failures.append(f"{cell}: not in baseline")
        elif c.get("fingerprint") != baseline[cell].get("fingerprint"):
            failures.append(f"{cell}: fingerprint {c.get('fingerprint')} != "
                            f"baseline {baseline[cell].get('fingerprint')}")
    for flag in ("all_runs_identical", "clean_cells_ok", "deep_adaptive_noop"):
        if not m.get("matrix." + flag):
            failures.append(f"matrix.{flag} is false")

    def o(key, default):
        return m.get("orderings." + key, default)

    requirements = [
        (o("flows_identical", False),
         "fabric-level flows diverged across repeats"),
        (o("fattree_nonblocking_ps", 1) <= o("fattree_oversub_ps", 0),
         "non-blocking fat-tree slower than oversubscribed on cross-leaf "
         "traffic"),
        (o("fattree_adaptive_ps", 1) <= o("fattree_nonblocking_ps", 0),
         "adaptive plane selection slower than static ECMP under colliding "
         "cross-leaf traffic"),
        (o("dragonfly_adaptive_ps", 1) <= o("dragonfly_minimal_ps", 0),
         "dragonfly UGAL slower than minimal routing under adversarial "
         "group-to-group traffic"),
        (o("dragonfly_adaptive_detours", 0) > 0,
         "dragonfly UGAL took no Valiant detours under adversarial traffic"),
        (o("dragonfly_chaos_drops", 1) == 0,
         "dragonfly dropped messages after a global-link kill"),
        (o("dragonfly_chaos_detours", 0) > 0,
         "dragonfly global-link kill caused no reroutes"),
        (o("torus_chaos_drops", 0) > 0,
         "torus delivered across a killed link, which dimension-ordered "
         "routing has no alternative path for"),
    ]
    failures += [f"ordering broken: {msg}" for ok, msg in requirements
                 if not ok]
    print(f"  fattree: nonblocking {o('fattree_nonblocking_ps', 0)} ps, "
          f"oversub {o('fattree_oversub_ps', 0)} ps, "
          f"adaptive {o('fattree_adaptive_ps', 0)} ps")
    print(f"  dragonfly: adaptive {o('dragonfly_adaptive_ps', 0)} ps, "
          f"minimal {o('dragonfly_minimal_ps', 0)} ps "
          f"({o('dragonfly_adaptive_detours', 0)} detours); chaos drops "
          f"{o('dragonfly_chaos_drops', 0)}, torus chaos drops "
          f"{o('torus_chaos_drops', 0)}")
    return failures, "pass", {"cells": len(measured)}


CHECKS = {"parallel": check_parallel, "service": check_service,
          "topology": check_topology}


def measure(name, build, out):
    """Builds and runs bench_<name>, writing its rows to `out`."""
    target = "bench_" + name
    steps = [["cmake", "--build", build, "--target", target,
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-B", build, "-S", ROOT])
    cmd = [os.path.join(build, "bench", target), "--json", out]
    if name == "service":
        cmd.append("--smoke")
    for step in steps + [cmd]:
        if subprocess.run(step).returncode != 0:
            print(f"check_bench: failed: {' '.join(step)}", file=sys.stderr)
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=BENCHES)
    parser.add_argument("--build", default=os.path.join(ROOT, "build"))
    parser.add_argument("--measured")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    results = os.path.join(ROOT, "results")
    baseline_path = args.baseline or os.path.join(
        results, f"BENCH_{args.name}.json")
    measured_path = args.measured
    if measured_path is None:
        measured_path = os.path.join(results, f"BENCH_{args.name}_ci.json")
        measure(args.name, args.build, measured_path)

    with open(measured_path) as f:
        measured = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    print(f"check_bench {args.name}: {measured_path} against {baseline_path}")
    failures, status, entry = CHECKS[args.name](
        values(measured), values(baseline, gate=True), values(baseline))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        sys.exit(1)
    baseline["history"].append(
        {"date": datetime.date.today().isoformat(), "status": status, **entry})
    write_doc(baseline, baseline_path)
    print(f"{status.upper()}: history entry appended to {baseline_path}")


if __name__ == "__main__":
    main()
