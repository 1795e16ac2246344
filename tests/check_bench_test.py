#!/usr/bin/env python3
"""Self-test of scripts/check_bench.py.

Each checked-in baseline, copied to a temporary directory, must pass against
itself; every perturbed copy must fail.  Nothing under results/ is written:
the checker only ever sees the copies.

    python3 tests/check_bench_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "scripts", "check_bench.py")


def set_row(doc, name, value):
    for row in doc["rows"]:
        if row["name"] == name:
            row["value"] = value
            return
    raise KeyError(name)


def flip(doc, name):
    value = next(r["value"] for r in doc["rows"] if r["name"] == name)
    set_row(doc, name, value[:-1] + ("0" if value[-1] != "0" else "1"))


def swap(doc, a, b):
    values = {r["name"]: r["value"] for r in doc["rows"]}
    set_row(doc, a, values[b])
    set_row(doc, b, values[a])


def drop_cell(doc):
    doc["rows"] = [r for r in doc["rows"]
                   if not r["name"].startswith("cell.deep.spmv.static.clean.")]


T = "orderings."
# (gate, what, perturbation, CI value): every one must make the gate fail.
PERTURBATIONS = [
    ("parallel", "deterministic false",
     lambda d: set_row(d, "deterministic", False), ""),
    ("parallel", "speedup under the floor",
     lambda d: set_row(d, "gate_speedup", 2.99), ""),
    ("parallel", "no gate_speedup row",
     lambda d: d["rows"].remove(next(r for r in d["rows"]
                                     if r["name"] == "gate_speedup")), ""),
    ("parallel", "undersubscribed under CI=true",
     lambda d: (set_row(d, "host_cpus", 2),
                set_row(d, "undersubscribed", True)), "true"),
    ("service", "flipped fingerprint", lambda d: flip(d, "fingerprint"), ""),
    ("service", "fingerprints diverged",
     lambda d: set_row(d, "fingerprints_equal", False), ""),
    ("service", "hot/cold under the floor",
     lambda d: set_row(d, "hot_over_cold", 9.9), ""),
    ("topology", "flipped cell fingerprint",
     lambda d: flip(d, "cell.fattree.cholesky.adaptive.chaos.fingerprint"),
     ""),
    ("topology", "cell runs diverged",
     lambda d: set_row(d, "cell.dragonfly.stencil.static.clean."
                       "runs_identical", False), ""),
    ("topology", "clean cell not ok",
     lambda d: set_row(d, "cell.deep.cholesky.static.clean.ok", False), ""),
    ("topology", "cell missing", drop_cell, ""),
    ("topology", "matrix.all_runs_identical false",
     lambda d: set_row(d, "matrix.all_runs_identical", False), ""),
    ("topology", "matrix.clean_cells_ok false",
     lambda d: set_row(d, "matrix.clean_cells_ok", False), ""),
    ("topology", "matrix.deep_adaptive_noop false",
     lambda d: set_row(d, "matrix.deep_adaptive_noop", False), ""),
    ("topology", "flows diverged",
     lambda d: set_row(d, T + "flows_identical", False), ""),
    ("topology", "fat-tree non-blocking and oversubscribed reversed",
     lambda d: swap(d, T + "fattree_nonblocking_ps", T + "fattree_oversub_ps"),
     ""),
    ("topology", "fat-tree adaptive and static reversed",
     lambda d: swap(d, T + "fattree_adaptive_ps", T + "fattree_nonblocking_ps"),
     ""),
    ("topology", "dragonfly UGAL and minimal reversed",
     lambda d: swap(d, T + "dragonfly_adaptive_ps", T + "dragonfly_minimal_ps"),
     ""),
    ("topology", "no UGAL detours",
     lambda d: set_row(d, T + "dragonfly_adaptive_detours", 0), ""),
    ("topology", "dragonfly drops after a kill",
     lambda d: set_row(d, T + "dragonfly_chaos_drops", 1), ""),
    ("topology", "no reroutes after a kill",
     lambda d: set_row(d, T + "dragonfly_chaos_detours", 0), ""),
    ("topology", "torus delivers across a killed link",
     lambda d: set_row(d, T + "torus_chaos_drops", 0), ""),
]


def check(tmp, name, measured, ci):
    """Runs the checker on `measured` against a fresh baseline copy."""
    baseline = os.path.join(tmp, f"baseline_{name}.json")
    shutil.copy(os.path.join(ROOT, "results", f"BENCH_{name}.json"), baseline)
    path = os.path.join(tmp, f"measured_{name}.json")
    with open(path, "w") as f:
        json.dump(measured, f)
    env = dict(os.environ, CI=ci)
    proc = subprocess.run(
        [sys.executable, CHECKER, name, "--measured", path,
         "--baseline", baseline],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    with open(baseline) as f:
        history = json.load(f)["history"]
    return proc.returncode, proc.stdout, history


def main():
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        docs = {}
        for name in ("parallel", "service", "topology"):
            with open(os.path.join(ROOT, "results", f"BENCH_{name}.json")) as f:
                docs[name] = json.load(f)
            for ci in ("", "true"):
                code, out, history = check(tmp, name, docs[name], ci)
                if code != 0 or history[-1]["status"] != "pass" or \
                        len(history) != len(docs[name]["history"]) + 1:
                    errors.append(f"{name} baseline vs itself (CI={ci!r}): "
                                  f"exit {code}\n{out}")

        # The local waive stays: undersubscribed outside CI passes.
        waived = json.loads(json.dumps(docs["parallel"]))
        set_row(waived, "undersubscribed", True)
        code, out, history = check(tmp, "parallel", waived, "")
        if code != 0 or history[-1]["status"] != "waived-undersubscribed":
            errors.append(f"parallel undersubscribed locally: exit {code}\n"
                          f"{out}")

        for name, what, perturb, ci in PERTURBATIONS:
            doc = json.loads(json.dumps(docs[name]))
            perturb(doc)
            code, out, history = check(tmp, name, doc, ci)
            if code == 0 or len(history) != len(docs[name]["history"]):
                errors.append(f"{name} {what}: exit {code}, expected a "
                              f"failure without a history entry\n{out}")
    for error in errors:
        print("FAIL:", error)
    print(f"check_bench self-test: {len(PERTURBATIONS)} perturbations, "
          f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
