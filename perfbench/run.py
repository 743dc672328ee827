#!/usr/bin/env python3
"""DS-SMR benchmark: builds the simulator, runs one workload, checks it, and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload <scale8|overload|failover|all> \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. Each workload runs as single-threaded
dssmr_bench processes (see dssmr_bench.cpp). One run of seed N:

  * runs a fixed set of sub-seeds derived from N (N*100 + i) and reports the
    median of each modelled metric over them -- exact per seed;
  * repeats sub-seeds until --seconds have been spent; every repeat must
    reproduce its sub-seed's modelled digest byte for byte;
  * reports the simulator metrics (thread-CPU timings, peak RSS) over every
    process: the median for set-up time and RSS, the quartile on the fast
    side for the CPU rates.

--trace 1 instead runs untraced/traced pairs of sub-seed N*100, requires
their digests to match, writes a Chrome trace to .bench_out/ and reports the
per-layer metrics. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. GLOSSARY.md defines every
metric.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
# Held out for confirming claims: not used while tuning a change.
HELDOUT_SEED = 7919

# Sub-seeds whose modelled metrics are aggregated per run. Fixed per workload
# so a run's modelled metrics stay exact per seed.
SUBSEEDS = {"scale8": 7, "overload": 5, "failover": 7}

# CPU rates on a shared machine, where interference only ever slows a process
# down: each is the quartile on the fast side over the run's processes. Every
# other metric is the median (setup_s of the per-process medians).
FAST_SIDE = {"sim_cps": 2, "run_s": 0}

# (name, unit, plane) of every end-to-end metric in BENCHMARK.json.
END_TO_END = [
    ("throughput_cps", "cmd/s", "modelled"),
    ("latency_p50_us", "us", "modelled"),
    ("latency_p99_us", "us", "modelled"),
    ("served_frac", "ratio", "modelled"),
    ("events_per_cmd", "events/cmd", "modelled"),
    ("setup_s", "s", "simulator"),
    ("peak_rss_mb", "MB", "simulator"),
]
# Printed with the others but not in the result line: their run-to-run spread
# is too wide for a bound of at most 0.25. For the tails it is the spread
# across seeds; for the CPU rates, minutes-long slowdowns of the shared host.
# The traced run reports all but failed_frac as per-layer metrics.
UNBOUNDED = [
    ("sim_cps", "cmd/CPU-s", "simulator"),
    ("run_s", "s", "simulator"),
    ("latency_p999_us", "us", "modelled"),
    ("stall_ms", "ms", "modelled"),
    ("failed_frac", "ratio", "modelled"),
]

# Per-process timeout. No process starts unless the run expects to finish by
# HARD_LIMIT_S - 10, which keeps a run well within 180 s.
HARD_LIMIT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


def layer_units():
    """name -> unit of every per-layer metric, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def build():
    """Configures (once) and builds dssmr_bench; returns the binary path."""
    if not (ROOT / "src" / "harness" / "experiment.h").is_file():
        fail(f"no DS-SMR sources under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", str(out), "--target", "dssmr_bench", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 2)
    return out / "dssmr_bench"


def run_process(binary, workload, subseed, extra=(), timeout=HARD_LIMIT_S):
    """Runs one dssmr_bench process; returns its JSON object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(subseed), *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(cmd)} exited {r.returncode}")
    return json.loads(lines[-1])


class Gate:
    """Correctness across processes: per-process breaches, request accounting
    and byte-identical digests for every run of a sub-seed."""

    def __init__(self):
        self.breaches = []
        self.digests = {}

    def check(self, res, tag=""):
        seed = res["seed"]
        for b in res["breaches"]:
            self.breaches.append(f"seed {seed}{tag}: {b}")
        if res["attempted"] != res["ok"] + res["nok"] + res["failed"]:
            self.breaches.append(f"seed {seed}{tag}: attempted != ok + nok + failed")
        first = self.digests.setdefault(seed, res["digest"])
        if first != res["digest"]:
            self.breaches.append(f"seed {seed}{tag}: digest {res['digest']} != {first}")


def median(values):
    return statistics.median(values)


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    m = median(values)
    return (q[2] - q[0]) / m if m else 0.0


def run_untraced(binary, args):
    k = SUBSEEDS[args.workload]
    subseeds = [args.seed * 100 + i for i in range(k)]
    gate = Gate()
    runs = []
    start = time.monotonic()
    # Fixed set, one determinism repeat, then more repeats while time is left.
    plan = subseeds + [subseeds[0]]
    i = 1
    while True:
        if not plan:
            elapsed = time.monotonic() - start
            longest = max(r["_wall"] for r in runs)
            if elapsed + longest > args.seconds or elapsed + longest > HARD_LIMIT_S - 10:
                break
            plan = [subseeds[i % k]]
            i += 1
        ss = plan.pop(0)
        t0 = time.monotonic()
        res = run_process(binary, args.workload, ss)
        res["_wall"] = time.monotonic() - t0
        gate.check(res)
        runs.append(res)

    firsts = {}
    for r in runs:
        firsts.setdefault(r["seed"], r)
    per_seed = [firsts[s] for s in subseeds]
    values = {}
    for name, _unit, plane in END_TO_END + UNBOUNDED:
        if name == "served_frac":
            values[name] = [1.0 - r["modelled"]["failed_frac"] for r in per_seed]
        elif plane == "modelled":
            values[name] = [r["modelled"][name] for r in per_seed]
        else:
            values[name] = [r["simulator"][name] for r in runs]
    summary = {name: (statistics.quantiles(v, n=4)[FAST_SIDE[name]] if name in FAST_SIDE
                      else median(v)) for name, v in values.items()}
    metrics = {name: {"value": summary[name], "unit": unit} for name, unit, _plane in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  sub-seeds {subseeds}  "
          f"processes {len(runs)}  measured {time.monotonic() - start:.1f} s")
    print(f"{'metric':18s} {'value':>14s} {'unit':11s} {'plane':9s} "
          f"{'min':>12s} {'max':>12s} {'iqr/med':>8s}")
    for title, rows in (("bounded", END_TO_END), ("unbounded", UNBOUNDED)):
        print(f"-- {title}")
        for name, unit, plane in rows:
            v = values[name]
            print(f"{name:18s} {summary[name]:14.4f} {unit:11s} {plane:9s} "
                  f"{min(v):12.4f} {max(v):12.4f} {spread(v):8.4f}")
    print("sim_cps per process " + " ".join(f"{r['simulator']['sim_cps']:.0f}" for r in runs))
    print(f"latency samples per sub-seed "
          f"{[int(r['modelled']['latency_samples']) for r in per_seed]}")
    violations = [int(r["layers"]["audit.violations"]) for r in per_seed]
    if any(violations):
        print(f"audit violations per sub-seed {violations} (reported, not failed; "
              f"see GLOSSARY.md)")
    for s in subseeds:
        n = sum(1 for r in runs if r["seed"] == s)
        print(f"digest seed {s}: {gate.digests[s]}  (runs: {n})")
    for b in gate.breaches:
        print(f"BREACH {b}")
    return gate, runs, metrics


def run_traced(binary, args):
    units = layer_units()
    ss = args.seed * 100
    gate = Gate()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    chrome = out_dir / f"trace_{args.workload}_{args.seed}.json"
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        p = run_process(binary, args.workload, ss)
        extra = ["--spans"] + (["--chrome", str(chrome)] if not traced else [])
        t = run_process(binary, args.workload, ss, extra)
        pair = time.monotonic() - t0
        gate.check(p)
        gate.check(t, " (traced)")
        plain.append(p)
        traced.append(t)
        elapsed = time.monotonic() - start
        if elapsed + pair > args.seconds or elapsed + pair > HARD_LIMIT_S - 10:
            break

    # Fastest against fastest: interference only ever slows a process down.
    base = min(r["simulator"]["drive_window_cpu_s"] for r in plain)
    overhead = min(r["simulator"]["drive_window_cpu_s"] for r in traced) / base - 1
    layers = {}
    for name in units:
        if name == "stats.trace_overhead_frac":
            layers[name] = overhead
        elif name == "stats.trace_base_s":
            layers[name] = base
        elif name == "sim.cmds_per_cpu_s":
            layers[name] = max(r["simulator"]["sim_cps"] for r in plain)
        elif name == "sim.run_s":
            layers[name] = min(r["simulator"]["run_s"] for r in plain)
        else:
            layers[name] = median([t["layers"][name] for t in traced])
    metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}

    print(f"workload {args.workload}  seed {args.seed}  sub-seed {ss}  "
          f"untraced/traced pairs {len(traced)}  chrome trace {chrome.relative_to(ROOT)}")
    print(f"{'layer metric':28s} {'value':>16s} unit")
    for name in units:
        print(f"{name:28s} {layers[name]:16.4f} {units[name]}")
    print(f"digest untraced {plain[0]['digest']}  traced {traced[0]['digest']}")
    for b in gate.breaches:
        print(f"BREACH {b}")
    return gate, plain + traced, metrics


def selftest():
    binary = build()
    ok = True
    for mode in ("--cross-check", "--neutrality"):
        ok = subprocess.run([str(binary), mode], cwd=ROOT).returncode == 0 and ok
    sys.exit(0 if ok else 1)


def run(binary, args):
    """One run; prints its tables and the result line, returns correctness."""
    gate, runs, metrics = (run_traced if args.trace else run_untraced)(binary, args)
    result = {
        "correct": not gate.breaches,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(SUBSEEDS) + ["all"],
                    help="'all' runs every workload untraced, then traced")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out "
                         "for confirming claims)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the cross-check against harness::run_chirper and the "
                         "neutrality check, then exit")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    if args.workload != "all":
        sys.exit(0 if run(binary, args) else 1)
    ok = True
    for workload in SUBSEEDS:
        for trace in (0, 1):
            ok = run(binary, argparse.Namespace(**{**vars(args), "workload": workload,
                                                   "trace": trace})) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
