#!/usr/bin/env python3
"""Compare two perf_suite reports (schema dssmr.perf.v1) with tolerance bands.

Usage:
    tools/perf_compare.py BASELINE.json CURRENT.json [--hard]

Exit codes:
    0  within tolerance (or regressions in warn-only mode)
    1  regression with --hard
    2  structural error: unreadable input, schema mismatch, or a bench /
       metric present in the baseline but missing from the current report.
       Structural errors are fatal in BOTH modes — a comparison that could
       not actually compare must never pass silently.

Each bench's items_per_sec may regress by at most WIDE_TOLERANCE of the
baseline: it is a wall-clock rate, the committed baseline comes from a
dedicated box and CI runs on shared runners. Each metric in GATED_EXTRAS is
a ratio of two timings taken on the same machine and may regress by at most
TOLERANCE. Improvements never fail.

perf_suite holds only microbenches. End-to-end runs are measured by
perfbench/, and their deterministic promises are asserted by
tests/promise_test.cpp on every ctest run.

CI runs this with --hard after `perf_suite --smoke --json`; the printed
table is uploaded as a build artifact. See EXPERIMENTS.md "Perf suite".
"""

import argparse
import json
import sys

WIDE_TOLERANCE = 0.60
TOLERANCE = 0.15

# Metrics gated per bench, beyond the every-bench items_per_sec check.
GATED_EXTRAS = {"zipf.sample": ["speedup_vs_cdf"]}


def die(msg):
    print(f"perf_compare: ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")
    if doc.get("schema") != "dssmr.perf.v1":
        die(f"{path}: unexpected schema {doc.get('schema')!r}")
    benches = doc.get("benches")
    if not isinstance(benches, list) or not benches:
        die(f"{path}: no benches array")
    for b in benches:
        if "name" not in b:
            die(f"{path}: bench entry without a name")
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--hard", action="store_true",
                    help="exit 1 on regression instead of warn-only")
    args = ap.parse_args()

    base = {b["name"]: b for b in load(args.baseline)["benches"]}
    cur = {b["name"]: b for b in load(args.current)["benches"]}

    structural = []
    regressions = []
    rows = []

    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            structural.append(f"{name}: missing from current report")
            continue

        b_rate, c_rate = b.get("items_per_sec", 0.0), c.get("items_per_sec", 0.0)
        if b_rate > 0:
            ratio = c_rate / b_rate
            flag = ""
            if ratio < 1.0 - WIDE_TOLERANCE:
                flag = "REGRESSION"
                regressions.append(
                    f"{name}: {c_rate:.0f} items/s vs baseline {b_rate:.0f} "
                    f"({(1.0 - ratio) * 100:.1f}% slower, tolerance "
                    f"{WIDE_TOLERANCE * 100:.0f}%)")
            rows.append((name, b_rate, c_rate, ratio, flag))

        for metric in GATED_EXTRAS.get(name, []):
            b_v = b.get(metric)
            c_v = c.get(metric)
            if b_v is None:
                continue  # older baseline without the metric: nothing to gate
            if c_v is None:
                structural.append(f"{name}.{metric}: missing from current report")
                continue
            label = f"{name}.{metric}"
            flag = ""
            if b_v > 0 and c_v / b_v < 1.0 - TOLERANCE:
                flag = "REGRESSION"
                regressions.append(
                    f"{label}: {c_v:.3f} vs baseline {b_v:.3f} "
                    f"(tolerance {TOLERANCE * 100:.0f}%)")
            rows.append((label, float(b_v), float(c_v),
                         float(c_v) / float(b_v) if b_v else 0.0, flag))

    for name in sorted(set(cur) - set(base)):
        rows.append((name, 0.0, cur[name].get("items_per_sec", 0.0), 0.0, "new"))

    print(f"{'metric':<40} {'baseline':>14} {'current':>14} {'ratio':>7}")
    for name, b_v, c_v, ratio, flag in rows:
        print(f"{name:<40} {b_v:>14.2f} {c_v:>14.2f} {ratio:>7.2f} {flag}")

    if structural:
        print()
        for s in structural:
            print(f"perf_compare: ERROR: {s}", file=sys.stderr)
        sys.exit(2)

    if regressions:
        print()
        for r in regressions:
            print(f"perf_compare: {'FAIL' if args.hard else 'WARN'}: {r}",
                  file=sys.stderr)
        if args.hard:
            sys.exit(1)
    else:
        print("\nperf_compare: all benches within tolerance")


if __name__ == "__main__":
    main()
