#!/usr/bin/env python3
"""Compare two perf_suite reports (schema dssmr.perf.v1) with tolerance bands.

Usage:
    tools/perf_compare.py BASELINE.json CURRENT.json [--tolerance 0.15] [--hard]

Exit codes:
    0  within tolerance (or regressions in warn-only mode)
    1  regression with --hard
    2  structural error: unreadable input, schema mismatch, or a bench /
       metric present in the baseline but missing from the current report.
       Structural errors are fatal in BOTH modes — a comparison that could
       not actually compare must never pass silently.

Two kinds of checks:

  * Tolerance bands — each gated metric may regress by at most its band
    (fraction of the baseline value). Deterministic metrics (simulator-event
    ratios, speedups of paired runs on the same machine) get the default
    --tolerance (0.15); wall-clock rates measured on shared CI runners are
    noisy and get the wider band from WIDE_TOLERANCE. Improvements never
    fail.
  * Hard floors — REQUIRED_MIN pins minimum absolute values independent of
    the baseline (the batching speedup promise). Exact markers
    (results_identical, counters_identical) must stay 1: a determinism break
    is an error at any tolerance, because it is not a timing measurement.

CI runs this with --hard after `perf_suite --smoke --json`; the printed
table is uploaded as a build artifact. See EXPERIMENTS.md "Perf suite".
"""

import argparse
import json
import sys

# Wall-clock rates: machine-dependent (the committed baseline comes from a
# dedicated box, CI runs on shared runners), so the band is wide. Anything
# not listed uses the --tolerance default.
WIDE_TOLERANCE = 0.60

# Metrics gated per bench, beyond the every-bench items_per_sec check:
# name -> (kind, band) where kind is "wide" (WIDE_TOLERANCE), "default"
# (--tolerance), or "exact" (must match the baseline exactly).
GATED_EXTRAS = {
    "zipf.sample": {"speedup_vs_cdf": "default"},
    "chirper.telemetry": {"counters_identical": "exact"},
    "chirper.batched": {
        # Wall-clock pair ratio: same machine for both halves, but still a
        # timing measurement — wide band.
        "speedup_vs_unbatched": "wide",
        # Simulator events per command are deterministic per seed; the small
        # drift between --smoke and full windows fits the default band.
        "event_ratio": "default",
    },
    "chirper.locality": {
        # Deterministic per seed, but the --smoke window is much shorter so
        # the cold-miss phase weighs more and the on/off ratios land in a
        # different regime than the committed full-window baseline — wide.
        "consult_ratio": "wide",
        "event_ratio": "wide",
        "throughput_ratio": "wide",
    },
    "chirper.elastic": {
        # On/off throughput of the same seed with and without a scale plan,
        # deterministic per seed, but the --smoke windows shift where the
        # rebalance settles relative to the measured window — wide.
        "throughput_ratio": "wide",
    },
    "sweep.parallel": {"results_identical": "exact"},
}

# Absolute floors, enforced against the CURRENT report regardless of the
# baseline. The batching/pipelining hot path must stay a >= 1.5x win.
REQUIRED_MIN = {
    "chirper.batched": {"event_ratio": 1.5},
    # The locality fast path promise: prophecy prefetch must at least halve
    # deterministic oracle consults per command, do strictly less simulator
    # work per command, and never trade throughput away for it. Ratios are
    # off/on (consults, events) and on/off (throughput), all deterministic
    # per seed, so these floors are exact gates rather than noisy timing.
    "chirper.locality": {
        "consult_ratio": 2.0,
        "event_ratio": 1.0,
        "throughput_ratio": 1.0,
    },
    # The elasticity promise: with the scale event inside warmup, running
    # with a live partition add must keep >= 95% of the no-plan steady-state
    # throughput (the rebalance window itself is excluded by construction).
    "chirper.elastic": {"throughput_ratio": 0.95},
}


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
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="max fractional regression for deterministic metrics "
                         "(default 0.15); wall-clock rates use the wider "
                         f"{WIDE_TOLERANCE:.0%} band")
    ap.add_argument("--hard", action="store_true",
                    help="exit 1 on regression instead of warn-only")
    args = ap.parse_args()

    base = {b["name"]: b for b in load(args.baseline)["benches"]}
    cur = {b["name"]: b for b in load(args.current)["benches"]}

    structural = []
    regressions = []
    rows = []

    def band(kind):
        return WIDE_TOLERANCE if kind == "wide" else args.tolerance

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

        for metric, kind in GATED_EXTRAS.get(name, {}).items():
            b_v = b.get(metric)
            c_v = c.get(metric)
            if b_v is None:
                continue  # older baseline without the metric: nothing to gate
            if c_v is None:
                structural.append(f"{name}.{metric}: missing from current report")
                continue
            label = f"{name}.{metric}"
            if kind == "exact":
                flag = "" if c_v == b_v else "REGRESSION"
                if flag:
                    regressions.append(f"{label}: {c_v} vs required {b_v}")
            else:
                flag = ""
                if b_v > 0 and c_v / b_v < 1.0 - band(kind):
                    flag = "REGRESSION"
                    regressions.append(
                        f"{label}: {c_v:.3f} vs baseline {b_v:.3f} "
                        f"(tolerance {band(kind) * 100:.0f}%)")
            rows.append((label, float(b_v), float(c_v),
                         float(c_v) / float(b_v) if b_v else 0.0, flag))

    for name, floors in REQUIRED_MIN.items():
        c = cur.get(name)
        if c is None:
            continue  # already a structural error above
        for metric, floor in floors.items():
            c_v = c.get(metric)
            if c_v is None:
                structural.append(f"{name}.{metric}: missing from current report")
            elif c_v < floor:
                regressions.append(
                    f"{name}.{metric}: {c_v:.3f} below required minimum {floor}")

    for name in sorted(set(cur) - set(base)):
        rows.append((name, 0.0, cur[name].get("items_per_sec", 0.0), 0.0, "new"))

    print(f"{'metric':<40} {'baseline':>14} {'current':>14} {'ratio':>7}")
    for name, b_v, c_v, ratio, flag in rows:
        print(f"{name:<40} {b_v:>14.2f} {c_v:>14.2f} {ratio:>7.2f} {flag}")

    # Telemetry overhead is a measurement we track, not a pass/fail rate: the
    # recorder's promise is "cheap when on, free when off", so surface the
    # on-vs-off wall-clock diff and flag when it drifts noticeably.
    tel_base = base.get("chirper.telemetry", {}).get("overhead_pct")
    tel_cur = cur.get("chirper.telemetry", {}).get("overhead_pct")
    if tel_cur is not None:
        line = f"telemetry overhead: {tel_cur:+.1f}% on-vs-off"
        if tel_base is not None:
            line += f" (baseline {tel_base:+.1f}%)"
            if tel_cur > tel_base + 100.0 * WIDE_TOLERANCE:
                regressions.append(
                    f"chirper.telemetry: recorder overhead {tel_cur:.1f}% vs "
                    f"baseline {tel_base:.1f}%")
        print(f"\n{line}")

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
