#!/usr/bin/env python3
"""Gate the wall-clock microbenches against the committed baseline.

Usage:
    tools/perf_compare.py BASELINE.json CURRENT.json [CURRENT.json ...] [--hard]
    tools/perf_compare.py --self-test

Every file is google-benchmark JSON (`--benchmark_out_format=json`): a
`benchmarks` list whose entries carry `name` and `items_per_second`. The
current reports are merged, so one comparison covers micro_multicast and
micro_workload. A case reported once per repetition
(`--benchmark_repetitions`) counts by the median of its rates; aggregate rows
(`run_type: aggregate`) are ignored.

Gates:
  * each case in GATED is a wall-clock rate and may regress by at most
    WIDE_TOLERANCE of the baseline: the committed baseline comes from a
    dedicated box and CI runs on shared runners;
  * the Zipf speedup, the alias sampler's rate over the inverse-CDF
    sampler's (ZIPF_RATIO), is a ratio of two timings taken on the same
    machine and may regress by at most TOLERANCE.
Improvements never fail. Other cases are printed, not gated.

Exit codes:
    0  within tolerance (or regressions without --hard)
    1  regression with --hard
    2  structural error: unreadable input, or a gated case missing from the
       baseline or from the current reports. Fatal in BOTH modes: a
       comparison that could not compare must never pass silently.

--self-test checks that the committed BENCH_perf.json holds every gated case
and feeds synthetic reports through the gate, one per exit code above; CI
runs it so a gate that can no longer fail is itself a failure.

End-to-end runs are measured by perfbench/, and their deterministic promises
are asserted by tests/promise_test.cpp. See EXPERIMENTS.md "Microbenches".
"""

import argparse
import contextlib
import io
import json
import pathlib
import statistics
import sys
import tempfile

WIDE_TOLERANCE = 0.60
TOLERANCE = 0.15

GATED = [
    "BM_EngineScheduleFire/real_time",
    "BM_EngineScheduleCancel/real_time",
    "BM_NetworkMultisend/16/real_time",
    "BM_FlatMapLocate/100000/real_time",
    "BM_ZipfSampleAlias/100000/real_time",
    "BM_ProphecyApply/real_time",
]
# (numerator, denominator) of the Zipf speedup.
ZIPF_RATIO = ("BM_ZipfSampleAlias/100000/real_time", "BM_ZipfSampleCdf/100000/real_time")

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"


class Structural(Exception):
    pass


def rates(paths):
    """Case name -> median items_per_second over its per-repetition rows."""
    runs = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise Structural(f"cannot read {path}: {e}") from e
        benches = doc.get("benchmarks") if isinstance(doc, dict) else None
        if not isinstance(benches, list):
            raise Structural(f"{path}: no benchmarks list")
        for b in benches:
            if b.get("run_type") == "aggregate" or "items_per_second" not in b:
                continue
            if "name" not in b:
                raise Structural(f"{path}: benchmark entry without a name")
            runs.setdefault(b["name"], []).append(float(b["items_per_second"]))
    return {name: statistics.median(v) for name, v in runs.items()}


def speedup(r):
    num, den = ZIPF_RATIO
    return r[num] / r[den] if num in r and r.get(den, 0) > 0 else None


def compare(baseline, currents, hard):
    """Prints the comparison table and returns the exit code."""
    try:
        base, cur = rates([baseline]), rates(currents)
    except Structural as e:
        print(f"perf_compare: ERROR: {e}", file=sys.stderr)
        return 2

    rows, structural, regressions = [], [], []

    def gate(label, b, c, tolerance):
        if b is None or c is None:
            where = "baseline" if b is None else "current reports"
            structural.append(f"{label}: missing from the {where}")
            return
        ratio = c / b if b > 0 else 0.0
        flag = ""
        if b > 0 and ratio < 1.0 - tolerance:
            flag = "REGRESSION"
            regressions.append(f"{label}: {c:.2f} vs baseline {b:.2f} "
                               f"({(1.0 - ratio) * 100:.1f}% lower, tolerance "
                               f"{tolerance * 100:.0f}%)")
        rows.append((label, b, c, ratio, flag))

    for name in GATED:
        gate(name, base.get(name), cur.get(name), WIDE_TOLERANCE)
    gate("zipf.speedup_vs_cdf", speedup(base), speedup(cur), TOLERANCE)
    for name in sorted(set(cur) - set(GATED)):
        rows.append((name, base.get(name, 0.0), cur[name], 0.0, "not gated"))

    print(f"{'metric':<40} {'baseline':>14} {'current':>14} {'ratio':>7}")
    for name, b_v, c_v, ratio, flag in rows:
        print(f"{name:<40} {b_v:>14.2f} {c_v:>14.2f} {ratio:>7.2f} {flag}")

    if structural:
        print()
        for s in structural:
            print(f"perf_compare: ERROR: {s}", file=sys.stderr)
        return 2
    if regressions:
        print()
        for r in regressions:
            print(f"perf_compare: {'FAIL' if hard else 'WARN'}: {r}", file=sys.stderr)
        return 1 if hard else 0
    print("\nperf_compare: all gated cases within tolerance")
    return 0


def self_test():
    """The committed baseline is complete, and each exit code is reachable."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def report(name, scale=None, drop=None, extra=()):
            base = {n: 1e7 for n in GATED}
            base[ZIPF_RATIO[1]] = 1e6
            base.update(scale or {})
            rows = [{"name": n, "run_type": "iteration", "items_per_second": v}
                    for n, v in base.items() if n != drop]
            path = pathlib.Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"benchmarks": rows + list(extra)}))
            return path

        baseline = report("baseline")
        # GATED[0] runs five repetitions, two of them far out of band: the
        # median keeps it in. An aggregate row is not a repetition.
        reps = [{"name": GATED[0], "run_type": "iteration", "items_per_second": v}
                for v in (1e6, 1e6, 0.7e7, 0.7e7)]
        reps.append({"name": GATED[1], "run_type": "aggregate", "items_per_second": 1.0})
        within = report("within", {n: 0.7e7 for n in GATED} | {ZIPF_RATIO[1]: 0.7e6},
                        extra=reps)
        unreadable = pathlib.Path(tmp) / "unreadable.json"
        unreadable.write_text("{ not json")
        cases = [
            ("the committed baseline against itself", BASELINE, [BASELINE], 0),
            ("everything within band", baseline, [within], 0),
            ("one gated rate 61% slower", baseline, [report("slow", {GATED[0]: 0.39e7})], 1),
            ("Zipf ratio 16% low", baseline, [report("zipf", {ZIPF_RATIO[1]: 1e6 / 0.84})], 1),
            ("a gated case missing", baseline, [report("missing", drop=GATED[-1])], 2),
            ("an unreadable file", baseline, [within, unreadable], 2),
        ]
        for what, base, currents, want in cases:
            with contextlib.redirect_stdout(io.StringIO()), \
                 contextlib.redirect_stderr(io.StringIO()):
                got = compare(base, currents, hard=True)
            if got != want:
                failures.append(f"{what}: exit {got}, want {want}")
    for f in failures:
        print(f"perf_compare: self-test FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"perf_compare: self-test OK ({len(cases)} cases)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reports", nargs="*", metavar="BASELINE CURRENT...")
    ap.add_argument("--hard", action="store_true",
                    help="exit 1 on regression instead of warn-only")
    ap.add_argument("--self-test", action="store_true",
                    help="check the exit codes on synthetic reports, then exit")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if len(args.reports) < 2:
        ap.error("need a baseline and at least one current report")
    sys.exit(compare(args.reports[0], args.reports[1:], args.hard))


if __name__ == "__main__":
    main()
