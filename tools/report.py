#!/usr/bin/env python3
"""Render a self-contained HTML dashboard from a run-record JSON file.

Usage:
    tools/report.py BENCH_<experiment>.json [-o REPORT_<experiment>.html]
                    [--run LABEL]

Input is a run-record file (`dssmr.run_record.v*`; the current version is
stats::kRunRecordSchema) produced by any fig_* bench with --json; runs that
also passed --telemetry carry a `telemetry` section and get the full
dashboard (gauge sparklines, per-partition heat strips, windowed latency
percentiles, fault-window shading from timeline marks). Runs without
telemetry, and files older than v4, still get their headline metrics so a
mixed file renders usefully.

The output is one static HTML file: inline CSS + inline SVG, no JavaScript,
no external assets — it can be archived as a CI artifact and opened years
later. Stdlib only.

Exit codes: 0 = wrote the report, 2 = unreadable/invalid input.
"""

import argparse
import html
import json
import sys

# Restrained palette: one hue per role, used consistently across charts.
C_LINE = "#2563eb"      # gauge / p50 lines
C_P99 = "#dc2626"       # p99 line
C_FAULT = "#fca5a5"     # fault-window shading (drawn at low opacity)
C_MARK = "#7c3aed"      # non-fault event marks (e.g. repartitionings)
C_GRID = "#e5e7eb"
C_TEXT = "#374151"
C_MUTED = "#9ca3af"

SPARK_W, SPARK_H = 560, 44
HEAT_H = 18


def esc(s):
    return html.escape(str(s), quote=True)


def fmt(v):
    """Compact number for labels: 1234567 -> 1.2M, 0.034 -> 0.034."""
    if v is None:
        return "-"
    a = abs(v)
    if a >= 1e6:
        return f"{v / 1e6:.1f}M"
    if a >= 1e4:
        return f"{v / 1e3:.1f}k"
    if a >= 10 or v == int(v):
        return f"{v:.0f}"
    return f"{v:.3g}"


def load_records(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"report: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    schema = doc.get("schema", "")
    if not schema.startswith("dssmr.run_record."):
        print(f"report: {path}: unexpected schema {schema!r}", file=sys.stderr)
        sys.exit(2)
    if schema < "dssmr.run_record.v4":
        print(f"report: note: {schema} predates telemetry; headline metrics only",
              file=sys.stderr)
    return doc


def fault_windows(marks, t_end):
    """Pairs fault_begin/fault_end marks into [t0, t1] shading intervals.

    Begins and ends are matched in timeline order (the nemesis closes windows
    in the order it opened them for every shipped plan); an unmatched begin
    shades through to the end of the run.
    """
    out = []
    open_stack = []
    for m in sorted(marks, key=lambda m: m["t_us"]):
        if m["kind"] == "fault_begin":
            open_stack.append(m["t_us"])
        elif m["kind"] == "fault_end" and open_stack:
            out.append((open_stack.pop(0), m["t_us"]))
    for t0 in open_stack:
        out.append((t0, t_end))
    return out


def svg_shading(windows, t_end, width, height):
    """Translucent rects for disrupted intervals, in chart pixel space."""
    if t_end <= 0:
        return ""
    parts = []
    for t0, t1 in windows:
        x0 = width * t0 / t_end
        x1 = max(width * t1 / t_end, x0 + 1)
        parts.append(f'<rect x="{x0:.1f}" y="0" width="{x1 - x0:.1f}" '
                     f'height="{height}" fill="{C_FAULT}" opacity="0.35"/>')
    return "".join(parts)


def svg_marks(marks, t_end, height):
    """Vertical ticks for point events (kind == event)."""
    if t_end <= 0:
        return ""
    parts = []
    for m in marks:
        if m["kind"] != "event":
            continue
        x = SPARK_W * m["t_us"] / t_end
        parts.append(f'<line x1="{x:.1f}" y1="0" x2="{x:.1f}" y2="{height}" '
                     f'stroke="{C_MARK}" stroke-width="1" opacity="0.7">'
                     f'<title>{esc(m["label"])}</title></line>')
    return "".join(parts)


def polyline(xs, ys, color, width=1.5):
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def scale_y(values, height, pad=3):
    """Maps values to pixel y (inverted); constant series draw mid-height."""
    vmin, vmax = min(values), max(values)
    if vmax == vmin:
        return [height / 2.0] * len(values)
    return [height - pad - (height - 2 * pad) * (v - vmin) / (vmax - vmin)
            for v in values]


def sparkline(name, ticks, values, t_end, shading, marks_svg, label_extra=""):
    """One gauge row: name, min/max/last labels, SVG line with fault shading."""
    if not values:
        return ""
    xs = [SPARK_W * t / t_end if t_end else 0 for t in ticks]
    ys = scale_y(values, SPARK_H)
    stats = (f"min {fmt(min(values))} · max {fmt(max(values))} · "
             f"last {fmt(values[-1])}{label_extra}")
    return f"""
<div class="spark-row">
  <div class="spark-name">{esc(name)}<span class="spark-stats">{stats}</span></div>
  <svg width="{SPARK_W}" height="{SPARK_H}" viewBox="0 0 {SPARK_W} {SPARK_H}">
    <rect width="{SPARK_W}" height="{SPARK_H}" fill="#fafafa"/>
    {shading}{marks_svg}
    <line x1="0" y1="{SPARK_H - 1}" x2="{SPARK_W}" y2="{SPARK_H - 1}" stroke="{C_GRID}"/>
    {polyline(xs, ys, C_LINE)}
  </svg>
</div>"""


def cache_effectiveness(gauges, ticks, t_end, shading, marks_svg):
    """Paired sparkline of the windowed location-cache hit rate (blue)
    against the oracle consult rate (red), on one shared 0-based scale —
    the two series are complementary by construction (a consult is a miss
    the prefetcher failed to absorb), so divergence over time is the
    cache-warming story at a glance."""
    hits = gauges.get("locality.window_hit_rate")
    consults = gauges.get("locality.consult_rate")
    if not hits or not consults:
        return ""
    xs = [SPARK_W * t / t_end if t_end else 0 for t in ticks]
    # One scale for both lines, anchored at 0 so the rates stay comparable.
    top = max(max(hits), max(consults), 1e-9)
    pad = 3

    def to_y(vals):
        return [SPARK_H - pad - (SPARK_H - 2 * pad) * v / top for v in vals]

    stats = (f"hit rate last {fmt(hits[-1])} · "
             f"consult rate last {fmt(consults[-1])}")
    return f"""
<h3>Cache effectiveness</h3>
<div class="spark-row">
  <div class="spark-name"><span style="color:{C_LINE}">hit rate</span> vs
    <span style="color:{C_P99}">consult rate</span>
    <span class="spark-stats">{stats}</span></div>
  <svg width="{SPARK_W}" height="{SPARK_H}" viewBox="0 0 {SPARK_W} {SPARK_H}">
    <rect width="{SPARK_W}" height="{SPARK_H}" fill="#fafafa"/>
    {shading}{marks_svg}
    <line x1="0" y1="{SPARK_H - 1}" x2="{SPARK_W}" y2="{SPARK_H - 1}" stroke="{C_GRID}"/>
    {polyline(xs, to_y(hits), C_LINE)}
    {polyline(xs, to_y(consults), C_P99)}
  </svg>
</div>"""


def heat_color(frac):
    """White -> amber -> red ramp for command-count intensity in [0, 1]."""
    if frac <= 0:
        return "#ffffff"
    # interpolate white (255,255,255) -> amber (245,158,11) -> red (220,38,38)
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = 255 + t * (245 - 255), 255 + t * (158 - 255), 255 + t * (11 - 255)
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = 245 + t * (220 - 245), 158 + t * (38 - 158), 11 + t * (38 - 11)
    return f"rgb({r:.0f},{g:.0f},{b:.0f})"


def heat_strip(partitions, interval_us, t_end, shading_windows):
    """Per-partition bucket strips colored by command count; a cell's tooltip
    carries the exact counts. One shared scale across partitions so hot spots
    compare visually."""
    n_buckets = max((len(p.get("commands", [])) for p in partitions), default=0)
    if n_buckets == 0:
        return "<p class='muted'>no partition heat recorded</p>"
    peak = max((max(p["commands"], default=0) for p in partitions), default=0)
    cell_w = SPARK_W / n_buckets
    rows = []
    for i, p in enumerate(partitions):
        commands = p.get("commands", [])
        multi = p.get("multi", [])
        moves = p.get("moves", [])
        cells = []
        for b in range(n_buckets):
            c = commands[b] if b < len(commands) else 0
            m = multi[b] if b < len(multi) else 0
            mv = moves[b] if b < len(moves) else 0
            t0_ms = b * interval_us / 1000.0
            tip = (f"p{i} [{t0_ms:.0f}ms): {c} commands, {m} cross-partition, "
                   f"{mv} moves")
            cells.append(
                f'<rect x="{b * cell_w:.1f}" y="0" width="{cell_w + 0.5:.1f}" '
                f'height="{HEAT_H}" fill="{heat_color(c / peak if peak else 0)}">'
                f'<title>{esc(tip)}</title></rect>')
        shade = svg_shading(shading_windows, t_end, SPARK_W, HEAT_H)
        total = p.get("total_commands", 0)
        multi_pct = (100.0 * p.get("total_multi", 0) / total) if total else 0.0
        label = (f"p{i}<span class='spark-stats'>{fmt(total)} cmds · "
                 f"{multi_pct:.1f}% cross-partition · "
                 f"{fmt(p.get('total_moves', 0))} moves</span>")
        rows.append(f"""
<div class="spark-row">
  <div class="spark-name">{label}</div>
  <svg width="{SPARK_W}" height="{HEAT_H}" viewBox="0 0 {SPARK_W} {HEAT_H}">
    {''.join(cells)}{shade}
  </svg>
</div>""")
    return "".join(rows)


def latency_chart(windows, interval_us, t_end, shading, marks_svg):
    """p50 and p99 per latency window on one log-free chart (two lines)."""
    pts = [(i, w) for i, w in enumerate(windows) if w.get("count", 0) > 0]
    if not pts:
        return "<p class='muted'>no latency windows recorded</p>"
    h = 72
    xs = [SPARK_W * ((i + 0.5) * interval_us) / t_end if t_end else 0 for i, _ in pts]
    p50 = [w["p50"] for _, w in pts]
    p99 = [w["p99"] for _, w in pts]
    # One shared y scale so the p50/p99 gap is visible.
    all_vals = p50 + p99
    vmin, vmax = min(all_vals), max(all_vals)
    span = (vmax - vmin) or 1

    def to_y(v):
        return h - 4 - (h - 8) * (v - vmin) / span

    return f"""
<div class="spark-row">
  <div class="spark-name">latency per window
    <span class="spark-stats"><span style="color:{C_LINE}">p50</span> ·
    <span style="color:{C_P99}">p99</span> · peak p99 {fmt(max(p99))}us</span>
  </div>
  <svg width="{SPARK_W}" height="{h}" viewBox="0 0 {SPARK_W} {h}">
    <rect width="{SPARK_W}" height="{h}" fill="#fafafa"/>
    {svg_shading(shading, t_end, SPARK_W, h) if shading else ''}{marks_svg}
    <line x1="0" y1="{h - 1}" x2="{SPARK_W}" y2="{h - 1}" stroke="{C_GRID}"/>
    {polyline(xs, [to_y(v) for v in p50], C_LINE)}
    {polyline(xs, [to_y(v) for v in p99], C_P99)}
  </svg>
</div>"""


def marks_table(marks):
    if not marks:
        return ""
    rows = "".join(
        f"<tr><td>{m['t_us'] / 1000.0:.1f}ms</td>"
        f"<td class='kind-{esc(m['kind'])}'>{esc(m['kind'])}</td>"
        f"<td>{esc(m['label'])}</td></tr>"
        for m in marks)
    return f"""
<details><summary>{len(marks)} timeline marks</summary>
<table class="marks"><tr><th>t</th><th>kind</th><th>label</th></tr>{rows}</table>
</details>"""


def meta_line(meta):
    keys = ["strategy", "placement", "partitions", "seed", "nemesis",
            "throughput_cps", "latency_p50_us", "latency_p99_us"]
    parts = []
    for k in keys:
        if k in meta:
            v = meta[k]
            try:
                v = fmt(float(v))
            except ValueError:
                pass
            parts.append(f"{k}={esc(v)}")
    return " · ".join(parts)


def render_run(run):
    label = run.get("label", "?")
    out = [f"<section><h2>{esc(label)}</h2>",
           f"<p class='meta'>{meta_line(run.get('meta', {}))}</p>"]
    tel = run.get("telemetry")
    if tel is None:
        out.append("<p class='muted'>no telemetry section — rerun the bench "
                   "with <code>--telemetry --json</code> for the full "
                   "dashboard</p></section>")
        return "".join(out)

    interval = tel.get("interval_us", 0)
    ticks = tel.get("ticks", [])
    marks = tel.get("marks", [])
    # Run extent: whichever facility saw the latest data.
    n_heat = max((len(p.get("commands", [])) for p in tel.get("partitions", [])),
                 default=0)
    t_end = max(ticks[-1] if ticks else 0,
                n_heat * interval,
                len(tel.get("latency_windows", [])) * interval,
                max((m["t_us"] for m in marks), default=0))
    shading_windows = fault_windows(marks, t_end)
    shading = svg_shading(shading_windows, t_end, SPARK_W, SPARK_H)
    marks_svg = svg_marks(marks, t_end, SPARK_H)

    if shading_windows:
        out.append(f"<p class='meta'>shaded intervals: {len(shading_windows)} "
                   "fault window(s) from the nemesis timeline</p>")

    out.append("<h3>Partition heat</h3>")
    out.append(heat_strip(tel.get("partitions", []), interval, t_end,
                          shading_windows))

    loc = [v for v in tel.get("locality", []) if v is not None]
    if loc:
        out.append(f"<p class='meta'>locality (single-partition fraction): "
                   f"min {min(loc):.3f} · mean {sum(loc) / len(loc):.3f}</p>")

    out.append(cache_effectiveness(tel.get("gauges", {}), ticks, t_end,
                                   shading, marks_svg))

    out.append("<h3>Latency</h3>")
    out.append(latency_chart(tel.get("latency_windows", []), interval, t_end,
                             shading_windows, marks_svg))

    out.append("<h3>Gauges</h3>")
    for name, values in tel.get("gauges", {}).items():
        out.append(sparkline(name, ticks, values, t_end, shading, marks_svg))

    out.append(marks_table(marks))
    out.append("</section>")
    return "".join(out)


STYLE = f"""
body {{ font: 14px/1.5 system-ui, sans-serif; color: {C_TEXT};
       max-width: 880px; margin: 2em auto; padding: 0 1em; }}
h1 {{ font-size: 1.4em; }} h2 {{ font-size: 1.15em; margin-bottom: 0.2em;
     border-bottom: 1px solid {C_GRID}; }}
h3 {{ font-size: 0.95em; margin: 1em 0 0.3em; }}
.meta, .muted {{ color: {C_MUTED}; margin: 0.2em 0; }}
.spark-row {{ display: flex; align-items: center; gap: 12px; margin: 3px 0; }}
.spark-name {{ width: 260px; font-size: 12px; overflow-wrap: anywhere; }}
.spark-stats {{ display: block; color: {C_MUTED}; font-size: 11px; }}
table.marks {{ border-collapse: collapse; font-size: 12px; margin-top: 0.4em; }}
table.marks td, table.marks th {{ border: 1px solid {C_GRID};
    padding: 2px 8px; text-align: left; }}
.kind-fault_begin {{ color: {C_P99}; }} .kind-fault_end {{ color: #16a34a; }}
.kind-event {{ color: {C_MARK}; }}
details summary {{ cursor: pointer; color: {C_MUTED}; margin-top: 0.6em; }}
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("input", help="run-record JSON (fig_* --json output)")
    ap.add_argument("-o", "--output", default=None,
                    help="output HTML path (default: REPORT_<experiment>.html)")
    ap.add_argument("--run", default=None,
                    help="render only the run with this label")
    args = ap.parse_args()

    doc = load_records(args.input)
    runs = doc.get("runs", [])
    if args.run is not None:
        runs = [r for r in runs if r.get("label") == args.run]
        if not runs:
            print(f"report: no run labelled {args.run!r} in {args.input}",
                  file=sys.stderr)
            sys.exit(2)
    if not runs:
        print(f"report: {args.input} has no runs", file=sys.stderr)
        sys.exit(2)

    experiment = doc.get("experiment", "run")
    out_path = args.output or f"REPORT_{experiment}.html"
    with_tel = sum(1 for r in runs if "telemetry" in r)

    body = "".join(render_run(r) for r in runs)
    html_doc = f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>dssmr run report — {esc(experiment)}</title>
<style>{STYLE}</style></head><body>
<h1>dssmr run report — {esc(experiment)}</h1>
<p class="meta">{esc(doc.get('schema', ''))} · {len(runs)} run(s), {with_tel}
with telemetry · source {esc(args.input)}</p>
{body}
</body></html>
"""
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(html_doc)
    print(f"wrote {out_path} ({len(runs)} runs, {with_tel} with telemetry)")


if __name__ == "__main__":
    main()
