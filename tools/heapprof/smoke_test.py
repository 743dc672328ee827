#!/usr/bin/env python3
"""Smoke test for heapprof: profiles heapprof_smoke and checks the report.

    python3 smoke_test.py LIBHEAPPROF SMOKE_BINARY PROFILE_OUT

The driver's heap peaks on Chirper timelines: 5000 shared posts of 100
characters and 1000 rings of 50 post pointers, plus the 5000 reply messages
it keeps. The profile must see that peak, and the report must put most of it
in the chirper layer. The replies must be booked to the line of ChirperApp
that builds them, not to net: net::make_msg is a generic constructor, and
the net layer itself holds nothing here.
"""
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, str(Path(__file__).resolve().parent))
import heapprof_report  # noqa: E402

POSTS = 5000
CHIRPER_SRC = Path(__file__).resolve().parents[2] / "src" / "chirper" / "chirper.cpp"
# The statement in ChirperApp::execute that builds a post's reply.
REPLY_SITE = "make_msg<StatusReply>(view.get(poster)"


def reply_frame():
    """'(chirper/chirper.cpp:N)', N being the line that builds a post's reply."""
    for n, line in enumerate(CHIRPER_SRC.read_text().splitlines(), 1):
        if REPLY_SITE in line:
            return f"(chirper/chirper.cpp:{n})"
    sys.exit(f"{CHIRPER_SRC}: no line contains {REPLY_SITE}")


def main():
    lib, binary, out = sys.argv[1:4]
    env = dict(os.environ, LD_PRELOAD=lib, HEAPPROF_OUT=out)
    subprocess.run([binary], env=env, check=True)
    header, layers, top = heapprof_report.analyse(out)
    snap = header["snapshot_bytes"]
    chirper = layers.get("chirper", [0, 0])[0]
    net = sum(n for layer, (n, _) in layers.items() if layer.split()[0] == "net")
    site = reply_frame()
    replies = sum(c for _, c, layer, frame in top if layer == "chirper" and frame.endswith(site))
    print(f"peak {header['peak_bytes']} B, snapshot {snap} B, chirper {chirper} B, "
          f"net {net} B, {replies} live replies at {site}")
    for n, c, layer, frame in top[:5]:
        print(f"  {n} B in {c} blocks: {layer} {frame}")
    # Posts alone hold 5000 * (100-character text + shared block) > 0.8 MB.
    errors = []
    if not 0 < snap <= header["peak_bytes"]:
        errors.append("snapshot outside (0, peak]")
    if snap < 1_000_000:
        errors.append("snapshot misses the timeline state")
    if chirper < 0.75 * snap:
        errors.append("chirper layer holds under 75% of the snapshot")
    if not any("chirper/" in frame for _, _, _, frame in top[:3]):
        errors.append("no chirper frame among the three largest sites")
    # The snapshot is taken at the last peak, a few posts before the end.
    if replies < 0.9 * POSTS:
        errors.append(f"under 90% of the {POSTS} replies booked to {site}")
    if net >= 0.01 * snap:
        errors.append("net layer holds 1% or more of the snapshot")
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
