#!/usr/bin/env python3
"""Smoke test for heapprof: profiles heapprof_smoke and checks the report.

    python3 smoke_test.py LIBHEAPPROF SMOKE_BINARY PROFILE_OUT

The driver's heap peaks on Chirper timelines: 5000 shared posts of 100
characters and 1000 rings of 50 post pointers. The profile must see that
peak, and the report must put most of it in the chirper layer.
"""
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, str(Path(__file__).resolve().parent))
import heapprof_report  # noqa: E402


def main():
    lib, binary, out = sys.argv[1:4]
    env = dict(os.environ, LD_PRELOAD=lib, HEAPPROF_OUT=out)
    subprocess.run([binary], env=env, check=True)
    header, layers, top = heapprof_report.analyse(out)
    snap = header["snapshot_bytes"]
    chirper = layers.get("chirper", [0, 0])[0]
    print(f"peak {header['peak_bytes']} B, snapshot {snap} B, chirper {chirper} B")
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
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
