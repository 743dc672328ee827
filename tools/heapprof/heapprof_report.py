#!/usr/bin/env python3
"""Symbolizes a heapprof profile and groups its live bytes at the heap peak by
layer.

    python3 tools/heapprof/heapprof_report.py PROFILE [AFTER] [--sites N]

With one profile it prints the bytes each layer held in the peak snapshot and
the N largest call sites. With two (before and after a change) it prints the
per-layer table side by side with the difference.

A call site belongs to the layer of its innermost frame under src/ outside
the generic containers and constructors (src/common/, core/mapping.h,
net/message.h): that frame is the code that chose to keep the memory, so a
message is booked to the layer that built it. Frames are resolved with addr2line, inlined
frames included, so the binaries must carry debug info (RelWithDebInfo does).
Sites with no such frame count as "driver" (bench, test, example or tool
code) or "runtime" (libc, libstdc++, the loader).
"""
import argparse
import bisect
import struct
import subprocess
import sys
from collections import defaultdict

# (path fragment, layer), first match wins; matched against a source path
# relative to src/.
LAYERS = [
    ("chirper/", "chirper"),
    ("consensus/", "paxos"),
    ("multicast/atomic", "amcast"),
    ("multicast/reliable", "rmcast"),
    ("multicast/client", "client"),
    ("multicast/", "multicast"),
    ("net/", "net"),
    ("core/server_proxy", "server"),
    ("smr/", "server"),
    ("core/client_proxy", "client"),
    ("core/oracle", "oracle"),
    ("sim/", "engine"),
    ("stats/", "stats"),
]
# Containers and helpers whose owner is the next frame out; net::make_msg
# (net/message.h) is how every layer builds its messages.
GENERIC = ("common/", "core/mapping.h", "net/message.h")
SELF = "libheapprof"


def parse_profile(path):
    header, sites, maps = {}, [], []
    with open(path) as f:
        in_maps = False
        for line in f:
            if in_maps:
                maps.append(line)
                continue
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "maps":
                in_maps = True
            elif parts[0] == "site":
                ips = [int(x, 16) for x in parts[3:] if x not in ("(nil)", "0x0")]
                sites.append((int(parts[1]), int(parts[2]), ips))
            elif len(parts) == 2 and parts[1].isdigit():
                header[parts[0]] = int(parts[1])
    if "snapshot_bytes" not in header:
        sys.exit(f"{path}: not a heapprof profile")
    return header, sites, parse_maps(maps)


def parse_maps(lines):
    """Executable file mappings as a sorted list of (start, end, offset, path)."""
    out = []
    for line in lines:
        parts = line.split(maxsplit=5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        out.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    out.sort()
    return out


_load_segments = {}


def file_offset_to_vaddr(module, off):
    """Maps a file offset to the ELF virtual address addr2line expects."""
    if module not in _load_segments:
        segs = []
        try:
            with open(module, "rb") as f:
                ident = f.read(64)
                if ident[:4] == b"\x7fELF" and ident[4] == 2:  # ELF64, little-endian
                    phoff, = struct.unpack_from("<Q", ident, 32)
                    phentsize, phnum = struct.unpack_from("<HH", ident, 54)
                    for i in range(phnum):
                        f.seek(phoff + i * phentsize)
                        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack(
                            "<IIQQQQ", f.read(40))
                        if p_type == 1:  # PT_LOAD
                            segs.append((p_offset, p_filesz, p_vaddr))
        except OSError:
            pass
        _load_segments[module] = segs
    for p_offset, p_filesz, p_vaddr in _load_segments[module]:
        if p_offset <= off < p_offset + p_filesz:
            return off - p_offset + p_vaddr
    return off


def symbolize(sites, maps):
    """Returns {ip: [(function, file:line), ...] innermost inlined frame first}."""
    starts = [m[0] for m in maps]
    by_module = defaultdict(dict)  # module -> {vaddr: ip}
    for _, _, ips in sites:
        for ip in ips:
            i = bisect.bisect_right(starts, ip) - 1
            if i < 0 or ip >= maps[i][1]:
                continue
            lo, _, offset, module = maps[i]
            # Return addresses point after the call; look up the call itself.
            by_module[module][file_offset_to_vaddr(module, ip - 1 - lo + offset)] = ip
    frames = {}
    for module, addrs in by_module.items():
        if SELF in module:
            for ip in addrs.values():
                frames[ip] = [(SELF, "")]
            continue
        order = sorted(addrs)
        try:
            out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", module]
                                 + [hex(a) for a in order],
                                 capture_output=True, text=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            out = ""
        chain, current = [], None
        for line in out.splitlines() + ["0xend"]:
            if line.startswith("0x"):
                if current is not None:
                    frames[addrs[current]] = [(chain[j], chain[j + 1])
                                              for j in range(0, len(chain) - 1, 2)]
                current = int(line, 16) if line != "0xend" else None
                chain = []
            else:
                chain.append(line)
    return frames


def layer_of(path):
    rel = path.split("/src/", 1)[1] if "/src/" in path else None
    if rel is None:
        return None
    if rel.startswith(GENERIC):
        return "generic"
    for frag, layer in LAYERS:
        if rel.startswith(frag):
            return layer
    return "harness"


def short_name(fn):
    """'ret ns::Cls<T>::f<U>(args) const' -> 'ns::Cls::f'."""
    fn = fn.replace("(anonymous namespace)", "{anon}")
    out, angle = [], 0
    for ch in fn:
        if ch == "(" and angle == 0 and out:
            break
        if ch == "<":
            angle += 1
        elif ch == ">":
            angle -= 1
        elif angle == 0:
            out.append(ch)
    return "".join(out).split(" ")[-1] or fn


def attribute(ips, frames):
    """(layer, 'function (file:line)') of one call stack."""
    saw_driver = False
    for ip in ips:
        for fn, loc in frames.get(ip, []):
            if fn == SELF:
                break
            layer = layer_of(loc)
            if layer not in (None, "generic"):
                return layer, f"{short_name(fn)} ({loc.split('/src/', 1)[1].split(' ')[0]})"
            if any(d in loc for d in ("/perfbench/", "/bench/", "/tests/", "/examples/", "/tools/")):
                saw_driver = True
    return ("driver" if saw_driver else "runtime"), "-"


def analyse(path):
    header, sites, maps = parse_profile(path)
    frames = symbolize(sites, maps)
    layers = defaultdict(lambda: [0, 0])
    by_frame = defaultdict(lambda: [0, 0])
    for nbytes, count, ips in sites:
        layer, frame = attribute(ips, frames)
        for acc in (layers[layer], by_frame[(layer, frame)]):
            acc[0] += nbytes
            acc[1] += count
    top = sorted(((n, c, layer, frame) for (layer, frame), (n, c) in by_frame.items()),
                 reverse=True)
    return header, layers, top


def mb(n):
    return f"{n / 1e6:.1f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile")
    ap.add_argument("after", nargs="?", help="a second profile to compare against the first")
    ap.add_argument("--sites", type=int, default=15, help="largest call sites to list")
    args = ap.parse_args()

    header, layers, top = analyse(args.profile)
    total = header["snapshot_bytes"]
    if args.after is None:
        print(f"peak {mb(header['peak_bytes'])} MB live; snapshot {mb(total)} MB; "
              f"{header.get('total_allocs', 0)} allocations")
        print(f"| layer | MB | share | live allocs |\n|---|---|---|---|")
        for layer, (n, c) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
            print(f"| {layer} | {mb(n)} | {100 * n / max(total, 1):.1f}% | {c} |")
        print(f"\n| MB | live allocs | layer | innermost owning frame |\n|---|---|---|---|")
        for n, c, layer, frame in top[:args.sites]:
            print(f"| {mb(n)} | {c} | {layer} | {frame} |")
        return 0

    header2, layers2, _ = analyse(args.after)
    total2 = header2["snapshot_bytes"]
    print("| layer | before MB | after MB | delta MB |\n|---|---|---|---|")
    names = sorted(set(layers) | set(layers2), key=lambda k: -layers.get(k, [0])[0])
    for layer in names:
        a, b = layers.get(layer, [0])[0], layers2.get(layer, [0])[0]
        print(f"| {layer} | {mb(a)} | {mb(b)} | {(b - a) / 1e6:+.1f} |")
    print(f"| **snapshot total** | {mb(total)} | {mb(total2)} | {(total2 - total) / 1e6:+.1f} |")
    print(f"| peak live | {mb(header['peak_bytes'])} | {mb(header2['peak_bytes'])} | "
          f"{(header2['peak_bytes'] - header['peak_bytes']) / 1e6:+.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
