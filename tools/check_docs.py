#!/usr/bin/env python3
"""Doc lint: keep the user-facing docs in sync with the code they describe.

Two checks, both derived from the source of truth rather than a hand-kept
list, so adding a flag or a run-record section without documenting it fails
CI:

  * Bench CLI flags — the knob table in src/harness/knobs.cpp declares every
    flag the fig_* binaries share, with the help line their usage text
    prints. Every row must carry a non-empty help line, no flag may be
    declared twice, and README.md must point readers at the table.
  * Run-record schema keys — every JSON key emitted by
    src/stats/run_record.cpp (`w.key("...")` calls and the section keys and
    histogram names of its prefix-section table) plus the schema version
    token must be documented in docs/schema.md.

Usage:
    tools/check_docs.py [--root DIR] [--self-test]

Exit codes:
    0  docs cover everything
    1  something undocumented (each item printed)
    2  structural error: a scanned file is missing or has no extractable
       flags/keys (the lint could not actually lint)

--self-test additionally verifies the negative path: the lint must flag an
injected table row without a help line and an injected undocumented schema
key. CI runs
`check_docs.py --self-test` so a regression that makes the lint vacuously
pass is itself a failure.
"""

import argparse
import pathlib
import re
import sys

FLAG_SOURCE = "src/harness/knobs.cpp"
FLAG_DOC = "README.md"
KEY_SOURCE = "src/stats/run_record.cpp"
SCHEMA_SOURCE = "src/stats/run_record.h"
KEY_DOC = "docs/schema.md"

# One knob-table row: `{.flag = "--x", ... .help = "..." "..."}`.
ROW_RE = re.compile(r'\{\s*\.flag\s*=\s*"(--[a-z][a-z-]*)"(.*?)\}', re.S)
HELP_RE = re.compile(r'\.help\s*=\s*((?:"(?:[^"\\]|\\.)*"\s*)+)')
LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
KEY_RE = re.compile(r'w\.key\("([A-Za-z_.]+)"\)')
# One prefix-section table entry: `{"section", "prefix.", {"hist", ...}}`.
SECTION_RE = re.compile(r'\{"([A-Za-z_]+)", "[A-Za-z_.]+", \{([^{}]*)\}\}')
SCHEMA_RE = re.compile(r'kRunRecordSchema\s*=\s*"([^"]+)"')


def die(msg):
    print(f"check_docs: ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def read(root, rel):
    path = root / rel
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        die(f"cannot read {path}: {e}")


def extract_flags(source_text):
    """(flag, help line) per knob-table row, in table order."""
    rows = []
    for flag, body in ROW_RE.findall(source_text):
        m = HELP_RE.search(body)
        rows.append((flag, "".join(LITERAL_RE.findall(m.group(1))) if m else ""))
    return rows


def extract_keys(writer_text, header_text):
    keys = set(KEY_RE.findall(writer_text))
    for section, histograms in SECTION_RE.findall(writer_text):
        keys.add(section)
        keys.update(LITERAL_RE.findall(histograms))
    keys = sorted(keys)
    m = SCHEMA_RE.search(header_text)
    if not m:
        die(f"{SCHEMA_SOURCE}: no kRunRecordSchema token found")
    return keys, m.group(1)


def check_flags(rows, readme_text):
    """Each row needs a help line and a unique flag; the README must point
    at the table."""
    problems = []
    seen = set()
    for flag, help_line in rows:
        if not help_line.strip():
            problems.append(f"{FLAG_SOURCE}: flag {flag} has no help line")
        if flag in seen:
            problems.append(f"{FLAG_SOURCE}: flag {flag} declared twice")
        seen.add(flag)
    if FLAG_SOURCE not in readme_text:
        problems.append(f"{FLAG_DOC}: does not point at the knob table {FLAG_SOURCE}")
    return problems


def check_keys(keys, token, schema_text):
    missing = [k for k in keys
               if not re.search(rf"\b{re.escape(k)}\b", schema_text)]
    if token not in schema_text:
        missing.append(f"schema token {token}")
    return missing


def run_checks(root):
    flags = extract_flags(read(root, FLAG_SOURCE))
    if not flags:
        die(f"{FLAG_SOURCE}: no flags extracted — parser pattern out of date?")
    keys, token = extract_keys(read(root, KEY_SOURCE), read(root, SCHEMA_SOURCE))
    if not keys:
        die(f"{KEY_SOURCE}: no w.key(...) calls extracted — pattern out of date?")

    readme = read(root, FLAG_DOC)
    schema_doc = read(root, KEY_DOC)

    problems = check_flags(flags, readme)
    for k in check_keys(keys, token, schema_doc):
        problems.append(f"{KEY_DOC}: run-record key {k} ({KEY_SOURCE}) undocumented")
    return flags, keys, problems


def self_test(root):
    """The negative path: an undocumented flag/key must be caught."""
    readme = read(root, FLAG_DOC)
    schema_doc = read(root, KEY_DOC)
    failures = []
    injected = '{.flag = "--intentionally-undocumented", .kind = Kind::kSwitch},'
    if not check_flags(extract_flags(injected), readme):
        failures.append("lint did not flag an undocumented CLI flag")
    if not check_keys(["intentionally_undocumented_key"], "dssmr.run_record.v7",
                      schema_doc):
        failures.append("lint did not flag an undocumented schema key")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repository root (default: current directory)")
    ap.add_argument("--self-test", action="store_true",
                    help="also verify the lint catches an injected "
                         "undocumented flag and schema key")
    args = ap.parse_args()
    root = pathlib.Path(args.root)

    flags, keys, problems = run_checks(root)
    if args.self_test:
        for f in self_test(root):
            problems.append(f"self-test: {f}")

    if problems:
        for p in problems:
            print(f"check_docs: FAIL: {p}", file=sys.stderr)
        sys.exit(1)
    print(f"check_docs: OK — {len(flags)} bench flags documented in {FLAG_SOURCE}, "
          f"{len(keys)} run-record keys documented in {KEY_DOC}")


if __name__ == "__main__":
    main()
