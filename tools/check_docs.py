#!/usr/bin/env python3
"""Doc lint: keep the user-facing docs in sync with the code they describe.

Four checks, all derived from the source of truth rather than a hand-kept
list, so adding a flag or a run-record section without documenting it, or
removing a flag the docs still mention, fails CI:

  * Bench CLI flags — the knob table in src/harness/knobs.cpp declares every
    flag the fig_* binaries share, with the help line their usage text
    prints. Every row must carry a non-empty help line, no flag may be
    declared twice, and README.md must point readers at the table.
  * Stale flags — every `--flag` the user-facing docs mention must be
    declared as a string literal ("--flag" or '--flag') by some source under
    src/, bench/, examples/, tools/ or perfbench/. Only EXTERNAL_FLAGS and
    google-benchmark's `--benchmark_*` flags, which belong to other
    programs, are exempt.
  * Stale binaries — every `bench/<name>` or `examples/<name>` (or
    `build/bench/<name>`, `bench/<name>.cpp`, and likewise for examples)
    those docs mention must be a target that the directory's CMakeLists.txt
    builds, so a doc never runs a deleted bench or example.
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
injected table row without a help line, an injected doc mention of an
undeclared flag, injected doc mentions of a bench and of an example that are
not built and an injected undocumented schema key. CI runs
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
# Docs whose `--flag` mentions must name a declared flag.
FLAG_MENTION_DOCS = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/schema.md",
                     ".claude/skills/verify/SKILL.md"]
FLAG_DECL_DIRS = ["src", "bench", "examples", "tools", "perfbench"]
# Directories whose binaries the docs run; each has a CMakeLists.txt that
# declares one target per line.
BINARY_DIRS = ["bench", "examples"]
FLAG_DECL_SUFFIXES = {".cpp", ".h", ".py"}
# Flags of other programs: `--help` reaches dssmr_sim's usage through its
# unknown-flag path, `--test-dir` is ctest's, and every `--benchmark_*` is
# google-benchmark's.
EXTERNAL_FLAGS = {"--help", "--test-dir"}
EXTERNAL_FLAG_PREFIX = "--benchmark_"

# One knob-table row: `{.flag = "--x", ... .help = "..." "..."}`.
ROW_RE = re.compile(r'\{\s*\.flag\s*=\s*"(--[a-z][a-z-]*)"(.*?)\}', re.S)
HELP_RE = re.compile(r'\.help\s*=\s*((?:"(?:[^"\\]|\\.)*"\s*)+)')
LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
KEY_RE = re.compile(r'w\.key\("([A-Za-z_.]+)"\)')
# One prefix-section table entry: `{"section", "prefix.", {"hist", ...}}`.
SECTION_RE = re.compile(r'\{"([A-Za-z_]+)", "[A-Za-z_.]+", \{([^{}]*)\}\}')
SCHEMA_RE = re.compile(r'kRunRecordSchema\s*=\s*"([^"]+)"')
FLAG_PATTERN = r"--[a-z][a-z0-9]*(?:[-_][a-z0-9]+)*"
FLAG_MENTION_RE = re.compile(rf"(?<![\w-])({FLAG_PATTERN})")
FLAG_DECL_RE = re.compile(rf"""["']({FLAG_PATTERN})["']""")
# `bench/<name>` or `examples/<name>` with an optional extension; a glob such
# as `bench/fig_*` is not a name.
BINARY_MENTION_RE = re.compile(
    rf"(?<![\w.-])({'|'.join(BINARY_DIRS)})/(\w+)(\.\w+)?(?![\w*])")
# One target: `dssmr_fig(name)` / `dssmr_micro(name)` / `dssmr_example(name)`.
TARGET_RE = re.compile(r"^\s*dssmr_\w+\((\w+)\)", re.M)


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


def declared_flags(root):
    """Every `--flag` string literal in the sources."""
    flags = set()
    for rel in FLAG_DECL_DIRS:
        for path in sorted((root / rel).rglob("*")):
            if path.is_file() and path.suffix in FLAG_DECL_SUFFIXES:
                flags.update(FLAG_DECL_RE.findall(path.read_text(encoding="utf-8")))
    return flags


def check_stale_flags(docs, declared):
    """`docs` maps a doc name to its text; every flag it mentions must be
    declared or external."""
    problems = []
    for name, text in docs.items():
        for flag in sorted(set(FLAG_MENTION_RE.findall(text)) - declared - EXTERNAL_FLAGS):
            if flag.startswith(EXTERNAL_FLAG_PREFIX):
                continue
            problems.append(f"{name}: mentions {flag}, which no source declares")
    return problems


def binary_targets(root):
    """The targets each of BINARY_DIRS builds, by directory."""
    targets = {}
    for d in BINARY_DIRS:
        cmake = f"{d}/CMakeLists.txt"
        targets[d] = set(TARGET_RE.findall(read(root, cmake)))
        if not targets[d]:
            die(f"{cmake}: no targets extracted — pattern out of date?")
    return targets


def check_stale_binaries(docs, targets):
    """Every binary (or its .cpp) the docs name under bench/ or examples/
    must be built. Other files there (bench_util.h, CMakeLists.txt) are not
    binaries."""
    problems = []
    for name, text in docs.items():
        mentioned = {(d, b) for d, b, ext in BINARY_MENTION_RE.findall(text)
                     if ext in ("", ".cpp")}
        for d, b in sorted(mentioned):
            if b not in targets[d]:
                problems.append(f"{name}: mentions {d}/{b}, which {d}/CMakeLists.txt "
                                "does not build")
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
    declared = declared_flags(root)
    if not declared:
        die(f"no --flag literals found under {', '.join(FLAG_DECL_DIRS)}")

    problems = check_flags(flags, readme)
    docs = {d: read(root, d) for d in FLAG_MENTION_DOCS}
    problems += check_stale_flags(docs, declared)
    problems += check_stale_binaries(docs, binary_targets(root))
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
    # Built from pieces so this file never declares the flag it injects.
    undeclared = "--intentionally" + "-undeclared"
    if not check_stale_flags({FLAG_DOC: f"{readme}\nRun with {undeclared}.\n"},
                             declared_flags(root)):
        failures.append("lint did not flag a doc mention of an undeclared flag")
    for d in BINARY_DIRS:
        stale = f"{readme}\nRun ./build/{d}/intentionally_stale --json out.json.\n"
        if not check_stale_binaries({FLAG_DOC: stale}, binary_targets(root)):
            failures.append(f"lint did not flag a doc mention of a {d}/ binary that is not built")
    _, token = extract_keys(read(root, KEY_SOURCE), read(root, SCHEMA_SOURCE))
    if not check_keys(["intentionally_undocumented_key"], token, schema_doc):
        failures.append("lint did not flag an undocumented schema key")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repository root (default: current directory)")
    ap.add_argument("--self-test", action="store_true",
                    help="also verify the lint catches an injected "
                         "undocumented flag, stale bench or example name and "
                         "schema key")
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
