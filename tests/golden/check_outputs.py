#!/usr/bin/env python3
"""Golden output manifest: regenerate the deterministic outputs, compare them.

Every report, trace and snapshot below is byte-deterministic for a given
source tree, so a refactor that claims "no output byte changed" can be
checked in one command instead of by hand against its parent:

  python3 tests/golden/check_outputs.py --bench-dir build/bench
  python3 tests/golden/check_outputs.py --bench-dir build/bench --update

The first form regenerates every output into a temporary directory and
compares each file's byte length and SHA-256 with tests/golden/outputs.txt;
it exits 1 naming every file that moved, appeared or vanished. The second
rewrites the manifest from this build's outputs: a change that moves an
output on purpose commits the rewritten manifest in the same diff.

Covered outputs:
  full/<name>.json, full/scenario_matrix.json     scenario_runner, full size
  quick/<name>.json, quick/scenario_matrix.json   scenario_runner --quick
  traces/<name>.jsonl                              the --quick JSONL traces
  validate_snapshot_demo.json                      validate_snapshot --demo

None of these files has a timing, rate or RSS field, so nothing is left
out by tolerance.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def run(command):
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        raise SystemExit(f"check_outputs: {' '.join(command)} exited {result.returncode}")


def generate(bench_dir, scenarios, out):
    runner = os.path.join(bench_dir, "scenario_runner")
    run([runner, f"--out-dir={os.path.join(out, 'full')}", scenarios])
    run([runner, "--quick", f"--out-dir={os.path.join(out, 'quick')}",
         f"--trace-dir={os.path.join(out, 'traces')}", scenarios])
    run([os.path.join(bench_dir, "validate_snapshot"), "--demo",
         os.path.join(out, "validate_snapshot_demo.json")])


def digest(root):
    """{relative name: (byte length, sha256 hex)} for every file under root."""
    entries = {}
    for directory, _, files in os.walk(root):
        for file in files:
            path = os.path.join(directory, file)
            with open(path, "rb") as handle:
                data = handle.read()
            name = os.path.relpath(path, root).replace(os.sep, "/")
            entries[name] = (len(data), hashlib.sha256(data).hexdigest())
    return entries


def read_manifest(path):
    entries = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            name, length, sha = line.split()
            entries[name] = (int(length), sha)
    return entries


def write_manifest(path, entries):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# name, byte length, SHA-256; rewrite with "
                     "tests/golden/check_outputs.py --update\n")
        for name in sorted(entries):
            length, sha = entries[name]
            handle.write(f"{name} {length} {sha}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding scenario_runner and validate_snapshot")
    parser.add_argument("--scenarios", default=os.path.join(REPO, "scenarios"))
    parser.add_argument("--manifest", default=os.path.join(HERE, "outputs.txt"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest instead of comparing against it")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="hours_golden_") as out:
        generate(args.bench_dir, args.scenarios, out)
        actual = digest(out)

    if args.update:
        write_manifest(args.manifest, actual)
        print(f"check_outputs: wrote {len(actual)} entries to {args.manifest}")
        return 0

    expected = read_manifest(args.manifest)
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            problems.append(f"missing  {name}")
        elif name not in expected:
            problems.append(f"new      {name} {actual[name][0]} bytes")
        elif actual[name] != expected[name]:
            problems.append(f"moved    {name}: {expected[name][0]} -> {actual[name][0]} bytes, "
                            f"SHA-256 {expected[name][1][:12]} -> {actual[name][1][:12]}")
    for line in problems:
        print(f"check_outputs: {line}")
    if problems:
        print(f"check_outputs: {len(problems)} of {len(expected)} outputs differ from "
              f"{args.manifest}")
        return 1
    print(f"check_outputs: {len(actual)} outputs match {args.manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
