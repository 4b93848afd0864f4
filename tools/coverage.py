#!/usr/bin/env python3
"""Line coverage of src/ from a --coverage build whose tests have run.

Usage: tools/coverage.py BUILD_DIR

Runs the installed gcov in JSON mode over every object of BUILD_DIR/src (an
object no test ran counts with all its lines unrun) and merges the line
counts per source file under the repository's src/: a header compiled into
several objects counts once, and a line counts as run if any object ran it.
Prints run/total lines per src/ directory and overall, and exits 1 when the
overall share is below FLOOR.
"""
import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# Overall src/ line coverage, in percent, below which the script fails. The
# suite measured 97.02% (7,154 of 7,374 lines) when this was set. Raise it as
# untested paths get tests; never lower it.
FLOOR = 97.0


def gcov_reports(notes):
    """Yields gcov's JSON report for each .gcno path, in batches."""
    batch = 200
    for i in range(0, len(notes), batch):
        out = subprocess.run(["gcov", "--stdout", "--json-format", *notes[i:i + batch]],
                             check=True, capture_output=True, text=True,
                             cwd=os.path.dirname(notes[i])).stdout
        for line in out.splitlines():
            if line.startswith("{"):
                yield json.loads(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir")
    args = parser.parse_args()
    # gcov runs in each batch's object directory, so the notes paths it is
    # given must not be relative to this one.
    build_dir = os.path.abspath(args.build_dir)

    notes = []
    for root, _, files in os.walk(os.path.join(build_dir, "src")):
        notes.extend(os.path.join(root, f) for f in files if f.endswith(".gcno"))
    if not notes:
        sys.exit(f"no .gcno files under {build_dir}/src: not a --coverage build")
    notes.sort()

    # source path -> line number -> run in any object
    lines = {}
    for report in gcov_reports(notes):
        cwd = report.get("current_working_directory", "")
        for entry in report["files"]:
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(SRC + os.sep):
                continue
            seen = lines.setdefault(path, {})
            for line in entry["lines"]:
                n = line["line_number"]
                seen[n] = seen.get(n, False) or line["count"] > 0

    if not lines:
        sys.exit(f"gcov reported no lines under {SRC} for the objects in {build_dir}")

    per_dir = {}
    for path, seen in lines.items():
        directory = os.path.relpath(path, SRC).split(os.sep)[0]
        run, total = per_dir.get(directory, (0, 0))
        per_dir[directory] = (run + sum(seen.values()), total + len(seen))

    run_all = sum(r for r, _ in per_dir.values())
    total_all = sum(t for _, t in per_dir.values())
    for directory in sorted(per_dir):
        run, total = per_dir[directory]
        print(f"  src/{directory:<10} {100.0 * run / total:6.1f}%  ({run} of {total} lines)")
    overall = 100.0 * run_all / total_all
    print(f"  src/ overall    {overall:6.1f}%  ({run_all} of {total_all} lines)")
    if overall < FLOOR:
        print(f"coverage FAILED: src/ line coverage {overall:.1f}% is below the floor "
              f"{FLOOR:.1f}%", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
