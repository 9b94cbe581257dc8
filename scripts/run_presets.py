#!/usr/bin/env python3
"""Run `fracp all` once on each shipped preset config and summarize the
verdicts; exits with the worst exit code.  Under each preset's exit line,
one line per experiment that did not pass gives its state and its false
checks, or the type of the error it raised.

With --against DIR, each artifact written (every file in each preset's
output directory) is then compared with the file of the same relative path
under DIR, where another checkout ran this script, and one line per artifact
gives the largest relative difference between their numbers, with where it
is, or "identical" for equal bytes, or "numbers identical" where only the
skipped timings differ.  Text that is not a number must match.
In report.json the timings (wall_time_s, seconds, total_s, import_s,
assembly_s) are skipped, also where only one side has them; any other key
that only one side has is listed by its path, the keys both sides share are
still compared, and the artifact counts as differing beyond its numbers.  A preset whose
output directory is absolute cannot be compared and counts as differing.

Usage: python3 scripts/run_presets.py [--quick] [--against DIR]
"""

import argparse
import json
import re
import sys
from pathlib import Path

from fracp.cli import run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
#: report.json keys that hold wall-clock seconds
TIMINGS = {"wall_time_s", "seconds", "total_s", "import_s", "assembly_s"}


class Mismatch(Exception):
    """The two artifacts differ in more than their numbers."""


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _walk(a, b, where, out, one_sided):
    """Append (relative difference, path) to out for every number of two
    JSON values of the same shape, and to one_sided the path of each key
    that only one of them has, with the side that has it."""
    if isinstance(a, dict) and isinstance(b, dict):
        mine, theirs = a.keys() - TIMINGS, b.keys() - TIMINGS
        one_sided += [f"{where}/{k} (only here)" for k in a if k in mine - theirs]
        one_sided += [f"{where}/{k} (only under DIR)" for k in b if k in theirs - mine]
        for k in a:
            if k in mine & theirs:
                _walk(a[k], b[k], f"{where}/{k}", out, one_sided)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"lengths differ at {where}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", out, one_sided)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) and \
            not isinstance(a, bool) and not isinstance(b, bool):
        out.append((_rel(float(a), float(b)), where))
    elif a != b:
        raise Mismatch(f"{where}: {a!r} != {b!r}")


def _table(text, name):
    """(row label, column label, token) of a .csv (header row) or .dat
    (whitespace columns) artifact."""
    lines = text.splitlines()
    if name.endswith(".csv"):
        header = lines[0].split(",")
        return [(i + 1, header[j] if j < len(header) else j, tok)
                for i, line in enumerate(lines[1:]) for j, tok in enumerate(line.split(","))]
    return [(i + 1, j, tok) for i, line in enumerate(lines)
            for j, tok in enumerate(re.split(r"\s+", line.strip()))]


def largest_difference(mine: Path, theirs: Path):
    """None for equal bytes, else (largest relative difference, where, the
    paths of the report.json keys that only one side has)."""
    a, b = mine.read_bytes(), theirs.read_bytes()
    if a == b:
        return None
    diffs, one_sided = [], []
    if mine.suffix == ".json":
        _walk(json.loads(a), json.loads(b), "", diffs, one_sided)
    else:
        ta, tb = _table(a.decode(), mine.name), _table(b.decode(), mine.name)
        if len(ta) != len(tb):
            raise Mismatch(f"{len(ta)} against {len(tb)} entries")
        for (row, col, x), (_, _, y) in zip(ta, tb):
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                if x != y:
                    raise Mismatch(f"row {row}, {col}: {x!r} != {y!r}")
                continue
            diffs.append((_rel(fx, fy), f"row {row}, {col}"))
    return (*max(diffs, default=(0.0, "no numbers")), one_sided)


def not_passed(report) -> list:
    """One line per experiment of a report.json whose state is not passed:
    its id, its state and its false checks or its error type."""
    lines = []
    for e in report["experiments"]:
        if e["state"] == "passed":
            continue
        if "error" in e:
            why = e["error"]["type"]
        else:
            why = "false: " + ", ".join(k for k, ok in e["checks"].items() if not ok)
        lines.append(f"  {e['id']}: {e['state']} ({why})")
    return lines


def compare(out_dir: Path, against: Path) -> int:
    """Print one line per artifact of out_dir against its copy under
    against; returns the number of artifacts missing there or differing in
    more than their numbers.  An absolute out_dir counts as one differing
    artifact: both checkouts write to that same path, and against / out_dir
    would be out_dir itself."""
    if out_dir.is_absolute():
        print(f"  {out_dir}: not comparable, an absolute output directory is "
              "the same path for both checkouts")
        return 1
    bad = 0
    for mine in sorted(p for p in out_dir.iterdir() if p.is_file()):
        theirs = against / mine
        label = f"  {mine}"
        if not theirs.is_file():
            print(f"{label}: missing under {against}")
            bad += 1
            continue
        try:
            found = largest_difference(mine, theirs)
        except Mismatch as exc:
            print(f"{label}: differs beyond its numbers: {exc}")
            bad += 1
            continue
        if found is None:
            print(f"{label}: identical")
            continue
        largest, where, one_sided = found
        if largest == 0.0:
            print(f"{label}: numbers identical (timings skipped)")
        else:
            print(f"{label}: largest relative difference {largest:.2e} ({where})")
        if one_sided:
            print(f"{label}: differs beyond its numbers: keys on one side only: "
                  + ", ".join(one_sided))
            bad += 1
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="only the quick config")
    ap.add_argument("--against", type=Path, default=None, metavar="DIR",
                    help="compare every artifact with the same path under DIR")
    args = ap.parse_args()

    presets = [CONFIGS / "quick.json"] if args.quick else sorted(CONFIGS.glob("*.json"))
    worst = 0
    for cfg_path in presets:
        code = run("all", str(cfg_path))
        out_dir = json.loads(cfg_path.read_text())["output"]["directory"]
        print(f"{cfg_path.name:24s} -> exit {code} (artifacts in {out_dir})")
        if code != 1:  # exit 1 writes no report.json
            for line in not_passed(json.loads((Path(out_dir) / "report.json").read_text())):
                print(line)
        worst = max(worst, code)
        if args.against is not None and compare(Path(out_dir), args.against):
            worst = max(worst, 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
