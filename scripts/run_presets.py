#!/usr/bin/env python3
"""Run `fracp all` once on each shipped preset config and summarize the
verdicts; exits with the worst exit code.

Usage: python3 scripts/run_presets.py [--quick]
"""

import argparse
import json
import sys
from pathlib import Path

from fracp.cli import run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="only the quick config")
    args = ap.parse_args()

    presets = [CONFIGS / "quick.json"] if args.quick else sorted(CONFIGS.glob("*.json"))
    worst = 0
    for cfg_path in presets:
        code = run("all", str(cfg_path))
        out_dir = json.loads(cfg_path.read_text())["output"]["directory"]
        print(f"{cfg_path.name:24s} -> exit {code} (artifacts in {out_dir})")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
