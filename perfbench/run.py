"""fracp benchmark: one workload, measured in whole passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; fracp is imported from ./src.
Each pass runs in its own worker process (worker.py).  With --trace 0 a run
reports the end-to-end metrics of BENCHMARK.json: the median wall time and
peak memory of its passes and the median set-up time over at least three
processes.  With --trace 1 each round is an untraced pass followed by a
traced one, and the run reports the per-layer metrics of the traced passes.
Rounds are started until --seconds have been measured and the round in
flight is finished, so a run measures at least --seconds and makes at least
one round.  The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the whole run ends within 180 s
DEADLINE_S = 170.0
#: set-up-only processes besides the pass workers, for the set-up median
SETUP_ONLY = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def worker_env():
    """One BLAS thread: on a shared two-core machine, passes with two BLAS
    threads spread up to 25% from one another, single-threaded ones 2-10%."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker(argv, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("no time left for another worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker {' '.join(argv)} did not end in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, env):
    """Set-up samples and rounds of (untraced, traced or None) pass results."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [] if args.trace else [
        worker([*base, "--setup-only"], env, deadline) for _ in range(SETUP_ONLY)]
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain = worker([*base, "--trace", "0"], env, deadline)
        traced = worker([*base, "--trace", "1"], env, deadline) if args.trace else None
        rounds.append((plain, traced))
        now = time.monotonic()
        if now - start >= args.seconds or now + (now - t0) > deadline:
            return setups, rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "fracp" / "__init__.py").is_file():
        sys.exit(f"error: no fracp sources under {ROOT / 'src'}")

    try:
        setups, rounds = measure(args, worker_env())
    except RunFailed as exc:
        sys.exit(f"error: {exc}")

    passes = [r for pair in rounds for r in pair if r is not None]
    env = passes[0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    print(f"nproc {env['nproc']}  BLAS {env['blas']} with {env['blas_threads']} threads  "
          f"Python {env['python']}  NumPy {env['numpy']}  SciPy {env['scipy']}")

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"operations attempted {attempted}  failed {len(failures)}")
    for name in sorted({f["op"] for f in failures}):
        first = next(f for f in failures if f["op"] == name)
        count = sum(f["op"] == name for f in failures)
        print(f"  FAILED {name} x{count}: {first['error']}")
        if first["fault"]:
            print(f"    fault: {first['fault']}")

    if args.trace:
        layers = [t["layers"] for _, t in rounds]
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in rounds)
        values = {m["name"]: (overhead if m["name"] == "trace.overhead_s"
                              else statistics.median(layer[m["name"]] for layer in layers))
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(r["setup_s"] for r in setups + passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not any(p["wrong"] for p in passes),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
