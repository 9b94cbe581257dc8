"""One benchmark process: set-up, then one pass of a workload, then its checks.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

run.py starts one worker per pass, so that no state cached inside fracp
carries from one pass to the next and peak memory is that of a single pass.
The last line of standard output is a JSON object with the figures.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_info():
    """BLAS name and version as NumPy was built, and its live thread count."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def environment():
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        **blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import fracp
    import fracp.cli  # noqa: F401  (the whole package, as `fracp all` loads it)

    if Path(fracp.__file__).resolve().parent != SRC / "fracp":
        sys.exit(f"fracp imported from {fracp.__file__}, not from {SRC}")
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    result = {"setup_s": time.perf_counter() - T0, "env": environment()}
    if args.setup_only:
        print(json.dumps(result))
        return

    ops = workloads.Ops()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            outputs = run(inputs, ops)
            wall = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        outputs = run(inputs, ops)
        wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check(inputs, outputs, ops)

    result.update(
        wall_s=wall,
        peak_rss_mb=peak_rss_mb,
        attempted=ops.attempted,
        failures=ops.failures,
        wrong=ops.wrong,
    )
    if tracer is not None:
        layers = tracer.metrics()
        layers.update(workloads.cli_wall_times(outputs))
        result["layers"] = layers
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"spans-{args.workload}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
