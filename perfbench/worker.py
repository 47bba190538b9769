"""One workload pass in a fresh interpreter.

    python3 worker.py setup --src SRC
    python3 worker.py pass --src SRC --jobs JOBS.json --out DIR --result R.json
                           [--trace]

``setup`` times the import of ``piezolab`` and ``piezolab.cli`` and prints
it.  ``pass`` does the same, then calls ``piezolab.cli.main`` once per job,
in order, and writes timings, exit codes, peak RSS, the BLAS set-up and,
with ``--trace``, the span summary to R.json.  A fresh process per pass
keeps ``acceptance._cache`` from carrying results from one pass to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import sys
import time
import traceback


def _import_program(src: str) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import piezolab  # noqa: F401
    import piezolab.cli  # noqa: F401
    return time.perf_counter() - t0


def _blas_info() -> dict:
    """BLAS name, version and thread count as the loaded library reports."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line
                    and line.split()[-1].endswith(".so")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_pass(args) -> dict:
    setup_s = _import_program(args.src)
    import piezolab.cli as cli

    tracer = None
    if args.trace:
        from spans import Tracer, span_cost

        tracer = Tracer()
        tracer.install()

    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    records = []
    first = time.perf_counter()
    for job in jobs:
        out = f"{args.out}/{job['name']}"
        log = io.StringIO()
        rec = {"name": job["name"], "rc": None, "error": None}
        if tracer is not None:
            tracer.job = job["name"]
            span = tracer.open("cli.job." + job["name"], None)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rec["rc"] = cli.main(job["argv"] + ["--out", out])
        except Exception as exc:  # a crash is a measured failure, not ours
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback_tail"] = traceback.format_exc().splitlines()[-3:]
        rec["seconds"] = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        rec["log_tail"] = log.getvalue().splitlines()[-5:]
        records.append(rec)
    wall_s = time.perf_counter() - first

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
        "blas": _blas_info(),
        "versions": _versions(),
    }
    if tracer is not None:
        result["trace"] = {"groups": tracer.summary(),
                           "spans": len(tracer.spans),
                           "span_cost_s": span_cost(),
                           "parents": tracer.parents(),
                           "missing_targets": tracer.missing}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--jobs")
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": _import_program(args.src)}))
        return 0
    result = run_pass(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
