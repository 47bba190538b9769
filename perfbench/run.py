"""piezolab benchmark: end-to-end workload passes and a traced per-layer run.

    python3 perfbench/run.py --workload {trajectory,spectrum,suite}
                             [--seed 1] [--seconds 30] [--trace 0|1]

Run from the repository root.  The seed writes the workload's inputs (config
JSONs, tabulated initial states) under ``perfbench/_work``; each pass then
calls ``piezolab.cli.main`` once per job in a fresh interpreter.

``--trace 0`` times import set-up several times and runs as many untraced
passes as fit in ``--seconds`` (at least one), reporting medians of
``wall_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics, with
``trace.overhead_s`` the traced minus the untraced wall time.

Human-readable lines come first, including ``ops_failed_frac`` with its base
and the host block; the last line is the JSON result.  The full record
(host, provenance, every job's measured values, the span table) is written
to ``perfbench/_work/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from verify import bytes_written, check_job
from workloads import SUITE_CHECKS, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 5      # measured import probes per run, after one warm-up
RUN_DEADLINE_S = 170  # the whole run must end well inside 180 s

STEP_NS = (32, 64, 128, 256)
JOB_NAMES = ("open_loop_n256", "closed_loop_n256", "charge_sine_n128",
             "es_feedback_n512", "full_n256", "charge_magnetic_cl_n128",
             "electrostatic_n512", "paper_suite")


class PassFailed(RuntimeError):
    """A pass process died, timed out or wrote no result."""


def _worker(args: list, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--src", str(SRC)]
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(timeout, 1.0), check=False)


def setup_probe(timeout: float) -> float:
    proc = _worker(["setup"], timeout)
    if proc.returncode != 0:
        raise PassFailed(f"setup probe exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(jobs_file: Path, out: Path, traced: bool, timeout: float) -> dict:
    result = out / "result.json"
    args = ["pass", "--jobs", str(jobs_file), "--out", str(out),
            "--result", str(result)] + (["--trace"] if traced else [])
    t0 = time.perf_counter()
    try:
        proc = _worker(args, timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise PassFailed(f"pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    doc["process_s"] = time.perf_counter() - t0
    return doc


def verify_pass(doc: dict, jobs: list, out: Path) -> dict:
    ops, problems, details = [], [], {}
    for job, rec in zip(jobs, doc["jobs"]):
        o, p, d = check_job(job, rec, out / job["name"])
        ops += o
        problems += p
        details[job["name"]] = d
    return {"ops": ops, "problems": problems, "details": details,
            "bytes_written": bytes_written(out)}


# ---------------------------------------------------------------- host info

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block(doc: dict, seed: int) -> dict:
    # thread counts set the BLAS speed; skipping bytecode caches slows import
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
           if k in os.environ}
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "blas": doc.get("blas"),
            "env": env, "versions": doc.get("versions"),
            "git_commit": _git_commit(), "seed": seed}


# ----------------------------------------------------------- layer metrics

def layer_metrics(trace: dict, untraced_wall: float, traced_wall: float,
                  written: int) -> dict:
    """Per-layer metrics from the traced pass's span table.

    Times are busy seconds (a span's whole duration) unless named ``_us``,
    which is the median single call in microseconds.  Layers a workload
    does not exercise report 0.
    """
    groups, parents = trace["groups"], trace["parents"]

    def busy(*keys):
        return sum(groups[k]["busy_s"] for k in keys if k in groups)

    def busy_all(name):  # every grid size
        return sum(g["busy_s"] for g in groups.values() if g["name"] == name)

    def count_all(name):
        return sum(g["count"] for g in groups.values() if g["name"] == name)

    def median_us(key):
        return groups[key]["median_s"] * 1e6 if key in groups else 0.0

    def under(child, parent):
        return parents.get(f"{child}<{parent}", [0, 0.0])

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("config.load_s", busy_all("config.load"), "s")
    put("operators.build_s", busy_all("operators.build"), "s")
    put("operators.build_calls", count_all("operators.build"), "count")
    for n in (32, 128, 256):
        put(f"operators.energy_us.N{n}", median_us(f"operators.energy.N{n}"), "us")
    put("generator.assemble_s", busy_all("generator.assemble"), "s")
    put("generator.assemble_calls", count_all("generator.assemble"), "count")
    put("generator.assemble_s.N256", busy("generator.assemble.N256"), "s")
    put("generator.certificates_s",
        busy_all("generator.skewness_defect")
        + busy_all("generator.constraint_defect"), "s")
    for n in (32, 128, 256):
        put(f"generator.gauge_residual_us.N{n}",
            median_us(f"generator.gauge_residual.N{n}"), "us")
    for n in STEP_NS:
        put(f"dynamics.factor_s.N{n}", busy(f"dynamics.factor.N{n}"), "s")
    put("dynamics.steps", count_all("dynamics.step_open")
        + count_all("dynamics.step_closed"), "count")
    put("dynamics.step_s", busy_all("dynamics.step_open")
        + busy_all("dynamics.step_closed"), "s")
    for n in STEP_NS:
        put(f"dynamics.step_open_us.N{n}",
            median_us(f"dynamics.step_open.N{n}"), "us")
    put("dynamics.step_closed_us.N256", median_us("dynamics.step_closed.N256"), "us")
    for n in STEP_NS:
        # computed from array sizes, not measured: y <- A+ y, two LU solves
        # and one residual product each stream a d x d float64 matrix
        d = 6 * n - 1
        step_bytes, step_flops = 32 * d * d, 8 * d * d
        t = groups.get(f"dynamics.step_open.N{n}", {}).get("median_s")
        put(f"dynamics.step_bytes_computed.N{n}", step_bytes, "B")
        put(f"dynamics.step_flops_computed.N{n}", step_flops, "flop")
        put(f"dynamics.step_gbps_computed.N{n}",
            step_bytes / t / 1e9 if t else 0.0, "GB/s")
    records = under("operators.energy", "dynamics.run")
    gauge = under("generator.gauge_residual", "dynamics.run")
    gauge_int = under("generator.gauge_residual_interior", "dynamics.run")
    put("dynamics.records", records[0], "count")
    put("dynamics.record_s", records[1] + gauge[1] + gauge_int[1], "s")
    put("dynamics.admissibility_s", busy_all("dynamics.admissibility"), "s")
    for n in (64, 128, 256):
        put(f"spectral.compute_spectrum_s.N{n}",
            busy(f"spectral.compute_spectrum.N{n}"), "s")
    put("spectral.closed_loop_spectrum_s",
        busy_all("spectral.closed_loop_spectrum"), "s")
    put("spectral.mode_shifts_s", busy_all("spectral.mode_shifts"), "s")
    put("spectral.kernel_basis_s", busy_all("spectral.kernel_basis"), "s")
    put("spectral.eig_s", under("linalg.eig", "spectral.build_report")[1], "s")
    put("spectral.mode_table_s",
        sum(g["self_s"] for g in groups.values()
            if g["name"] == "spectral.build_report"), "s")
    put("variants.assemble_s", busy_all("variants.assemble_es")
        + busy_all("variants.assemble_charge_magnetic"), "s")
    put("variants.es_steps", count_all("variants.es.step_open")
        + count_all("variants.es.step_closed"), "count")
    put("variants.es_step_us.N512", median_us("variants.es.step_closed.N512"), "us")
    put("variants.es_spectrum_s.N512", busy("variants.es_spectrum.N512"), "s")
    for check in SUITE_CHECKS:
        put(f"acceptance.check_s.{check}", busy(f"acceptance.check.{check}"), "s")
    for job in JOB_NAMES:
        put(f"cli.job_s.{job}", busy(f"cli.job.{job}"), "s")
    put("cli.write_s", busy_all("cli.write"), "s")
    put("cli.bytes_written", written, "B")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.spans", trace["spans"], "count")
    put("trace.overhead_est_s", trace["spans"] * trace["span_cost_s"], "s")
    return m


# ------------------------------------------------------------------ driver

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "piezolab" / "cli.py").is_file():
        print(f"perfbench: no piezolab source at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = write_inputs(args.workload, args.seed, work / "inputs")
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps(jobs), encoding="utf-8")

    passes, checks, errors, setups = [], [], [], []

    def one_pass(traced: bool) -> dict | None:
        out = work / f"pass{len(passes) + len(errors)}"
        try:
            doc = run_pass(jobs_file, out, traced, deadline - time.perf_counter())
        except PassFailed as exc:
            errors.append(str(exc))
            return None
        passes.append(doc)
        checks.append(verify_pass(doc, jobs, out))
        shutil.rmtree(out, ignore_errors=True)
        return doc

    try:
        if args.trace == 0:
            setup_probe(deadline - time.perf_counter())  # warm the page and bytecode caches
            for _ in range(SETUP_PROBES):
                setups.append(setup_probe(deadline - time.perf_counter()))
            measured = 0.0
            while True:
                doc = one_pass(False)
                if doc is None:
                    break
                measured += doc["process_s"]
                left = deadline - time.perf_counter()
                if (measured + doc["process_s"] > args.seconds
                        or left < 2.0 * doc["process_s"]):
                    break
        else:
            if one_pass(False) is not None:
                one_pass(True)
    except PassFailed as exc:
        errors.append(str(exc))

    ops = [op for c in checks for op in c["ops"]]
    failed_ops = [name for name, failed in ops if failed]
    problems = [p for c in checks for p in c["problems"]]
    correct = not problems and not errors and bool(passes)
    if not ops:  # no pass finished: every job of the workload counts as failed
        ops = [(f"job:{j['name']}", True) for j in jobs]
        failed_ops = [name for name, _ in ops]

    metrics = {}
    if args.trace == 0 and passes:
        setups += [p["setup_s"] for p in passes]
        metrics["wall_s"] = {"value": statistics.median([p["wall_s"] for p in passes]),
                             "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median([p["peak_rss_mb"] for p in passes]), "unit": "MiB"}
    elif args.trace == 1 and len(passes) == 2:
        metrics = layer_metrics(passes[1]["trace"], passes[0]["wall_s"],
                                passes[1]["wall_s"], checks[1]["bytes_written"])

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host_block(passes[0] if passes else {},
                                                    args.seed),
        "metrics": metrics, "ops_total": len(ops), "ops_failed": len(failed_ops),
        "failed_ops": failed_ops, "problems": problems, "errors": errors,
        "setup_samples_s": setups,
        "passes": [{"wall_s": p["wall_s"], "setup_s": p["setup_s"],
                    "peak_rss_mb": p["peak_rss_mb"], "jobs": p["jobs"],
                    "traced": "trace" in p, "details": c["details"],
                    "bytes_written": c["bytes_written"]}
                   for p, c in zip(passes, checks)],
    }
    if args.trace == 1 and len(passes) == 2:
        record["spans"] = passes[1]["trace"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print_summary(record, out_file)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


def print_summary(record: dict, out_file: Path) -> None:
    host = record["host"]
    blas = host.get("blas") or {}
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {len(record['passes'])}")
    print(f"host: nproc {host['nproc']}, cpu {host['cpu_model']}, "
          f"BLAS {blas.get('name')} {blas.get('version')} "
          f"threads {blas.get('threads')}, {host.get('versions')}, "
          f"commit {host['git_commit']}")
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    total, failed = record["ops_total"], record["ops_failed"]
    print(f"  {'ops_failed_frac':44s} {failed / total:.6g} ratio "
          f"({failed} of {total})")
    for name in record["failed_ops"]:
        print(f"  failed: {name}")
    for line in record["problems"] + record["errors"]:
        print(f"  problem: {line}")
    for target in record.get("spans", {}).get("missing_targets", []):
        print(f"  not traced (no longer in the program): {target}")
    for p in record["passes"][:1]:
        for job, d in p["details"].items():
            shown = {k: v for k, v in d.items()
                     if k in ("rc", "error", "energy_drift", "gauge_pos_max",
                              "gauge_vel_max", "max_abs_real", "stabilizability")}
            print(f"  {job}: {shown}")
    print(f"record: {out_file}")


if __name__ == "__main__":
    raise SystemExit(main())
