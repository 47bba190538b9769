"""Operation accounting and output checks for one workload pass.

Two separate verdicts come out of each job:

* **operations** and whether each failed.  A trajectory or spectrum job is
  one operation; it fails when it raises, exits nonzero, reports a false
  ``pass_fail`` entry, or writes a CSV with a non-finite value or the wrong
  number of rows.  In ``suite`` every acceptance check is one operation,
  failing when its pass flag is 0 or missing, and the ``paper-suite`` job is
  one more, failing when it raises or writes no ``report.json``.
* **problems**: outputs that are present but wrong or inconsistent (a
  header, a total that is not the sum of its parts, a report number that
  disagrees with the CSV it summarises, an exit code that contradicts
  ``pass_fail``).  Any problem makes the run incorrect.

The measured values (drift, gauge maxima, each check's ``measured``
string) are returned as details so the result file records them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TRAJ_HEADER = ["time", "E_total", "E_kin_v", "E_kin_theta", "E_kin_eta",
               "E_elastic", "E_nonlocal", "E_magnetic", "gauge_pos",
               "gauge_vel", "input"]
SPEC_HEADER = ["re", "im", "bstar_abs", "stabilizable", "dominant_block"]
SUITE_HEADER = ["check", "measured", "tolerance", "pass"]
BLOCKS = {"mechanical", "electromagnetic", "mixed"}


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _floats(rows, cols) -> tuple:
    vals = [[float(r[c]) for c in cols] for r in rows]
    finite = all(math.isfinite(v) for row in vals for v in row)
    return vals, finite


def _check_trajectory(job, rows, report, problems, details) -> bool:
    """Return True when every value is finite; append problems found."""
    vals, finite = _floats(rows, range(len(TRAJ_HEADER)))
    if not vals:
        return finite
    e = [r[1] for r in vals]
    for r in vals:
        parts = sum(r[2:8])
        if not abs(r[1] - parts) <= 1e-12 * max(abs(r[1]), 1.0):
            problems.append(f"{job['name']}: E_total {r[1]!r} is not the sum "
                            f"of its parts {parts!r} at t={r[0]!r}")
            break
    if any(b[0] <= a[0] for a, b in zip(vals, vals[1:])):
        problems.append(f"{job['name']}: record times are not increasing")
    drift = max(abs(x - e[0]) for x in e) / e[0] if e[0] > 0 else 0.0
    gpos = max(r[8] for r in vals)
    gvel = max(r[9] for r in vals)
    details.update(energy_drift=drift, gauge_pos_max=gpos, gauge_vel_max=gvel,
                   energy_initial=e[0], energy_final=e[-1])
    if report is not None:
        out = report["outcome"]
        for key, value in (("energy_drift", drift), ("gauge_pos_max", gpos),
                           ("gauge_vel_max", gvel), ("n_records", len(vals))):
            if not isinstance(out.get(key), (int, float)) \
                    or not _close(out[key], value):
                problems.append(f"{job['name']}: report {key} {out.get(key)!r} "
                                f"!= CSV value {value!r}")
    return finite


def _check_spectrum(job, rows, report, problems, details) -> bool:
    vals, finite = _floats(rows, range(3))
    if not vals:
        return finite
    for r in rows:
        if r[3] not in ("0", "1") or r[4] not in BLOCKS:
            problems.append(f"{job['name']}: bad row {r}")
            break
    re_max = max(abs(v[0]) for v in vals)
    im_sum = sum(v[1] for v in vals)
    im_scale = max(abs(v[1]) for v in vals)
    # a real matrix has a spectrum closed under conjugation
    if abs(im_sum) > 1e-9 * max(im_scale, 1.0) * len(vals):
        problems.append(f"{job['name']}: spectrum is not conjugate-symmetric "
                        f"(sum of Im = {im_sum!r})")
    details.update(max_abs_real=re_max, max_abs_imag=im_scale,
                   n_stabilizable=sum(int(r[3]) for r in rows))
    if report is not None:
        out = report["outcome"]
        if not isinstance(out.get("max_abs_real"), (int, float)) \
                or not _close(out["max_abs_real"], re_max):
            problems.append(f"{job['name']}: report max_abs_real "
                            f"{out.get('max_abs_real')!r} != CSV {re_max!r}")
        details["abscissa_relative"] = out.get("abscissa_relative")
        if "closed_loop_abscissa" in out:
            details["closed_loop_abscissa"] = out["closed_loop_abscissa"]
    return finite


def _check_suite(job, header, rows, report, problems, details) -> list:
    """Per-check operations (name, failed) from the summary CSV.

    Columns are found by name, so a column added later does not break the
    check.  Every expected check is an operation, a missing one counts as
    failed, and a check added to the suite later is one more operation.
    """
    by_name = {}
    if header is not None and set(SUITE_HEADER) <= set(header):
        col = {name: header.index(name) for name in SUITE_HEADER}
        for r in rows:
            rec = {name: r[i] if i < len(r) else None for name, i in col.items()}
            if rec["pass"] not in ("0", "1") or rec["check"] in by_name:
                problems.append(f"{job['name']}: bad or repeated summary row {r}")
                continue
            by_name[rec["check"]] = rec
    elif header is not None:
        problems.append(f"{job['name']}: CSV header {header} lacks {SUITE_HEADER}")
    names = list(job["checks"]) + [n for n in by_name if n not in job["checks"]]
    ops = []
    for name in names:
        rec = by_name.get(name)
        details[name] = rec["measured"] if rec else None
        ops.append((f"check:{name}", rec is None or rec["pass"] != "1"))
    if report is not None:
        flags = {k: int(bool(v)) for k, v in report["pass_fail"].items()}
        csv_flags = {k: int(r["pass"]) for k, r in by_name.items()}
        if flags != csv_flags:
            problems.append(f"{job['name']}: report pass_fail {flags} != "
                            f"summary CSV {csv_flags}")
    return ops


def check_job(job: dict, record: dict, out_dir: Path) -> tuple:
    """(operations, problems, details) for one job of a pass."""
    problems, details = [], {"rc": record["rc"]}
    if record["error"]:
        details["error"] = record["error"]
    report = None
    report_path = out_dir / "report.json"
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        details["pass_fail"] = report["pass_fail"]
        missing = set(job["checks"]) - set(report["pass_fail"])
        if missing:
            problems.append(f"{job['name']}: pass_fail lacks {sorted(missing)}")
        want_rc = 0 if all(report["pass_fail"].values()) else 1
        if record["rc"] is not None and record["rc"] != want_rc:
            problems.append(f"{job['name']}: exit code {record['rc']} "
                            f"contradicts pass_fail (expected {want_rc})")

    csv_path = out_dir / job["csv"]
    header, rows = _read_csv(csv_path) if csv_path.is_file() else (None, [])
    finite = True
    if header is not None and job["csv"] != "acceptance_summary.csv":
        want = {"trajectory.csv": TRAJ_HEADER, "spectrum.csv": SPEC_HEADER}[job["csv"]]
        if header != want:
            problems.append(f"{job['name']}: CSV header {header} != {want}")
        elif job["csv"] == "trajectory.csv":
            finite = _check_trajectory(job, rows, report, problems, details)
        elif job["csv"] == "spectrum.csv":
            finite = _check_spectrum(job, rows, report, problems, details)
    details["csv_rows"] = len(rows)

    if job["csv"] == "acceptance_summary.csv":
        ops = _check_suite(job, header, rows, report, problems, details)
        job_failed = bool(record["error"]) or report is None
        return ops + [(f"job:{job['name']}", job_failed)], problems, details

    failed = (bool(record["error"]) or record["rc"] != 0 or report is None
              or not all(report["pass_fail"].values()) or header is None
              or not finite or len(rows) != job["rows"])
    return [(f"job:{job['name']}", failed)], problems, details


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
