"""Byte-identity oracle for refactors: run a fixed list of small CLI jobs.

    python3 scripts/cli_snapshot.py OUT            # run every job into OUT/
    python3 scripts/cli_snapshot.py --compare A B  # exit 1 naming each CSV that differs
    python3 scripts/cli_snapshot.py --compare A B --rtol 1e-10
                                                   # print each CSV's largest relative
                                                   # difference; exit 1 only above R

Each job runs ``piezolab.cli.main`` in this process with its own output
directory under OUT; the configs and tabulated inputs the jobs read are
written to OUT/_inputs, and every job's exit code goes to OUT/exit_codes.csv.
Snapshot two checkouts on the same machine and compare them: a refactor that
keeps behaviour leaves every CSV byte-identical, and one that changes only
rounding (a different linear solver, say) stays within a small ``--rtol``.
``piezolab`` is imported from the path as given (set PYTHONPATH to snapshot
another checkout's ``src``); when it is not importable, this checkout's
``src`` is used.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import filecmp
import io
import json
import math
import sys
from pathlib import Path

try:
    import piezolab.cli
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import piezolab.cli

TOY = {"rho": 1.0, "alpha": 1.0, "gamma": 1.0, "eps1": 1.0, "eps3": 1.0,
       "mu": 1.0, "h": 1.0, "L": 1.0}
NON_UNIT = {"rho": 1.3, "alpha": 0.8, "gamma": -0.7, "eps1": 1.7, "eps3": 0.9,
            "mu": 1.2, "h": 0.6, "L": 1.4}
N_CELLS = 16
MODELS = ("current", "charge_magnetic", "charge_electrostatic")
SIGNAL = {"kind": "sinusoid", "amplitude": 0.8, "frequency": 1.5, "phase": 0.3}


def _state_rows(model: str) -> list:
    """Smooth tabulated start: free fields only, gauge-bound ones are lifted."""
    n = N_CELLS
    if model == "charge_electrostatic":
        sizes = {"s": n, "w": n}
    else:
        sizes = {"y1": n, "y2": n - 1, "y4": n + 1, "y5": n - 1}
    rows = []
    for k, (name, size) in enumerate(sizes.items(), start=1):
        for j in range(size):
            rows.append((name, j, math.sin(k * math.pi * (j + 0.5) / size)))
    return rows


def _write_inputs(inputs: Path) -> dict:
    """Write the configs and tabulated states; return config paths by key."""
    inputs.mkdir(parents=True, exist_ok=True)
    configs = {}

    def config(key: str, **doc) -> None:
        path = inputs / f"{key}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        configs[key] = str(path)

    for model in MODELS:
        state = f"state_{model}.csv"
        with open(inputs / state, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["field", "index", "value"])
            for name, j, value in _state_rows(model):
                writer.writerow([name, j, repr(value)])
        starts = {"zero": {"kind": "zero"},
                  "modal": {"kind": "modal", "mode_index": 1, "amplitude": 1.5},
                  "tabulated": {"kind": "tabulated", "path": state}}
        for start, spec in starts.items():
            base = dict(params=TOY, n_cells=N_CELLS, t_final=0.25,
                        actuation=model, record_stride=2, initial_state=spec)
            config(f"{model}_open_{start}", **base)
            config(f"{model}_closed_{start}", **base, feedback_gain=0.6)
            config(f"{model}_forced_{start}", **base, input_signal=SIGNAL)
    config("non_unit_closed_modal", params=NON_UNIT, n_cells=N_CELLS,
           t_final=0.25, actuation="current", feedback_gain=0.9,
           initial_state={"kind": "modal", "mode_index": 0})
    config("spectrum", params=TOY, n_cells=N_CELLS, t_final=0.1)
    config("spectrum_non_unit", params=NON_UNIT, n_cells=N_CELLS, t_final=0.1)
    return configs


def _jobs(configs: dict) -> list:
    """(name, argv without --out) for every job, in run order."""
    jobs = []
    for model in MODELS:
        for loop in ("open", "closed", "forced"):
            for start in ("zero", "modal", "tabulated"):
                key = f"{model}_{loop}_{start}"
                jobs.append((f"simulate_{key}",
                             ["simulate", "--config", configs[key]]))
        jobs.append((f"stabilize_{model}",
                     ["stabilize", "--config", configs[f"{model}_open_modal"],
                      "--gain", "0.8"]))
    jobs.append(("simulate_non_unit_closed_modal",
                 ["simulate", "--config", configs["non_unit_closed_modal"]]))
    spec = ["spectrum", "--config", configs["spectrum"]]
    jobs += [
        ("spectrum_full", spec),
        ("spectrum_full_closed_loop", [*spec, "--closed-loop", "1.0"]),
        ("spectrum_charge_magnetic_closed_loop",
         [*spec, "--variant", "charge_magnetic", "--closed-loop", "1.0"]),
        ("spectrum_electrostatic", [*spec, "--variant", "electrostatic"]),
        ("spectrum_non_unit_closed_loop",
         ["spectrum", "--config", configs["spectrum_non_unit"],
          "--closed-loop", "0.5"]),
        ("variants", ["variants"]),
        ("paper_suite_skewness", ["paper-suite", "--only", "skewness"]),
    ]
    return jobs


def snapshot(out: Path) -> int:
    configs = _write_inputs(out / "_inputs")
    codes = []
    for name, argv in _jobs(configs):
        with contextlib.redirect_stdout(io.StringIO()):
            code = piezolab.cli.main([*argv, "--out", str(out / name)])
        print(f"{code}  {name}")
        codes.append((name, code))
    with open(out / "exit_codes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job", "exit_code"])
        writer.writerows(codes)
    print(f"{len(codes)} jobs from {piezolab.cli.__file__} into {out}")
    return 0


def _largest_difference(path_a: Path, path_b: Path) -> tuple:
    """(difference, column) of the column that differs most between two CSVs.

    Each numeric column's largest |a - b| is divided by max(its largest
    magnitude on either side, 1): the jobs run in O(1) units, so a column
    whose values all lie below 1 is compared absolutely.  That covers the
    gauge residuals, relative quantities which sit at rounding level here.
    A text cell that differs, or a different shape, counts as infinite.
    """
    with open(path_a, newline="", encoding="utf-8") as fa, \
            open(path_b, newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf, "shape or header"
    worst, where = 0.0, ""
    for col, name in enumerate(rows_a[0]):
        cells = [(ra[col], rb[col]) for ra, rb in zip(rows_a[1:], rows_b[1:])]
        try:
            pairs = [(float(x), float(y)) for x, y in cells]
        except ValueError:
            diff = 0.0 if all(x == y for x, y in cells) else math.inf
        else:
            scale = max([1.0] + [max(abs(x), abs(y)) for x, y in pairs])
            diff = max([abs(x - y) for x, y in pairs] + [0.0]) / scale
            if any(math.isnan(x) != math.isnan(y) for x, y in pairs):
                diff = math.inf
        if diff > worst or not where:
            worst, where = diff, name
    return worst, where


def compare(a: Path, b: Path, rtol: float | None = None) -> int:
    """Name every CSV present on one side only or differing in a byte.

    With ``rtol`` a differing CSV also prints its largest relative
    difference (see :func:`_largest_difference`), and only one above
    ``rtol`` makes the comparison fail.
    """
    files_a = {p.relative_to(a) for p in a.rglob("*.csv")}
    files_b = {p.relative_to(b) for p in b.rglob("*.csv")}
    problems = [f"only in {a}: {rel}" for rel in sorted(files_a - files_b)]
    problems += [f"only in {b}: {rel}" for rel in sorted(files_b - files_a)]
    differing = [rel for rel in sorted(files_a & files_b)
                 if not filecmp.cmp(a / rel, b / rel, shallow=False)]
    within = 0
    for rel in differing:
        if rtol is None:
            problems.append(f"differs: {rel}")
            continue
        diff, column = _largest_difference(a / rel, b / rel)
        line = f"differs: {rel}: largest relative difference {diff:.3e} ({column})"
        if diff <= rtol:
            within += 1
            print(line)
        else:
            problems.append(line + f" above {rtol:.1e}")
    for line in problems:
        print(line)
    same = len(files_a & files_b) - len(differing)
    print(f"{same} of {len(files_a | files_b)} CSV files byte-identical")
    if rtol is not None:
        print(f"{within} differ within relative {rtol:.1e}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="directory to snapshot into")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two snapshot directories instead")
    parser.add_argument("--rtol", type=float, default=None, metavar="R",
                        help="with --compare: accept CSVs whose largest "
                             "relative difference is at most R")
    args = parser.parse_args(argv)
    if args.rtol is not None and not args.compare:
        parser.error("--rtol applies only with --compare")
    if args.rtol is not None and not args.rtol >= 0:
        parser.error(f"--rtol must be nonnegative, got {args.rtol}")
    if args.compare:
        a, b = (Path(p) for p in args.compare)
        for path in (a, b):
            if not path.is_dir():
                parser.error(f"{path} is not a directory")
        return compare(a, b, args.rtol)
    if args.out is None:
        parser.error("give an output directory or --compare A B")
    return snapshot(Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())
