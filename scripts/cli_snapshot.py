"""Byte-identity oracle for refactors: run a fixed list of small CLI jobs.

    python3 scripts/cli_snapshot.py OUT            # run every job into OUT/
    python3 scripts/cli_snapshot.py --compare A B  # exit 1 naming each file that differs,
                                                   # and its column or key path
    python3 scripts/cli_snapshot.py --compare A B --rtol 1e-10
                                                   # print each file's largest relative
                                                   # difference; exit 1 only above R

Each job runs ``piezolab.cli.main`` in this process with its own output
directory under OUT; the configs and tabulated inputs the jobs read are
written to OUT/_inputs, and every job's exit code goes to OUT/exit_codes.csv.
The ``simulate`` jobs run every actuation model open loop, closed loop and
forced by a sinusoid, from rest, a mode and a tabulated start of the free
fields.  Three more cover the other input paths: a constant and a tabulated
input signal, and a tabulated start that also gives the gauge-bound y3/y6
rows, which the run checks against the gauge instead of lifting them.
The ``spectrum`` jobs pick the charge models with ``--variant``, except one
whose config sets ``"actuation": "charge_magnetic"`` (closed loop): it
writes the same spectra as the ``--variant charge_magnetic`` job.
The last job is the whole ``paper-suite``: its ``acceptance_summary.csv``
pins every acceptance measurement, and its ``acceptance_details.csv`` each
check's ``details`` text, so a change in a check's details table shows in
the comparison.
OUT/environment.json records what the numbers may depend on besides the
code: the BLAS, the numpy and scipy versions, the CPU count and the BLAS
thread settings (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS,
read from the environment, null when unset); the same jobs can differ in
the last bits between one and two BLAS threads, so a comparison of two
snapshots whose records differ fails and names each field that differs.
Snapshot two checkouts on the same machine and compare them: a refactor that
keeps behaviour leaves every CSV byte-identical and every job's
``report.json`` the same once the snapshot root (OUT, made absolute, which
the reports echo in their artifact paths and tabulated inputs) is replaced
by a fixed token; one that changes only rounding (a different linear
solver, say) stays within a small ``--rtol``, which bounds a report's
numbers as it bounds a CSV column.  Compare snapshots where they were made.
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
import os
import sys
from pathlib import Path

import numpy as np
import scipy

try:
    import piezolab.cli
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import piezolab.cli

ROOT_TOKEN = "<snapshot root>"
RECORD = "environment.json"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TOY = {"rho": 1.0, "alpha": 1.0, "gamma": 1.0, "eps1": 1.0, "eps3": 1.0,
       "mu": 1.0, "h": 1.0, "L": 1.0}
NON_UNIT = {"rho": 1.3, "alpha": 0.8, "gamma": -0.7, "eps1": 1.7, "eps3": 0.9,
            "mu": 1.2, "h": 0.6, "L": 1.4}
N_CELLS = 16
MODELS = ("current", "charge_magnetic", "charge_electrostatic")
NON_UNIT_MODELS = ("charge_magnetic", "charge_electrostatic")
SIGNAL = {"kind": "sinusoid", "amplitude": 0.8, "frequency": 1.5, "phase": 0.3}


def _state_rows(model: str, bound: bool = False) -> list:
    """Smooth tabulated start of the free fields, which the run lifts.

    With ``bound`` the rows also give y3 = xi grad y2 and y6 = xi grad y5
    (toy units: xi = 1/12, 1/dx = N), on the gauge to rounding.
    """
    n = N_CELLS
    if model == "charge_electrostatic":
        sizes = {"s": n, "w": n}
    else:
        sizes = {"y1": n, "y2": n - 1, "y4": n + 1, "y5": n - 1}
    rows, free = [], {}
    for k, (name, size) in enumerate(sizes.items(), start=1):
        free[name] = [math.sin(k * math.pi * (j + 0.5) / size) for j in range(size)]
        rows += [(name, j, value) for j, value in enumerate(free[name])]
    if bound:
        for name, source in (("y3", "y2"), ("y6", "y5")):
            w = [0.0, *free[source], 0.0]
            rows += [(name, j, n * (w[j + 1] - w[j]) / 12.0) for j in range(n)]
    return rows


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
        _write_csv(inputs / state, ["field", "index", "value"],
                   ([name, j, repr(value)] for name, j, value in _state_rows(model)))
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
    # toy units round exactly in places; these runs expose the lift and the
    # energy parts to parameters that do not
    for model in NON_UNIT_MODELS:
        base = dict(params=NON_UNIT, n_cells=N_CELLS, t_final=0.25,
                    actuation=model, record_stride=2,
                    initial_state={"kind": "tabulated",
                                   "path": f"state_{model}.csv"})
        config(f"non_unit_{model}_open_tabulated", **base)
        config(f"non_unit_{model}_closed_tabulated", **base, feedback_gain=0.6)
    # at N = 256 the six-field fold moves rows all along the grid (258 swaps,
    # against 2 at N = 16), so this run takes the interior-swap solves
    config("current_forced_zero_n256", params=TOY, n_cells=256, t_final=0.05,
           actuation="current", record_stride=8, input_signal=SIGNAL,
           initial_state={"kind": "zero"})
    # the input paths the runs above miss: a constant and a tabulated
    # signal, and a tabulated start whose y3/y6 rows are checked, not lifted
    _write_csv(inputs / "signal.csv", ["time", "value"],
               ([repr(0.01 * j), repr(0.5 * math.cos(7.0 * 0.01 * j))]
                for j in range(26)))
    _write_csv(inputs / "state_current_bound.csv", ["field", "index", "value"],
               ([name, j, repr(value)]
                for name, j, value in _state_rows("current", bound=True)))
    config("current_forced_constant_modal", params=TOY, n_cells=N_CELLS,
           t_final=0.25, actuation="current", record_stride=2,
           input_signal={"kind": "constant", "amplitude": 0.7},
           initial_state={"kind": "modal", "mode_index": 1})
    config("charge_magnetic_forced_tabulated_signal", params=TOY,
           n_cells=N_CELLS, t_final=0.25, actuation="charge_magnetic",
           record_stride=2, input_signal={"kind": "tabulated", "path": "signal.csv"},
           initial_state={"kind": "zero"})
    config("current_open_tabulated_bound", params=TOY, n_cells=N_CELLS,
           t_final=0.25, actuation="current", record_stride=2,
           initial_state={"kind": "tabulated", "path": "state_current_bound.csv"})
    config("spectrum", params=TOY, n_cells=N_CELLS, t_final=0.1)
    config("spectrum_charge_magnetic", params=TOY, n_cells=N_CELLS, t_final=0.1,
           actuation="charge_magnetic")
    config("spectrum_non_unit", params=NON_UNIT, n_cells=N_CELLS, t_final=0.1)
    # at gamma = 0 the mechanics and the fields decouple exactly, so the
    # spectra are solved block by block
    config("spectrum_gamma_zero", params={**TOY, "gamma": 0.0}, n_cells=N_CELLS,
           t_final=0.1)
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
    for model in NON_UNIT_MODELS:
        for loop in ("open", "closed"):
            key = f"non_unit_{model}_{loop}_tabulated"
            jobs.append((f"simulate_{key}", ["simulate", "--config", configs[key]]))
    for key in ("current_forced_zero_n256", "current_forced_constant_modal",
                "charge_magnetic_forced_tabulated_signal",
                "current_open_tabulated_bound"):
        jobs.append((f"simulate_{key}", ["simulate", "--config", configs[key]]))
    spec = ["spectrum", "--config", configs["spectrum"]]
    jobs += [
        ("spectrum_full", spec),
        ("spectrum_full_closed_loop", [*spec, "--closed-loop", "1.0"]),
        ("spectrum_charge_magnetic_closed_loop",
         [*spec, "--variant", "charge_magnetic", "--closed-loop", "1.0"]),
        ("spectrum_charge_magnetic_actuation_closed_loop",
         ["spectrum", "--config", configs["spectrum_charge_magnetic"],
          "--closed-loop", "1.0"]),
        ("spectrum_electrostatic", [*spec, "--variant", "electrostatic"]),
        ("spectrum_non_unit_closed_loop",
         ["spectrum", "--config", configs["spectrum_non_unit"],
          "--closed-loop", "0.5"]),
        ("spectrum_non_unit_electrostatic",
         ["spectrum", "--config", configs["spectrum_non_unit"],
          "--variant", "electrostatic"]),
        ("spectrum_non_unit_charge_magnetic_closed_loop",
         ["spectrum", "--config", configs["spectrum_non_unit"],
          "--variant", "charge_magnetic", "--closed-loop", "0.5"]),
        ("spectrum_gamma_zero_closed_loop",
         ["spectrum", "--config", configs["spectrum_gamma_zero"],
          "--closed-loop", "1.0"]),
        ("variants", ["variants"]),
        ("paper_suite", ["paper-suite"]),
    ]
    return jobs


def _environment() -> dict:
    """The BLAS name, numpy and scipy versions, CPU count and thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (KeyError, TypeError):
        blas = None
    return {"blas": blas, "numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name) for name in THREAD_VARIABLES}}


def snapshot(out: Path) -> int:
    out = out.resolve()
    configs = _write_inputs(out / "_inputs")
    out.joinpath(RECORD).write_text(json.dumps(_environment(), indent=1, sort_keys=True)
                                    + "\n", encoding="utf-8")
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


def _report(path: Path, root: Path):
    """A job's report.json, each string with the snapshot root replaced."""
    prefix = str(root.resolve())

    def normalized(node):
        if isinstance(node, str):
            return node.replace(prefix, ROOT_TOKEN)
        if isinstance(node, dict):
            return {key: normalized(value) for key, value in node.items()}
        if isinstance(node, list):
            return [normalized(value) for value in node]
        return node
    return normalized(json.loads(path.read_text(encoding="utf-8")))


def _leaf_difference(x, y, one_sided: list, where: str = "") -> tuple:
    """(difference, key path) of the leaf that differs most between two reports.

    A number differs by |a - b| / max(|a|, |b|, 1), the rule of a CSV
    column; any other difference, in a string, a flag or the shape,
    counts as infinite.  Where an object has keys on one side only, its
    key path and those keys, A's and B's, are appended to ``one_sided``,
    and the leaves both sides share are compared all the same.
    """
    number = (int, float)
    if isinstance(x, dict) and isinstance(y, dict):
        only = [f"only in {side}: {', '.join(sorted(keys))}"
                for side, keys in (("A", x.keys() - y.keys()),
                                   ("B", y.keys() - x.keys())) if keys]
        if only:
            one_sided.append(f"{where or '/'} keys {'; '.join(only)}")
        return max((_leaf_difference(x[k], y[k], one_sided, f"{where}/{k}")
                    for k in x if k in y), default=(0.0, where))
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return math.inf, where
        return max((_leaf_difference(u, v, one_sided, f"{where}/{i}")
                    for i, (u, v) in enumerate(zip(x, y))), default=(0.0, where))
    if (isinstance(x, number) and isinstance(y, number)
            and not isinstance(x, bool) and not isinstance(y, bool)):
        if math.isnan(x) or math.isnan(y):
            return (0.0 if math.isnan(x) and math.isnan(y) else math.inf), where
        return abs(x - y) / max(abs(x), abs(y), 1.0), where
    return (0.0 if x == y else math.inf), where


def _same(a: Path, b: Path, rel: Path) -> bool:
    """Whether a CSV is byte-identical, or a report equal up to the root."""
    if rel.name == "report.json":
        return (json.dumps(_report(a / rel, a), sort_keys=True)
                == json.dumps(_report(b / rel, b), sort_keys=True))
    return filecmp.cmp(a / rel, b / rel, shallow=False)


def _file_difference(a: Path, b: Path, rel: Path) -> tuple:
    """(difference, places) of the largest difference in one compared file.

    ``places`` names where it lies: a CSV's column or a report's key path.
    A report whose objects have keys on one side only differs infinitely;
    its places are then those keys, object by object, and the largest
    difference among the leaves both sides share.
    """
    if rel.name != "report.json":
        diff, column = _largest_difference(a / rel, b / rel)
        return diff, [column]
    one_sided = []
    diff, where = _leaf_difference(_report(a / rel, a), _report(b / rel, b), one_sided)
    if not one_sided:
        return diff, [where]
    return math.inf, [*one_sided,
                      f"largest shared difference {diff:.3e} at {where or '/'}"]


def _compared(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.suffix == ".csv" or p.name == "report.json"}


def _environment_differences(a: Path, b: Path) -> list:
    """A line for each field in which the two snapshots' records differ.

    A record on one side only is named as such; two snapshots without one
    have nothing to compare.
    """
    records = [json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
               for path in (a / RECORD, b / RECORD)]
    if records == [None, None]:
        return []
    if None in records:
        return [f"only in {a if records[1] is None else b}: {RECORD}"]
    ra, rb = records
    return [f"environment differs: {key} is {ra.get(key)!r} in {a} and "
            f"{rb.get(key)!r} in {b}" for key in sorted(ra.keys() | rb.keys())
            if ra.get(key) != rb.get(key)]


def compare(a: Path, b: Path, rtol: float | None = None) -> int:
    """Name every CSV or report present on one side only or differing.

    A CSV must be byte-identical and a report equal once the snapshot root
    is replaced (see :func:`_report`).  A differing file is named with
    where it differs most, the CSV column or the report's key path, and a
    report with keys on one side only also with those keys (see
    :func:`_file_difference`); with ``rtol`` it also prints that relative
    difference, and only one above ``rtol`` makes the comparison fail.
    Environment records that differ fail it whatever ``rtol`` is (see
    :func:`_environment_differences`).
    """
    files_a, files_b = _compared(a), _compared(b)
    problems = _environment_differences(a, b)
    problems += [f"only in {a}: {rel}" for rel in sorted(files_a - files_b)]
    problems += [f"only in {b}: {rel}" for rel in sorted(files_b - files_a)]
    differing = [rel for rel in sorted(files_a & files_b) if not _same(a, b, rel)]
    within = 0
    for rel in differing:
        diff, places = _file_difference(a, b, rel)
        where = " ".join(f"({place})" for place in places)
        if rtol is None:
            problems.append(f"differs: {rel} {where}")
            continue
        line = f"differs: {rel}: largest relative difference {diff:.3e} {where}"
        if diff <= rtol:
            within += 1
            print(line)
        else:
            problems.append(line + f" above {rtol:.1e}")
    for line in problems:
        print(line)
    same = len(files_a & files_b) - len(differing)
    print(f"{same} of {len(files_a | files_b)} files identical "
          "(CSVs byte for byte, reports up to the snapshot root)")
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
