"""Alternating parent/change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S
                                   [--pairs 10] --label L [--out DIR]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each pair
runs ``perfbench/run.py --workload W --seed S --trace 0`` once in each
checkout, with that checkout's own benchmark and source; the parent goes
first in even pairs and the change in odd ones, so slow drift of the
machine falls on both sides.  The result is ``BENCH_<L>.json`` in OUT (the
current directory by default).  It holds:

* ``host``: the host, BLAS and thread block of perfbench's record;
* ``sides``: each side's commit (HEAD), whether its work tree had
  uncommitted changes, per end-to-end metric its median and quartiles
  over the pairs, and its failed operations;
* ``compare``: per metric, the pairs the change won, the gap between the
  medians and the parent's interquartile range;
* ``runs``: every run, in the order it ran.

A run whose perfbench exits nonzero or prints no result stops the script
with exit 1 (nothing is written).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def _run(checkout: Path, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run of a checkout's own benchmark."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {checkout.name}: perfbench exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    record_file = (checkout / "perfbench" / "_work" / "results"
                   / f"{workload}-seed{seed}-trace0.json")
    record = json.loads(record_file.read_text(encoding="utf-8"))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "failed_ops": record["failed_ops"],
            "passes": len(record["passes"]), "host": record["host"],
            "run_s": time.perf_counter() - t0}


def _worktree_modified(checkout: Path) -> bool | None:
    """Whether the checkout has uncommitted changes (None outside git)."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def _better(checkout: Path) -> dict:
    """Direction of each end-to-end metric, from the checkout's BENCHMARK.json."""
    try:
        doc = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower") for m in doc.get("end_to_end", ())}


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> tuple:
    """Per side quartiles and per metric comparison of paired runs."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    names = sorted(set(by_side["parent"][0]["metrics"])
                   & set(by_side["change"][0]["metrics"]))
    sides = {}
    for side, rs in by_side.items():
        sides[side] = {
            "commit": rs[0]["host"].get("git_commit"),
            "metrics": {name: {**_quartiles([r["metrics"][name] for r in rs]),
                               "unit": rs[0]["units"][name]} for name in names},
            "failed_ops": sorted({op for r in rs for op in r["failed_ops"]}),
            "attempted": [r["attempted"] for r in rs],
            "failed": [r["failed"] for r in rs],
        }
    compare = {}
    for name in names:
        lower = better.get(name, "lower") == "lower"
        pairs = zip(by_side["parent"], by_side["change"])
        wins = sum((c["metrics"][name] < p["metrics"][name]) if lower
                   else (c["metrics"][name] > p["metrics"][name]) for p, c in pairs)
        parent = sides["parent"]["metrics"][name]
        change = sides["change"]["metrics"][name]
        gap = (parent["median"] - change["median"]) * (1 if lower else -1)
        iqr = parent["q3"] - parent["q1"]
        compare[name] = {"better": "lower" if lower else "higher",
                         "change_wins": wins, "pairs": len(by_side["parent"]),
                         "median_gain": gap,
                         "median_gain_frac": gap / parent["median"],
                         "parent_iqr": iqr, "gain_exceeds_parent_iqr": gap > iqr}
    return sides, compare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, d in dirs.items():
        if not (d / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout has no perfbench/run.py: {d}")

    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            rec = _run(dirs[side], args.workload, args.seed)
            runs.append({"pair": i, "side": side, "first": side == order[0], **rec})
            wall = rec["metrics"].get("wall_s")
            print(f"pair {i} {side:6s} wall_s {wall:.3f} "
                  f"failed {rec['failed']}/{rec['attempted']}", flush=True)

    sides, compare = summarize(runs, _better(dirs["parent"]))
    for side in SIDES:
        sides[side]["worktree_modified"] = _worktree_modified(dirs[side])
    host = dict(runs[0]["host"])
    host.pop("git_commit", None)
    doc = {"label": args.label, "workload": args.workload, "seed": args.seed,
           "pairs": args.pairs, "host": host, "sides": sides, "compare": compare,
           "runs": [{k: v for k, v in r.items() if k not in ("host", "units")}
                    for r in runs]}
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, c in compare.items():
        print(f"{name}: change won {c['change_wins']} of {c['pairs']}, median "
              f"{sides['parent']['metrics'][name]['median']:.4g} -> "
              f"{sides['change']['metrics'][name]['median']:.4g}, parent IQR "
              f"{c['parent_iqr']:.3g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
