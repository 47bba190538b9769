"""Seeded inputs and job lists for the three benchmark workloads.

Every input the program sees is a file written here: config JSONs and the
tabulated initial-state CSVs.  The same seed writes byte-identical files.
Each job is the argument list of one ``piezolab`` CLI call together with
what the benchmark expects of its outputs (CSV name, row count, checks).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("trajectory", "spectrum", "suite")

# toy units, the same parameter set the acceptance suite uses
TOY_PARAMS = {"rho": 1.0, "alpha": 1.0, "gamma": 1.0, "eps1": 1.0,
              "eps3": 1.0, "mu": 1.0, "h": 1.0, "L": 1.0}

# the 13 acceptance checks, in suite order
SUITE_CHECKS = ("skewness", "conservation", "gauge", "imaginary_spectrum",
                "pxi_identity", "dispersion", "stabilizability",
                "gain_perturbation", "no_uniform_margin",
                "electrostatic_decay", "admissibility", "kernel_audit",
                "charge_norm_growth")


def _n_steps(n_cells: int, t_final: float) -> int:
    """Step count of a run with the default dt = dx / 10 (unit wave speed)."""
    dt = (1.0 / n_cells) / 10.0
    return max(1, int(round(t_final / dt)))


def _n_records(n_cells: int, t_final: float, stride: int) -> int:
    steps = _n_steps(n_cells, t_final)
    # the initial record, every stride-th step, and always the last step
    return 1 + steps // stride + (1 if steps % stride else 0)


def _write_full_state(path: Path, rng: random.Random, n: int) -> None:
    """Seeded y1, y2, y4, y5 rows; the program gauge-projects y3 and y6."""
    sizes = {"y1": n, "y2": n - 1, "y4": n + 1, "y5": n - 1}
    lines = ["field,index,value"]
    for name, size in sizes.items():
        lines += [f"{name},{i},{rng.gauss(0.0, 1.0)!r}" for i in range(size)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_es_state(path: Path, rng: random.Random, n: int) -> None:
    """Seeded strain s (cells) and velocity w (nodes 1..N) rows."""
    lines = ["field,index,value"]
    for name in ("s", "w"):
        lines += [f"{name},{i},{rng.gauss(0.0, 1.0)!r}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_config(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _config(n_cells: int, t_final: float, **extra) -> dict:
    doc = {"params": dict(TOY_PARAMS), "n_cells": n_cells, "t_final": t_final}
    doc.update(extra)
    return doc


def _traj_job(name, config, n_cells, t_final, stride, checks):
    return {"name": name, "argv": ["simulate", "--config", str(config)],
            "csv": "trajectory.csv",
            "rows": _n_records(n_cells, t_final, stride), "checks": checks}


def _trajectory(inputs: Path, rng: random.Random) -> list:
    jobs = []

    _write_full_state(inputs / "open_state.csv", rng, 256)
    _write_config(inputs / "open_loop.json", _config(
        256, 1.0, actuation="current", record_stride=10,
        initial_state={"kind": "tabulated", "path": "open_state.csv"}))
    jobs.append(_traj_job("open_loop_n256", inputs / "open_loop.json",
                          256, 1.0, 10, ["energy_drift", "gauge_bounded"]))

    _write_full_state(inputs / "closed_state.csv", rng, 256)
    _write_config(inputs / "closed_loop.json", _config(
        256, 0.5, actuation="current", feedback_gain=0.5, record_stride=1,
        initial_state={"kind": "tabulated", "path": "closed_state.csv"}))
    jobs.append(_traj_job("closed_loop_n256", inputs / "closed_loop.json",
                          256, 0.5, 1, ["energy_nonincreasing"]))

    _write_config(inputs / "charge_sine.json", _config(
        128, 1.0, actuation="charge_magnetic", record_stride=4,
        input_signal={"kind": "sinusoid",
                      "amplitude": round(rng.uniform(0.5, 2.0), 6),
                      "frequency": round(rng.uniform(0.5, 3.0), 6),
                      "phase": round(rng.uniform(0.0, 6.283185), 6)},
        initial_state={"kind": "zero"}))
    jobs.append(_traj_job("charge_sine_n128", inputs / "charge_sine.json",
                          128, 1.0, 4, []))

    _write_es_state(inputs / "es_state.csv", rng, 512)
    _write_config(inputs / "es_feedback.json", _config(
        512, 2.0, actuation="charge_electrostatic", feedback_gain=1.0,
        record_stride=10,
        initial_state={"kind": "tabulated", "path": "es_state.csv"}))
    jobs.append(_traj_job("es_feedback_n512", inputs / "es_feedback.json",
                          512, 2.0, 10, ["energy_nonincreasing"]))
    return jobs


def _spec_job(name, config, modes, checks, extra=()):
    return {"name": name, "argv": ["spectrum", "--config", str(config), *extra],
            "csv": "spectrum.csv", "rows": modes, "checks": checks}


def _spectrum(inputs: Path, rng: random.Random) -> list:
    # A spectrum depends only on the parameters and the grid; the seed picks
    # the (ignored) run length so each seed still writes its own configs.
    t_final = round(rng.uniform(0.5, 2.0), 6)
    for n in (128, 256, 512):
        _write_config(inputs / f"spectrum_n{n}.json", _config(n, t_final))
    return [
        _spec_job("full_n256", inputs / "spectrum_n256.json", 4 * 256 - 1,
                  ["imaginary_axis"]),
        _spec_job("charge_magnetic_cl_n128", inputs / "spectrum_n128.json",
                  4 * 128 - 1, ["imaginary_axis", "closed_loop_left_half"],
                  ("--variant", "charge_magnetic", "--closed-loop", "1.0")),
        _spec_job("electrostatic_n512", inputs / "spectrum_n512.json", 2 * 512,
                  ["imaginary_axis"], ("--variant", "electrostatic")),
    ]


def _suite(inputs: Path, rng: random.Random) -> list:
    # paper-suite reads no input: its checks pin their own data and seeds
    return [{"name": "paper_suite", "argv": ["paper-suite"],
             "csv": "acceptance_summary.csv", "checks": list(SUITE_CHECKS)}]


def write_inputs(workload: str, seed: int, inputs: Path) -> list:
    """Write the seeded inputs of ``workload`` into ``inputs``; return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"piezolab-bench/{workload}/{seed}")
    build = {"trajectory": _trajectory, "spectrum": _spectrum,
             "suite": _suite}[workload]
    return build(inputs, rng)
