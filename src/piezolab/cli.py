"""Command-line front end: config ingestion, experiments, CSV emission.

Subcommands: simulate | spectrum | stabilize | variants | paper-suite.
Exit codes: 0 success, 1 check failure or simulation error, 2 config error,
3 IO error.  All CSV output uses fixed 17-digit formatting, so identical
configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .config import ExperimentConfig, load_config
from .dynamics import simulate
from .errors import ConfigParseError, PiezolabError
from .model import build_grid
from .operators import ActuationMode
from .spectral import closed_loop_spectrum, compute_spectrum
from .variants import (assemble_electrostatic, build_system,
                       charge_influence_norm)

VARIANTS = {"full": ActuationMode.CURRENT,
            "electrostatic": ActuationMode.CHARGE_ELECTROSTATIC,
            "charge_magnetic": ActuationMode.CHARGE_MAGNETIC}

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclasses.dataclass
class ExperimentReport:
    """What a subcommand did: resolved config, summary numbers, artifacts."""

    command: str
    config_echo: dict
    outcome: dict
    artifact_paths: list
    pass_fail: dict

    @property
    def all_passed(self) -> bool:
        return all(self.pass_fail.values())

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def write_json(self, path: Path) -> None:
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")


def _echo_config(config: ExperimentConfig) -> dict:
    doc = dataclasses.asdict(config)
    doc["actuation"] = config.actuation.value
    sig = doc["input_signal"]
    sig.pop("samples", None)
    doc["initial_state"].pop("rows", None)
    return doc


def _ensure_outdir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _n_cells_override(args) -> int | None:
    """The --n-cells flag, held to the same lower bound as the config."""
    if args.n_cells is not None and args.n_cells < 8:
        raise ConfigParseError(f"n_cells must be at least 8, got {args.n_cells}")
    return args.n_cells


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    n_cells = _n_cells_override(args)
    if n_cells is not None:
        updates["n_cells"] = n_cells
    if getattr(args, "gain", None) is not None:
        if not (np.isfinite(args.gain) and args.gain >= 0):
            raise ConfigParseError(
                f"gain must be finite and nonnegative, got {args.gain}")
        updates["feedback_gain"] = args.gain
        if args.gain > 0 and config.actuation is ActuationMode.NONE:
            updates["actuation"] = ActuationMode.CURRENT
    return dataclasses.replace(config, **updates) if updates else config


def cmd_simulate(args) -> ExperimentReport:
    config = _apply_overrides(load_config(args.config), args)
    out = _ensure_outdir(args.out)
    series = simulate(config)
    traj = out / "trajectory.csv"
    series.write_csv(str(traj))

    e = series.total_energy()
    drift = float(np.max(np.abs(e - e[0])) / e[0]) if e[0] > 0 else 0.0
    increments = np.diff(e)
    outcome = {
        "n_records": int(len(series.times)),
        "dt": series.dt,
        "energy_initial": float(e[0]),
        "energy_final": float(e[-1]),
        "energy_drift": drift,
        "gauge_pos_max": float(series.gauge_pos.max()),
        "gauge_vel_max": float(series.gauge_vel.max()),
    }
    pass_fail = {}
    closed = config.feedback_gain > 0.0
    forced = config.input_signal.as_function() is not None
    if closed:
        tol = 1e-12 * max(e[0], 1.0)
        pass_fail["energy_nonincreasing"] = bool(increments.max() <= tol)
    elif not forced:
        pass_fail["energy_drift"] = bool(drift <= 1e-9)
        pass_fail["gauge_bounded"] = bool(
            max(outcome["gauge_pos_max"], outcome["gauge_vel_max"]) <= 1e-10)
    return ExperimentReport("simulate", _echo_config(config), outcome,
                            [str(traj)], pass_fail)


def _closed_loop_csv(asm, gain: float, eig_tol: float, out: Path,
                     outcome: dict, pass_fail: dict) -> str:
    cl = closed_loop_spectrum(asm, gain, eig_tol=eig_tol)
    cl_path = out / "closed_loop_spectrum.csv"
    cl.write_csv(str(cl_path))
    outcome["closed_loop_abscissa"] = float(cl.eigenvalues.real.max())
    pass_fail["closed_loop_left_half"] = bool(
        cl.eigenvalues.real.max() <= 1e-12 * max(cl.g_norm, 1.0))
    return str(cl_path)


def cmd_spectrum(args) -> ExperimentReport:
    config = _apply_overrides(load_config(args.config), args)
    params = config.params
    grid = build_grid(params.L, config.n_cells)
    asm = build_system(params, grid, VARIANTS[args.variant])
    if args.closed_loop is not None:
        if not asm.bstar_feedback:
            raise ConfigParseError(
                f"--closed-loop needs a system fed back through B*; the "
                f"{args.variant} gain is in units of its own output row")
        if not (np.isfinite(args.closed_loop) and args.closed_loop >= 0):
            raise ConfigParseError(f"--closed-loop gain must be finite and "
                                   f"nonnegative, got {args.closed_loop}")
    out = _ensure_outdir(args.out)
    eig_tol = config.tolerances.eig_tol

    report = compute_spectrum(asm, eig_tol=eig_tol)
    spec_path = out / "spectrum.csv"
    report.write_csv(str(spec_path))
    paths = [str(spec_path)]
    n_modes = len(report.mode_table)
    n_stabilizable = sum(1 for rec in report.mode_table if rec.stabilizable)
    rel = report.max_abs_real / max(report.g_norm, 1e-30)
    outcome = {
        "max_abs_real": report.max_abs_real,
        "spectral_radius": report.g_norm,
        "abscissa_relative": rel,
        "kernel_dimension": report.kernel_dimension,
        "n_modes": n_modes,
        "n_stabilizable": n_stabilizable,
        "n_non_stabilizable": n_modes - n_stabilizable,
    }
    pass_fail = {"imaginary_axis": bool(rel <= 1e-10)}
    if args.closed_loop is not None:
        outcome["closed_loop_gain"] = args.closed_loop
        paths.append(_closed_loop_csv(asm, args.closed_loop, eig_tol, out,
                                      outcome, pass_fail))
    return ExperimentReport("spectrum", _echo_config(config), outcome, paths,
                            pass_fail)


def cmd_stabilize(args) -> ExperimentReport:
    config = _apply_overrides(load_config(args.config), args)
    if config.feedback_gain <= 0:
        raise ConfigParseError("stabilize requires a positive gain "
                               "(--gain or feedback_gain in the config)")
    out = _ensure_outdir(args.out)
    series = simulate(config)
    traj = out / "trajectory.csv"
    series.write_csv(str(traj))
    paths = [str(traj)]

    e = series.total_energy()
    outcome = {
        "gain": config.feedback_gain,
        "energy_initial": float(e[0]),
        "energy_final": float(e[-1]),
        "energy_ratio": float(e[-1] / e[0]) if e[0] > 0 else 0.0,
        "max_energy_increment": float(np.diff(e).max()),
    }
    pass_fail = {"energy_nonincreasing":
                 bool(np.diff(e).max() <= 1e-12 * max(e[0], 1.0))}

    # a closed-loop spectrum acts through B*, so it shows this run's loop
    # only where the output row is B*
    if series.system.bstar_feedback:
        paths.append(_closed_loop_csv(series.system, config.feedback_gain,
                                      config.tolerances.eig_tol, out,
                                      outcome, pass_fail))
    return ExperimentReport("stabilize", _echo_config(config), outcome, paths,
                            pass_fail)


def cmd_variants(args) -> ExperimentReport:
    from .model import toy_parameters

    n = _n_cells_override(args)
    if n is None:
        n = 64
    out = _ensure_outdir(args.out)
    toy = toy_parameters()
    flat = toy_parameters(gamma=0.0)
    grid = build_grid(1.0, n)

    lam0 = compute_spectrum(assemble_electrostatic(flat, grid)).eigenvalues
    lam1 = compute_spectrum(assemble_electrostatic(toy, grid)).eigenvalues
    low0 = float(np.sort(lam0.imag[lam0.imag > 1e-12])[0])
    low1 = float(np.sort(lam1.imag[lam1.imag > 1e-12])[0])
    target = 0.5 * np.pi

    rows = [(n_ref, charge_influence_norm(toy, build_grid(1.0, n_ref)))
            for n_ref in (32, 64, 128, 256)]
    table = out / "charge_influence_norms.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_cells", "influence_norm"])
        for n_ref, val in rows:
            writer.writerow([n_ref, f"{val:.17g}"])

    outcome = {
        "es_lowest_omega_gamma0": low0,
        "es_lowest_omega_toy": low1,
        "es_gamma0_target": float(target),
        "charge_norms": {str(k): v for k, v in rows},
    }
    pass_fail = {
        "es_dispersion": bool(abs(low0 - target) <= 0.01 * target),
        "pxi_stiffening": bool(low1 > low0),
        "charge_norm_monotone": bool(all(rows[i][1] < rows[i + 1][1]
                                         for i in range(len(rows) - 1))),
    }
    return ExperimentReport("variants", {"n_cells": n}, outcome,
                            [str(table)], pass_fail)


def cmd_paper_suite(args) -> ExperimentReport:
    out = _ensure_outdir(args.out)
    results = acceptance.run_all(only=args.only)
    summary = out / "acceptance_summary.csv"
    with open(summary, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "measured", "tolerance", "pass"])
        for res in results:
            writer.writerow([res.name, res.measured, res.tolerance,
                             int(res.passed)])
    for res in results:
        print(res.line())
    outcome = {res.name: res.measured for res in results}
    pass_fail = {res.name: res.passed for res in results}
    return ExperimentReport("paper-suite", {"only": args.only}, outcome,
                            [str(summary)], pass_fail)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piezolab",
        description="Structure-preserving simulator and control laboratory "
                    "for piezoelectric beams with dynamic magnetic effects.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory (created)")
        p.add_argument("--n-cells", type=int, default=None,
                       help="override the config grid resolution")

    p_sim = sub.add_parser("simulate", help="integrate a configured experiment")
    common(p_sim)
    p_sim.add_argument("--gain", type=float, default=None,
                       help="override the feedback gain")
    p_sim.set_defaults(fn=cmd_simulate)

    p_spec = sub.add_parser("spectrum", help="eigenstructure and mode table")
    common(p_spec)
    p_spec.add_argument("--closed-loop", type=float, default=None,
                        metavar="GAIN", help="also emit the closed-loop spectrum")
    p_spec.add_argument("--variant", choices=tuple(VARIANTS), default="full")
    p_spec.set_defaults(fn=cmd_spectrum)

    p_stab = sub.add_parser("stabilize", help="closed-loop feedback experiment")
    common(p_stab)
    p_stab.add_argument("--gain", type=float, default=None,
                        help="feedback gain (overrides the config)")
    p_stab.set_defaults(fn=cmd_stabilize)

    p_var = sub.add_parser("variants", help="comparison-model quick look")
    common(p_var, config_required=False)
    p_var.set_defaults(fn=cmd_variants)

    p_suite = sub.add_parser("paper-suite", help="run the acceptance suite")
    p_suite.add_argument("--out", default=".", help="output directory (created)")
    p_suite.add_argument("--only", default=None,
                         help="run only checks whose name contains this string")
    p_suite.set_defaults(fn=cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PiezolabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK

    try:
        out = _ensure_outdir(args.out)
        report_path = out / "report.json"
        report.artifact_paths.append(str(report_path))
        report.write_json(report_path)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    for name, ok in report.pass_fail.items():
        print(f"{'ok' if ok else 'FAIL'}  {name}")
    print(f"report: {report_path}")
    return EXIT_OK if report.all_passed else EXIT_CHECK


if __name__ == "__main__":
    raise SystemExit(main())
