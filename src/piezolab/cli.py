"""Command-line front end: config ingestion, experiments, CSV emission.

Subcommands: simulate | spectrum | stabilize | variants | paper-suite.
A ``stabilize`` report is the ``simulate`` report of its closed loop
(:func:`_run_report`) plus the gain's own keys.  Each ``cmd_*`` only
computes, returning an :class:`ExperimentReport` with its artifacts still
to write; :func:`main` alone creates ``--out`` and writes them and
``report.json``, so a command that stops before its verdict leaves
nothing behind.  Exit codes: 0 success, 1 check failure or simulation
error, 2 config error (an off-gauge tabulated start included), 3 IO
error.  All CSV output uses fixed 17-digit formatting, so identical
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
from .dynamics import ENERGY_DRIFT_TOL, GAUGE_BOUND_TOL, simulate
from .errors import ConfigParseError, PiezolabError
from .model import MIN_CELLS, build_grid
from .spectral import IMAGINARY_AXIS_TOL, closed_loop_spectrum, compute_spectrum
from .variants import (assemble_charge_magnetic, assemble_electrostatic,
                       build_system)

# spectrum --variant names and the actuation each writes into the config
VARIANTS = {"full": "current", "electrostatic": "charge_electrostatic",
            "charge_magnetic": "charge_magnetic"}

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclasses.dataclass
class ExperimentReport:
    """What a subcommand computed: resolved config, summary numbers, verdicts.

    ``artifacts`` maps each file name to the writer that writes it, given
    its path; :func:`main` writes them in order once the command is done.
    """

    command: str
    config_echo: dict
    outcome: dict
    pass_fail: dict
    artifacts: dict = dataclasses.field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.pass_fail.values())

    def write_json(self, path: Path, artifact_paths: list) -> None:
        doc = {"command": self.command, "config_echo": self.config_echo,
               "outcome": self.outcome, "artifact_paths": artifact_paths,
               "pass_fail": self.pass_fail}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


def _write_table(header: list, rows: list):
    """The writer of one CSV table, for :attr:`ExperimentReport.artifacts`."""
    def write(path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return write


def _echo_config(config: ExperimentConfig) -> dict:
    """The config echoed in report.json, without copying tabulated samples or rows."""
    def fields(obj, skip=None) -> dict:
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                if f.name != skip}
    return {**fields(config), "params": fields(config.params),
            "actuation": config.actuation.value,
            "input_signal": fields(config.input_signal, skip="samples"),
            "initial_state": fields(config.initial_state, skip="rows")}


def _load_config(args) -> ExperimentConfig:
    """The config file with the --n-cells, --gain and --variant flags merged in."""
    flags = {"n_cells": args.n_cells, "feedback_gain": getattr(args, "gain", None),
             "actuation": VARIANTS.get(getattr(args, "variant", None))}
    return load_config(args.config, {key: value for key, value in flags.items()
                                     if value is not None})


def _run_report(command: str, config: ExperimentConfig) -> tuple:
    """Run ``config`` and report it: (report, the run's TimeSeries).

    The report holds the run's outcome, its verdicts (energy_nonincreasing
    for a closed loop, energy_drift and gauge_bounded for a run neither
    closed nor forced) and trajectory.csv; ``simulate`` returns it as it
    is and ``stabilize`` adds to it.
    """
    series = simulate(config)
    e = series.total_energy()
    drift = float(np.max(np.abs(e - e[0])) / e[0]) if e[0] > 0 else 0.0
    outcome = {
        "n_records": int(len(series.times)),
        "dt": series.dt,
        "energy_initial": float(e[0]),
        "energy_final": float(e[-1]),
        "energy_drift": drift,
        "gauge_pos_max": float(series.gauge_pos.max()),
        "gauge_vel_max": float(series.gauge_vel.max()),
        "gauge_interior_pos_max": float(series.gauge_interior_pos.max()),
        "gauge_interior_vel_max": float(series.gauge_interior_vel.max()),
        "factored_band": list(series.factored_band),
        "folded_swaps": series.folded_swaps,
        "certificates": {"skew_defect": series.system.skew_defect,
                         "gauge_defect": series.system.gauge_defect,
                         "method": "probe"},
    }
    pass_fail = {}
    if config.feedback_gain > 0.0:
        # no record's total energy exceeds the one before it, to rounding
        pass_fail["energy_nonincreasing"] = bool(
            np.diff(e).max() <= 1e-12 * max(e[0], 1.0))
    elif config.input_signal.as_function() is None:
        pass_fail["energy_drift"] = bool(drift <= ENERGY_DRIFT_TOL)
        pass_fail["gauge_bounded"] = bool(
            max(outcome["gauge_pos_max"], outcome["gauge_vel_max"]) <= GAUGE_BOUND_TOL)
    return ExperimentReport(command, _echo_config(config), outcome, pass_fail,
                            {"trajectory.csv": series.write_csv}), series


def cmd_simulate(args) -> ExperimentReport:
    return _run_report("simulate", _load_config(args))[0]


def _add_closed_loop(report: ExperimentReport, asm, gain: float) -> None:
    """Add the closed-loop spectrum at ``gain``: its CSV, abscissa and verdict."""
    cl = closed_loop_spectrum(asm, gain)
    report.artifacts["closed_loop_spectrum.csv"] = cl.write_csv
    report.outcome["closed_loop_abscissa"] = float(cl.eigenvalues.real.max())
    report.pass_fail["closed_loop_left_half"] = bool(
        cl.eigenvalues.real.max() <= 1e-12 * max(cl.g_norm, 1.0))


def cmd_spectrum(args) -> ExperimentReport:
    config = _load_config(args)
    params = config.params
    grid = build_grid(params.L, config.n_cells)
    asm = build_system(params, grid, config.actuation)
    if args.closed_loop is not None:
        if not asm.bstar_feedback:
            raise ConfigParseError(
                f"--closed-loop needs a system fed back through B*; the "
                f"{config.actuation.value} gain is in units of its own output row")
        if not (np.isfinite(args.closed_loop) and args.closed_loop >= 0):
            raise ConfigParseError(f"--closed-loop gain must be finite and "
                                   f"nonnegative, got {args.closed_loop}")

    spectrum = compute_spectrum(asm)
    n_modes = len(spectrum.eigenvalues)
    n_stabilizable = int(np.count_nonzero(spectrum.stabilizable))
    rel = spectrum.max_abs_real / max(spectrum.g_norm, 1e-30)
    outcome = {
        "max_abs_real": spectrum.max_abs_real,
        "spectral_radius": spectrum.g_norm,
        "abscissa_relative": rel,
        "kernel_dimension": spectrum.kernel_dimension,
        "n_modes": n_modes,
        "n_stabilizable": n_stabilizable,
        "n_non_stabilizable": n_modes - n_stabilizable,
    }
    report = ExperimentReport("spectrum", _echo_config(config), outcome,
                              {"imaginary_axis": bool(rel <= IMAGINARY_AXIS_TOL)},
                              {"spectrum.csv": spectrum.write_csv})
    if args.closed_loop is not None:
        outcome["closed_loop_gain"] = args.closed_loop
        _add_closed_loop(report, asm, args.closed_loop)
    return report


def cmd_stabilize(args) -> ExperimentReport:
    config = _load_config(args)
    if config.feedback_gain <= 0:
        raise ConfigParseError("stabilize requires a positive gain "
                               "(--gain or feedback_gain in the config)")
    report, series = _run_report("stabilize", config)
    e = series.total_energy()
    report.outcome.update(gain=config.feedback_gain,
                          energy_ratio=float(e[-1] / e[0]) if e[0] > 0 else 0.0,
                          max_energy_increment=float(np.diff(e).max()))
    # a closed-loop spectrum acts through B*, so it shows this run's loop
    # only where the output row is B*
    if series.system.bstar_feedback:
        _add_closed_loop(report, series.system, config.feedback_gain)
    return report


def cmd_variants(args) -> ExperimentReport:
    from .model import toy_parameters

    n = 64 if args.n_cells is None else args.n_cells
    if n < MIN_CELLS:
        raise ConfigParseError(f"n_cells must be at least {MIN_CELLS}, got {n}")
    toy = toy_parameters()
    flat = toy_parameters(gamma=0.0)
    grid = build_grid(1.0, n)

    lam0 = compute_spectrum(assemble_electrostatic(flat, grid)).eigenvalues
    lam1 = compute_spectrum(assemble_electrostatic(toy, grid)).eigenvalues
    low0 = float(np.sort(lam0.imag[lam0.imag > 1e-12])[0])
    low1 = float(np.sort(lam1.imag[lam1.imag > 1e-12])[0])
    target = 0.5 * np.pi

    rows = []
    for n_ref in (32, 64, 128, 256):
        asm = assemble_charge_magnetic(toy, build_grid(1.0, n_ref))
        rows.append((n_ref, float(np.sqrt(asm.b @ asm.b_dual))))
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
    table = _write_table(["n_cells", "influence_norm"],
                         [[n_ref, f"{val:.17g}"] for n_ref, val in rows])
    return ExperimentReport("variants", {"n_cells": n}, outcome, pass_fail,
                            {"charge_influence_norms.csv": table})


def cmd_paper_suite(args) -> ExperimentReport:
    results = acceptance.run_all(args.only)
    for res in results:
        print(res.line())
    summary = _write_table(["check", "measured", "tolerance", "pass"],
                           [[res.name, res.measured, res.tolerance, int(res.passed)]
                            for res in results])
    details = _write_table(["check", "measured", "details"],
                           [[res.name, res.measured, res.details] for res in results])
    return ExperimentReport("paper-suite", {"only": args.only},
                            {res.name: res.measured for res in results},
                            {res.name: res.passed for res in results},
                            {"acceptance_summary.csv": summary,
                             "acceptance_details.csv": details})


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
    p_spec.add_argument("--variant", choices=tuple(VARIANTS), default=None,
                        help="override the config's actuation model")
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
    """Run one subcommand, then create --out and write what it computed.

    A command that stops before its verdict creates nothing; an --out that
    cannot be written is an IO error after the computation.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, write in report.artifacts.items():
            paths.append(str(out / name))
            write(paths[-1])
        report_path = out / "report.json"
        report.write_json(report_path, paths + [str(report_path)])
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PiezolabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK

    for name, ok in report.pass_fail.items():
        print(f"{'ok' if ok else 'FAIL'}  {name}")
    print(f"report: {report_path}")
    return EXIT_OK if report.all_passed else EXIT_CHECK


if __name__ == "__main__":
    raise SystemExit(main())
