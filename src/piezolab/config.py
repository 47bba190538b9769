"""Experiment configuration: JSON ingestion, signal specs, validation.

Configs are JSON documents with snake_case keys mirroring the dataclass
fields.  Tabulated signals and states point at CSV files with a header row;
signal files carry (time, value) columns and state files carry
(field, index, value) rows addressed by block name.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, NonPositiveParameter, PiezolabError
from .model import BeamParameters, validate_parameters
from .operators import ActuationMode

SIGNAL_KINDS = ("zero", "constant", "sinusoid", "tabulated")
STATE_KINDS = ("zero", "modal", "tabulated")


@dataclass(frozen=True)
class SignalSpec:
    """Scalar input signal: i_s(t) for current runs, sigma_s(t) for charge."""

    kind: str = "zero"
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    path: str | None = None
    samples: tuple | None = None  # (times, values) for tabulated signals

    @property
    def trivial(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind in ("constant", "sinusoid"):
            return self.amplitude == 0.0
        if self.kind == "tabulated" and self.samples is not None:
            return bool(np.all(np.asarray(self.samples[1]) == 0.0))
        return False

    def as_function(self):
        """Return t -> value, or None for a trivial signal."""
        if self.trivial:
            return None
        if self.kind == "constant":
            amp = self.amplitude
            return lambda t: amp
        if self.kind == "sinusoid":
            amp, f, ph = self.amplitude, self.frequency, self.phase
            return lambda t: amp * np.sin(2.0 * np.pi * f * t + ph)
        if self.kind == "tabulated":
            times, values = self.samples
            return lambda t: float(np.interp(t, times, values))
        raise ConfigParseError(f"unknown signal kind {self.kind!r}")


@dataclass(frozen=True)
class InitialStateSpec:
    """Initial condition: rest, a spectral mode, or tabulated field values."""

    kind: str = "modal"
    mode_index: int = 0
    amplitude: float = 1.0
    path: str | None = None
    rows: tuple | None = None  # ((field, index, value), ...) for tabulated


@dataclass(frozen=True)
class Tolerances:
    gauge_tol: float = 1e-8
    eig_tol: float = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description shared by the CLI and library calls."""

    params: BeamParameters
    n_cells: int
    t_final: float
    dt: float | None = None
    actuation: ActuationMode = ActuationMode.NONE
    input_signal: SignalSpec = field(default_factory=SignalSpec)
    feedback_gain: float = 0.0
    initial_state: InitialStateSpec = field(default_factory=InitialStateSpec)
    tolerances: Tolerances = field(default_factory=Tolerances)
    record_stride: int = 1


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigParseError(f"missing key {key!r} in {where}")
    return section[key]


def _reject_unknown(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigParseError(f"unknown key {key!r} in {where}")


def _finite(value, where: str) -> float:
    """A JSON number as a float; booleans, strings, NaN and infinities are refused."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigParseError(f"{where} must be a number, got {value!r}")
    v = float(value)
    if not np.isfinite(v):
        raise ConfigParseError(f"{where} must be finite, got {v}")
    return v


def _integer(value, where: str, minimum: int) -> int:
    """An integer of at least ``minimum``; JSON floats and booleans are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigParseError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigParseError(f"{where} must be at least {minimum}, got {value}")
    return value


def _csv_rows(path: Path, kind: str, columns: dict) -> list:
    """Rows of a CSV file whose header names ``columns``, each column parsed.

    ``columns`` maps a column name to its parser; a value it cannot parse
    is reported with the file and its line.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
                raise ConfigParseError(f"{kind} file {path} needs a header with "
                                       f"{','.join(columns)} columns")
            rows = []
            for row in reader:
                try:
                    rows.append(tuple(parse(row[name]) for name, parse in columns.items()))
                except (TypeError, ValueError):
                    values = ",".join(str(row[name]) for name in columns)
                    raise ConfigParseError(
                        f"{kind} file {path} line {reader.line_num}: cannot parse "
                        f"{values!r} as {','.join(columns)}") from None
    except OSError as exc:
        raise ConfigParseError(f"cannot read {kind} file {path}: {exc}") from exc
    return rows


def _load_signal_samples(path: Path) -> tuple:
    rows = _csv_rows(path, "signal", {"time": float, "value": float})
    if not rows:
        raise ConfigParseError(f"signal file {path} has no samples")
    t, v = (np.array(col) for col in zip(*rows))
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ConfigParseError(f"signal file {path} has a non-finite sample")
    if np.any(np.diff(t) <= 0):
        raise ConfigParseError(f"signal file {path} times must be strictly increasing")
    return (t, v)


def _load_state_rows(path: Path) -> tuple:
    rows = tuple(_csv_rows(path, "state", {"field": str, "index": int, "value": float}))
    if not rows:
        raise ConfigParseError(f"state file {path} has no rows")
    if not all(np.isfinite(value) for _, _, value in rows):
        raise ConfigParseError(f"state file {path} has a non-finite value")
    return rows


def _parse_signal(raw, base_dir: Path) -> SignalSpec:
    if raw is None:
        return SignalSpec()
    if not isinstance(raw, dict):
        raise ConfigParseError("input_signal must be an object")
    _reject_unknown(raw, ("kind", "amplitude", "frequency", "phase", "path"),
                    "input_signal")
    kind = _require(raw, "kind", "input_signal")
    if kind not in SIGNAL_KINDS:
        raise ConfigParseError(f"input_signal.kind must be one of {SIGNAL_KINDS}, "
                               f"got {kind!r}")
    if kind == "tabulated":
        rel = _require(raw, "path", "input_signal")
        path = (base_dir / rel).resolve()
        samples = _load_signal_samples(path)
        return SignalSpec(kind=kind, path=str(path), samples=samples)
    return SignalSpec(kind=kind,
                      amplitude=_finite(raw.get("amplitude", 0.0), "input_signal.amplitude"),
                      frequency=_finite(raw.get("frequency", 0.0), "input_signal.frequency"),
                      phase=_finite(raw.get("phase", 0.0), "input_signal.phase"))


def _parse_initial_state(raw, base_dir: Path) -> InitialStateSpec:
    if raw is None:
        return InitialStateSpec()
    if not isinstance(raw, dict):
        raise ConfigParseError("initial_state must be an object")
    _reject_unknown(raw, ("kind", "mode_index", "amplitude", "path"),
                    "initial_state")
    kind = _require(raw, "kind", "initial_state")
    if kind not in STATE_KINDS:
        raise ConfigParseError(f"initial_state.kind must be one of {STATE_KINDS}, "
                               f"got {kind!r}")
    if kind == "tabulated":
        rel = _require(raw, "path", "initial_state")
        path = (base_dir / rel).resolve()
        rows = _load_state_rows(path)
        return InitialStateSpec(kind=kind, path=str(path), rows=rows)
    mode_index = _integer(raw.get("mode_index", 0), "initial_state.mode_index", 0)
    return InitialStateSpec(kind=kind, mode_index=mode_index,
                            amplitude=_finite(raw.get("amplitude", 1.0),
                                              "initial_state.amplitude"))


def _parse_tolerances(raw) -> Tolerances:
    if raw is None:
        return Tolerances()
    if not isinstance(raw, dict):
        raise ConfigParseError("tolerances must be an object")
    _reject_unknown(raw, ("gauge_tol", "eig_tol"), "tolerances")
    tol = Tolerances(gauge_tol=_finite(raw.get("gauge_tol", 1e-8), "tolerances.gauge_tol"),
                     eig_tol=_finite(raw.get("eig_tol", 1e-8), "tolerances.eig_tol"))
    for name in ("gauge_tol", "eig_tol"):
        if getattr(tol, name) <= 0:
            raise ConfigParseError(f"tolerances.{name} must be positive")
    return tol


_TOP_KEYS = ("params", "n_cells", "t_final", "dt", "actuation", "input_signal",
             "feedback_gain", "initial_state", "tolerances", "record_stride")


def config_from_dict(doc: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigParseError("config root must be a JSON object")
    base_dir = Path(base_dir)
    _reject_unknown(doc, _TOP_KEYS, "config")

    raw_params = _require(doc, "params", "config")
    if not isinstance(raw_params, dict):
        raise ConfigParseError("params must be an object")
    try:
        params = validate_parameters(raw_params)
    except NonPositiveParameter as exc:
        raise ConfigParseError(f"params.{exc.field} must be positive, "
                               f"got {exc.value}") from exc
    except (ValueError, PiezolabError) as exc:
        raise ConfigParseError(f"invalid params: {exc}") from exc

    n_cells = _integer(_require(doc, "n_cells", "config"), "n_cells", 8)

    t_final = _finite(_require(doc, "t_final", "config"), "t_final")
    if t_final <= 0:
        raise ConfigParseError(f"t_final must be positive, got {t_final}")

    dt = doc.get("dt")
    if dt is not None:
        dt = _finite(dt, "dt")
        if dt <= 0:
            raise ConfigParseError(f"dt must be positive, got {dt}")
        if t_final < dt:
            raise ConfigParseError(
                f"t_final {t_final} must be at least dt {dt}")

    actuation_name = doc.get("actuation", "none")
    try:
        actuation = ActuationMode(actuation_name)
    except ValueError:
        valid = ", ".join(m.value for m in ActuationMode)
        raise ConfigParseError(f"actuation must be one of {valid}, "
                               f"got {actuation_name!r}") from None

    signal = _parse_signal(doc.get("input_signal"), base_dir)
    gain = _finite(doc.get("feedback_gain", 0.0), "feedback_gain")
    if gain < 0:
        raise ConfigParseError(f"feedback_gain must be nonnegative, got {gain}")
    if gain > 0.0 and not signal.trivial:
        # closed loop overrides an open-loop input; drop the signal
        signal = SignalSpec()
    if actuation is ActuationMode.NONE and (gain > 0.0 or not signal.trivial):
        raise ConfigParseError(
            "actuation 'none' admits neither feedback_gain > 0 nor a "
            "non-trivial input_signal")

    initial = _parse_initial_state(doc.get("initial_state"), base_dir)
    tolerances = _parse_tolerances(doc.get("tolerances"))

    stride = _integer(doc.get("record_stride", 1), "record_stride", 1)

    return ExperimentConfig(params=params, n_cells=n_cells, t_final=t_final,
                            dt=dt, actuation=actuation, input_signal=signal,
                            feedback_gain=gain, initial_state=initial,
                            tolerances=tolerances, record_stride=stride)


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config from disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"config {path} is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc, base_dir=path.parent)


def toy_config_dict(n_cells: int = 32, t_final: float = 1.0) -> dict:
    """Template document with toy units; handy for tests and CLI defaults."""
    return {
        "params": {"rho": 1.0, "alpha": 1.0, "gamma": 1.0, "eps1": 1.0,
                   "eps3": 1.0, "mu": 1.0, "h": 1.0, "L": 1.0},
        "n_cells": n_cells,
        "t_final": t_final,
        "actuation": "none",
        "initial_state": {"kind": "modal", "mode_index": 0, "amplitude": 1.0},
    }
