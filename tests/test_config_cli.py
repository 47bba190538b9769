"""JSON config ingestion and the command-line front end."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import piezolab
from piezolab import acceptance, cli, dynamics, generator
from piezolab.config import (config_from_dict, load_config, toy_config_dict)
from piezolab.errors import ConfigParseError, GaugeViolation
from piezolab.model import build_grid
from piezolab.operators import ActuationMode
from piezolab.variants import build_system


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _cli_subprocess(*args):
    # the child imports the same piezolab as this process, so the suite also
    # runs under pytest's own pythonpath setting without PYTHONPATH
    src = os.path.dirname(os.path.dirname(piezolab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "piezolab.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def run_cli(capsys):
    """``cli.main`` in this process, returning what a subprocess run would.

    argparse exits through SystemExit; its code becomes the return code.
    """
    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)
    return run


class TestConfigParsing:
    def test_toy_template_loads(self):
        cfg = config_from_dict(toy_config_dict())
        assert cfg.n_cells == 32
        assert cfg.actuation is ActuationMode.NONE
        assert cfg.input_signal.trivial
        assert cfg.initial_state.kind == "modal"

    def test_missing_param_named(self):
        doc = toy_config_dict()
        del doc["params"]["rho"]
        with pytest.raises(ConfigParseError, match="rho"):
            config_from_dict(doc)

    def test_nonpositive_param_named(self):
        doc = toy_config_dict()
        doc["params"]["eps3"] = -1.0
        with pytest.raises(ConfigParseError, match="params.eps3"):
            config_from_dict(doc)

    def test_unknown_key_rejected(self):
        doc = toy_config_dict()
        doc["timestep"] = 0.1
        with pytest.raises(ConfigParseError, match="timestep"):
            config_from_dict(doc)

    def test_t_final_before_dt(self):
        doc = toy_config_dict()
        doc["dt"] = 2.0
        doc["t_final"] = 1.0
        with pytest.raises(ConfigParseError, match="t_final"):
            config_from_dict(doc)

    @pytest.mark.parametrize("t_final, dt", ((1.0, 0.4), (0.123, 0.01)))
    def test_dt_must_divide_t_final(self, t_final, dt):
        # 1.0 in steps of 0.4 once ended at 0.8 with exit 0
        doc = {**toy_config_dict(t_final=t_final), "dt": dt}
        with pytest.raises(ConfigParseError, match="dt"):
            config_from_dict(doc)

    def test_dt_dividing_within_rounding_accepted(self):
        # 10 * 0.1 and 123 * 0.001 are t_final only to rounding
        for t_final, dt in ((1.0, 0.1), (0.123, 0.001), (0.3, 0.1)):
            assert config_from_dict({**toy_config_dict(t_final=t_final),
                                     "dt": dt}).dt == dt

    @pytest.mark.parametrize("params", ({"eps1": 1e300, "h": 1e10}, {"eps3": 1e-320},
                                        {"h": 1e200}),
                             ids=("eps1_h", "eps3", "h_squared"))
    def test_overflowing_xi_rejected(self, params):
        # every constant is finite, but xi = eps1 h^2 / (12 eps3) is not
        doc = toy_config_dict()
        doc["params"].update(params)
        with pytest.raises(ConfigParseError, match="'xi'"):
            config_from_dict(doc)

    def test_coarse_grid_rejected(self):
        doc = toy_config_dict(n_cells=4)
        with pytest.raises(ConfigParseError, match="n_cells"):
            config_from_dict(doc)

    def test_actuation_none_rejects_gain(self):
        doc = toy_config_dict()
        doc["feedback_gain"] = 1.0
        with pytest.raises(ConfigParseError, match="actuation"):
            config_from_dict(doc)

    def test_closed_loop_overrides_signal(self):
        doc = toy_config_dict()
        doc["actuation"] = "current"
        doc["feedback_gain"] = 1.0
        doc["input_signal"] = {"kind": "sinusoid", "amplitude": 1.0,
                               "frequency": 2.0}
        cfg = config_from_dict(doc)
        assert cfg.feedback_gain == 1.0
        assert cfg.input_signal.trivial

    def test_sinusoid_signal_function(self):
        doc = toy_config_dict()
        doc["actuation"] = "current"
        doc["input_signal"] = {"kind": "sinusoid", "amplitude": 2.0,
                               "frequency": 0.5, "phase": 0.25}
        fn = config_from_dict(doc).input_signal.as_function()
        assert fn(0.3) == pytest.approx(
            2.0 * np.sin(2.0 * np.pi * 0.5 * 0.3 + 0.25), rel=1e-15)

    def test_tabulated_signal(self, tmp_path):
        csv = tmp_path / "sig.csv"
        csv.write_text("time,value\n0.0,0.0\n1.0,2.0\n2.0,0.0\n",
                       encoding="utf-8")
        doc = toy_config_dict()
        doc["actuation"] = "current"
        doc["input_signal"] = {"kind": "tabulated", "path": "sig.csv"}
        fn = config_from_dict(doc, base_dir=tmp_path).input_signal.as_function()
        assert fn(0.5) == pytest.approx(1.0)

    def test_tabulated_signal_must_increase(self, tmp_path):
        csv = tmp_path / "sig.csv"
        csv.write_text("time,value\n1.0,0.0\n0.5,2.0\n", encoding="utf-8")
        doc = toy_config_dict()
        doc["actuation"] = "current"
        doc["input_signal"] = {"kind": "tabulated", "path": "sig.csv"}
        with pytest.raises(ConfigParseError, match="increasing"):
            config_from_dict(doc, base_dir=tmp_path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"params\": ,\n}", encoding="utf-8")
        with pytest.raises(ConfigParseError, match="line 2"):
            load_config(path)

    @pytest.mark.parametrize("path,value", [
        (("feedback_gain",), float("nan")),
        (("feedback_gain",), float("inf")),
        (("input_signal", "amplitude"), float("inf")),
        (("input_signal", "frequency"), float("nan")),
        (("input_signal", "phase"), float("-inf")),
        (("initial_state", "amplitude"), float("nan")),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
    def test_non_finite_number_rejected(self, path, value):
        doc = toy_config_dict()
        doc["actuation"] = "current"
        doc["input_signal"] = {"kind": "sinusoid", "amplitude": 1.0,
                               "frequency": 1.0, "phase": 0.0}
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ConfigParseError, match=path[-1]):
            config_from_dict(doc)

    @pytest.mark.parametrize("kind,text", [
        ("input_signal", "time,value\n0.0,0.0\n1.0,nan\n"),
        ("input_signal", "time,value\n0.0,0.0\ninf,1.0\n"),
        ("initial_state", "field,index,value\ny1,0,inf\n"),
    ], ids=["signal_value", "signal_time", "state_value"])
    def test_non_finite_tabulated_sample_rejected(self, tmp_path, kind, text):
        (tmp_path / "tab.csv").write_text(text, encoding="utf-8")
        doc = toy_config_dict()
        doc["actuation"] = "current"
        doc[kind] = {"kind": "tabulated", "path": "tab.csv"}
        with pytest.raises(ConfigParseError, match="non-finite"):
            config_from_dict(doc, base_dir=tmp_path)

    def test_tabulated_state_gauge_projection(self, tmp_path):
        # y3/y6 omitted: the free fields are projected onto the gauge manifold
        from piezolab.dynamics import simulate
        rows = ["field,index,value"]
        rows += [f"y2,{j},{np.sin(np.pi * (j + 1) / 16):.6f}" for j in range(15)]
        csv = tmp_path / "state.csv"
        csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        doc = toy_config_dict(n_cells=16, t_final=0.05)
        doc["initial_state"] = {"kind": "tabulated", "path": "state.csv"}
        series = simulate(config_from_dict(doc, base_dir=tmp_path))
        assert series.gauge_pos.max() <= 1e-10

    def test_tabulated_state_gauge_violation(self, tmp_path):
        from piezolab.dynamics import simulate
        csv = tmp_path / "state.csv"
        csv.write_text("field,index,value\ny3,0,1.0\n", encoding="utf-8")
        doc = toy_config_dict(n_cells=16, t_final=0.05)
        doc["initial_state"] = {"kind": "tabulated", "path": "state.csv"}
        with pytest.raises(GaugeViolation):
            simulate(config_from_dict(doc, base_dir=tmp_path))


def _set(**keys):
    return lambda doc: {**doc, **keys}


def _params(**keys):
    return lambda doc: {**doc, "params": {**doc["params"], **keys}}


_TAB_STATE = _set(initial_state={"kind": "tabulated", "path": "tab.csv"})
_TAB_SIGNAL = _set(actuation="current",
                   input_signal={"kind": "tabulated", "path": "tab.csv"})
# (edit of the toy config, the tab.csv it reads or None, text the message names)
_REJECTED_CONFIGS = {
    "missing_key": (lambda doc: {k: v for k, v in doc.items() if k != "n_cells"},
                    None, "'n_cells'"),
    "root_not_object": (lambda doc: [doc], None, "config root"),
    "params_not_object": (_set(params=[1.0]), None, "params must be an object"),
    "signal_not_object": (_set(actuation="current", input_signal="sinusoid"), None,
                          "input_signal must be an object"),
    "state_not_object": (_set(initial_state=0), None,
                         "initial_state must be an object"),
    "signal_kind": (_set(actuation="current", input_signal={"kind": "square"}),
                    None, "input_signal.kind"),
    "state_kind": (_set(initial_state={"kind": "random"}), None,
                   "initial_state.kind"),
    "t_final_zero": (_set(t_final=0.0), None, "t_final must be positive"),
    "dt_negative": (_set(dt=-0.01), None, "dt must be positive"),
    "actuation": (_set(actuation="optical"), None, "actuation must be one of"),
    "negative_gain": (_set(actuation="current", feedback_gain=-0.5), None,
                      "feedback_gain must be nonnegative"),
    "xi_underflow": (lambda doc: {**doc, "params": {**doc["params"], "eps1": 1e-300,
                                                    "h": 1e-100}},
                     None, "params.xi"),
    # t_final / dt overflows: round() of it once raised OverflowError (exit 1)
    "dt_subnormal": (_set(t_final=1.0, dt=1e-320), None, "dt 1e-320"),
    "t_final_huge": (_set(t_final=1e308, dt=1e-10), None, "dt 1e-10"),
    # sqrt(alpha/rho) of inf or 0 once divided by zero in default_dt (exit 1)
    "wave_speed_overflow": (lambda doc: {**doc, "params": {**doc["params"],
                                                           "alpha": 1e300,
                                                           "rho": 1e-300}},
                            None, "'wave_speed'"),
    "wave_speed_underflow": (lambda doc: {**doc, "params": {**doc["params"],
                                                            "alpha": 1e-300,
                                                            "rho": 1e300}},
                             None, "params.wave_speed"),
    # scales beyond double precision: default_dt once underflowed to 0
    # (ZeroDivisionError), or numpy warned of overflow before the skewness
    # certificate read nan (exit 1)
    "generator_overflow_tiny_L": (_params(L=1e-300, alpha=1e300), None,
                                  "M G overflows double precision: its entry mu/dx"),
    "generator_overflow": (_params(alpha=1e300), None,
                           "M G overflows double precision: its entry alpha"),
    "generator_overflow_mu": (_params(mu=1e160), None,
                              "M G overflows double precision: its entry mu/dx"),
    "generator_overflow_electrostatic": (
        lambda doc: _params(alpha=1e300)({**doc, "actuation": "charge_electrostatic"}),
        None, "M G overflows double precision: its entry alpha"),
    # dx = L / n_cells once divided by zero inside the scale check itself (exit 1)
    "dx_underflow": (_params(L=1e-323), None, "dx = L / n_cells underflows to 0"),
    "default_dt_underflow": (_params(rho=1e-44, L=1e-300, mu=1e-300, gamma=1e-300),
                             None, "default time step"),
    # about 1.6e76 steps at the default dt: the run once went on until it
    # was killed at 1.1 GB
    "planned_work": (_params(alpha=1e150), None,
                     "plans 1.6e+76 steps of 16 cells, above 1e+10 cell-steps"),
    "state_file_missing": (_set(initial_state={"kind": "tabulated",
                                               "path": "absent.csv"}),
                           None, "cannot read state file"),
    "state_header": (_TAB_STATE, "name,index,value\ny1,0,1\n",
                     "needs a header with field,index,value"),
    "state_no_rows": (_TAB_STATE, "field,index,value\n", "has no rows"),
    "signal_no_rows": (_TAB_SIGNAL, "time,value\n", "has no samples"),
}


class TestCliExitCodes:
    def test_simulate_success_and_report(self, tmp_path):
        cfg = _write(tmp_path, {**toy_config_dict(n_cells=16, t_final=0.2),
                                "record_stride": 4})
        out = tmp_path / "out"
        res = _cli_subprocess("simulate", "--config", str(cfg),
                              "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["pass_fail"]["energy_drift"] is True
        # declared artifacts exist with nonzero size
        import os
        for path in report["artifact_paths"]:
            assert os.path.getsize(path) > 0

    def test_missing_key_exits_2(self, tmp_path, run_cli):
        doc = toy_config_dict()
        del doc["params"]["rho"]
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "rho" in res.stderr

    def test_non_finite_config_exits_2(self, tmp_path, run_cli):
        doc = {**toy_config_dict(n_cells=16, t_final=0.1),
               "actuation": "current", "feedback_gain": float("nan")}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "feedback_gain" in res.stderr

    def test_tolerances_section_exits_2(self, tmp_path, run_cli):
        # the gauge and stabilizability tolerances are program constants, so
        # a config that still sets one is refused before --out is made
        doc = {**toy_config_dict(n_cells=16, t_final=0.1),
               "tolerances": {"gauge_tol": 1e-8}}
        out = tmp_path / "o"
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(out))
        assert res.returncode == 2
        assert "'tolerances'" in res.stderr
        assert not out.exists()

    def test_overflowing_xi_exits_2(self, tmp_path, run_cli):
        # an infinite xi once reached the first dense solve and exited 1
        doc = toy_config_dict(n_cells=16, t_final=0.1)
        doc["params"]["eps3"] = 1e-320
        out = tmp_path / "o"
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(out))
        assert res.returncode == 2
        assert "'xi'" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("gain", ["nan", "inf"])
    def test_non_finite_gain_flag_exits_2(self, tmp_path, gain, run_cli):
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        res = run_cli("simulate", "--config", str(cfg), "--gain", gain,
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "gain" in res.stderr

    def test_seed_flag_removed(self, tmp_path, run_cli):
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        res = run_cli("simulate", "--config", str(cfg), "--seed", "1",
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "--seed" in res.stderr

    @pytest.mark.parametrize("path,value", [
        (("t_final",), None),
        (("t_final",), "abc"),
        (("dt",), [1]),
        (("dt",), "abc"),
        (("feedback_gain",), None),
        (("params", "rho"), None),
        (("initial_state", "amplitude"), None),
        (("initial_state", "mode_index"), "x"),
        (("initial_state", "mode_index"), 1.5),
        # booleans and numeric strings are not numbers either
        (("t_final",), True),
        (("dt",), "0.01"),
        (("feedback_gain",), False),
        (("params", "rho"), "2.0"),
        (("params", "gamma"), True),
        (("input_signal", "amplitude"), True),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
    def test_malformed_number_exits_2(self, tmp_path, run_cli, path, value):
        doc = {**toy_config_dict(n_cells=16, t_final=0.1),
               "actuation": "current", "input_signal": {"kind": "constant"}}
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert path[-1] in res.stderr

    @pytest.mark.parametrize("kind,text,line", [
        ("initial_state", "field,index,value\ny1,0,1.0\ny1,abc,1.0\n", 3),
        ("initial_state", "field,index,value\ny1,0,abc\n", 2),
        ("input_signal", "time,value\n0.0,0.0\n1.0,abc\n", 3),
    ], ids=["state_index", "state_value", "signal_value"])
    def test_malformed_tabulated_row_exits_2(self, tmp_path, run_cli, kind,
                                             text, line):
        (tmp_path / "tab.csv").write_text(text, encoding="utf-8")
        doc = {**toy_config_dict(n_cells=16, t_final=0.1), "actuation": "current",
               kind: {"kind": "tabulated", "path": "tab.csv"}}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert f"tab.csv line {line}:" in res.stderr

    @pytest.mark.parametrize("state,text,named", [
        ({"kind": "tabulated"}, "field,index,value\ny7,0,1.0\n", "'y7'"),
        ({"kind": "tabulated"}, "field,index,value\ny1,99,1.0\n", "index 99"),
        ({"kind": "tabulated"}, "field,index,value\ny1,-1,1.0\n", "index -1"),
        ({"kind": "modal", "mode_index": 5000}, None, "mode_index 5000"),
    ], ids=["unknown_field", "index_99", "index_-1", "mode_index"])
    def test_state_out_of_range_exits_2(self, tmp_path, run_cli, state, text,
                                        named):
        if text is not None:
            (tmp_path / "tab.csv").write_text(text, encoding="utf-8")
            state = {**state, "path": "tab.csv"}
        doc = {**toy_config_dict(n_cells=16, t_final=0.1), "initial_state": state}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert named in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("actuation,text,named", [
        ("current", "y1,0,1.0\ny1,0,2.0\n", "y1[0]"),
        ("charge_electrostatic", "w,3,1.0\nw,3,1.0\n", "w[3]"),
        ("charge_electrostatic", "s,0,1.0\ny1,0,1.0\n", "y1[0]"),
        ("charge_electrostatic", "y4,2,1.0\nw,2,1.0\n", "w[2]"),
    ], ids=["same_row", "same_row_alias", "s_and_y1", "y4_and_w"])
    def test_coordinate_set_twice_exits_2(self, tmp_path, run_cli, actuation,
                                          text, named):
        # a second row for one coordinate, also under the other name of its
        # block, is refused rather than overwriting the first
        (tmp_path / "tab.csv").write_text("field,index,value\n" + text,
                                          encoding="utf-8")
        doc = {**toy_config_dict(n_cells=16, t_final=0.1), "actuation": actuation,
               "initial_state": {"kind": "tabulated", "path": "tab.csv"}}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert f"{named} is set twice" in res.stderr

    def test_bad_time_bounds_exit_2(self, tmp_path, run_cli):
        doc = toy_config_dict()
        doc["dt"] = 2.0
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2

    def test_dt_not_dividing_exits_2(self, tmp_path, run_cli):
        doc = {**toy_config_dict(n_cells=16, t_final=1.0), "dt": 0.4}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "dt 0.4 does not divide t_final 1.0" in res.stderr

    def test_default_dt_lands_on_t_final(self, tmp_path, run_cli):
        # 0.123 / (dx / 10) = 19.68 steps at N = 16: 20 steps of 0.123 / 20
        # end at t_final, where 20 default steps once ended at 0.125
        doc = toy_config_dict(n_cells=16, t_final=0.123)
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "o" / "report.json").read_text(encoding="utf-8"))
        assert report["outcome"]["dt"] == 0.123 / 20
        assert report["outcome"]["n_records"] == 21
        last = (tmp_path / "o" / "trajectory.csv").read_text(encoding="utf-8") \
            .splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(0.123, rel=1e-15)

    def test_default_dt_kept_where_it_divides(self):
        # 0.1 is 16 default steps at N = 16 up to rounding: dt is untouched
        config = config_from_dict(toy_config_dict(n_cells=16, t_final=0.1))
        series = dynamics.simulate(config)
        assert series.dt == dynamics.default_dt(config.params, series.system.grid)
        assert series.times[-1] == pytest.approx(0.1, rel=1e-15)

    def test_report_has_factored_band_and_swaps(self, tmp_path, run_cli):
        doc = {**toy_config_dict(n_cells=16, t_final=0.1), "actuation": "current",
               "feedback_gain": 0.5}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        outcome = json.loads((tmp_path / "o" / "report.json")
                             .read_text(encoding="utf-8"))["outcome"]
        series = dynamics.simulate(config_from_dict(doc))
        asm = series.system
        stepper = dynamics.RankOneMidpoint(asm.split, asm.b, asm.output,
                                           series.dt, gain=0.5)
        assert outcome["factored_band"] == list(series.factored_band) \
            == list(stepper.lu.factored_band)
        assert outcome["folded_swaps"] == series.folded_swaps == stepper.lu.folded_swaps
        # the toy system swaps rows at the ends of the grid, so the fold
        # widens the band beyond the ordered system's 9 and 8 diagonals
        assert outcome["folded_swaps"] > 0
        assert outcome["factored_band"] != [stepper.lu.kl, stepper.lu.ku]

    def test_report_has_interior_gauge(self, tmp_path, run_cli):
        # a forced distributed-current run from rest: the boundary layer of the
        # influence dominates the whole-block residual, while the interior
        # one, which the run guards, stays at rounding level
        doc = {**toy_config_dict(n_cells=64, t_final=0.25), "actuation": "current",
               "initial_state": {"kind": "zero"},
               "input_signal": {"kind": "sinusoid", "amplitude": 0.8,
                                "frequency": 1.5, "phase": 0.3}}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        outcome = json.loads((tmp_path / "o" / "report.json")
                             .read_text(encoding="utf-8"))["outcome"]
        config = config_from_dict(doc)
        series = dynamics.simulate(config)
        guard = 100.0 * dynamics.GAUGE_TOL
        assert outcome["gauge_interior_pos_max"] == series.gauge_interior_pos.max()
        assert outcome["gauge_interior_vel_max"] == series.gauge_interior_vel.max()
        assert max(outcome["gauge_interior_pos_max"],
                   outcome["gauge_interior_vel_max"]) < guard
        assert min(outcome["gauge_pos_max"], outcome["gauge_vel_max"]) > 1.0
        header = (tmp_path / "o" / "trajectory.csv").read_text(encoding="utf-8") \
            .splitlines()[0]
        assert header.split(",") == dynamics.CSV_COLUMNS

    def test_report_has_probe_certificates(self, tmp_path, run_cli):
        doc = {**toy_config_dict(n_cells=16, t_final=0.1), "actuation": "current"}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        certs = json.loads((tmp_path / "o" / "report.json")
                           .read_text(encoding="utf-8"))["outcome"]["certificates"]
        config = config_from_dict(doc)
        asm = build_system(config.params, build_grid(config.params.L, 16),
                           ActuationMode.CURRENT)
        assert certs == {"skew_defect": asm.skew_defect,
                         "gauge_defect": asm.gauge_defect, "method": "probe"}
        assert 0.0 < certs["skew_defect"] <= 1e-12
        assert 0.0 < certs["gauge_defect"] <= 1e-11

    @pytest.mark.parametrize("start", ("zero", "tabulated"))
    def test_simulate_forms_no_dense_reference(self, tmp_path, start):
        # neither the dense P_xi nor the reference (M, M_red, G_red) is formed
        (tmp_path / "state.csv").write_text("field,index,value\ny1,3,0.5\n",
                                            encoding="utf-8")
        doc = toy_config_dict(n_cells=16, t_final=0.05)
        doc["initial_state"] = ({"kind": "zero"} if start == "zero"
                                else {"kind": "tabulated", "path": "state.csv"})
        series = dynamics.simulate(config_from_dict(doc, base_dir=tmp_path))
        assert "reference" not in vars(series.system)
        assert "p_dense" not in vars(series.system.ops)

    @staticmethod
    def _refused_above_dense_guard(tmp_path, run_cli, command):
        # N = 1025 gives dim 6149 > DENSE_DIM_GUARD: refused before any dense
        # array, where the reduced Gram matrix alone would take 128 MiB
        cfg = _write(tmp_path, toy_config_dict(t_final=0.01))
        tracemalloc.start()
        try:
            res = run_cli(command, "--config", str(cfg), "--n-cells", "1025",
                          "--out", str(tmp_path / "o"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.returncode == 2
        assert "n_cells 1025" in res.stderr
        assert f"DENSE_DIM_GUARD = {generator.DENSE_DIM_GUARD}" in res.stderr
        assert peak < 32 * 2 ** 20
        assert not (tmp_path / "o").exists()

    def test_modal_start_above_dense_guard_exits_2(self, tmp_path, run_cli):
        self._refused_above_dense_guard(tmp_path, run_cli, "simulate")

    def test_spectrum_above_dense_guard_exits_2(self, tmp_path, run_cli):
        # the one guard sits on the dense reference, so a spectrum is
        # refused as a modal start is
        self._refused_above_dense_guard(tmp_path, run_cli, "spectrum")

    def test_refused_run_creates_no_out(self, tmp_path, run_cli):
        # every command computes before --out is made, so a run that stops
        # before its verdict leaves no directory behind
        out = tmp_path / "o"
        # 2N = 6146 is above the dense guard for the electrostatic spectra
        res = run_cli("variants", "--n-cells", "3073", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "DENSE_DIM_GUARD" in res.stderr
        assert not out.exists()
        # a tabulated y3 row off the gauge is a config error: the start is
        # refused before step 0
        (tmp_path / "tab.csv").write_text("field,index,value\ny3,0,1.0\n",
                                          encoding="utf-8")
        doc = {**toy_config_dict(n_cells=16, t_final=0.1),
               "initial_state": {"kind": "tabulated", "path": "tab.csv"}}
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert not out.exists()

    def test_unwritable_out_exits_3(self, tmp_path, run_cli):
        # reported once the run is done, when main creates --out
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        res = run_cli("simulate", "--config", str(cfg), "--out", "/proc/nope/dir")
        assert res.returncode == 3
        assert "io error" in res.stderr

    def test_stabilize_requires_gain(self, tmp_path, run_cli):
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        res = run_cli("stabilize", "--config", str(cfg),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2

    def test_spectrum_success(self, tmp_path, run_cli):
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        out = tmp_path / "spec"
        res = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "re,im,bstar_abs,stabilizable,dominant_block"

    def test_spectrum_model_from_actuation(self, tmp_path, run_cli):
        # the config's actuation picks the model, 2N electrostatic modes at
        # N = 16, and --variant replaces it, 4N - 1 six-field modes; the
        # report echoes the model that ran
        doc = {**toy_config_dict(n_cells=16, t_final=0.1),
               "actuation": "charge_electrostatic"}
        cfg = _write(tmp_path, doc)
        for flags, modes, echo in (((), 32, "charge_electrostatic"),
                                   (("--variant", "full"), 63, "current")):
            out = tmp_path / echo
            res = run_cli("spectrum", "--config", str(cfg), *flags,
                          "--out", str(out))
            assert res.returncode == 0, res.stderr
            rows = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()
            assert len(rows) - 1 == modes
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            assert report["config_echo"]["actuation"] == echo

    def test_actuation_closed_loop_spectrum_matches_variant(self, tmp_path,
                                                            run_cli):
        # a charge_magnetic config needs no --variant for its spectra
        doc = {**toy_config_dict(n_cells=16, t_final=0.1),
               "actuation": "charge_magnetic"}
        cfg = _write(tmp_path, doc)
        for sub, flags in (("file", ()), ("flag", ("--variant", "charge_magnetic"))):
            res = run_cli("spectrum", "--config", str(cfg), *flags,
                          "--closed-loop", "1.0", "--out", str(tmp_path / sub))
            assert res.returncode == 0, res.stderr
        for name in ("spectrum.csv", "closed_loop_spectrum.csv"):
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "flag" / name).read_bytes())

    @pytest.mark.parametrize("case", _REJECTED_CONFIGS)
    def test_rejected_config_exits_2(self, tmp_path, run_cli, case):
        # every documented rejection is a config error named in the message,
        # refused before --out is made and without a warning (the suite
        # turns every warning into an error)
        edit, text, named = _REJECTED_CONFIGS[case]
        if text is not None:
            (tmp_path / "tab.csv").write_text(text, encoding="utf-8")
        doc = edit(toy_config_dict(n_cells=16, t_final=0.1))
        out = tmp_path / "o"
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert named in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("case", ("generator_overflow_tiny_L", "generator_overflow"))
    def test_rejected_scale_exits_2_for_spectrum(self, tmp_path, run_cli, case):
        # the spectrum once failed in eig ("array must not contain infs or
        # NaNs") or in the skewness certificate, after numpy's warnings
        edit, _, named = _REJECTED_CONFIGS[case]
        doc = edit(toy_config_dict(n_cells=16, t_final=0.1))
        out = tmp_path / "o"
        res = run_cli("spectrum", "--config", str(_write(tmp_path, doc)),
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert named in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ("simulate", "spectrum"))
    def test_electrostatic_ignores_mu_scale(self, tmp_path, run_cli, command):
        # the electrostatic model holds no magnetic field, so a mu that the
        # six-field scale check refuses still runs
        doc = _params(mu=1e160)({**toy_config_dict(n_cells=16, t_final=0.1),
                                 "actuation": "charge_electrostatic"})
        res = run_cli(command, "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--config", "absent.json"], "cannot read config"),
        (["spectrum", "--config", "cfg.json", "--closed-loop", "-1"], "--closed-loop"),
        (["spectrum", "--config", "cfg.json", "--closed-loop", "nan"], "--closed-loop"),
    ], ids=["unreadable_config", "negative_closed_loop", "nan_closed_loop"])
    def test_rejected_command_exits_2(self, tmp_path, run_cli, argv, named):
        _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        out = tmp_path / "o"
        res = run_cli(*argv, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert named in res.stderr
        assert not out.exists()

    def test_variants_success(self, tmp_path, run_cli):
        res = run_cli("variants", "--n-cells", "16", "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "o" / "report.json").read_text(encoding="utf-8"))
        assert report["pass_fail"] == {"es_dispersion": True, "pxi_stiffening": True,
                                       "charge_norm_monotone": True}
        # the same influence norms as acceptance check 13, at the same grids
        norms = report["outcome"]["charge_norms"]
        grids = ["32", "64", "128", "256"]
        assert sorted(norms, key=int) == grids
        assert (acceptance.check_charge_norm_growth().measured
                == "norms " + ", ".join(f"{norms[n]:.2f}" for n in grids))

    def test_variants_coarse_grid_exits_2(self, tmp_path, run_cli):
        res = run_cli("variants", "--n-cells", "4", "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "n_cells" in res.stderr

    def test_paper_suite_has_no_grid_flag(self, tmp_path, run_cli):
        # every check pins its own grids; a grid flag would be ignored
        res = run_cli("paper-suite", "--only", "skewness", "--n-cells", "999",
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "--n-cells" in res.stderr

    def test_stabilize_builds_one_system(self, tmp_path, monkeypatch):
        # the closed-loop spectrum reads the system the run used
        calls = []

        def counting(*args):
            calls.append(args)
            return build_system(*args)

        monkeypatch.setattr(dynamics, "build_system", counting)
        monkeypatch.setattr(cli, "build_system", counting)
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        out = tmp_path / "o"
        assert cli.main(["stabilize", "--config", str(cfg), "--gain", "0.5",
                         "--out", str(out)]) == 0
        assert len(calls) == 1
        assert (out / "closed_loop_spectrum.csv").stat().st_size > 0

    def test_stabilize_reports_what_simulate_does(self, tmp_path, run_cli):
        # stabilize runs its config as simulate does and only adds the keys
        # of its gain and its closed-loop spectrum
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        reports = {}
        for command in ("simulate", "stabilize"):
            out = tmp_path / command
            res = run_cli(command, "--config", str(cfg), "--gain", "0.5",
                          "--out", str(out))
            assert res.returncode == 0, res.stderr
            reports[command] = json.loads((out / "report.json").read_text(
                encoding="utf-8"))
        sim, stab = reports["simulate"], reports["stabilize"]
        added = {"gain", "energy_ratio", "max_energy_increment",
                 "closed_loop_abscissa"}
        assert set(stab["outcome"]) == set(sim["outcome"]) | added
        assert {k: stab["outcome"][k] for k in sim["outcome"]} == sim["outcome"]
        assert stab["pass_fail"] == {**sim["pass_fail"], "closed_loop_left_half": True}
        assert ((tmp_path / "simulate" / "trajectory.csv").read_bytes()
                == (tmp_path / "stabilize" / "trajectory.csv").read_bytes())

    @pytest.mark.parametrize("command", ("simulate", "stabilize"))
    def test_gain_flag_overrides_signal_as_the_file_does(self, tmp_path, run_cli,
                                                         command):
        # a positive gain closes the loop and drops the open-loop signal,
        # whether it comes from --gain or from feedback_gain in the file
        doc = toy_config_dict(n_cells=16, t_final=0.1)
        doc["actuation"] = "current"
        doc["input_signal"] = {"kind": "sinusoid", "amplitude": 0.8,
                               "frequency": 1.5, "phase": 0.3}
        by_flag = _write(tmp_path, doc, "flag.json")
        by_file = _write(tmp_path, {**doc, "feedback_gain": 0.5}, "file.json")
        res = run_cli(command, "--config", str(by_flag), "--gain", "0.5",
                      "--out", str(tmp_path / "flag"))
        assert res.returncode == 0, res.stderr
        res = run_cli(command, "--config", str(by_file),
                      "--out", str(tmp_path / "file"))
        assert res.returncode == 0, res.stderr
        assert ((tmp_path / "flag" / "trajectory.csv").read_bytes()
                == (tmp_path / "file" / "trajectory.csv").read_bytes())

    def test_zero_gain_flag_keeps_the_signal(self, tmp_path, run_cli):
        # --gain 0 opens the loop of a file with a positive feedback_gain, so
        # the file's signal drives the run as it does at feedback_gain 0
        doc = toy_config_dict(n_cells=16, t_final=0.1)
        doc["actuation"] = "current"
        doc["input_signal"] = {"kind": "sinusoid", "amplitude": 0.8,
                               "frequency": 1.5, "phase": 0.3}
        by_flag = _write(tmp_path, {**doc, "feedback_gain": 0.5}, "flag.json")
        by_file = _write(tmp_path, {**doc, "feedback_gain": 0.0}, "file.json")
        res = run_cli("simulate", "--config", str(by_flag), "--gain", "0",
                      "--out", str(tmp_path / "flag"))
        assert res.returncode == 0, res.stderr
        res = run_cli("simulate", "--config", str(by_file),
                      "--out", str(tmp_path / "file"))
        assert res.returncode == 0, res.stderr
        flag = (tmp_path / "flag" / "trajectory.csv").read_bytes()
        assert flag == (tmp_path / "file" / "trajectory.csv").read_bytes()
        assert any(float(line.split(b",")[-1]) != 0.0
                   for line in flag.splitlines()[1:])

    def test_red_closed_loop_is_reported(self, tmp_path, monkeypatch, capsys):
        # shift the energy-coordinate generator right: the closed loop then
        # crosses the imaginary axis, and the flag, not an exception, says so
        reference = generator.GeneratorAssembly.reference.func

        def shifted(asm):
            ref = reference(asm)
            return replace(ref, s=ref.s + 0.1 * np.eye(ref.s.shape[0]))

        monkeypatch.setattr(generator.GeneratorAssembly, "reference",
                            property(shifted))
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        out = tmp_path / "o"
        assert cli.main(["spectrum", "--config", str(cfg),
                         "--closed-loop", "1.0", "--out", str(out)]) == 1
        assert "FAIL  closed_loop_left_half" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["pass_fail"]["closed_loop_left_half"] is False
        assert report["outcome"]["closed_loop_abscissa"] > 0.0
        assert (out / "closed_loop_spectrum.csv").stat().st_size > 0

    def test_electrostatic_closed_loop_spectrum_exits_2(self, tmp_path, run_cli):
        # closed-loop spectra take the gain in B* units; the electrostatic
        # gain is in free-end-velocity units
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        res = run_cli("spectrum", "--config", str(cfg), "--variant",
                      "electrostatic", "--closed-loop", "1.0",
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "--closed-loop" in res.stderr

    def test_paper_suite_report_json(self, tmp_path, run_cli):
        # the check computes its verdict with numpy; the report must still
        # serialize it
        out = tmp_path / "suite"
        res = run_cli("paper-suite", "--only", "gain_perturbation", "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["pass_fail"] == {"gain_perturbation": True}

    def test_paper_suite_filter(self, tmp_path, run_cli):
        out = tmp_path / "suite"
        res = run_cli("paper-suite", "--only", "skewness", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "[PASS] skewness" in res.stdout
        assert (out / "acceptance_summary.csv").stat().st_size > 0

    def test_paper_suite_writes_details(self, tmp_path, run_cli):
        # each check's details text is written beside the summary
        out = tmp_path / "suite"
        res = run_cli("paper-suite", "--only", "skewness", "--out", str(out))
        assert res.returncode == 0, res.stderr
        result, = acceptance.run_all("skewness")
        assert result.details
        with open(out / "acceptance_details.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["check", "measured", "details"],
                        [result.name, result.measured, result.details]]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert str(out / "acceptance_details.csv") in report["artifact_paths"]

    def test_paper_suite_unknown_filter_exits_2(self, tmp_path, run_cli):
        # a filter that matches no check is bad input, refused before --out
        # is made
        out = tmp_path / "suite"
        res = run_cli("paper-suite", "--only", "nosuch", "--out", str(out))
        assert res.returncode == 2
        assert "nosuch" in res.stderr
        assert not out.exists()

    def test_deterministic_artifacts(self, tmp_path, run_cli):
        cfg = _write(tmp_path, {**toy_config_dict(n_cells=16, t_final=0.2),
                                "record_stride": 4})
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
            assert res.returncode == 0
            blobs.append((out / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]


def _snapshot_script():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "cli_snapshot.py")
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSnapshotCompare:
    @staticmethod
    def _pair(tmp_path, value_b):
        dirs = []
        for sub, value in (("a", 1.0), ("b", value_b)):
            d = tmp_path / sub
            d.mkdir()
            (d / "trajectory.csv").write_text(f"t,energy\n0.0,{value!r}\n",
                                              encoding="utf-8")
            dirs.append(d)
        return dirs

    @pytest.mark.parametrize("rtol", ["-1", "nan"])
    def test_bad_rtol_exits_2(self, tmp_path, rtol):
        a, b = self._pair(tmp_path, 1.0 + 1e-12)
        with pytest.raises(SystemExit) as exc:
            _snapshot_script().main(["--compare", str(a), str(b),
                                     "--rtol", rtol])
        assert exc.value.code == 2

    def test_rtol_needs_compare(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _snapshot_script().main([str(tmp_path / "out"), "--rtol", "1e-10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value_b, rtol, code", [
        (1.0 + 1e-12, None, 1), (1.0 + 1e-12, 1e-10, 0), (1.0 + 1e-6, 1e-10, 1)])
    def test_rtol_bounds_the_difference(self, tmp_path, capsys, value_b, rtol,
                                        code):
        a, b = self._pair(tmp_path, value_b)
        assert _snapshot_script().compare(a, b, rtol) == code
        assert "differs: trajectory.csv" in capsys.readouterr().out

    def test_reports_compared_up_to_the_root(self, tmp_path, capsys):
        # artifact paths name each snapshot's own root, which is replaced
        # before the comparison; a number that differs is named, and under
        # --rtol its relative difference is bounded as a CSV cell's is
        def report(root, energy):
            job = root.resolve() / "job"
            job.mkdir(parents=True)
            doc = {"artifact_paths": [str(job / "trajectory.csv")],
                   "outcome": {"energy_final": energy, "factored_band": [18, 9]},
                   "pass_fail": {"energy_drift": True}}
            (job / "report.json").write_text(json.dumps(doc), encoding="utf-8")

        script = _snapshot_script()
        report(tmp_path / "a", 2.0)
        report(tmp_path / "b", 2.0)
        report(tmp_path / "c", 2.0 * (1.0 + 1e-12))
        a, b, c = (tmp_path / sub for sub in "abc")
        assert script.compare(a, b) == 0
        assert script.compare(a, c) == 1
        assert "differs: job/report.json" in capsys.readouterr().out
        assert script.compare(a, c, 1e-10) == 0
        assert "(/outcome/energy_final)" in capsys.readouterr().out
        assert script.compare(a, c, 1e-13) == 1

    def test_environment_records_compared(self, tmp_path, capsys, monkeypatch):
        # identical files under two BLAS thread settings: the comparison
        # fails and names the setting, whatever --rtol allows
        script = _snapshot_script()
        a, b = self._pair(tmp_path, 1.0)
        for root, threads in ((a, "1"), (b, "2")):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            record = script._environment()
            (root / script.RECORD).write_text(json.dumps(record), encoding="utf-8")
        assert script.compare(a, a) == 0
        assert script.compare(a, b, 1e-10) == 1
        out = capsys.readouterr().out
        assert "environment differs: OPENBLAS_NUM_THREADS is '1'" in out
        assert "numpy" not in out

    @pytest.mark.parametrize("rtol", [None, 1e-10])
    def test_keys_on_one_side_are_named(self, tmp_path, capsys, rtol):
        for sub, outcome in (("a", {"gain": 0.8, "old": 1}),
                             ("b", {"gain": 0.8, "dt": 0.01, "n_records": 3})):
            (tmp_path / sub / "job").mkdir(parents=True)
            (tmp_path / sub / "job" / "report.json").write_text(
                json.dumps({"outcome": outcome}), encoding="utf-8")
        assert _snapshot_script().compare(tmp_path / "a", tmp_path / "b", rtol) == 1
        assert ("(/outcome keys only in A: old; only in B: dt, n_records)"
                in capsys.readouterr().out)

    def test_one_sided_keys_do_not_hide_shared_leaves(self, tmp_path, capsys):
        # B gains a key and changes a shared number: both are named
        for sub, outcome in (("a", {"gain": 2.0}), ("b", {"gain": 2.5, "dt": 0.01})):
            (tmp_path / sub / "job").mkdir(parents=True)
            (tmp_path / sub / "job" / "report.json").write_text(
                json.dumps({"outcome": outcome}), encoding="utf-8")
        assert _snapshot_script().compare(tmp_path / "a", tmp_path / "b") == 1
        out = capsys.readouterr().out
        assert ("differs: job/report.json (/outcome keys only in B: dt) "
                "(largest shared difference 2.000e-01 at /outcome/gain)") in out
