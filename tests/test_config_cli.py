"""JSON config ingestion and the command-line front end."""

import importlib.util
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import piezolab
from piezolab import cli, dynamics, spectral
from piezolab.config import (config_from_dict, load_config, toy_config_dict)
from piezolab.errors import ConfigParseError, GaugeViolation
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
        (("tolerances", "gauge_tol"), float("nan")),
        (("tolerances", "eig_tol"), float("inf")),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
    def test_non_finite_number_rejected(self, path, value):
        doc = toy_config_dict()
        doc["actuation"] = "current"
        doc["input_signal"] = {"kind": "sinusoid", "amplitude": 1.0,
                               "frequency": 1.0, "phase": 0.0}
        doc["tolerances"] = {}
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

    def test_solver_tol_is_unknown(self):
        doc = toy_config_dict()
        doc["tolerances"] = {"solver_tol": 1e-10}
        with pytest.raises(ConfigParseError, match="solver_tol"):
            config_from_dict(doc)

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
        (("tolerances", "gauge_tol"), "x"),
        # booleans and numeric strings are not numbers either
        (("t_final",), True),
        (("dt",), "0.01"),
        (("feedback_gain",), False),
        (("params", "rho"), "2.0"),
        (("params", "gamma"), True),
        (("tolerances", "gauge_tol"), "1e-8"),
        (("input_signal", "amplitude"), True),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
    def test_malformed_number_exits_2(self, tmp_path, run_cli, path, value):
        doc = {**toy_config_dict(n_cells=16, t_final=0.1),
               "actuation": "current", "input_signal": {"kind": "constant"},
               "tolerances": {}}
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

    def test_bad_time_bounds_exit_2(self, tmp_path, run_cli):
        doc = toy_config_dict()
        doc["dt"] = 2.0
        res = run_cli("simulate", "--config", str(_write(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2

    def test_unwritable_out_exits_3(self, tmp_path, run_cli):
        cfg = _write(tmp_path, toy_config_dict(n_cells=16, t_final=0.1))
        res = run_cli("simulate", "--config", str(cfg), "--out", "/proc/nope/dir")
        assert res.returncode == 3

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

    def test_red_closed_loop_is_reported(self, tmp_path, monkeypatch, capsys):
        # shift the energy-coordinate generator right: the closed loop then
        # crosses the imaginary axis, and the flag, not an exception, says so
        similarity = spectral._energy_similarity

        def shifted(asm):
            r, s = similarity(asm)
            return r, s + 0.1 * np.eye(s.shape[0])

        monkeypatch.setattr(spectral, "_energy_similarity", shifted)
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
