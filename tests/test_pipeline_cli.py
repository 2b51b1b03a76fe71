import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from ringlab import cli, pipeline
from ringlab.config import ScenarioConfig, load_config
from ringlab.errors import ConfigError
from ringlab.pipeline import run_pipeline, run_subcommand, run_sweep

CANONICAL = {
    "lattice": {"M": 1.0, "a": 0.08, "Lambda": 0.02,
                "damping": {"kind": "constant", "value": 0.2}, "ell": 100},
    "tail": {"c": 1.0, "nu": 0.5, "m": 2},
    "observation": {"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.05},
    "inversion": {"mode": "2p", "box": {"M": [0.9, 1.1], "a": [0.0, 0.15]}},
}


#: shipped demo config -> the subcommand it is run through
DEMO_CONFIGS = {
    "band_isolate": "band-isolate", "canonical": "pipeline", "extract": "extract",
    "prony": "prony", "prony_conditioning": "prony",
    "pseudospectrum": "pseudospectrum", "sweep_ell": "sweep",
    "three_param": "pipeline", "window_check": "window-check",
    "windowed_overtone": "pipeline",
}
DEMO_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"


def with_section(section, **leaves):
    """CANONICAL with some leaves of one section replaced."""
    return dict(CANONICAL, **{section: dict(CANONICAL.get(section, {}), **leaves)})


#: one sweep per axis; separation leaves the box to its default, so the box
#: (and with it the inverse constants) moves from point to point
SWEEPS = {
    "ell": dict(CANONICAL, sweep={"axis": "ell", "values": [50, 100, 200]}),
    "T0": dict(CANONICAL, sweep={"axis": "T0", "values": [2.0, 4.0, 8.0]}),
    "Delta": dict(CANONICAL, sweep={"axis": "Delta", "values": [0.5, 1.0, 2.0]}),
    "noise_amp": dict(CANONICAL, noise={"harmonics": [[0.001, 3.0, 0.4]]},
                      sweep={"axis": "noise_amp", "values": [0.5, 2.0]}),
    "separation": dict(CANONICAL, inversion={"mode": "2p"},
                       sweep={"axis": "separation", "values": [0.05, 0.08, 0.12]}),
    "ell_3p": dict(with_section("lattice", damping={"kind": "gap_over_mass"}),
                   inversion={"mode": "3p", "box": {"M": [0.9, 1.1], "a": [0.02, 0.15],
                                                    "Lambda": [0.01, 0.03]}},
                   sweep={"axis": "ell", "values": [50, 100]}),
}


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(raw={"observaton": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(raw={"observation": {"T0": 1.0, "bogus": 2}})

    def test_delta_grid_consistency(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(raw={"observation": {"Delta": 1.0, "dt": 0.3}})

    def test_t_gt_3delta(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(raw={"observation": {"T": 2.5, "Delta": 1.0, "dt": 0.5}})

    def test_sweep_axis_whitelist(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(raw={"sweep": {"axis": "dt", "values": [1]}})

    @pytest.mark.parametrize("sweep", [
        {"axis": "Delta", "values": [1.0, 4.0]},  # T = 10 <= 3 * 4
        {"axis": "ell", "values": [50, 100.5]},
    ])
    def test_swept_values_checked_like_base_values(self, sweep):
        with pytest.raises(ConfigError, match="sweep value"):
            ScenarioConfig(raw=dict(CANONICAL, sweep=sweep))

    def test_defaults_filled(self):
        cfg = ScenarioConfig(raw={})
        assert cfg["observation"]["taper"] == "raised-cosine"
        assert cfg["window"]["enabled"] is False


class TestPipeline:
    def test_clean_scene_bias_at_newton_tolerance(self):
        doc = dict(CANONICAL)
        doc["tail"] = {"c": 0.0}
        report = run_pipeline(ScenarioConfig(raw=doc))
        assert report.ok
        row = report.rows[0]
        assert row["param_err"] < 1e-9
        assert row["eps_plus"] == 0.0

    def test_canonical_certified(self):
        report = run_pipeline(ScenarioConfig(raw=CANONICAL))
        assert report.ok
        row = report.rows[0]
        assert row["hyp_eps_small_plus"] and row["hyp_eps_small_minus"]
        assert row["eps_plus"] <= row["eps_budget_plus"]
        assert row["param_err"] <= row["bias_bound_2p"]
        assert row["param_err"] <= row["bias_bound_2p_budget"]
        assert row["data_err"] <= row["data_bound"]

    def test_lcg_noise_scene(self):
        doc = dict(CANONICAL)
        doc["noise"] = {"lcg": {"seed": 7, "amplitude": 1e-4}}
        report = run_pipeline(ScenarioConfig(raw=doc))
        assert report.ok
        assert report.rows[0]["eps_plus"] > 0

    def test_three_parameter_mode(self):
        doc = dict(CANONICAL)
        doc["lattice"] = dict(CANONICAL["lattice"],
                              damping={"kind": "gap_over_mass"})
        doc["inversion"] = {"mode": "3p",
                            "box": {"M": [0.9, 1.1], "a": [0.02, 0.15],
                                    "Lambda": [0.01, 0.03]}}
        report = run_pipeline(ScenarioConfig(raw=doc))
        assert report.ok
        row = report.rows[0]
        assert "bias_bound_3p" in row
        assert row["param_err"] <= row["bias_bound_3p"]

    def test_windowed_modal_path(self):
        doc = dict(CANONICAL)
        doc["lattice"] = dict(CANONICAL["lattice"], overtone=1)
        doc["modes"] = {"amp_plus": [1.0, 0.0], "amp_minus": [1.0, 0.0],
                        "contaminants": [{"j": 0, "sign": 1, "amp": [0.5, 0.0]},
                                         {"j": 0, "sign": -1, "amp": [0.5, 0.0]}]}
        doc["window"] = {"enabled": True, "n": 1, "m0": 3, "path": "modal"}
        report = run_pipeline(ScenarioConfig(raw=doc))
        assert report.ok
        # the window killed the contaminant: eps driven by the tail only
        assert report.rows[0]["eps_plus"] < 0.05

    def test_windowed_fd_path(self):
        doc = dict(CANONICAL)
        doc["lattice"] = dict(CANONICAL["lattice"], overtone=1, ell=20)
        doc["observation"] = {"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.025}
        doc["modes"] = {"amp_plus": [1.0, 0.0], "amp_minus": [1.0, 0.0],
                        "contaminants": [{"j": 0, "sign": 1, "amp": [0.5, 0.0]},
                                         {"j": 0, "sign": -1, "amp": [0.5, 0.0]}]}
        doc["tail"] = {"c": 0.01, "nu": 0.5, "m": 0}
        doc["window"] = {"enabled": True, "n": 1, "m0": 2, "path": "fd",
                         "stencil_order": 8}
        report = run_pipeline(ScenarioConfig(raw=doc))
        assert report.ok, report.violations

    def test_failed_scenario_reports_violation(self):
        doc = dict(CANONICAL)
        # guess far outside and a tight box: inversion leaves the box
        doc["inversion"] = {"mode": "2p", "box": {"M": [0.999, 1.001],
                                                  "a": [0.0799, 0.0801]},
                            "guess": {"M": 1.0005, "a": 0.08}}
        doc["lattice"] = dict(CANONICAL["lattice"], a=0.2)
        report = run_pipeline(ScenarioConfig(raw=doc))
        assert not report.ok


class TestSweep:
    def test_rows_ordered_by_sweep_index(self):
        doc = dict(CANONICAL)
        doc["sweep"] = {"axis": "T0", "values": [2.0, 4.0, 8.0]}
        report = run_sweep(ScenarioConfig(raw=doc))
        assert [r["sweep_value"] for r in report.rows] == [2.0, 4.0, 8.0]
        assert report.ok

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_rows_equal_independent_points(self, name):
        cfg = ScenarioConfig(raw=SWEEPS[name])
        axis, values = cfg["sweep"]["axis"], cfg["sweep"]["values"]
        rows, violations = [], []
        for i, value in enumerate(values):
            point = run_pipeline(cfg.point(value), scenario_id=i)
            rows += [dict(row, sweep_axis=axis, sweep_value=float(value))
                     for row in point.rows]
            violations += point.violations
        sweep = run_sweep(cfg)
        assert [list(row.items()) for row in sweep.rows] == \
            [list(row.items()) for row in rows]
        assert sweep.violations == violations

    def test_tail_start_time_decay(self):
        doc = dict(CANONICAL)
        doc["sweep"] = {"axis": "T0", "values": [2.0, 4.0, 8.0]}
        report = run_sweep(ScenarioConfig(raw=doc))
        eps = [r["eps_plus"] for r in report.rows]
        assert eps[0] > eps[1] > eps[2]

    def test_missing_axis_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(ScenarioConfig(raw=dict(CANONICAL)))


class TestCli:
    def test_pipeline_roundtrip_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, CANONICAL)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert cli.main(["pipeline", "--config", cfg, "--out", out1]) == 0
        assert cli.main(["pipeline", "--config", cfg, "--out", out2]) == 0
        b1 = Path(out1, "report.csv").read_bytes()
        b2 = Path(out2, "report.csv").read_bytes()
        assert b1 == b2
        doc = json.loads(Path(out1, "report.json").read_text())
        assert doc["ok"] is True
        assert doc["metadata"]["ringlab_version"]

    def test_config_error_exit_2(self, tmp_path, capsys):
        docs = [
            {"bogus_section": {}},
            with_section("lattice", ell=float("inf")),
            with_section("observation", dt=0),
            with_section("lattice", M="x"),
            with_section("lattice", M=float("nan")),
            with_section("lattice", ell=1.7),
            with_section("tail", c=-1),
            with_section("window", enabled=True, n=2, m0=3),  # n != overtone
            with_section("noise", harmonics=[[0.001, 3.0]]),
            with_section("window", enabled=True, prior="offset", prior_offset=[0.01]),
            {"prony": {"samples": [[2, 0], [1.4, 0], [1.06, 0]]}},
            {"prony": {"amps": [[1, 0]], "nodes": [[0.9, 0], [0.5, 0]]}},
            {"prony": {"amps": [[1, 0], [1, 0]], "nodes": [[0.9, 0]]}},
            {"pseudospectrum": {"grid_n": 1}},
            {"pseudospectrum": {"eps": [0.1, 0.0]}},
            {"pseudospectrum": {"poles": []}},
            {"band_isolate": {"max_order": 0}},
            {"pseudospectrum": {"re_range": [0.0]}},
            {"pseudospectrum": {"re_range": [2.0, -1.0]}},
            {"pseudospectrum": {"im_range": "x"}},
            with_section("inversion", box={"M": [0.9]}),
            with_section("inversion", box={"M": [1.1, 0.9]}),
            with_section("inversion", box={"a": [0.0, float("inf")]}),
            with_section("inversion", mode="3p", box={"Lambda": [0.03, 0.03]}),
        ]
        paths = [write_cfg(tmp_path, doc, f"cfg{i}.yaml") for i, doc in enumerate(docs)]
        truncated = tmp_path / "truncated.yaml"
        truncated.write_text("lattice: {M: [1")
        undecodable = tmp_path / "undecodable.yaml"
        undecodable.write_bytes(b"lattice: {M: \xff}\n")
        paths += [str(truncated), str(undecodable), str(tmp_path)]  # last: a directory
        for path in paths:
            assert cli.main(["pipeline", "--config", path, "--out",
                             str(tmp_path / "o")]) == 2, path
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("configuration error: "), err

    def test_subcommands_call_module_drivers(self, monkeypatch):
        # the table must not hold the functions themselves: wrapping or
        # replacing a pipeline.run_* attribute has to reach the CLI
        for driver in ("run_pipeline", "run_sweep"):
            monkeypatch.setattr(pipeline, driver, lambda cfg, driver=driver: driver)
        cfg = ScenarioConfig(raw={})
        assert run_subcommand("pipeline", cfg) == "run_pipeline"
        assert run_subcommand("sweep", cfg) == "run_sweep"

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["pipeline", "--config", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_violation_exit_1(self, tmp_path):
        doc = dict(CANONICAL)
        doc["inversion"] = {"mode": "2p",
                            "box": {"M": [0.999, 1.001], "a": [0.0799, 0.0801]},
                            "guess": {"M": 1.0005, "a": 0.08}}
        doc["lattice"] = dict(CANONICAL["lattice"], a=0.2)
        cfg = write_cfg(tmp_path, doc)
        assert cli.main(["pipeline", "--config", cfg, "--out",
                         str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("sub", ["pipeline", "extract"])
    @pytest.mark.parametrize("window", [{"enabled": True, "path": "fd"},
                                        {"enabled": True, "path": "fd", "m0": 3}])
    def test_fd_window_default_config_exit_0(self, tmp_path, sub, window):
        # the default m0 gives an even window degree, where the padding must
        # still match the stencil trim; the scene has no tail and no noise, so
        # the eps budget is 0 and the stencil error exceeds it, which the
        # budget does not claim to cover
        cfg = write_cfg(tmp_path, {"window": window})
        out = tmp_path / "o"
        assert cli.main([sub, "--config", cfg, "--out", str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["rows"][0]
        tag = "_plus" if sub == "pipeline" else ""
        assert row["eps" + tag] > row["eps_budget" + tag] == 0.0

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2

    def test_prony_fixture_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, {"prony": {
            "samples": [[2, 0], [1.4, 0], [1.06, 0], [0.854, 0]]}})
        out = str(tmp_path / "o")
        assert cli.main(["prony", "--config", cfg, "--out", out]) == 0
        text = Path(out, "report.csv").read_text().splitlines()
        header = text[0].split(",")
        row = text[1].split(",")
        s1 = float(row[header.index("s1_re")])
        s2 = float(row[header.index("s2_re")])
        assert abs(s1 - 1.4) < 1e-10
        assert abs(s2 - 0.45) < 1e-10

    def test_extract_clean_scene(self, tmp_path):
        doc = dict(CANONICAL)
        doc["tail"] = {"c": 0.0}
        cfg = write_cfg(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["extract", "--config", cfg, "--out", out]) == 0
        doc_out = json.loads(Path(out, "report.json").read_text())
        assert doc_out["rows"][0]["omega_err"] < 1e-10

    def test_pseudospectrum_emits_plotdata(self, tmp_path):
        cfg = write_cfg(tmp_path, {"pseudospectrum": {"grid_n": 120,
                                                      "eps": [0.1, 0.01]}})
        out = str(tmp_path / "o")
        assert cli.main(["pseudospectrum", "--config", cfg, "--out", out]) == 0
        assert (Path(out) / "plotdata" / "pseudospectrum_eps0.csv").exists()
        doc_out = json.loads(Path(out, "report.json").read_text())
        assert all(r["inclusion_holds"] for r in doc_out["rows"])

    def test_band_isolate_and_window_check(self, tmp_path):
        cfg = write_cfg(tmp_path, {"band_isolate": {"n_models": 2, "seed": 3}})
        assert cli.main(["band-isolate", "--config", cfg,
                         "--out", str(tmp_path / "b")]) == 0
        cfg2 = write_cfg(tmp_path, {"window_check": {"n_draws": 50}}, "w.yaml")
        assert cli.main(["window-check", "--config", cfg2,
                         "--out", str(tmp_path / "w")]) == 0

    def test_sweep_cli(self, tmp_path):
        doc = dict(CANONICAL)
        doc["sweep"] = {"axis": "ell", "values": [50, 100]}
        cfg = write_cfg(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = json.loads(Path(out, "report.json").read_text())["rows"]
        assert [r["ell"] for r in rows] == [50, 100]


@pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
def test_demo_config_runs_and_is_deterministic(tmp_path, name):
    assert sorted(p.stem for p in DEMO_DIR.glob("*.yaml")) == sorted(DEMO_CONFIGS)
    argv = [DEMO_CONFIGS[name], "--config", str(DEMO_DIR / f"{name}.yaml")]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(argv + ["--out", str(out)]) == 0
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.csv"))
    assert Path("report.csv") in files
    for rel in files + [Path("report.json")]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_runs_without_scipy(tmp_path):
    # scipy serves only the tests' quadrature oracles; a run must not load it
    runs = [[sub, "--config", str(DEMO_DIR / f"{name}.yaml"), "--out", str(tmp_path / name)]
            for name, sub in (("canonical", "pipeline"), ("band_isolate", "band-isolate"))]
    script = ("import json, sys\nfrom ringlab import cli\n"
              f"codes = [cli.main(argv) for argv in {runs!r}]\n"
              "print(json.dumps([codes, 'scipy' in sys.modules]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], False]
