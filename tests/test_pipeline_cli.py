import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from ringlab import cli, config, pipeline
from ringlab import extractor as ex
from ringlab import merotoy as mt
from ringlab import signal_model as sm
from ringlab.config import ScenarioConfig, load_config
from ringlab.errors import ConfigError
from ringlab.pipeline import run_pipeline, run_subcommand, run_sweep
from test_certify import ELL_3491_3P_MODAL

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
#: demo config -> output file -> sha256 of its bytes.  A change that alters
#: a report on purpose regenerates this file and says which output changed.
DEMO_DIGESTS = json.loads(
    (Path(__file__).with_name("demo_report_digests.json")).read_text(encoding="utf-8"))


def with_section(section, **leaves):
    """CANONICAL with some leaves of one section replaced."""
    return dict(CANONICAL, **{section: dict(CANONICAL.get(section, {}), **leaves)})


#: one sweep per axis; separation leaves the box to its default, so the box's
#: a range moves from point to point (and the inverse constants, which do not
#: depend on a, stay the base's)
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
    "ell_modal_window": dict(
        with_section("lattice", overtone=1),
        modes={"contaminants": [{"j": 0, "sign": 1, "amp": [0.5, 0.0]},
                                {"j": 0, "sign": -1, "amp": [0.5, 0.0]}]},
        window={"enabled": True, "n": 1, "m0": 3, "path": "modal"},
        sweep={"axis": "ell", "values": [50, 100, 200]}),
    "ell_fd_window": dict(
        with_section("lattice", overtone=1),
        observation={"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.025},
        modes={"contaminants": [{"j": 0, "sign": 1, "amp": [0.5, 0.0]}]},
        tail={"c": 0.01, "nu": 0.5, "m": 0},
        window={"enabled": True, "n": 1, "m0": 2, "path": "fd", "stencil_order": 8},
        sweep={"axis": "ell", "values": [16, 20, 24]}),
    # batched fd rows with noise: each row is filtered by its own point's window
    "ell_fd_window_noise": dict(
        with_section("lattice", overtone=1),
        observation={"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.025},
        modes={"contaminants": [{"j": 0, "amp": [0.5, 0.0]}]},
        tail={"c": 0.01, "nu": 0.5, "m": 0},
        noise={"harmonics": [[0.001, 3.0, 0.4]]},
        window={"enabled": True, "n": 1, "m0": 2, "path": "fd", "stencil_order": 8},
        sweep={"axis": "ell", "values": [16, 20, 24]}),
    # the middle value drowns the mode: its +1 sector fails branch selection
    "noise_amp_branch_failure": dict(CANONICAL, noise={"harmonics": [[0.001, 3.0, 0.4]]},
                                     sweep={"axis": "noise_amp", "values": [1.0, 1000.0, 2.0]}),
    # 10 001 samples a row: the cap splits the four points into batches of 3 and 1
    "noise_amp_long_grid": dict(
        CANONICAL, observation={"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.001},
        noise={"lcg": {"seed": 5, "amplitude": 1e-3}},
        sweep={"axis": "noise_amp", "values": [0.25, 1.0, 2.0, 4.0]}),
    # batches of 3, 3 and 1 points on one grid: rows that differ within a
    # batch, then a batch of one repeated row, then a row that differs from it
    "ell_long_grid": dict(
        CANONICAL, observation={"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.001},
        noise={"lcg": {"seed": 7, "amplitude": 1e-3}},
        sweep={"axis": "ell", "values": [50, 100, 100, 100, 100, 100, 200]}),
    # rows shared across batches of 3 and 2 points: the windowed references
    # and contaminants of every point are equal
    "noise_amp_modal_window": dict(
        with_section("lattice", overtone=1),
        observation={"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.001},
        modes={"contaminants": [{"j": 0, "sign": 1, "amp": [0.5, 0.0]},
                                {"j": 0, "amp": [0.25, 0.0]}]},
        noise={"lcg": {"seed": 11, "amplitude": 1e-3}},
        window={"enabled": True, "n": 1, "m0": 3, "path": "modal"},
        sweep={"axis": "noise_amp", "values": [0.25, 1.0, 1.0, 2.0, 4.0]}),
    # the same on the fd path, whose scene grid is padded
    "noise_amp_fd_window": dict(
        with_section("lattice", overtone=1),
        observation={"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.001},
        modes={"contaminants": [{"j": 0, "amp": [0.5, 0.0]}]},
        tail={"c": 0.01, "nu": 0.5, "m": 0},
        noise={"lcg": {"seed": 12, "amplitude": 1e-11}},
        window={"enabled": True, "n": 1, "m0": 2, "path": "fd", "stencil_order": 8},
        sweep={"axis": "noise_amp", "values": [0.5, 1.0, 2.0, 4.0]}),
}

#: an inversion box that holds CANONICAL's true point (M 1, a 0.08) but not
#: its estimate
TIGHT_BOX = {"mode": "2p", "box": {"M": [0.999, 1.001], "a": [0.07999999, 0.08000001]}}

#: a damping of 20 with no tail: an amplitude of 1e-140 extracts, but its
#: plateau energy lower bound underflows, so its eps budget fails
_STEEP = dict(CANONICAL, tail={"c": 0.0},
              lattice=dict(CANONICAL["lattice"], damping={"kind": "constant", "value": 20.0}))
_NOISE = {"harmonics": [[0.001, 3.0, 0.4]]}

#: runs whose rows end at each stage a lone scenario checks, in its order
#: (+1 extraction, +1 budget, -1 extraction, -1 budget, inversion), where
#: a row's later stages would raise another error: the row reports the first
FAILURE_STAGES = {
    # a zero -1 amplitude: only the -1 extraction fails
    "pipeline-minus-zero-amp": dict(CANONICAL, modes={"amp_minus": [0.0, 0.0]}),
    # +1 budget before -1 extraction, and +1 extraction before -1 budget
    "pipeline-plus-budget-minus-extraction": dict(
        _STEEP, modes={"amp_plus": [1e-140, 0.0], "amp_minus": [0.0, 0.0]}),
    "pipeline-plus-extraction-minus-budget": dict(
        _STEEP, modes={"amp_plus": [0.0, 0.0], "amp_minus": [1e-140, 0.0]}),
    # a weak -1 mode: row 1 fails only its -1 extraction, row 2 its +1
    # extraction first (its -1 one fails too, at another distance)
    "sweep-noise-amp-minus-weak": dict(
        CANONICAL, noise=_NOISE, modes={"amp_minus": [0.01, 0.0]},
        sweep={"axis": "noise_amp", "values": [1.0, 30.0, 1000.0, 2.0]}),
    # inversion failures beside rows that invert
    "sweep-tight-box-T0": dict(CANONICAL, inversion=TIGHT_BOX,
                               sweep={"axis": "T0", "values": [4.0, 20.0, 40.0]}),
    "sweep-tight-box-noise-amp": dict(
        CANONICAL, inversion=TIGHT_BOX, tail={"c": 0.0}, noise=_NOISE,
        sweep={"axis": "noise_amp", "values": [0.0001, 1.0, 0.001, 1000.0]}),
}


def load_workloads():
    """ringbench/workloads.py, the benchmark's inputs."""
    spec = importlib.util.spec_from_file_location(
        "ringbench_workloads", DEMO_DIR.parents[1] / "ringbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def table_digest(driver, doc) -> str:
    """sha256 of a run's rows (``json.dumps(rows, sort_keys=True, default=repr)``,
    as the benchmark serialises them), its column order and its violations."""
    report = driver(ScenarioConfig(raw=doc))
    text = "\n".join([json.dumps(report.rows, sort_keys=True, default=repr),
                      json.dumps(report.columns()), json.dumps(report.violations)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: (owner, attribute, counter) of each synthesis step that synthesis_counts
#: counts; extractor imports mode_rows by name, so both names are wrapped
_SYNTHESIS = ((sm, "mode_rows", "mode_rows"), (ex, "mode_rows", "mode_rows"),
              (sm.TailSpec, "eval", "tail_eval"), (sm.NoiseSpec, "lcg_unit", "lcg_unit"),
              (sm.NoiseSpec, "eval", "noise_eval"), (sm, "residual_l2", "residual_l2"))


def synthesis_counts(driver, doc) -> dict:
    """The synthesis one run of ``driver`` does, its config loaded first: the
    calls of signal_model.mode_rows and the rows they synthesise, and the
    calls of TailSpec.eval, NoiseSpec.lcg_unit, NoiseSpec.eval and
    residual_l2."""
    cfg = ScenarioConfig(raw=doc)
    counts = dict.fromkeys(["mode_rows_rows", *(name for _, _, name in _SYNTHESIS)], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "mode_rows":
                counts["mode_rows_rows"] += len(args[0])
            return fn(*args, **kwargs)
        return wrapper

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in _SYNTHESIS]
    try:
        for owner, attr, name in _SYNTHESIS:
            setattr(owner, attr, counted(name, getattr(owner, attr)))
        driver(cfg)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return counts


def _table_cases() -> dict:
    """name -> a thunk giving (driver, document): every SWEEPS entry as a
    sweep, its base document as a pipeline and an extract run, runs that
    fail or violate (every FAILURE_STAGES run, and two of them through
    extract), and the benchmark's ell-sweep and lcg-long-grid inputs."""
    cases = {}
    for name, doc in SWEEPS.items():
        base = {k: v for k, v in doc.items() if k != "sweep"}
        cases[f"sweep-{name}"] = lambda doc=doc: (run_sweep, doc)
        cases[f"pipeline-{name}"] = lambda base=base: (run_pipeline, base)
        cases[f"extract-{name}"] = lambda base=base: (pipeline.run_extract, base)
    # a failed row, and a row with a violation (ROADMAP item 14)
    cases["pipeline-tight-box"] = lambda: (run_pipeline, dict(CANONICAL, inversion=TIGHT_BOX))
    cases["pipeline-3p-modal-ell-3491"] = lambda: (run_pipeline, ELL_3491_3P_MODAL)
    for name, doc in FAILURE_STAGES.items():
        cases[name] = lambda doc=doc: (run_sweep if "sweep" in doc else run_pipeline, doc)
    cases["extract-plus-zero-amp"] = lambda: (pipeline.run_extract, FAILURE_STAGES[
        "pipeline-plus-extraction-minus-budget"])
    cases["extract-plus-budget"] = lambda: (pipeline.run_extract, FAILURE_STAGES[
        "pipeline-plus-budget-minus-extraction"])
    for i in range(5):
        cases[f"ell-sweep-1-{i}"] = lambda i=i: (run_sweep, load_workloads().ell_sweep_input(1, i))
    for i in range(2):
        cases[f"lcg-long-grid-1-{i}"] = lambda i=i: (run_sweep, load_workloads().lcg_input(1, i))
    return cases


TABLE_CASES = _table_cases()
#: case -> table_digest.  Generated before the scenario table became columns
#: (``python tests/test_pipeline_cli.py`` rewrites it); a change that alters
#: a row on purpose regenerates it and says which rows changed.
TABLE_DIGESTS_PATH = Path(__file__).with_name("table_digests.json")
TABLE_DIGESTS = (json.loads(TABLE_DIGESTS_PATH.read_text(encoding="utf-8"))
                 if TABLE_DIGESTS_PATH.exists() else {})
#: case -> synthesis_counts, written by the same command: a change that
#: synthesises more or less on purpose regenerates it and says where
TABLE_COUNTS_PATH = Path(__file__).with_name("table_counts.json")
TABLE_COUNTS = (json.loads(TABLE_COUNTS_PATH.read_text(encoding="utf-8"))
                if TABLE_COUNTS_PATH.exists() else {})


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
        {"axis": "ell", "values": [50, 0]},  # a lattice check, at load
    ])
    def test_swept_values_checked_like_base_values(self, sweep):
        with pytest.raises(ConfigError, match="sweep value"):
            ScenarioConfig(raw=dict(CANONICAL, sweep=sweep))

    def test_window_prior_offset_needs_offset_prior(self):
        # the offset moves the window's prior only under prior: offset; under
        # the exact prior a nonzero offset is refused, naming both keys
        window = {"enabled": True, "prior_offset": [0.05, -0.01]}
        with pytest.raises(ConfigError, match="window.prior_offset .* window.prior"):
            ScenarioConfig(raw=with_section("window", **window))
        exact = ScenarioConfig(raw=with_section("window", enabled=True)).windows
        moved = ScenarioConfig(raw=with_section("window", prior="offset", **window)).windows
        zero = ScenarioConfig(raw=with_section("window", prior="offset", enabled=True)).windows
        assert zero == exact and moved[+1] != exact[+1] and moved[-1] != exact[-1]

    def test_extraction_prior_offset_applies_when_set(self):
        # a set offset moves both sectors' priors; no switch gates it
        base = pipeline._run_points([ScenarioConfig(raw=CANONICAL)])
        moved = pipeline._run_points([ScenarioConfig(
            raw=dict(CANONICAL, extraction={"prior_offset": [0.3, -0.01]}))])
        for sign in (+1, -1):
            assert moved[sign]["prior"].tolist() == (base[sign]["prior"] + (0.3 - 0.01j)).tolist()
        with pytest.raises(ConfigError, match="unknown key 'extraction.prior'"):
            ScenarioConfig(raw={"extraction": {"prior": "exact"}})

    def test_defaults_filled(self):
        cfg = ScenarioConfig(raw={})
        assert cfg["observation"]["taper"] == "raised-cosine"
        assert cfg["window"]["enabled"] is False

    @pytest.mark.parametrize("doc", [
        with_section("inversion", box={"M": [-1.0, 1.1]}),
        dict(with_section("observation", T0=0.0), window={"enabled": True, "path": "fd"}),
        dict(CANONICAL, window={"enabled": True, "path": "fd"},
             sweep={"axis": "T0", "values": [4.0, 0.0]}),
        dict(CANONICAL, window={"enabled": True, "prior": "offset",
                                "prior_offset": [-2.0, 0.0]}),
        dict(CANONICAL, window={"m0": -1}),
        {"band_isolate": {"dim": -1}},
    ])
    def test_derived_values_checked_at_load(self, doc):
        # the box's inverse constants, the fd padding (at every sweep point)
        # and the windows are derived and checked when the config loads,
        # before any point runs
        with pytest.raises(ConfigError):
            ScenarioConfig(raw=doc)

    def test_size_bounds_admit_their_limits(self):
        # the most poles the sampler can place, and the benchmark's longest grid
        assert mt.RANDOM_MAX_POLES == 26
        cfg = ScenarioConfig(raw={"band_isolate": {
            "n_models": 1, "dim": 1, "n_poles": 26, "max_order": 1, "times": [5.0]}})
        assert [row["n_poles"] for row in pipeline.run_band_isolate(cfg).rows] == [26]
        lcg = ScenarioConfig(raw=load_workloads().lcg_input(0, 0, samples=200000))
        assert lcg.setup.n_samples == 200000
        # a 2**20-point pseudospectrum grid, and the most window-check draws
        assert config._MAX_GRID_N == 1024
        ScenarioConfig(raw={"pseudospectrum": {"grid_n": 1024},
                            "window_check": {"n_draws": config._MAX_DRAWS}})

    def test_derived_values_built_at_load(self):
        cfg = ScenarioConfig(raw=dict(CANONICAL, sweep={"axis": "separation",
                                                        "values": [0.05, 0.12]}))
        assert cfg.box == [(0.9, 1.1), (0.0, 0.15)] and cfg.windows == {}
        # a separation point moves p_true, so its default guess moves with it
        assert [round(p.guess.a, 12) for p in cfg.points] == [0.0515, 0.1222]
        # DG depends on neither a nor ell: the points keep the base's constants
        ell = ScenarioConfig(raw=SWEEPS["ell"])
        assert all(p.consts is cfg.consts for p in cfg.points)
        assert all(p.consts is ell.consts for p in ell.points)
        # ell moves only the lattice map: an ell point keeps the base's true
        # point, guess and box, and a separation point rebuilds them
        for name in ("p_true", "guess", "box"):
            assert all(getattr(p, name) is getattr(ell, name) for p in ell.points)
            assert not any(getattr(p, name) is getattr(cfg, name) for p in cfg.points)
        # the windows move with ell, as the pseudopoles do
        fd_ell = ScenarioConfig(raw=SWEEPS["ell_fd_window"])
        assert len({p.windows[1].nodes for p in fd_ell.points}) == len(fd_ell.points)
        win = ScenarioConfig(raw=with_section("window", enabled=True, path="fd"))
        assert sorted(win.windows) == [-1, 1] and win.windows[1].degree == 2
        assert win.fd_pad == 4


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

    def test_fd_path_samples_noise_once(self, monkeypatch):
        # the noise is sampled once per scenario, on the padded scene grid:
        # both sectors' scenes and the eps budget read those samples
        calls = []
        noise_eval = sm.NoiseSpec.eval

        def counted_eval(self, t, *rest):
            calls.append(len(t))
            return noise_eval(self, t, *rest)

        monkeypatch.setattr(sm.NoiseSpec, "eval", counted_eval)
        cfg = ScenarioConfig(raw=dict(CANONICAL, window={"enabled": True, "path": "fd"},
                                      noise={"harmonics": [[0.001, 3.0, 0.4]]}))
        run_pipeline(cfg)
        assert calls == [cfg.setup.n_samples + 1 + 2 * cfg.fd_pad]
        calls.clear()
        sweep = ScenarioConfig(raw=SWEEPS["ell_fd_window_noise"])
        run_sweep(sweep)
        assert len(calls) == len(sweep.points)

    def test_failed_scenario_reports_violation(self):
        # the box holds the true a = 0.08, but the tail moves the estimate
        # about 4e-8 off it: the inversion converges outside the box
        report = run_pipeline(ScenarioConfig(raw=dict(CANONICAL, inversion=TIGHT_BOX)))
        assert not report.ok
        assert report.rows[0]["failed"]
        assert report.violations[0].endswith("leaves the parameter box")


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
            # a lone point is scenario 0 of its own table
            point = run_pipeline(cfg.point(value))
            rows += [dict(row, scenario=i, sweep_axis=axis, sweep_value=float(value))
                     for row in point.rows]
            violations += [v.replace("scenario 0", f"scenario {i}", 1)
                           for v in point.violations]
        sweep = run_sweep(cfg)
        assert [list(row.items()) for row in sweep.rows] == \
            [list(row.items()) for row in rows]
        assert sweep.violations == violations

    def test_sweep_peak_memory_bounded(self):
        # what a run keeps across its batches is bounded: a 24-point sweep
        # (one run, 8 batches of 3 rows of 10 001 samples, each batch one
        # ell, so each synthesises its shared reference rows once) peaks
        # within 5% of a 6-point one
        def peak(points):
            cfg = ScenarioConfig(raw=dict(
                CANONICAL, observation={"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.001},
                sweep={"axis": "ell", "values": [50 + 10 * (i // 3) for i in range(points)]}))
            tracemalloc.start()
            try:
                report = run_sweep(cfg)
                used = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(report.rows) == points and report.ok
            return used

        few, many = peak(6), peak(24)
        assert many <= 1.05 * few, (few, many)

    def test_observables_estimated_once_per_point(self, monkeypatch):
        # the inversion's estimate is the one the ledger reads: one column
        # per observable, estimated once for the whole table
        calls = []
        estimate = pipeline._estimate
        monkeypatch.setattr(pipeline, "_estimate",
                            lambda cfgs, table: calls.append(cfgs) or estimate(cfgs, table))
        cfg = ScenarioConfig(raw=SWEEPS["ell"])
        assert run_sweep(cfg).ok
        assert [list(map(id, cfgs)) for cfgs in calls] == [list(map(id, cfg.points))]

    def test_tail_start_time_decay(self):
        doc = dict(CANONICAL)
        doc["sweep"] = {"axis": "T0", "values": [2.0, 4.0, 8.0]}
        report = run_sweep(ScenarioConfig(raw=doc))
        eps = [r["eps_plus"] for r in report.rows]
        assert eps[0] > eps[1] > eps[2]

    def test_missing_axis_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(ScenarioConfig(raw=dict(CANONICAL)))

    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_table_matches_pinned_digest(self, name):
        assert table_digest(*TABLE_CASES[name]()) == TABLE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_table_synthesis_counts_pinned(self, name):
        assert synthesis_counts(*TABLE_CASES[name]()) == TABLE_COUNTS[name]


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
            {"band_isolate": {"times": []}},
            {"band_isolate": {"times": [1.0, 0.0]}},
            {"band_isolate": {"forcing_k": 13}},
            {"band_isolate": {"forcing_k": 0}},
            {"band_isolate": {"dim": -1, "n_models": 1}},
            {"band_isolate": {"n_poles": -2, "n_models": 1}},
            {"pseudospectrum": {"re_range": [0.0]}},
            {"pseudospectrum": {"re_range": [2.0, -1.0]}},
            {"pseudospectrum": {"im_range": "x"}},
            with_section("inversion", box={"M": [0.9]}),
            with_section("inversion", box={"M": [1.1, 0.9]}),
            with_section("inversion", box={"a": [0.0, float("inf")]}),
            with_section("inversion", mode="3p", box={"Lambda": [0.03, 0.03]}),
            {"inversion": {"grid_n": 5}},  # removed key: the constants are closed-form
            with_section("window", enabled=True, path="fd", stencil_order=3),
            {"modes": {"contaminants": [{"j": -1, "amp": [0.1, 0.0]}]}},
            {"modes": {"contaminants": [{"j": 1, "sign": 2, "amp": [0.1, 0.0]}]}},
            {"window_check": {"target": 5}},
            # a target node at omega = 0 makes the normalizer target^m0 vanish
            {"window_check": {"nodes": [[0, 0], [1, -0.5]], "target": 0, "m0": 1}},
            {"pseudospectrum": {"poles": [[0.0, -1.0], [0.0, -1.0]]}},
            {"pseudospectrum": {"hol_bound": 100.0}},
            {"prony": {"amps": [[1, 0], [1, 0]], "nodes": [[0.5, 0], [0.5, 0]]}},
            {"prony": {"amps": [[0, 0], [1, 0]], "nodes": [[0.5, 0], [0.7, 0]]}},
            # 3p identifies Lambda only through a gap_over_mass damping scale
            with_section("inversion", mode="3p"),
            dict(with_section("inversion", mode="3p"),
                 lattice=dict(CANONICAL["lattice"], damping={"kind": "photon_sphere"})),
            # the inverse constants reject the box when the config loads
            with_section("inversion", box={"M": [-1.0, 1.1]}),
            # more poles than the sampler can place apart, and rows too long
            # to synthesise: 10**10 grid samples, and an LCG stream of 2*10**10
            {"band_isolate": {"n_models": 1, "n_poles": 200}},
            with_section("observation", dt=1.0e-9),
            dict(with_section("observation", T0=1.0e9),
                 noise={"lcg": {"seed": 1, "amplitude": 1.0e-3}}),
            # a 10**10-point pseudospectrum grid, and 10**9 window-check draws
            {"pseudospectrum": {"grid_n": 100000}},
            {"window_check": {"n_draws": 1000000000}},
        ]
        runs = [("pipeline", write_cfg(tmp_path, doc, f"cfg{i}.yaml"))
                for i, doc in enumerate(docs)]
        # sector inputs, through pipeline and extract; the fd padding is
        # checked when the config loads
        sector_docs = [{"extraction": {"amp_floor": -1.0}},
                       dict(with_section("observation", T0=0.0),
                            window={"enabled": True, "path": "fd"})]
        runs += [(sub, write_cfg(tmp_path, doc, f"{sub}{i}.yaml"))
                 for sub in ("pipeline", "extract") for i, doc in enumerate(sector_docs)]
        truncated = tmp_path / "truncated.yaml"
        truncated.write_text("lattice: {M: [1")
        undecodable = tmp_path / "undecodable.yaml"
        undecodable.write_bytes(b"lattice: {M: \xff}\n")
        runs += [("pipeline", str(truncated)), ("pipeline", str(undecodable)),
                 ("pipeline", str(tmp_path))]  # last: a directory
        # samples that admit no fit are rejected when `prony` runs, not at load
        runs += [("prony", write_cfg(tmp_path, {"prony": {"samples": samples}}, f"p{i}.yaml"))
                 for i, samples in enumerate([[[0, 0]] * 4, [[1, 0], [0, 0], [0, 0], [0, 0]]])]
        for sub, path in runs:
            assert cli.main([sub, "--config", path, "--out",
                             str(tmp_path / "o")]) == 2, path
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("configuration error: "), err

    def test_flags_are_true_false(self, tmp_path):
        # every flag, the bias hypotheses included, is spelled true/false in
        # report.csv and is a JSON boolean in report.json
        out = tmp_path / "o"
        assert cli.main(["pipeline", "--config", str(DEMO_DIR / "canonical.yaml"),
                         "--out", str(out)]) == 0
        cells = (out / "report.csv").read_text().replace("\n", ",").split(",")
        assert "true" in cells and not {"True", "False"} & set(cells)
        row = json.loads((out / "report.json").read_text())["rows"][0]
        assert row["hyp_bias"] is True and row["hyp_bias_budget"] is True

    def test_pole_offset_is_a_bias_hypothesis(self, tmp_path):
        # a pole offset moves the true frequencies off the lattice data map, a
        # term no bias bound covers: the bias hypotheses read false there, and
        # only there, instead of the bounds failing
        offset = {"pole_offset": [0.01, 0.0]}
        cases = [({}, True), ({"lattice": offset}, False),
                 ({"lattice": dict(offset, damping={"kind": "gap_over_mass"}),
                   "inversion": {"mode": "3p"}}, False)]
        for i, (doc, on_lattice) in enumerate(cases):
            out = tmp_path / f"o{i}"
            assert cli.main(["pipeline", "--config", write_cfg(tmp_path, doc), "--out",
                             str(out)]) == 0
            row = json.loads((out / "report.json").read_text())["rows"][0]
            assert row["hyp_bias"] is row["hyp_bias_budget"] is on_lattice

    def test_fd_window_budget_bias_is_not_certified(self, tmp_path):
        # the eps budget does not bound an fd window's stencil error (eps_plus
        # 9.2 against a budget of 3.5e-4 here), so the budget bias bound has
        # the fd path as a failed hypothesis, as budget_soundness does; it
        # exited 1 with "budget bias bound violated (4.538143e-04 >
        # 2.431475e-04)" while the hypothesis read true
        doc = yaml.safe_load((DEMO_DIR / "canonical.yaml").read_text())
        doc["lattice"].update({"M": 1.0622313890533548, "a": 0.1451189019880067,
                               "Lambda": 0.024738062815739644, "ell": 172, "overtone": 1})
        doc["tail"]["c"] = 0.0
        doc["observation"]["T0"] = 2.0
        doc["window"] = {"enabled": True, "path": "fd", "n": 1}
        doc["noise"] = {"lcg": {"seed": 1559020772, "amplitude": 1.0e-4}}
        out = tmp_path / "o"
        assert cli.main(["pipeline", "--config", write_cfg(tmp_path, doc), "--out",
                         str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["rows"][0]
        assert row["hyp_bias_budget"] is False
        assert row["param_err"] > row["bias_bound_2p_budget"]

    @pytest.mark.parametrize("sub", ["pipeline", "extract"])
    def test_contaminant_within_budget_exit_0(self, tmp_path, sub):
        # a known contaminant mode is part of the eps budget, so the budget
        # still bounds eps on an unwindowed scene
        cfg = write_cfg(tmp_path, {"modes": {"contaminants": [{"j": 1, "amp": [0.1, 0.0]}]}})
        out = tmp_path / "o"
        assert cli.main([sub, "--config", cfg, "--out", str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["rows"][0]
        tag = "_plus" if sub == "pipeline" else ""
        assert 0.0 < row["eps" + tag] <= row["eps_budget" + tag]

    def test_subcommands_call_module_drivers(self, monkeypatch):
        # the table must not hold the functions themselves: wrapping or
        # replacing a pipeline.run_* attribute has to reach the CLI
        for driver in ("run_pipeline", "run_sweep"):
            monkeypatch.setattr(pipeline, driver, lambda cfg, driver=driver: driver)
        cfg = ScenarioConfig(raw={})
        assert run_subcommand("pipeline", cfg) == "run_pipeline"
        assert run_subcommand("sweep", cfg) == "run_sweep"

    @pytest.mark.parametrize("name", sorted(pipeline.SUBCOMMANDS))
    def test_drivers_take_cfg_only(self, name):
        # a subcommand's driver reads the config and nothing else
        entry = pipeline.SUBCOMMANDS[name]
        (driver,) = entry.__code__.co_names
        for fn in (entry, getattr(pipeline, driver)):
            assert list(inspect.signature(fn).parameters) == ["cfg"], (name, fn)

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["pipeline", "--config", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        # an --out that is an existing file is an output error, not a
        # violation: exit 2 with one stderr line and no traceback
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main(["pipeline", "--config", str(DEMO_DIR / "canonical.yaml"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error: "), err

    def test_violation_exit_1(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(CANONICAL, inversion=TIGHT_BOX))
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

    def test_pseudospectrum_three_poles_exit_0(self, tmp_path):
        # three cube-root poles: |q(0)| = 1 lies below c_q * dist(0, poles)
        # with the near-pole constant alone, so the radius needs the far bound
        cfg = write_cfg(tmp_path, {"pseudospectrum": {
            "poles": [[1.0, 0.0], [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]],
            "eps": [1.2], "grid_n": 201}})
        out = str(tmp_path / "o")
        assert cli.main(["pseudospectrum", "--config", cfg, "--out", out]) == 0
        row = json.loads(Path(out, "report.json").read_text())["rows"][0]
        assert row["inclusion_holds"] and row["n_flagged"] > 0
        assert abs(row["radius"] - 1.2 ** (1.0 / 3.0)) < 1e-15

    def test_band_isolate_truncation_flag(self, tmp_path):
        # k = 1 decays too slowly for tol 1e-6 within the radius cap: the row
        # says so in hyp_truncation, a hypothesis flag that leaves ok and the
        # exit code to the mismatch
        cfg = write_cfg(tmp_path, {"band_isolate": {
            "n_models": 1, "seed": 100, "forcing_k": 1, "times": [1.0]}})
        out = str(tmp_path / "o")
        assert cli.main(["band-isolate", "--config", cfg, "--out", out]) == 0
        rows = json.loads(Path(out, "report.json").read_text())["rows"]
        row = rows[0]
        assert row["sigma_max"] == 6400.0
        assert row["truncation_estimate"] >= row["tol"]
        assert row["hyp_truncation"] is False and row["ok"] is True
        demo = pipeline.run_band_isolate(load_config(DEMO_DIR / "band_isolate.yaml"))
        for r in rows + demo.rows:
            assert r["hyp_truncation"] == (r["truncation_estimate"] < r["tol"])
        assert all(r["hyp_truncation"] for r in demo.rows)

    def test_band_isolate_and_window_check(self, tmp_path):
        cfg = write_cfg(tmp_path, {"band_isolate": {"n_models": 2, "seed": 3}})
        assert cli.main(["band-isolate", "--config", cfg,
                         "--out", str(tmp_path / "b")]) == 0
        cfg2 = write_cfg(tmp_path, {"window_check": {"n_draws": 50}}, "w.yaml")
        assert cli.main(["window-check", "--config", cfg2,
                         "--out", str(tmp_path / "w")]) == 0

    def test_window_check_zero_target_at_m0_zero(self, tmp_path):
        # without the factor (omega/target)^m0 the Lagrange weight is defined
        # at a target node omega = 0: 1 there and 0 at the other node
        cfg = write_cfg(tmp_path, {"window_check": {"nodes": [[0, 0], [1, -0.5]],
                                                    "target": 0, "m0": 0}})
        out = tmp_path / "o"
        assert cli.main(["window-check", "--config", cfg, "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        identity = [r for r in rows if r["check"] == "identity"]
        assert len(identity) == 2 and all(r["ok"] for r in identity)

    def test_sweep_cli(self, tmp_path):
        doc = dict(CANONICAL)
        doc["sweep"] = {"axis": "ell", "values": [50, 100]}
        cfg = write_cfg(tmp_path, doc)
        out = str(tmp_path / "o")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = json.loads(Path(out, "report.json").read_text())["rows"]
        assert [r["ell"] for r in rows] == [50, 100]


def test_demo_config_sets_agree():
    # the shipped demo configs, their digests and the benchmark's copies of
    # them name the same demos with the same documents, so a check that
    # rejects a benchmark config fails here too
    assert sorted(p.stem for p in DEMO_DIR.glob("*.yaml")) == sorted(DEMO_CONFIGS) \
        == sorted(DEMO_DIGESTS)
    for name, (sub, text) in load_workloads().CLI_DEMOS.items():
        assert sub == DEMO_CONFIGS[name], name
        shipped = yaml.safe_load((DEMO_DIR / f"{name}.yaml").read_text(encoding="utf-8"))
        assert yaml.safe_load(text) == shipped, name


def _scalar_cells(report) -> list:
    """The cells of a report's rows that are not a Python bool, int, float or
    str: ``fmt`` writes a numpy scalar in other bytes (np.bool_(True) as
    True, np.float32(0.5) as 0.5), and no error says so."""
    return [(i, key, type(v)) for i, row in enumerate(report.rows)
            for key, v in row.items() if type(v) not in (bool, int, float, str)]


@pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
def test_demo_report_cells_are_python_scalars(name):
    doc = yaml.safe_load((DEMO_DIR / f"{name}.yaml").read_text(encoding="utf-8"))
    report = run_subcommand(DEMO_CONFIGS[name], ScenarioConfig(raw=doc))
    assert report.rows and _scalar_cells(report) == []


@pytest.mark.parametrize("workload", ["ell-sweep", "lcg-long-grid", "band-isolate"])
def test_benchmark_report_cells_are_python_scalars(tmp_path, workload):
    wl = load_workloads().make(workload)
    wl.prepare(tmp_path)
    for i in range(3):
        report = wl.run(wl.make_input(1, i), tmp_path)
        assert report.rows and _scalar_cells(report) == []

@pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
def test_demo_config_runs_and_is_deterministic(tmp_path, name):
    argv = [DEMO_CONFIGS[name], "--config", str(DEMO_DIR / f"{name}.yaml")]
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(argv + ["--out", str(out)]) == 0
        got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
        assert sorted(got) == sorted(DEMO_DIGESTS[name]), name
        for rel, digest in DEMO_DIGESTS[name].items():
            assert got[rel] == digest, f"{name}: {rel} differs from its committed digest"


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


def test_pipeline_run_loads_no_contour_or_prony_code(tmp_path):
    # a pipeline or sweep run imports neither merotoy nor prony2: only the
    # drivers that run them load them
    runs = [[sub, "--config", str(DEMO_DIR / f"{name}.yaml"), "--out", str(tmp_path / name)]
            for name, sub in (("canonical", "pipeline"), ("sweep_ell", "sweep"),
                              ("extract", "extract"))]
    script = ("import json, sys\nfrom ringlab import cli\n"
              f"codes = [cli.main(argv) for argv in {runs!r}]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules\n"
              "                               if m in ('ringlab.merotoy', 'ringlab.prony2'))]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], []]


if __name__ == "__main__":
    TABLE_DIGESTS_PATH.write_text(json.dumps(
        {name: table_digest(*case()) for name, case in sorted(TABLE_CASES.items())},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    TABLE_COUNTS_PATH.write_text(json.dumps(
        {name: synthesis_counts(*case()) for name, case in sorted(TABLE_CASES.items())},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
