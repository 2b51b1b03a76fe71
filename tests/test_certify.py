"""One check path: every driver's certified inequalities are (name,
hypothesis, value, bound) records that ``pipeline._certify`` alone decides,
and each row's ``ok`` column is its decision."""
import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from ringlab import analytic_window as aw
from ringlab import cli, pipeline
from ringlab import merotoy as mt
from ringlab import paramap as pm
from ringlab.config import ScenarioConfig
from ringlab.errors import InversionError
from ringlab.report import RunReport

SRC = Path(pipeline.__file__).resolve().parent
DEMO_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"
VIOLATION = re.compile(r"(.+): (.+) violated \((\S+) > (\S+)\)")


def run_cli(tmp_path, sub, doc):
    """Exit code and report.json of one CLI run on ``doc``."""
    path, out = tmp_path / "cfg.yaml", tmp_path / "o"
    path.write_text(yaml.safe_dump(doc))
    code = cli.main([sub, "--config", str(path), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def test_only_certify_and_failed_add_violations():
    def callers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from callers(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == "add_violation":
                    yield owner
            yield from callers(child, owner)

    found = {(path.name, owner) for path in sorted(SRC.rglob("*.py"))
             for owner in callers(ast.parse(path.read_text(encoding="utf-8")), None)}
    assert found == {("pipeline.py", "_certify")}


#: the drivers of a certified table; run_prony's table certifies nothing
TABLE_DRIVERS = ("_scenario_rows", "run_extract", "run_band_isolate", "run_pseudospectrum",
                 "run_window_check")


def test_each_table_is_certified_once_and_built_once():
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def calls(node, name, looped=False):
        """Per call of ``name`` under node, whether a loop or comprehension holds it."""
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) == name:
                yield looped
            yield from calls(child, name, looped or isinstance(child, loops))

    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    drivers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name for name, node in drivers.items() if list(calls(node, "_certify"))} \
        == set(TABLE_DRIVERS)
    for name in TABLE_DRIVERS:
        assert list(calls(drivers[name], "_certify")) == [False], name
        assert list(calls(drivers[name], "add_rows")) == [False], name
    assert list(calls(drivers["run_prony"], "add_rows")) == [False]
    assert not hasattr(RunReport, "add_row")


def test_band_isolate_violations_come_model_major():
    report = pipeline.run_band_isolate(
        ScenarioConfig(raw={"band_isolate": {"n_models": 3, "tol": 1.0e-20}}))
    labels = [f"model {m}, t={t}" for m in range(3) for t in (1.0, 2.0, 5.0)]
    found = [VIOLATION.fullmatch(v) for v in report.violations]
    assert [match.group(1, 2) for match in found] == [(label, "band isolation") for label in labels]
    assert [(row["model"], row["t"], row["ok"]) for row in report.rows] == [
        (m, t, False) for m in range(3) for t in (1.0, 2.0, 5.0)]
    assert [match.group(3) for match in found] == [f"{row['mismatch']:.6e}" for row in report.rows]


def test_window_check_draw_violations_come_in_draw_order(monkeypatch):
    # every draw's bound is 0 while its deviation is not: each draw fails,
    # on the robustness row alone
    real = aw.interp_robustness
    monkeypatch.setattr(aw, "interp_robustness", lambda *args, **kw: {**real(*args, **kw),
                                                                        "bound": 0.0})
    report = pipeline.run_window_check(ScenarioConfig(raw={"window_check": {"n_draws": 6}}))
    nodes = [v for v in report.violations if v.startswith("window-check node ")]
    assert report.violations[:len(nodes)] == nodes
    assert [VIOLATION.fullmatch(v).group(1, 2) for v in report.violations[len(nodes):]] == [
        ("window-check robustness", f"draw {k}") for k in range(6)]
    assert [row["check"] for row in report.rows] == ["identity"] * 3 + ["robustness"]
    assert report.rows[-1]["ok"] is False and report.rows[-1]["n_draws"] == 6


def test_pseudospectrum_violations_come_in_eps_order(monkeypatch):
    # the scan reports violations at the second and fourth eps only
    real = mt.pseudospectrum_scan

    def scan(model, re_grid, im_grid, eps, **kw):
        out = real(model, re_grid, im_grid, eps, **kw)
        return {**out, "violations": 7 if eps in (1e-2, 1e-4) else out["violations"]}

    monkeypatch.setattr(mt, "pseudospectrum_scan", scan)
    report = pipeline.run_pseudospectrum(ScenarioConfig(raw={}))
    assert [row["inclusion_holds"] for row in report.rows] == [True, False, True, False]
    assert [row["violations"] for row in report.rows] == [0, 7, 0, 7]
    assert report.violations == [
        "pseudospectrum eps=0.01: inclusion violated (7.000000e+00 > 0.000000e+00)",
        "pseudospectrum eps=0.0001: inclusion violated (7.000000e+00 > 0.000000e+00)"]


def test_certify_fails_a_nan_under_a_holding_hypothesis():
    report = RunReport()
    nan = float("nan")
    assert pipeline._certify(report, [(["x"], [("a", True, 1.0, 1.0), ("b", False, nan, 0.0)])]) \
        == [True]
    assert pipeline._certify(report, [(["x"], [("c", True, nan, 1.0), ("d", True, 0.0, nan)])]) \
        == [False]
    assert report.violations == ["x: c violated (nan > 1.000000e+00)",
                                 "x: d violated (0.000000e+00 > nan)"]


def test_certify_writes_a_table_row_by_row():
    # column records over three rows in two groups, the middle row ended by
    # an error: violations come row by row, then group by group, the failed
    # row certifies nothing, and no row is written
    report = RunReport()
    hyp = np.array([True, True, False])
    ok = pipeline._certify(report, [
        (["r0 plus", "r1 plus", "r2 plus"], [("p", hyp, np.array([2.0, 2.0, 2.0]), 1.0)]),
        (["r0", "r1", "r2"], [("s", True, np.array([0.0, 5.0, 3.0]), np.array([1.0, 1.0, 1.0]))]),
    ], {1: ("r1: ", InversionError("no"))})
    assert ok == [False, False, False]
    assert report.violations == ["r0 plus: p violated (2.000000e+00 > 1.000000e+00)", "r1: no",
                                 "r2: s violated (3.000000e+00 > 1.000000e+00)"]
    assert report.rows == []


def test_add_rows_builds_rows_from_blocks():
    # complex arrays and lists split into _re/_im Python floats, an int list
    # stays ints, and row i holds the blocks holds[i] lists, in that order
    report = RunReport()
    blocks = [{"n": [1, 2, 3, 4], "z": np.array([1 + 2j, 3 - 4j, complex(-0.0, 0.0), 0j])},
              {"w": [0.5j, 1 + 0j, 2 - 1j, 0j], "x": np.array([1.5, 2.5, 3.5, 4.5])},
              {"failed": [True] * 4, "error": ["a", "b", "c", "d"]},
              {"tag": ["t", "t", "t", "u"]}]
    report.add_rows(blocks, [(0, 1, 3), (0, 2, 3), (2,), (3,)])
    assert [list(row.items()) for row in report.rows] == [
        [("n", 1), ("z_re", 1.0), ("z_im", 2.0), ("w_re", 0.0), ("w_im", 0.5), ("x", 1.5),
         ("tag", "t")],
        [("n", 2), ("z_re", 3.0), ("z_im", -4.0), ("failed", True), ("error", "b"),
         ("tag", "t")],
        [("failed", True), ("error", "c")],
        [("tag", "u")]]
    assert [type(v) for row in report.rows for v in row.values()] == \
        [int, float, float, float, float, float, str, int, float, float, bool, str, str,
         bool, str, str]
    # by default every row holds every block
    every = RunReport()
    every.add_rows(blocks)
    assert [list(row) for row in every.rows] == [
        ["n", "z_re", "z_im", "w_re", "w_im", "x", "failed", "error", "tag"]] * 4
    assert every.rows[2]["z_re"] == 0.0 and math.copysign(1.0, every.rows[2]["z_re"]) == -1.0


def _row_label(row):
    if "model" in row:
        return f"model {row['model']}, t={row['t']}"
    if "eps" in row:
        return f"pseudospectrum eps={row['eps']}"
    if row["check"] == "identity":
        return f"window-check node {row['node']}"
    return "window-check robustness"


@pytest.mark.parametrize("sub, doc", [
    ("band-isolate", {"band_isolate": {"n_models": 2, "tol": 1.0e-20}}),
    ("window-check", {}),
    # most draws break the robustness hypothesis: ok reads the others only
    ("window-check", {"window_check": {"delta_scale": 20.0}}),
    ("pseudospectrum", {}),
])
def test_ok_is_the_rows_certification(tmp_path, sub, doc):
    code, report = run_cli(tmp_path, sub, doc)
    violations = report["violations"]
    assert all(VIOLATION.fullmatch(v) for v in violations), violations
    oks = [row["inclusion_holds"] if "eps" in row else row["ok"] for row in report["rows"]]
    for row, ok in zip(report["rows"], oks):
        label = _row_label(row) + ": "
        assert ok == (not any(v.startswith(label) for v in violations)), row
        if row.get("check") == "robustness":
            assert ok == (row["worst_ratio_to_bound"] <= 1.0)
    assert code == (0 if all(oks) else 1)


@pytest.mark.parametrize("bound, printed", [
    (float("nan"), "nan"),
    # a violation prints the bound with the rounding floor it was checked against
    (0.0, "1.000000e-13"),
])
def test_bias_bound_violation(tmp_path, monkeypatch, bound, printed):
    # canonical.yaml certifies; with this bias bound its two bias checks fail
    monkeypatch.setattr(pm, "bias_bound_2p", lambda c_star, *args: np.full_like(c_star, bound))
    code, report = run_cli(tmp_path, "pipeline",
                           yaml.safe_load((DEMO_DIR / "canonical.yaml").read_text()))
    assert code == 1
    assert [VIOLATION.fullmatch(v).group(1, 2, 4) for v in report["violations"]] == [
        ("scenario 0", "2p bias bound", printed), ("scenario 0", "budget bias bound", printed)]


def test_band_isolation_passes_at_tol(monkeypatch):
    # the config's tol also sets the quadrature, so the subtraction is
    # wrapped to report a mismatch of exactly tol: it certifies (<=)
    tol = 3.7e-7
    real = mt.band_subtract

    def at_tol(*args, **kw):
        out = real(*args, **kw)
        return dict(out, mismatch=np.full(out["mismatch"].shape, tol))

    monkeypatch.setattr(mt, "band_subtract", at_tol)
    report = pipeline.run_band_isolate(
        ScenarioConfig(raw={"band_isolate": {"n_models": 2, "seed": 3, "tol": tol}}))
    assert report.rows and [row["mismatch"] for row in report.rows] == [tol] * len(report.rows)
    assert report.ok and all(row["ok"] for row in report.rows)


def test_one_node_window_bound_is_zero(tmp_path):
    # one node's weight is the constant 1: its deviations are 0 at any
    # perturbation, an infinite one too, and so is its bound
    rob = aw.interp_robustness(aw.PseudopoleSet((2.0 - 0.1j,)), [complex(math.inf, 0.0)])
    assert rob["hypothesis_ok"] and rob["dev_target"] == 0.0 and rob["bound"] == 0.0
    code, report = run_cli(tmp_path, "window-check",
                           {"window_check": {"nodes": [[2.0, -0.1]], "n_draws": 20}})
    assert code == 0 and not report["violations"]
    assert report["rows"][-1]["ok"] and report["rows"][-1]["worst_ratio_to_bound"] == 0.0
    assert np.isfinite(report["rows"][0]["deviation"])


#: noise-free scenes at large ell: eps is 0, so every bound is the rounding
#: floor alone, while the phases |omega| t (about 2.8e4 at ell 10 000) round
#: to more than it; the checks that hold exactly fail there
@pytest.mark.parametrize("ell", [
    3000,
    pytest.param(5000, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 14")),
    pytest.param(10000, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 14")),
])
def test_noise_free_large_ell_certifies(tmp_path, ell):
    code, report = run_cli(tmp_path, "pipeline", {"lattice": {"ell": ell}})
    assert code == 0, report["violations"]


#: a 3p modal-window scene at ell 3 491, below the noise-free cases above
#: and with a contaminant, which a seeded search found: the window kills the
#: contaminant, and the plus sector's omega_error check fails by rounding
#: alone (1.136877e-13 > 1.000000e-13)
ELL_3491_3P_MODAL = {
    "lattice": {"M": 1.0174712587382981, "a": 0.09340466282344494,
                "Lambda": 0.013920144559861885, "kappa": 0.35698815097165393,
                "damping": {"kind": "gap_over_mass"}, "ell": 3491, "overtone": 1},
    "modes": {"contaminants": [{"j": 0, "amp": [0.06825496430356284, 0.0]}]},
    "observation": {"T0": 5.0, "T": 14.5, "Delta": 0.5, "dt": 0.025},
    "window": {"enabled": True, "path": "modal"},
    "inversion": {"mode": "3p"},
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_3p_modal_window_at_ell_3491_certifies(tmp_path):
    code, report = run_cli(tmp_path, "pipeline", ELL_3491_3P_MODAL)
    assert code == 0, report["violations"]


#: three_param.yaml at large ell exited 1 with "2p bias bound violated
#: (1.089120e-04 > 1.028542e-04)" at 25 600: a 3p inversion passes the damping
#: channel's error, which has no 1/ell, into M, so the 2p bounds, which cover
#: an inversion with Lambda known, do not hold for it; at 3 200 the sharp
#: frequency-error bound alone would have failed it (3.90e-4 > 1.23e-4)
@pytest.mark.parametrize("ell", [3200, 25600, 51200])
def test_3p_run_certifies_the_3p_bias_bound_only(tmp_path, ell):
    doc = yaml.safe_load((DEMO_DIR / "three_param.yaml").read_text())
    doc["lattice"]["ell"] = ell
    code, report = run_cli(tmp_path, "pipeline", doc)
    assert code == 0, report["violations"]
    row = report["rows"][0]
    assert row["hyp_bias"] is True and row["hyp_inversion_2p"] is False
    assert row["param_err"] > row["bias_bound_2p"]
    assert row["param_err"] <= row["bias_bound_3p"]
