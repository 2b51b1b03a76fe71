"""The config-to-exit-code contract, drawn one leaf at a time.

Each case replaces one leaf of ``config.DEFAULTS`` with a drawn value (of its
own type or of another) and runs the document through ``cli.main`` for a
subcommand that reads that section.  Every run must end in exit code 0, 1 or
2 without an escaping exception; exit 2 prints exactly one ``configuration
error:`` line.  Once a document loads, its driver raises no ConfigError and
turns none into a failed row, except where the subcommand itself needs more
than the config guarantees: a sweep without an axis or values, and prony
input that admits no fit.

Leaves that set how much work a run does are capped, for run time only:
``n_models``, ``grid_n``, ``n_draws``, the band-isolation model size (``dim``,
``n_poles``, ``max_order``) and times (at most 10, except that a time past
the bound that loading rejects is kept, so that check is drawn), the
window-check degree ``m0``, and the grid length (``observation.T`` at most
100, ``observation.dt`` at least 0.0025).  The section bases below shrink
the same leaves: one band-isolation model at one time, a 40-point
pseudospectrum grid, 20 window-check draws.  Extreme values overflow in numpy by design, so here a
RuntimeWarning is not an error but one more line on stderr.
"""
import contextlib
import copy
import io
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringlab import cli, config, pipeline
from ringlab.config import DEFAULTS, Items
from ringlab.errors import ConfigError

#: section -> the subcommands that read it
SUBCOMMAND = {section: ("pipeline", "extract") for section in
              ("lattice", "modes", "tail", "noise", "observation", "window", "extraction")}
SUBCOMMAND.update({"inversion": ("pipeline",), "sweep": ("sweep",), "prony": ("prony",),
                   "band_isolate": ("band-isolate",), "pseudospectrum": ("pseudospectrum",),
                   "window_check": ("window-check",)})
#: the document a section's leaf is drawn into: the defaults, with the size
#: leaves capped and, for sweep and prony, the input their drivers need
BASE = {
    "sweep": {"sweep": {"axis": "ell", "values": [50, 100]}},
    "prony": {"prony": {"amps": [1.0, 1.0], "nodes": [0.9, 0.5]}},
    "band_isolate": {"band_isolate": {"n_models": 1, "times": [1.0]}},
    "pseudospectrum": {"pseudospectrum": {"grid_n": 40}},
    "window_check": {"window_check": {"n_draws": 20}},
}
#: size leaf -> the largest integer drawn for it
SIZE_CAP = {("band_isolate", "n_models"): 2, ("band_isolate", "dim"): 4,
            ("band_isolate", "n_poles"): 6, ("band_isolate", "max_order"): 3,
            ("pseudospectrum", "grid_n"): 60, ("window_check", "n_draws"): 30,
            ("window_check", "m0"): 30}
#: a driver's ConfigError that only its subcommand raises
SUBCOMMAND_ERRORS = ("sweep requires an axis", "prony needs either", "prony input:")

NAMES = ["constant", "photon_sphere", "gap_over_mass", "raised-cosine", "rectangular",
         "exact", "offset", "modal", "fd", "2p", "3p", "T0", "T", "Delta", "ell",
         "separation", "noise_amp", "dt", "bogus", ""]
REAL = st.one_of(st.sampled_from([0.0, -1.0, 1.0, 0.5, 2.0, 1e-9, -1e-9, 1e9, -1e9,
                                  1e300, -1e300]),
                 st.floats(-50.0, 50.0), st.integers(-5, 5))
INT = st.one_of(st.integers(-3, 40), st.sampled_from([-(2**31), 2**31, 10**12, 10**400]))
COMPLEX = st.one_of(st.lists(REAL, min_size=2, max_size=2), REAL)
#: values of another type than most leaves take
WRONG = st.one_of(st.booleans(), st.sampled_from(NAMES),
                  st.sampled_from([[], [1.0], [1.0, 2.0, 3.0], {"k": 1}]))


def _clamp(path, value):
    """Grid-length caps: T at most 100, dt at least 0.0025 (4 000 samples)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if path == ("observation", "T"):
        return min(value, 100.0)
    if path == ("observation", "dt") and 0 < value < 0.0025:
        return 0.0025
    return value


def leaf_values(path, default):
    """Values of the leaf at ``path``: its default's type (three times in
    four), or a wrong one."""
    ints = st.integers(-3, SIZE_CAP[path]) if path in SIZE_CAP else INT
    if isinstance(default, dict):
        return st.fixed_dictionaries({k: leaf_values(path + (k,), v)
                                      for k, v in default.items()})
    if path == ("sweep", "values"):  # its items take the swept leaf's type
        own = st.lists(st.one_of(st.integers(1, 400), REAL), max_size=4)
    elif isinstance(default, list):
        item = default.template if isinstance(default, Items) else default[0]
        own = st.lists(leaf_values(path, item), max_size=4)
    elif default is None:
        own = st.one_of(st.none(), ints, REAL, st.lists(REAL, min_size=2, max_size=2),
                        st.sampled_from(NAMES))
    elif isinstance(default, bool):
        own = st.booleans()
    elif isinstance(default, int):
        own = ints
    elif isinstance(default, float):
        own = REAL.map(lambda v: _clamp(path, v))
    elif isinstance(default, complex):
        own = COMPLEX
    else:
        own = st.sampled_from(NAMES)
    return st.one_of(own, own, own, WRONG)


def _leaves(tree, path=()):
    for key, default in tree.items():
        if isinstance(default, dict):
            yield from _leaves(default, path + (key,))
        else:
            yield path + (key,), default


LEAVES = list(_leaves(DEFAULTS))
#: leaf path -> its values, built once
VALUES = {path: leaf_values(path, default) for path, default in LEAVES}
PATHS = st.sampled_from(sorted(VALUES))


@st.composite
def cases(draw):
    path = draw(PATHS)
    value = draw(VALUES[path])
    if path[-1] == "times" and isinstance(value, list):  # band-isolation cost grows with t
        value = [min(t, 10.0) if isinstance(t, (int, float)) and t <= config._MAX_BAND_TIME
                 else t for t in value]
    doc = copy.deepcopy(BASE.get(path[0], {}))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return draw(st.sampled_from(SUBCOMMAND[path[0]])), doc


@pytest.fixture
def contract(tmp_path, monkeypatch):
    """``check(sub, doc)``: run ``doc`` through ``cli.main`` for ``sub``, assert
    the contract, and return the exit code."""
    driver_errors = []

    def run_subcommand(name, cfg):
        try:
            return pipeline.run_subcommand(name, cfg)
        except ConfigError as exc:
            driver_errors.append(str(exc))
            raise

    def certify(report, checks, failed=None):
        for _, exc in (failed or {}).values():
            assert not isinstance(exc, ConfigError), f"config error as a failed row: {exc}"
        return real_certify(report, checks, failed)

    real_certify = pipeline._certify
    monkeypatch.setattr(cli, "run_subcommand", run_subcommand)
    monkeypatch.setattr(pipeline, "_certify", certify)
    path, out = tmp_path / "cfg.yaml", str(tmp_path / "out")

    def check(sub, doc):
        path.write_text(yaml.safe_dump(doc))
        driver_errors.clear()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            # extreme leaves overflow by design: a numpy warning is not an
            # error here but one more stderr line, which exit 2 must not print
            warnings.simplefilter("always", RuntimeWarning)
            code = cli.main([sub, "--config", str(path), "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines
        for message in driver_errors:
            assert message.startswith(SUBCOMMAND_ERRORS), message
        return code

    return check


def test_every_one_leaf_config_runs_or_exits_2(contract):
    @settings(derandomize=True, database=None, max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases())
    def check(case):
        contract(*case)

    check()


#: counterexamples that random draws of the same leaves found, each an escaping
#: exception or a driver's ConfigError until it was mended, with the exit code
#: each gives now
FOUND = [
    ("pipeline", {"lattice": {"M": 4.814721821835686e-239}}, 2),
    ("pipeline", {"inversion": {"guess": {"M": 1.1562576006360579e-240}}}, 2),
    ("pipeline", {"lattice": {"kappa": 2.2250738585e-313}}, 2),
    ("pipeline", {"lattice": {"ell": 10**400}}, 2),
    ("pipeline", {"inversion": {"guess": {"a": 10**400}}}, 2),
    ("pipeline", {"lattice": {"damping": {"value": 1.401298464324817e-45}}}, 1),
    ("band-isolate", {"band_isolate": {"n_models": 1, "times": [1.0], "seed": -2**31}}, 2),
    ("band-isolate", {"band_isolate": {"n_models": 1, "times": [1.0], "nu1": 2.5}}, 2),
    ("pseudospectrum", {"pseudospectrum": {"grid_n": 40, "e_plus": -1.0}}, 2),
    ("pseudospectrum", {"pseudospectrum": {"grid_n": 40, "poles": [0.0, [0.0, 1e300]]}}, 0),
    ("window-check", {"window_check": {"n_draws": 20, "nodes": [[0.0, 1e300]]}}, 0),
    ("prony", {"prony": {"amps": [1.0, 1.0], "nodes": [0.9, 0.5],
                         "samples": [[0.0, 0.0], [0.0, 0.0], [0.0, 1e300], [0.0, 0.0]]}}, 2),
    # a set box must hold the true point, in the base and in every sweep point
    ("pipeline", {"inversion": {"box": {"M": [1.05, 1.2]}}}, 2),
    ("pipeline", {"lattice": {"damping": {"kind": "gap_over_mass"}},
                  "inversion": {"mode": "3p", "box": {"Lambda": [0.03, 0.05]}}}, 2),
    ("sweep", {"inversion": {"box": {"a": [0.0, 0.1]}},
               "sweep": {"axis": "separation", "values": [0.05, 0.12]}}, 2),
    # finite amplitudes whose scene energy overflows, in the base and at a
    # sweep point
    ("pipeline", {"noise": {"lcg": {"seed": 3, "amplitude": 1.0e+300}}}, 2),
    ("pipeline", {"noise": {"harmonics": [[1.0e+200, 3.0, 0.4]]}}, 2),
    ("pipeline", {"tail": {"c": 1.0e+300, "nu": 0.5, "m": 2}}, 2),
    ("sweep", {"noise": {"lcg": {"seed": 3, "amplitude": 1.0e-3}},
               "sweep": {"axis": "noise_amp", "values": [1.0, 1.0e+300]}}, 2),
    # a growing scene mode: it exited 1 with "zero weighted energy" (and
    # overflow warnings) and with "epsilon budget needs a damped mode"
    ("pipeline", {"lattice": {"pole_offset": [0.0, 5.0]}, "observation": {"T": 200.0}}, 2),
    ("pipeline", {"lattice": {"pole_offset": [0.0, 0.2]}}, 2),
    # a window prior offset that the exact prior ignored: it exited 0
    ("pipeline", {"window": {"enabled": True, "prior_offset": [0.05, 0.0]}}, 2),
    # a band tolerance no mismatch can meet: it exited 1 with a violation
    ("band-isolate", {"band_isolate": {"n_models": 1, "times": [1.0], "tol": -1.0}}, 2),
    ("band-isolate", {"band_isolate": {"n_models": 1, "times": [1.0], "tol": 0.0}}, 2),
    # a first pass too long to allocate: it exited 1 with "Maximum allowed
    # size exceeded" from numpy, and just past the bound of 2**20 panels
    ("band-isolate", {"band_isolate": {"n_models": 1, "times": [1.0e+300]}}, 2),
    ("band-isolate", {"band_isolate": {"n_models": 1, "times": [1.0, 655.37]}}, 2),
    # a pole order whose residue oracle the Cauchy ring cannot resolve: the
    # default document exited 1 with mismatches of 4.1e-6 and 5.9e18
    ("band-isolate", {"band_isolate": {"max_order": 15}}, 2),
    ("band-isolate", {"band_isolate": {"max_order": 40}}, 2),
]


@pytest.mark.parametrize("sub, doc, code", FOUND)
def test_found_counterexamples(contract, sub, doc, code):
    assert contract(sub, doc) == code


def test_band_isolation_certifies_at_the_largest_max_order():
    # 40 seeded models of the default document at the largest max_order that
    # loads: every row certifies; one order more exits 2
    cfg = config.ScenarioConfig(raw={"band_isolate": {"n_models": 40, "max_order": 10}})
    report = pipeline.run_band_isolate(cfg)
    assert len(report.rows) == 120 and not report.violations
    assert all(row["ok"] for row in report.rows)
    with pytest.raises(ConfigError, match="max_order"):
        config.ScenarioConfig(raw={"band_isolate": {"max_order": 11}})


def _load_with(monkeypatch, loader, path):
    """load_config of ``path`` under ``loader``: its sections, or its exit-2 line."""
    monkeypatch.setattr(config, "LOADER", loader)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # extreme leaves overflow by design
            return config.load_config(str(path)).data
    except ConfigError as exc:
        return f"configuration error: {exc}"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_loader_reads_what_the_python_one_reads(tmp_path, monkeypatch):
    # the demo configs, and every counterexample's document, parse to equal
    # documents under both safe loaders and load to equal configs or exit-2 lines
    demos = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.yaml"))
    found = []
    for i, (_, doc, _) in enumerate(FOUND):
        found.append(tmp_path / f"found{i}.yaml")
        found[-1].write_text(yaml.safe_dump(doc))
    assert len(demos) == 10
    assert config.LOADER is yaml.CSafeLoader
    for path in demos + found:
        text = path.read_bytes()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
        assert _load_with(monkeypatch, yaml.CSafeLoader, path) == \
            _load_with(monkeypatch, yaml.SafeLoader, path), path.name


def test_leaves_cover_every_section():
    assert {path[0] for path, _ in LEAVES} == set(SUBCOMMAND) == set(DEFAULTS)
