"""Scenario configuration: a single YAML document, parsed and checked once.

``DEFAULTS`` is the one list of the document's keys: every section, every
key, and its default.  A configured leaf must have its default's type: real
leaves take ints or floats and must be finite, int leaves reject floats and
bools, complex leaves are ``[re, im]`` pairs (or a bare real), and a list
leaf checks each item against the first item of its default (the template
of an :class:`Items` default), a mapping item like a section.  A ``None``
default marks a value the pipeline derives from other values; the pipeline
checks such a leaf with :func:`resolve` where it derives it.

Loading runs every check that needs no computation: keys and leaf types,
the shape, range or choice of single leaves (``_LIMITS``), the rules across
sections, and the scenario objects, each checked as it is built: the grid
``setup`` (delta < T, delta and T multiples of dt, T > 3*delta for the
energy bounds), the lattice ``model``, the true point ``p_true``, ``tail``
and ``noise``.  Each sweep point is built once, into ``points``, rebuilding
only its axis's section.  A check that needs computation (fd window padding,
a box's inverse constants) raises ConfigError when a subcommand runs.  No
environment overrides: the file is the complete record of a run.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import yaml

from . import paramap as pm
from .errors import ConfigError
from .signal_model import NoiseSpec, ObservationSetup, TailSpec


class Items(list):
    """An empty list default whose configured items must look like ``template``."""

    def __init__(self, template):
        super().__init__()
        self.template = template


DEFAULTS: dict = {
    "lattice": {
        "M": 1.0, "a": 0.08, "Lambda": 0.02, "kappa": 0.3,
        "ell": 100, "overtone": 0,
        "damping": {"kind": "constant", "value": 0.2},
        "pole_offset": 0j,
    },
    "modes": {
        "amp_plus": 1 + 0j, "amp_minus": 1 + 0j,
        # sign None: the contaminant sits in both sectors
        "contaminants": Items({"j": 0, "sign": None, "amp": 1 + 0j}),
    },
    "tail": {"c": 0.0, "nu": 0.5, "m": 0, "leak": 0.0},
    "noise": {
        "harmonics": Items([0.0]),  # items are [c, mu, phi]
        "lcg": {"seed": None, "amplitude": 0.0},  # no stream unless seeded
    },
    "observation": {"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.05,
                    "taper": "raised-cosine"},
    "window": {
        "enabled": False, "n": None, "m0": None,
        "prior": "exact", "prior_offset": [0.0, 0.0],  # [dM, da]
        "path": "modal", "stencil_order": 8,
    },
    "extraction": {"prior": "exact", "prior_offset": 0j, "amp_floor": 0.0},
    "inversion": {
        "mode": "2p",
        "guess": {"M": None, "a": None, "Lambda": None},
        "box": {"M": None, "a": None, "Lambda": None},
    },
    "sweep": {"axis": None, "values": Items(None)},  # checked per axis by point()
    "prony": {"samples": Items(0j), "amps": Items(0j), "nodes": Items(0j),
              "eta": 1e-8},
    "band_isolate": {
        "dim": None, "n_poles": None, "max_order": 2, "seed": 0,
        "n_models": 5, "nu1": 0.3, "nu2": 2.3, "times": [1.0, 2.0, 5.0],
        "forcing_k": 6, "tol": 1e-6,
    },
    "pseudospectrum": {
        "poles": [complex(0.0, -1.0), complex(1.0, -1.0)],
        "e_plus": 1.0, "e_minus": 1.0, "hol_bound": 0.0,
        "eps": [1e-1, 1e-2, 1e-3, 1e-4], "grid_n": 400,
        "re_range": None, "im_range": None,
    },
    "window_check": {
        "nodes": [complex(2.0, -0.1), complex(2.0, -0.3), complex(2.0, -0.5)],
        "target": None, "m0": None, "n_draws": 200, "delta_scale": 0.125,
        "nu": 0.5, "sigma_max": 100.0, "seed": 0,
    },
}

#: sweep axis -> (section, key) of the leaf a sweep point replaces;
#: noise_amp instead scales every noise amplitude of the noise section
_SWEEP_LEAVES = {
    "T0": ("observation", "T0"), "T": ("observation", "T"),
    "Delta": ("observation", "Delta"), "ell": ("lattice", "ell"),
    "separation": ("lattice", "a"), "noise_amp": ("noise", None),
}

#: a range the driver derives when unset: else finite reals [lo, hi], lo < hi
_RANGE = (lambda v: v is None or (isinstance(v, list) and len(v) == 2
                                  and all(_real(x) for x in v) and v[0] < v[1]),
          "a [lo, hi] pair with lo < hi")
_DISTINCT = (lambda v: 0 < len(v) == len(set(v)), "a nonempty list of distinct values")


def _choice(*allowed):
    return (lambda v: v in allowed, f"one of {allowed}")


#: leaves whose values a driver needs in a shape or range their type does
#: not give: key path -> (test, what the leaf must be)
_LIMITS = {
    ("modes", "contaminants"): (
        lambda v: all(c["j"] >= 0 and abs(resolve(c["sign"], 1, "modes.contaminants.sign")) == 1
                      for c in v), "a list of items with j >= 0 and sign null, 1 or -1"),
    ("noise", "harmonics"): (lambda v: all(len(h) == 3 for h in v),
                             "a list of [c, mu, phi] items"),
    ("window", "prior_offset"): (lambda v: len(v) == 2, "a [dM, da] pair"),
    ("window", "stencil_order"): (lambda v: v >= 2 and v % 2 == 0, "an even integer >= 2"),
    ("prony", "samples"): (lambda v: len(v) in (0, 4), "empty or four samples"),
    ("prony", "amps"): (lambda v: len(v) in (0, 2) and 0 not in v,
                        "empty or two nonzero amplitudes"),
    ("prony", "nodes"): (lambda v: not v or len(v) == len(set(v)) == 2,
                         "empty or two distinct nodes"),
    ("pseudospectrum", "poles"): _DISTINCT, ("window_check", "nodes"): _DISTINCT,
    ("pseudospectrum", "eps"): (lambda v: all(e > 0 for e in v), "a list of positive reals"),
    ("pseudospectrum", "grid_n"): (lambda v: v >= 2, "at least 2"),
    ("band_isolate", "max_order"): (lambda v: v >= 1, "at least 1"),
    ("band_isolate", "times"): (lambda v: len(v) > 0 and all(t > 0 for t in v),
                                "a nonempty list of positive times"),
    # the closed-form forcing transform is tested against mpmath for k <= 12
    ("band_isolate", "forcing_k"): (lambda v: 1 <= v <= 12, "in 1..12"),
    ("pseudospectrum", "re_range"): _RANGE, ("pseudospectrum", "im_range"): _RANGE,
    ("inversion", "box", "M"): _RANGE, ("inversion", "box", "a"): _RANGE,
    ("inversion", "box", "Lambda"): _RANGE,
    ("sweep", "axis"): _choice(None, *_SWEEP_LEAVES),
    ("window", "path"): _choice("modal", "fd"),
    ("window", "prior"): _choice("exact", "offset"),
    ("extraction", "prior"): _choice("exact", "offset"),
    ("inversion", "mode"): _choice("2p", "3p"),
    ("extraction", "amp_floor"): (lambda v: v >= 0, "nonnegative"),
}

_KINDS = {bool: "true or false", int: "an integer", float: "a finite real",
          str: "a string"}


def _real(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, int) or math.isfinite(x)


def _leaf(path: str, value, default):
    """``value`` checked against the type of ``default``; complex leaves convert."""
    if default is None:
        return value
    if isinstance(default, dict):
        return _parse(value, default, path + ".")
    if isinstance(default, complex):
        parts = value if isinstance(value, list) else [value, 0.0]
        if len(parts) != 2 or not all(_real(x) for x in parts):
            raise ConfigError(f"{path} must be a finite real or an [re, im] pair, "
                              f"got {value!r}")
        return complex(float(parts[0]), float(parts[1]))
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        item = default.template if isinstance(default, Items) else default[0]
        return [_leaf(path, v, item) for v in value]
    if isinstance(default, (bool, str)):
        ok = type(value) is type(default)
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = _real(value)
    if not ok:
        raise ConfigError(f"{path} must be {_KINDS[type(default)]}, got {value!r}")
    return value


def resolve(value, derived, path: str):
    """A leaf with a ``None`` default: ``derived`` when unset, else ``value``
    checked against the type of ``derived``."""
    return derived if value is None else _leaf(path, value, derived)


def _parse(raw, defaults: dict, path: str = "") -> dict:
    """``defaults`` overlaid with ``raw``; unknown keys and bad leaves raise."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {path.rstrip('.') or '<root>'} must be a mapping")
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"unknown key {path + str(key)!r}")
    out = {}
    for key, default in defaults.items():
        value = raw.get(key)
        if value is None and not isinstance(default, dict):
            out[key] = default
        else:
            out[key] = _leaf(path + key, value, default)
    return out


@dataclass
class ScenarioConfig:
    """Parsed scenario document: every section, defaults filled in.

    ``data`` holds the sections.  ``setup``, ``model``, ``p_true``, ``tail``
    and ``noise`` are the scenario objects built from them, and ``points``
    this scenario at each sweep value, in order (empty without a sweep).
    """

    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        data = self.data = _parse(self.raw, DEFAULTS)
        for path, (holds, what) in _LIMITS.items():
            value = data
            for key in path:
                value = value[key]
            if not holds(value):
                raise ConfigError(f"{'.'.join(path)} must be {what}, got {value!r}")
        self._build(("observation", "lattice", "tail", "noise"))
        overtone = data["lattice"]["overtone"]
        if resolve(data["window"]["n"], overtone, "window.n") != overtone:
            raise ConfigError("window.n must equal lattice.overtone, the window's target")
        check, pseudo = data["window_check"], data["pseudospectrum"]
        if not 0 <= resolve(check["target"], 0, "window_check.target") < len(check["nodes"]):
            raise ConfigError("window_check.target must index window_check.nodes")
        if pseudo["hol_bound"] * max(pseudo["eps"], default=0.0) >= 1.0:
            raise ConfigError("pseudospectrum.hol_bound * max(eps) must be below 1")
        kind = data["lattice"]["damping"]["kind"]  # any other makes DG singular in 3p
        if data["inversion"]["mode"] == "3p" and kind != "gap_over_mass":
            raise ConfigError("inversion.mode 3p needs lattice.damping.kind gap_over_mass, "
                              f"got {kind!r}")
        self.points = []
        if data["sweep"]["axis"] is not None:
            self.points = [self.point(value) for value in data["sweep"]["values"]]

    def _build(self, sections):
        """The scenario objects of ``sections``, each checked as it is built."""
        data = self.data
        if "observation" in sections:
            obs = data["observation"]
            self.setup = ObservationSetup(t0=obs["T0"], t_len=obs["T"], delta=obs["Delta"],
                                          dt=obs["dt"], taper=obs["taper"])
            if self.setup.t_len <= 3 * self.setup.delta:
                raise ConfigError("need T > 3*Delta for the energy lower bounds")
        if "lattice" in sections:
            lat = data["lattice"]
            self.model = pm.default_lattice(
                kappa=lat["kappa"], lam_kind=lat["damping"]["kind"],
                lam_value=lat["damping"]["value"], n=lat["overtone"], ell=lat["ell"])
            self.p_true = pm.ParameterPoint(m=lat["M"], a=lat["a"], lam=lat["Lambda"])
        if "tail" in sections:
            tail = data["tail"]
            self.tail = TailSpec(c_tail=tail["c"], nu=tail["nu"], m=tail["m"], leak=tail["leak"])
        if "noise" in sections:
            noise, seed = data["noise"], data["noise"]["lcg"]["seed"]
            if seed is None and noise["lcg"]["amplitude"]:
                raise ConfigError("noise.lcg.amplitude needs noise.lcg.seed")
            self.noise = NoiseSpec(
                harmonics=tuple(tuple(h) for h in noise["harmonics"]),
                lcg_seed=None if seed is None else resolve(seed, 0, "noise.lcg.seed"),
                lcg_amplitude=noise["lcg"]["amplitude"], lcg_dt=self.setup.dt)

    def point(self, value) -> "ScenarioConfig":
        """This scenario at one value of its sweep axis, checked like the base.

        Only the objects built from the swept section are rebuilt: a point
        off the observation axes keeps the base's setup object, so every
        such point shares its grid and taper weights.
        """
        section, key = _SWEEP_LEAVES[self.data["sweep"]["axis"]]
        sec = self.data[section]
        out = copy.copy(self)
        try:
            if key is None:
                scale = float(_leaf("sweep.values", value, 1.0))
                leaves = {"harmonics": [[scale * c, mu, phi] for c, mu, phi in sec["harmonics"]],
                          "lcg": {**sec["lcg"], "amplitude": scale * sec["lcg"]["amplitude"]}}
            else:
                default = DEFAULTS[section][key]
                leaves = {key: type(default)(_leaf(f"{section}.{key}", value, default))}
            out.data = {**self.data, section: {**sec, **leaves}}
            out._build((section,))
        except ConfigError as exc:
            raise ConfigError(f"sweep value {value!r}: {exc}") from None
        return out

    def __getitem__(self, key: str):
        return self.data[key]


def load_config(path: str) -> ScenarioConfig:
    """The scenario in the YAML file at ``path``; an unreadable file or a
    malformed document raises ConfigError with a one-line message."""
    try:
        # bytes, so that yaml decodes them and reports bad encodings as YAMLError
        with open(path, "rb") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return ScenarioConfig(raw=doc)
