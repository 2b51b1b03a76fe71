"""Scenario configuration: a single YAML document, parsed and checked once.

``DEFAULTS`` is the one list of the document's keys: every section, every
key, and its default.  A configured leaf must have its default's type: real
leaves take ints or floats and must be finite, int leaves reject floats and
bools, every number must lie within float range, complex leaves are
``[re, im]`` pairs (or a bare real), and a list leaf checks each item
against the first item of its default (the template of an :class:`Items`
default), a mapping item like a section.  A ``None`` default marks a value
that loading derives from other values unless it is set; :func:`resolve`
checks a set one against the type of the derived one.

Loading runs every check: keys and leaf types, the shape, range or choice of
single leaves (``_LIMITS``), the rules across sections, and the objects of
:class:`ScenarioConfig`, each checked as it is built, for the base and for
each sweep point.  A document that loads raises no ConfigError in a driver,
except where one subcommand needs more (a sweep axis, prony input that
admits a fit).  No environment overrides: the file is the complete record
of a run.
"""
from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import analytic_window as aw
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
    "extraction": {"prior_offset": 0j, "amp_floor": 0.0},
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
_NONNEGATIVE = (lambda v: v >= 0, "nonnegative")
_DISTINCT = (lambda v: 0 < len(v) == len(set(v)), "a nonempty list of distinct values")


#: the most samples a row may hold (the fd-padded grid, or the LCG stream from
#: t = 0): five times ringbench's 200 001-sample scaling grid, whose stream holds 280 001
_MAX_SAMPLES = 2**20
#: the latest band-isolation time: at the widest radius (merotoy.SIGMA_MAX_CAP,
#: 6 400) the first pass of a line has ceil(1 600 t) panels, at most 2**20
_MAX_BAND_TIME = _MAX_SAMPLES / 1600.0
#: the most band-isolation times: a pass block of 390 panels (merotoy._GL_BLOCK
#: // 21 nodes) holds a (times, 390) array of panel phases
_MAX_BAND_TIMES = _MAX_SAMPLES // 390
#: the largest band-isolation dim: a model holds at most 26 poles
#: (merotoy.RANDOM_MAX_POLES) of order at most 10 (band_isolate.max_order) and
#: one polynomial term, so 261 (dim, dim) matrices, at most 2**20 entries in all
_MAX_BAND_DIM = math.isqrt(_MAX_SAMPLES // (26 * 10 + 1))
#: the longest pseudospectrum grid side: its square grid holds at most _MAX_SAMPLES points
_MAX_GRID_N = math.isqrt(_MAX_SAMPLES)
#: the most window-check draws: each keeps one record, and 10^5 draws run in seconds
_MAX_DRAWS = 10**5


def _choice(*allowed):
    return (lambda v: v in allowed, f"one of {allowed}")


def _null_or_at_least(lo: int, path: str):
    return (lambda v: v is None or resolve(v, lo, path) >= lo, f"null or an integer >= {lo}")


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
    ("prony", "eta"): _NONNEGATIVE,
    ("pseudospectrum", "poles"): _DISTINCT, ("window_check", "nodes"): _DISTINCT,
    ("pseudospectrum", "eps"): (lambda v: all(e > 0 for e in v), "a list of positive reals"),
    ("pseudospectrum", "grid_n"): (lambda v: 2 <= v <= _MAX_GRID_N,
                                   f"an integer in 2..{_MAX_GRID_N}"),
    ("window_check", "n_draws"): (lambda v: 0 <= v <= _MAX_DRAWS, f"an integer in 0..{_MAX_DRAWS}"),
    ("pseudospectrum", "e_plus"): _NONNEGATIVE, ("pseudospectrum", "e_minus"): _NONNEGATIVE,
    ("pseudospectrum", "hol_bound"): _NONNEGATIVE,
    ("window", "m0"): _null_or_at_least(0, "window.m0"),
    ("window_check", "m0"): _null_or_at_least(0, "window_check.m0"),
    ("band_isolate", "dim"): (
        lambda v: v is None or 1 <= resolve(v, 1, "band_isolate.dim") <= _MAX_BAND_DIM,
        f"null or an integer in 1..{_MAX_BAND_DIM}"),
    # the residue oracle differentiates g F to order max_order - 1 on a Cauchy
    # ring, whose rounding grows like r!/radius^r: over the default document's
    # first 40 models (n_models: 40), the worst mismatch is at most 2e-10 for
    # max_order 1..10 (8.3e-11 at 10), 1.6e-9 at 11, 2.8e-7 at 14 and 4.7e-6,
    # above the default tol, at 15
    ("band_isolate", "max_order"): (lambda v: 1 <= v <= 10, "in 1..10"),
    ("band_isolate", "seed"): _NONNEGATIVE, ("window_check", "seed"): _NONNEGATIVE,
    ("band_isolate", "times"): (
        lambda v: 0 < len(v) <= _MAX_BAND_TIMES and all(0 < t <= _MAX_BAND_TIME for t in v),
        f"a list of 1..{_MAX_BAND_TIMES} times in (0, {_MAX_BAND_TIME}]"),
    # no mismatch can meet a bound <= 0
    ("band_isolate", "tol"): (lambda v: v > 0, "positive"),
    # the closed-form forcing transform is tested against mpmath for k <= 12
    ("band_isolate", "forcing_k"): (lambda v: 1 <= v <= 12, "in 1..12"),
    ("pseudospectrum", "re_range"): _RANGE, ("pseudospectrum", "im_range"): _RANGE,
    ("inversion", "box", "M"): _RANGE, ("inversion", "box", "a"): _RANGE,
    ("inversion", "box", "Lambda"): _RANGE,
    ("sweep", "axis"): _choice(None, *_SWEEP_LEAVES),
    ("window", "path"): _choice("modal", "fd"),
    ("window", "prior"): _choice("exact", "offset"),
    ("inversion", "mode"): _choice("2p", "3p"),
    ("extraction", "amp_floor"): _NONNEGATIVE,
}

_KINDS = {bool: "true or false", int: "an integer within float range", float: "a finite real",
          str: "a string"}


def _real(x) -> bool:
    """A finite float, or an int within float range: the arithmetic converts it."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return abs(x) <= sys.float_info.max


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
        ok = isinstance(value, int) and _real(value)
    else:
        ok = _real(value)
    if not ok:
        raise ConfigError(f"{path} must be {_KINDS[type(default)]}, got {value!r}")
    return value


def resolve(value, derived, path: str):
    """A leaf with a ``None`` default: ``derived`` when unset, else ``value``
    checked against the type of ``derived``."""
    return derived if value is None else _leaf(path, value, derived)


def _named(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ConfigError it raises, or a value out of
    floating-point range, is a ConfigError that names ``path``."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, ArithmeticError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


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

    ``data`` holds the sections, and ``setup``, ``model``, ``p_true``,
    ``guess``, ``box``, ``consts``, ``windows``, ``fd_pad``, ``tail``,
    ``noise``, ``check_window``, ``re_range`` and ``im_range`` are the objects
    built from them; ``points`` is this scenario at each sweep value, in
    order (empty without a sweep).
    """

    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        data = self.data = _parse(self.raw, DEFAULTS)
        for path, (holds, what) in _LIMITS.items():
            value = data
            for key in path:
                value = value[key]
            if not holds(value):
                # a long list is named by its length, so the error stays a short line
                got = f"{len(value)} items" if isinstance(value, list) and len(value) > 10 \
                    else repr(value)
                raise ConfigError(f"{'.'.join(path)} must be {what}, got {got}")
        n_poles = data["band_isolate"]["n_poles"]
        if n_poles is not None:  # only a band-isolate config sets it: load its sampler then
            from .merotoy import RANDOM_MAX_POLES
            if not 0 <= resolve(n_poles, 0, "band_isolate.n_poles") <= RANDOM_MAX_POLES:
                raise ConfigError("band_isolate.n_poles must be null or an integer in "
                                  f"0..{RANDOM_MAX_POLES}, got {n_poles!r}")
        overtone, win = data["lattice"]["overtone"], data["window"]
        if resolve(win["n"], overtone, "window.n") != overtone:
            raise ConfigError("window.n must equal lattice.overtone, the window's target")
        if win["prior"] == "exact" and any(win["prior_offset"]):
            raise ConfigError("window.prior_offset must be [0, 0] with window.prior exact "
                              f"(set window.prior: offset to apply it), got {win['prior_offset']!r}")
        check, pseudo = data["window_check"], data["pseudospectrum"]
        if not 0 <= resolve(check["target"], 0, "window_check.target") < len(check["nodes"]):
            raise ConfigError("window_check.target must index window_check.nodes")
        if pseudo["hol_bound"] * max(pseudo["eps"], default=0.0) >= 1.0:
            raise ConfigError("pseudospectrum.hol_bound * max(eps) must be below 1")
        if data["band_isolate"]["nu1"] >= data["band_isolate"]["nu2"]:
            raise ConfigError("band_isolate.nu1 must be below band_isolate.nu2")
        kind = data["lattice"]["damping"]["kind"]  # any other makes DG singular in 3p
        if data["inversion"]["mode"] == "3p" and kind != "gap_over_mass":
            raise ConfigError("inversion.mode 3p needs lattice.damping.kind gap_over_mass, "
                              f"got {kind!r}")
        self._build(("observation", "lattice", "tail", "noise"))
        self.check_window = _named("window_check", aw.modified_window,
                                   aw.PseudopoleSet(tuple(check["nodes"])),
                                   target=check["target"], m0=check["m0"])
        res, ims = [p.real for p in pseudo["poles"]], [p.imag for p in pseudo["poles"]]
        self.re_range = resolve(pseudo["re_range"], [min(res) - 1.0, max(res) + 1.0],
                                "pseudospectrum.re_range")
        self.im_range = resolve(pseudo["im_range"], [min(ims) - 1.0, max(ims) + 1.0],
                                "pseudospectrum.im_range")
        self.points = []
        if data["sweep"]["axis"] is not None:
            self.points = [self.point(value) for value in data["sweep"]["values"]]

    def _build(self, sections):
        """The scenario objects of ``sections`` and the values derived from
        them, each checked as it is built."""
        data = self.data
        if "observation" in sections:
            obs = data["observation"]
            self.setup = _named("observation", ObservationSetup, t0=obs["T0"], t_len=obs["T"],
                                delta=obs["Delta"], dt=obs["dt"], taper=obs["taper"])
            if self.setup.t_len <= 3 * self.setup.delta:
                raise ConfigError("need T > 3*Delta for the energy lower bounds")
        if "lattice" in sections:
            lat = data["lattice"]
            self.model = pm.default_lattice(
                kappa=lat["kappa"], lam_kind=lat["damping"]["kind"],
                lam_value=lat["damping"]["value"], n=lat["overtone"], ell=lat["ell"])
            p_true = pm.ParameterPoint(m=lat["M"], a=lat["a"], lam=lat["Lambda"])
            if p_true != getattr(self, "p_true", None):
                self.p_true = p_true
                self._build_inversion()
                self._check_decay()
            self._build_windows()
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
        win = data["window"]
        self.fd_pad = 0
        if win["enabled"] and win["path"] == "fd":
            self.fd_pad = aw.fd_trim(self.windows[+1].degree, win["stencil_order"])
            if self.setup.t0 - self.fd_pad * self.setup.dt < -1e-12:
                raise ConfigError("fd window padding would need samples at t < 0")
        setup, stream = self.setup, 0.0
        if self.noise.lcg_seed is not None:
            stream = (setup.t0 + setup.t_len) / setup.dt + self.fd_pad + 1
        if max(setup.n_samples + 1 + 2 * self.fd_pad, stream) > _MAX_SAMPLES:
            raise ConfigError(f"observation: a row may hold at most {_MAX_SAMPLES} samples")
        if not {"observation", "tail", "noise"}.isdisjoint(sections):
            self._check_energy()

    def _check_energy(self):
        """A decaying scene's samples are at most the sum of its amplitudes,
        so each energy the extraction sums, weighted (over at most T) or per
        sample (residual_l2), of the scene or of a difference of its terms,
        is at most twice that sum, squared, times the larger of T and the
        sample count: that bound must be finite."""
        modes, tail, noise, setup = self.data["modes"], self.tail, self.noise, self.setup
        amps = [modes["amp_plus"], modes["amp_minus"], *(c["amp"] for c in modes["contaminants"])]
        peak = sum([tail.c_tail, tail.leak, abs(noise.lcg_amplitude),
                    *(abs(c) for c, _, _ in noise.harmonics),
                    *(math.hypot(a.real, a.imag) for a in amps)])  # inf, where abs raises
        if not math.isfinite(4.0 * peak * peak * max(setup.t_len, setup.n_samples + 1)):
            raise ConfigError(f"scene energy bound overflows: the amplitudes sum to {peak:.6g}")

    def _check_decay(self):
        """Every scene mode (the target and each contaminant, in each sector
        that holds it) must decay, as the eps budget and energy bounds need.
        Im(pseudopole) does not depend on ell, so an ell point keeps the base's."""
        modes, offset = self.data["modes"], self.data["lattice"]["pole_offset"]
        terms = [(self.model.n, None), *((c["j"], c["sign"]) for c in modes["contaminants"])]
        for j, only in terms:
            for sign in (+1, -1) if only is None else (only,):
                im = (_named("lattice", pm.pseudopole, self.model, j, sign, self.p_true) + offset).imag
                if not im < 0.0:
                    raise ConfigError(f"lattice.pole_offset: the mode j={j}, sign {sign:+d} has "
                                      f"Im(pole + offset) = {im:.6g} >= 0; a scene mode must decay")

    def _build_inversion(self):
        """Unless set, the guess is 1% off p_true and the box M +- 10%,
        a +- 0.05 and, in 3p, Lambda +- 50%.  A box must hold p_true."""
        inv, p = self.data["inversion"], self.p_true
        three = inv["mode"] == "3p"
        guess = {"M": p.m * 1.01, "a": p.a * 1.01 + 0.001,
                 "Lambda": p.lam * (1.01 if three else 1.0)}
        box = {"M": [0.9 * p.m, 1.1 * p.m], "a": [p.a - 0.05, p.a + 0.05],
               "Lambda": [0.5 * p.lam, 1.5 * p.lam]}
        self.guess = _named("inversion.guess", pm.ParameterPoint, *(
            resolve(inv["guess"][k], v, f"inversion.guess.{k}") for k, v in guess.items()))
        self.box = [tuple(resolve(inv["box"][k], box[k], f"inversion.box.{k}"))
                    for k in ("M", "a", "Lambda")[:3 if three else 2]]
        for k, (lo, hi), v in zip(("M", "a", "Lambda"), self.box, (p.m, p.a, p.lam)):
            if not lo <= v <= hi:
                raise ConfigError(f"inversion.box.{k}: [{lo}, {hi}] excludes the true value {v}")
        # DG depends on none of a, ell and n: a sweep point with the base's
        # kappa, damping and M and Lambda ranges keeps the base's constants
        model = self.model
        key = (model.kappa, model.lam_kind, model.lam_value, self.box[0], self.box[2:])
        if key != getattr(self, "_consts_key", None):
            self.consts = _named("inversion.box", pm.inverse_constants, model, self.box)
            self._consts_key = key

    def _build_windows(self):
        """Each sector's weight of overtone n among the pseudopoles 0..n at
        the window's prior, times (omega/target)^m0 (m0 = n + 2 unless set)."""
        win, model, p = self.data["window"], self.model, self.p_true
        self.windows = {}
        if win["enabled"]:
            d_m, d_a = win["prior_offset"]  # [0, 0] unless the prior is offset
            p = _named("window.prior_offset", pm.ParameterPoint, p.m + d_m, p.a + d_a, p.lam)
            for sign in (+1, -1):
                nodes = aw.PseudopoleSet(tuple(pm.pseudopole(model, j, sign, p)
                                               for j in range(model.n + 1)))
                self.windows[sign] = _named("window", aw.modified_window, nodes,
                                            target=model.n, m0=win["m0"])

    def point(self, value) -> "ScenarioConfig":
        """This scenario at one value of its sweep axis, checked like the base.

        Only the objects built from the swept section are rebuilt: a point
        off the observation axes keeps the base's setup object, so every
        such point shares its grid and taper weights; an ell point keeps the
        base's true point, guess and box; and a point that keeps the map and
        the M and Lambda box ranges keeps the base's inverse constants.
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


#: libyaml's safe loader where PyYAML has its bindings (about 7x faster on a
#: 400-point sweep document), else PyYAML's own: both build the same documents
LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str) -> ScenarioConfig:
    """The scenario in the YAML file at ``path``; an unreadable file or a
    malformed document raises ConfigError with a one-line message."""
    try:
        # bytes, so that yaml decodes them and reports bad encodings as YAMLError
        with open(path, "rb") as fh:
            doc = yaml.load(fh, Loader=LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return ScenarioConfig(raw=doc)
