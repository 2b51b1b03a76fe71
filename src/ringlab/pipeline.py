"""Configuration-driven experiment runner.

One scenario is: build the two one-mode sector signals from the lattice at
the true parameters, add tail and noise, optionally apply the analytic
window (modal or finite-difference path), extract both frequencies with
the shift Rayleigh quotient, form the estimated observables, invert the
data map, and emit the full error-versus-bound ledger.  Every certified
inequality is evaluated with its hypothesis flags; a violation with all
hypotheses holding marks the run as failed (CLI exit code 1).

Inside a scenario every norm is taken in the discrete trapezoid-weighted
inner product on the sampling grid.  The shift acts exactly on the grid,
so the stability lemmas hold verbatim for the discrete quantities; the
a-priori budget bounds are continuum envelopes and are checked against the
discrete residual sizes for soundness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analytic_window as aw
from . import extractor as ex
from . import merotoy as mt
from . import paramap as pm
from . import prony2 as p2
from . import signal_model as sm
from .config import ScenarioConfig, resolve
from .errors import ConfigError, RinglabError
from .report import RunReport


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """What both sectors of one scenario share, built once from its config."""

    model: pm.LatticeModel
    p_true: pm.ParameterPoint
    setup: sm.ObservationSetup
    tail: sm.TailSpec
    noise: sm.NoiseSpec
    noise_l2: float  # the noise alone on the grid: both sectors' budgets use it


def _noise_from_config(noise: dict, setup: sm.ObservationSetup) -> sm.NoiseSpec:
    harmonics = tuple((c, mu, phi) for c, mu, phi in noise["harmonics"])
    lcg = noise["lcg"]
    if lcg["seed"] is None:
        if lcg["amplitude"]:
            raise ConfigError("noise.lcg.amplitude needs noise.lcg.seed")
        return sm.NoiseSpec(harmonics=harmonics)
    return sm.NoiseSpec(harmonics=harmonics, lcg_seed=resolve(lcg["seed"], 0, "noise.lcg.seed"),
                        lcg_amplitude=lcg["amplitude"], lcg_dt=setup.dt)


def _scenario(cfg: ScenarioConfig) -> Scenario:
    """Lattice, true point, grid, tail, noise and its norm; ConfigErrors surface here."""
    lat, tail = cfg["lattice"], cfg["tail"]
    damping = lat["damping"]
    model = pm.default_lattice(kappa=lat["kappa"], lam_kind=damping["kind"],
                               lam_value=damping["value"], n=lat["overtone"],
                               ell=lat["ell"])
    noise = _noise_from_config(cfg["noise"], cfg.setup)
    return Scenario(
        model=model, p_true=pm.ParameterPoint(m=lat["M"], a=lat["a"], lam=lat["Lambda"]),
        setup=cfg.setup,
        tail=sm.TailSpec(c_tail=tail["c"], nu=tail["nu"], m=tail["m"], leak=tail["leak"]),
        noise=noise, noise_l2=sm.residual_l2(
            sm.sample_scene([], sm.ZERO_TAIL, noise, cfg.setup), cfg.setup))


@dataclass
class SectorResult:
    sign: int
    omega_true: complex
    z_true: complex
    amp_ref: complex
    result: ex.ExtractionResult
    eps_budget: dict


def _sample_extended(modes, tail, noise, setup: sm.ObservationSetup,
                     pad_steps: int) -> sm.SampledSignal:
    t0 = setup.t0 - pad_steps * setup.dt
    if t0 < -1e-12:
        raise ConfigError("fd window padding would need samples at t < 0")
    n = setup.n_samples + 2 * pad_steps
    t = max(t0, 0.0) + setup.dt * np.arange(n + 1)
    vals = np.atleast_1d(sm.eval_scene(modes, tail, noise, t))
    return sm.SampledSignal(t_start=float(t[0]), dt=setup.dt, values=vals)


def _run_sector(sign: int, cfg: ScenarioConfig, scn: Scenario) -> SectorResult:
    win = cfg["window"]
    model, p_true, setup, tail, noise = scn.model, scn.p_true, scn.setup, scn.tail, scn.noise
    n = model.n
    pole_offset = cfg["lattice"]["pole_offset"]
    omega_true = pm.pseudopole(model, n, sign, p_true) + pole_offset
    amp = cfg["modes"]["amp_plus" if sign > 0 else "amp_minus"]
    modes = [sm.Mode(freq=omega_true, amp=amp)]
    for cont in cfg["modes"]["contaminants"]:
        if resolve(cont["sign"], sign, "modes.contaminants.sign") != sign:
            continue
        modes.append(sm.Mode(freq=pm.pseudopole(model, cont["j"], sign, p_true) + pole_offset,
                             amp=cont["amp"]))

    window_gain = 1.0 + 0.0j
    if win["enabled"]:
        if win["prior"] == "offset":
            d_m, d_a = win["prior_offset"]
            p_nodes = pm.ParameterPoint(m=p_true.m + d_m, a=p_true.a + d_a,
                                        lam=p_true.lam)
        else:
            p_nodes = p_true
        node_vals = tuple(pm.pseudopole(model, j, sign, p_nodes)
                          for j in range(n + 1))
        nodes = aw.PseudopoleSet(node_vals)
        gpoly = aw.modified_window(nodes, target=n,
                                   m0=resolve(win["m0"], n + 2, "window.m0"))
        window_gain = complex(gpoly(omega_true))
        if win["path"] == "modal":
            modes = aw.apply_window_modal(modes, gpoly)
            y = sm.sample_scene(modes, tail, noise, setup)
        else:
            pad = aw.fd_trim(gpoly.degree, win["stencil_order"])
            raw = _sample_extended(modes, tail, noise, setup, pad)
            y = aw.apply_window_fd(raw, gpoly, stencil_order=win["stencil_order"])
    else:
        y = sm.sample_scene(modes, tail, noise, setup)

    amp_ref = amp * window_gain
    prior = pm.pseudopole(model, n, sign, p_true)
    if cfg["extraction"]["prior"] == "offset":
        prior = prior + cfg["extraction"]["prior_offset"]
    ecfg = ex.ExtractionConfig(setup=setup, prior=prior,
                               amp_floor=cfg["extraction"]["amp_floor"])
    ref_mode = sm.Mode(freq=omega_true, amp=amp_ref)
    result = ex.extract(y, ecfg, y0_reference=[ref_mode], method="trapezoid")

    budget = ex.epsilon_budget(amp_ref, omega_true, tail, scn.noise_l2, setup)
    z_true = np.exp(-1j * omega_true * setup.delta)
    return SectorResult(sign=sign, omega_true=omega_true, z_true=z_true,
                        amp_ref=amp_ref, result=result, eps_budget=budget)


def _sector_ledger(sec: SectorResult) -> dict:
    """One sector's error-versus-bound columns, in report order."""
    res = sec.result
    return {
        "z_hat": res.z_hat, "omega_hat": res.omega_hat,
        "omega_true": sec.omega_true,
        "omega_err": abs(res.omega_hat - sec.omega_true),
        "z_err": abs(res.z_hat - sec.z_true),
        "eps0": res.eps0, "eps1": res.eps1, "eps": res.eps,
        "eps_budget": sec.eps_budget["eps_bound"],
        "bound_z": res.bound_z, "bound_z_crude": 3.0 * res.eps,
        "bound_omega": res.bound_omega,
        "hyp_eps_small": res.hypotheses_ok.eps_small,
        "hyp_branch": res.hypotheses_ok.branch_hyp,
    }


def _sector_checks(led: dict, win: dict) -> list:
    """The sector's certified inequalities.  ``epsilon_budget`` bounds the
    tail and the noise only, not an fd window's stencil error, so
    budget_soundness has a hypothesis that fails on the fd path."""
    hyp = led["hyp_eps_small"]
    fd_window = win["enabled"] and win["path"] == "fd"
    return [("z_stability", hyp, led["z_err"], led["bound_z_crude"]),
            ("z_stability_sharp", hyp, led["z_err"], led["bound_z"]),
            ("omega_error", hyp, led["omega_err"], led["bound_omega"]),
            ("budget_soundness", not fd_window, led["eps"], led["eps_budget"])]


#: absolute rounding floor for certified comparisons (quantities are O(1))
_CERT_ATOL = 1e-13


def _certify(report: RunReport, label: str, checks):
    """Record a violation for each (name, hypothesis, value, bound) whose
    hypothesis holds and whose value exceeds its bound beyond rounding."""
    for name, hyp, value, bound in checks:
        if hyp and value > bound * (1.0 + 1e-12) + _CERT_ATOL:
            report.add_violation(
                f"{label}: {name} violated ({value:.6e} > {bound:.6e})")


_REPORT_TOLERANCES = {
    "newton_tol": 1e-12,
    "certify_rtol": 1e-12,
    "certify_atol": _CERT_ATOL,
    "calibrated_c_hat": p2.CALIBRATED_C_HAT,
}


def _failed(report: RunReport, row: dict, prefix: str, exc: RinglabError) -> RunReport:
    row["failed"] = True
    row["error"] = str(exc)
    report.add_row(row)
    report.add_violation(f"{prefix}{exc}")
    return report


def _inverse_constants(cfg: ScenarioConfig, model: pm.LatticeModel, box: list,
                       three: bool, memo: dict) -> dict:
    """``pm.inverse_constants``, kept in ``memo`` under everything it reads.

    The constants depend on the lattice functions and the box only, not on
    ell, the window, the noise or the observation grid.  A failure is not
    stored, so every point that hits it reports it.
    """
    lat, grid_n = cfg["lattice"], cfg["inversion"]["grid_n"]
    key = (lat["kappa"], lat["damping"]["kind"], lat["damping"]["value"],
           tuple(box), grid_n, three)
    if key not in memo:
        memo[key] = pm.inverse_constants(model, box, grid_n=grid_n, three_param=three)
    return memo[key]


def run_pipeline(cfg: ScenarioConfig, scenario_id: int = 0,
                 report: Optional[RunReport] = None,
                 constants: Optional[dict] = None) -> RunReport:
    """End-to-end scenario: generate -> window -> extract -> invert -> bias ledger.

    Rows and violations go to ``report`` (a new one if None).  Calls that
    share a ``constants`` dict compute each set of inverse constants once.
    """
    if report is None:
        report = RunReport(metadata={"subcommand": "pipeline",
                                     **_REPORT_TOLERANCES})
    scn = _scenario(cfg)
    model, p_true, setup = scn.model, scn.p_true, scn.setup
    label = f"scenario {scenario_id}"

    row: dict = {"scenario": scenario_id, "ell": model.ell,
                 "T0": setup.t0, "T": setup.t_len, "Delta": setup.delta,
                 "dt": setup.dt, "M_true": p_true.m, "a_true": p_true.a,
                 "Lambda_true": p_true.lam}
    try:
        sectors = {sign: _run_sector(sign, cfg, scn) for sign in (+1, -1)}
    except RinglabError as exc:
        return _failed(report, row, f"{label}: ", exc)

    inv_cfg = cfg["inversion"]
    three = inv_cfg["mode"] == "3p"
    ledgers = {}
    for sign, sec in sectors.items():
        tag = "plus" if sign > 0 else "minus"
        ledgers[tag] = _sector_ledger(sec)
        row.update({f"{k}_{tag}": v for k, v in ledgers[tag].items()})

    sp, sm_ = sectors[+1], sectors[-1]
    est = pm.observables(sp.result.omega_hat, sm_.result.omega_hat,
                         model.ell, model.n)
    truth = pm.observables(sp.omega_true, sm_.omega_true, model.ell, model.n)
    keys = ("U", "V", "W") if three else ("U", "V")
    data_err = float(np.linalg.norm([est[k] - truth[k] for k in keys]))
    dw = (sp.result.omega_hat - sp.omega_true,
          sm_.result.omega_hat - sm_.omega_true)
    data_bound = pm.data_map_error_bound(dw[0], dw[1], model.ell,
                                         n=model.n if three else None)

    guess_cfg, box_cfg = inv_cfg["guess"], inv_cfg["box"]
    guess = pm.ParameterPoint(
        m=resolve(guess_cfg["M"], p_true.m * 1.01, "inversion.guess.M"),
        a=resolve(guess_cfg["a"], p_true.a * 1.01 + 0.001, "inversion.guess.a"),
        lam=resolve(guess_cfg["Lambda"], p_true.lam * (1.01 if three else 1.0),
                    "inversion.guess.Lambda"))
    box = [tuple(resolve(box_cfg["M"], [0.9 * p_true.m, 1.1 * p_true.m],
                         "inversion.box.M")),
           tuple(resolve(box_cfg["a"], [p_true.a - 0.05, p_true.a + 0.05],
                         "inversion.box.a"))]
    if three:
        box.append(tuple(resolve(box_cfg["Lambda"], [0.5 * p_true.lam, 1.5 * p_true.lam],
                                 "inversion.box.Lambda")))

    target = {k: est[k] for k in keys}
    try:
        inv = pm.invert_data(model, target, guess, box=box)
        consts = _inverse_constants(cfg, model, box, three,
                                    {} if constants is None else constants)
    except RinglabError as exc:
        return _failed(report, row, f"{label}: ", exc)

    p_hat = inv["point"]
    param_err = float(np.linalg.norm(p_hat.as_array(three) - p_true.as_array(three)))
    eps_pair = (sp.result.eps, sm_.result.eps)
    eps_budget_pair = (sp.eps_budget["eps_bound"], sm_.eps_budget["eps_bound"])
    b2 = pm.bias_bound_2p(eps_pair[0], eps_pair[1], sp.z_true, sm_.z_true,
                          setup.delta, model.ell, consts["C_star"])
    b2_budget = pm.bias_bound_2p(eps_budget_pair[0], eps_budget_pair[1],
                                 sp.z_true, sm_.z_true, setup.delta,
                                 model.ell, consts["C_star"])
    row.update({
        "data_err": data_err, "data_bound": data_bound,
        "M_hat": p_hat.m, "a_hat": p_hat.a, "Lambda_hat": p_hat.lam,
        "param_err": param_err,
        "newton_iterations": inv["iterations"],
        "c_star": consts["c_star"], "C_star": consts["C_star"],
        "bias_bound_2p": b2["bound"], "bias_bound_2p_budget": b2_budget["bound"],
        "hyp_bias": b2["eps_small"], "hyp_bias_budget": b2_budget["eps_small"],
    })
    checks = [("data-map bound", True, data_err, data_bound),
              ("2p bias bound", b2["eps_small"], param_err, b2["bound"]),
              ("budget bias bound", b2_budget["eps_small"], param_err, b2_budget["bound"])]
    if three:
        b3 = pm.bias_bound_3p(eps_pair[0], eps_pair[1], sp.z_true, sm_.z_true,
                              setup.delta, model.ell, model.n, consts["C_star"])
        row["bias_bound_3p"] = b3["bound"]
        checks.append(("3p bias bound", b3["eps_small"], param_err, b3["bound"]))

    for tag, led in ledgers.items():
        _certify(report, f"{label} {tag}", _sector_checks(led, cfg["window"]))
    _certify(report, label, checks)
    report.add_row(row)
    return report


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def run_sweep(cfg: ScenarioConfig) -> RunReport:
    """One pipeline scenario per sweep value, in order, sharing inverse constants."""
    axis = cfg["sweep"]["axis"]
    values = cfg["sweep"]["values"]
    if axis is None or not values:
        raise ConfigError("sweep requires an axis and a nonempty value list")
    report = RunReport(metadata={"subcommand": "sweep", "axis": axis, **_REPORT_TOLERANCES})
    constants: dict = {}
    for i, value in enumerate(values):
        start = len(report.rows)
        run_pipeline(cfg.point(value), scenario_id=i, report=report, constants=constants)
        for row in report.rows[start:]:
            row["sweep_axis"] = axis
            row["sweep_value"] = float(value)
    return report


# ---------------------------------------------------------------------------
# focused subcommand drivers
# ---------------------------------------------------------------------------

def run_extract(cfg: ScenarioConfig) -> RunReport:
    """One-sector extraction only: signal, Rayleigh quotient, bounds."""
    report = RunReport(metadata={"subcommand": "extract", **_REPORT_TOLERANCES})
    scn = _scenario(cfg)
    try:
        sec = _run_sector(+1, cfg, scn)
    except RinglabError as exc:
        return _failed(report, {}, "", exc)
    ledger = _sector_ledger(sec)
    report.add_row({"omega_true": sec.omega_true, "z_true": sec.z_true, **ledger})
    _certify(report, "extract", _sector_checks(ledger, cfg["window"]))
    return report


def run_prony(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(metadata={"subcommand": "prony", **_REPORT_TOLERANCES})
    sec = cfg["prony"]
    a, z = sec["amps"], sec["nodes"]
    if sec["samples"]:
        ys = sec["samples"]
    elif a and z:
        ys = [a[0] * z[0] ** j + a[1] * z[1] ** j for j in range(4)]
    else:
        raise ConfigError("prony needs either 'samples' or 'amps' + 'nodes'")
    res = p2.prony4(*ys)
    row = {"s1": res.s1, "s2": res.s2, "z1": res.z1, "z2": res.z2,
           "delta0": res.delta0, "confluent": res.confluent,
           "residual": res.residual}
    if res.confluent:
        row["b0"], row["b1"] = res.b0, res.b1
    if a and z:
        cond = p2.conditioning_report(a[0], a[1], z[0], z[1], float(sec["eta"]))
        row.update({"cond_bound": cond["bound"],
                    "cond_smallness_ok": cond["smallness_ok"],
                    "cond_slope": cond["scaling_exponent_probe"],
                    "c_hat": cond["c_hat"]})
    report.add_row(row)
    return report


def run_band_isolate(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(metadata={"subcommand": "band-isolate", **_REPORT_TOLERANCES})
    sec = cfg["band_isolate"]
    nu1, nu2, tol = float(sec["nu1"]), float(sec["nu2"]), float(sec["tol"])
    for idx in range(sec["n_models"]):
        rng = np.random.default_rng(sec["seed"] + idx)
        # both draws happen whether or not the config fixes the value
        dim = resolve(sec["dim"], int(rng.integers(1, 4)), "band_isolate.dim")
        resolvent = mt.random_rational_resolvent(
            rng, dim=dim,
            n_poles=resolve(sec["n_poles"], int(rng.integers(1, 6)), "band_isolate.n_poles"),
            max_order=sec["max_order"])
        forcing = mt.ForcingSpec(
            k=sec["forcing_k"], payload=rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        fhat = mt.forcing_transform_callable(forcing)
        for t in sec["times"]:
            out = mt.band_subtract(resolvent, fhat, None, nu1, nu2, float(t))
            ok = out["mismatch"] < tol
            report.add_row({
                "model": idx, "t": float(t), "dim": dim,
                "n_poles": len(resolvent.poles),
                "n_in_strip": len(resolvent.poles_in_strip(-nu2, -nu1)),
                "mismatch": out["mismatch"], "tol": tol,
                "sigma_max": out["sigma_max"],
                "truncation_estimate": out["truncation_estimate"], "ok": ok,
            })
            if not ok:
                report.add_violation(
                    f"band isolation mismatch {out['mismatch']:.3e} >= {tol:.1e} "
                    f"(model {idx}, t={t})")
    return report


def run_pseudospectrum(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(metadata={"subcommand": "pseudospectrum", **_REPORT_TOLERANCES})
    sec = cfg["pseudospectrum"]
    poles = tuple(sec["poles"])
    model = mt.PseudospectrumModel(
        poles=poles, e_plus=float(sec["e_plus"]), e_minus=float(sec["e_minus"]),
        hol_bound=float(sec["hol_bound"]))
    res = [p.real for p in poles]
    ims = [p.imag for p in poles]
    re_range = resolve(sec["re_range"], [min(res) - 1.0, max(res) + 1.0],
                       "pseudospectrum.re_range")
    im_range = resolve(sec["im_range"], [min(ims) - 1.0, max(ims) + 1.0],
                       "pseudospectrum.im_range")
    re_grid = np.linspace(re_range[0], re_range[1], sec["grid_n"])
    im_grid = np.linspace(im_range[0], im_range[1], sec["grid_n"])
    for i, eps in enumerate(sec["eps"]):
        scan = mt.pseudospectrum_scan(model, re_grid, im_grid, float(eps))
        report.add_row({
            "eps": float(eps), "n_flagged": scan["n_flagged"],
            "violations": scan["violations"], "radius": scan["radius"],
            "inclusion_holds": scan["inclusion_holds"],
            "grid_spacing": scan["spacing"],
        })
        if not scan["inclusion_holds"]:
            report.add_violation(
                f"pseudospectrum inclusion failed at eps={eps}")
        flagged = np.argwhere(scan["mask"])
        rows = [(re_grid[j], im_grid[i2]) for i2, j in flagged]
        report.plotdata[f"pseudospectrum_eps{i}"] = (["re", "im"], rows)
    return report


def run_window_check(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(metadata={"subcommand": "window-check", **_REPORT_TOLERANCES})
    sec = cfg["window_check"]
    nodes = aw.PseudopoleSet(tuple(sec["nodes"]))
    n = len(nodes) - 1
    target = resolve(sec["target"], n, "window_check.target")
    gpoly = aw.modified_window(nodes, target=target,
                               m0=resolve(sec["m0"], n + 2, "window_check.m0"))
    for j, node in enumerate(nodes.nodes):
        want = 1.0 if j == target else 0.0
        dev = abs(complex(gpoly(node)) - want)
        report.add_row({"check": "identity", "node": j, "deviation": dev,
                        "tol": 1e-12, "ok": dev <= 1e-12})
        if dev > 1e-12:
            report.add_violation(f"window identity at node {j}: dev {dev:.2e}")
    rng = np.random.default_rng(sec["seed"])
    n_draws = sec["n_draws"]
    delta_scale = float(sec["delta_scale"])
    d_sharp = nodes.min_sep
    worst = 0.0
    for _ in range(n_draws):
        delta = delta_scale * d_sharp * rng.random()
        pert = [z + delta * np.exp(2j * np.pi * rng.random())
                for z in nodes.nodes]
        rob = aw.interp_robustness(nodes, pert, m=target)
        devs = [rob["dev_target"]] + list(rob["dev_off"])
        if rob["hypothesis_ok"] and max(devs) > rob["bound"]:
            report.add_violation("window robustness bound exceeded")
        worst = max(worst, max(devs) / rob["bound"] if rob["bound"] > 0 else 0.0)
    report.add_row({"check": "robustness", "n_draws": n_draws,
                    "worst_ratio_to_bound": worst, "ok": worst <= 1.0})
    sig_max = float(sec["sigma_max"])
    sigma = np.linspace(-sig_max, sig_max, 201)
    prof = aw.growth_profile(gpoly, float(sec["nu"]), sigma)
    lead = abs(gpoly.coefficients()[-1])
    report.plotdata["window_growth"] = (
        ["sigma", "abs_value", "normalized"],
        [(s, v, v / (1.0 + abs(s)) ** gpoly.degree / lead)
         for s, v in zip(sigma, prof)])
    return report


#: subcommand -> driver.  Each entry looks its driver up among the module's
#: globals when called, so a wrapped or replaced ``pipeline.run_*`` attribute
#: is the one that runs.
SUBCOMMANDS = {
    "pipeline": lambda cfg: run_pipeline(cfg),
    "sweep": lambda cfg: run_sweep(cfg),
    "extract": lambda cfg: run_extract(cfg),
    "prony": lambda cfg: run_prony(cfg),
    "band-isolate": lambda cfg: run_band_isolate(cfg),
    "pseudospectrum": lambda cfg: run_pseudospectrum(cfg),
    "window-check": lambda cfg: run_window_check(cfg),
}


def run_subcommand(name: str, cfg: ScenarioConfig) -> RunReport:
    if name not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    return SUBCOMMANDS[name](cfg)
