"""Configuration-driven experiment runner.

One scenario is: build the two one-mode sector signals from the lattice at
the true parameters, add tail and noise, optionally apply the analytic
window (modal or finite-difference path), extract both frequencies with
the shift Rayleigh quotient, form the estimated observables, invert the
data map, and emit the full error-versus-bound ledger.  Every driver hands
its certified inequalities to one function as (name, hypothesis, value,
bound) records; a violation with its hypothesis holding marks the run as
failed (CLI exit code 1).  Scenarios form one table, built by one loop:
``pipeline`` is its one row, ``sweep`` a row per point.  Consecutive points
on one observation setup synthesise and extract their sectors as the rows
of one array, every point's data are inverted in one damped-Newton pass,
and each row is bit for bit what its point gives alone.  What consecutive
points share is synthesised once per table: a mode row that every point
of a batch holds, and that later batches reuse while it recurs, the tail
on one grid, and the unscaled LCG stream of one seed, which every noise
amplitude scales (a noise_amp sweep synthesises its references, tail and
stream once).

Inside a scenario every norm is taken in the discrete trapezoid-weighted
inner product on the sampling grid, the bilinear form sum_k q_k f_k conj(g_k)
whose weights the setup folds into one quadrature vector q.  The shift acts
exactly on the grid, so the stability lemmas hold verbatim for the discrete
quantities; the a-priori budget bounds are continuum envelopes and are
checked against the discrete residual sizes for soundness.
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
from .config import ScenarioConfig
from .errors import ConfigError, RinglabError, StructureError
from .report import RunReport


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """A config, its scene grid and the noise both its sectors add, sampled
    once on that grid."""

    cfg: ScenarioConfig
    grid: np.ndarray
    noise_samples: Optional[np.ndarray]  # None if zero
    noise_l2: float  # its norm over the window: both sectors' budgets use it


class _Carry:
    """What the batches of one :func:`_run_points` call share, each built
    once and kept while the next batch asks for it again: the padded scene
    grid of an observation setup, the tail sampled on a grid, the unscaled
    LCG stream at a grid's nodes (:meth:`signal_model.NoiseSpec.lcg_unit`,
    one per seed and hold step) and, per row slot (sector sign and term),
    the last mode row that a whole batch shared on a grid.  Each slot keeps
    only its latest entry, so across batches the carry holds one grid, one
    tail, one stream and one row per slot.  Every value is the one a point
    builds alone, bit for bit: its operations are elementwise."""

    def __init__(self):
        self._kept: dict = {}

    def _latest(self, slot, grid, key, build):
        """The value kept in ``slot`` if it was built on ``grid`` (the same
        array) for an equal ``key``; else ``build()``, kept there."""
        kept = self._kept.get(slot)
        if kept is None or kept[0] is not grid or kept[1] != key:
            kept = self._kept[slot] = (grid, key, build())
        return kept[2]

    def grid(self, setup: sm.ObservationSetup, pad: int) -> np.ndarray:
        """The grid of ``setup`` widened by ``pad`` steps on each side."""
        if not pad:
            return setup.grid()
        return self._latest("grid", None, (setup, pad), lambda: (
            max(setup.t0 - pad * setup.dt, 0.0)
            + setup.dt * np.arange(setup.n_samples + 1 + 2 * pad)))

    def tail(self, tail: sm.TailSpec, t: np.ndarray) -> Optional[np.ndarray]:
        """``tail`` sampled on ``t``, or None if it is zero."""
        return None if tail.is_zero else self._latest("tail", t, tail, lambda: tail.eval(t))

    def lcg_unit(self, noise: sm.NoiseSpec, t: np.ndarray) -> Optional[np.ndarray]:
        """The unscaled LCG stream of ``noise`` at the nodes of ``t``, or None
        without a stream."""
        if noise.lcg_seed is None:
            return None
        return self._latest("lcg", t, (noise.lcg_seed, noise.lcg_dt), lambda: noise.lcg_unit(t))

    def mode_rows(self, slot, modes: list, t: np.ndarray) -> np.ndarray:
        """``signal_model.mode_rows(modes, t)``, not to be written to.  When
        every mode has one (freq, amp, degree) the rows are one row repeated:
        the last row of ``slot`` if it was built on ``t`` for that key, else
        one synthesised and kept there.  Equal values that differ in the sign
        of a zero part give equal rows, since mode_rows adds 0.0j last.
        Modes that differ are synthesised in one call, as without the carry."""
        key = (modes[0].freq, modes[0].amp, modes[0].poly_degree)
        if any((m.freq, m.amp, m.poly_degree) != key for m in modes[1:]):
            return sm.mode_rows(modes, t)
        rows = self._latest(slot, t, key, lambda: sm.mode_rows(modes[:1], t))
        rows.flags.writeable = False
        return rows if len(modes) == 1 else np.repeat(rows, len(modes), axis=0)


def _scenario(cfg: ScenarioConfig, setup: sm.ObservationSetup, t: np.ndarray,
              carry: _Carry) -> Scenario:
    """``cfg`` with its noise sampled on its scene grid ``t``: the grid of
    ``setup`` (a setup equal to cfg.setup) widened by cfg.fd_pad steps on
    each side, which the fd window trims.  Off the fd path that is
    setup.grid() itself."""
    noise = cfg.noise
    samples = None if noise.is_zero else noise.eval(t, carry.lcg_unit(noise, t))
    noise_l2 = 0.0 if samples is None else sm.residual_l2(
        sm.SampledSignal(t_start=float(t[0]), dt=setup.dt, values=samples), setup)
    return Scenario(cfg=cfg, grid=t, noise_samples=samples, noise_l2=noise_l2)


@dataclass
class SectorResult:
    omega_true: complex
    z_true: complex
    result: ex.ExtractionResult
    eps_budget: dict


@dataclass
class _SectorScene:
    """One sector of one scenario, up to its samples: the modes of the scene
    (modes[0] the target, windowed on the modal path), the reference and the
    prior."""

    scn: Scenario
    modes: list
    omega_true: complex
    amp_ref: complex
    prior: complex


def _sector_scene(sign: int, scn: Scenario) -> _SectorScene:
    cfg, win = scn.cfg, scn.cfg["window"]
    model, p_true = cfg.model, cfg.p_true
    pole_offset = cfg["lattice"]["pole_offset"]
    pole = pm.pseudopole(model, model.n, sign, p_true)
    omega_true = pole + pole_offset
    amp = cfg["modes"]["amp_plus" if sign > 0 else "amp_minus"]
    modes = [sm.Mode(freq=omega_true, amp=amp)]
    for cont in cfg["modes"]["contaminants"]:
        if cont["sign"] not in (None, sign):
            continue
        modes.append(sm.Mode(freq=pm.pseudopole(model, cont["j"], sign, p_true) + pole_offset,
                             amp=cont["amp"]))

    window_gain = 1.0 + 0.0j
    if win["enabled"]:
        gpoly = cfg.windows[sign]
        window_gain = complex(gpoly(omega_true))
        if win["path"] == "modal":
            modes = aw.apply_window_modal(modes, gpoly)

    prior = pole
    if cfg["extraction"]["prior"] == "offset":
        prior = prior + cfg["extraction"]["prior_offset"]
    return _SectorScene(scn=scn, modes=modes, omega_true=omega_true,
                        amp_ref=amp * window_gain, prior=prior)


def _run_sectors(sign: int, scns: list, setup: sm.ObservationSetup,
                 tail: Optional[np.ndarray], carry: _Carry) -> list:
    """One sector of each scenario of a batch on ``setup``: a SectorResult,
    or the RinglabError that ends it, per scenario.  ``tail`` is the batch's
    tail sampled on its scene grid (None if zero), which both signs add.

    The rows are synthesised as one (B, N) array and extracted in one call;
    every row comes out bit for bit as it would alone.  Each term's rows
    (reference, each contaminant, and on the fd path the target and the
    contaminants on the padded grid) come from ``carry``: a row that every
    point of the batch holds is synthesised once, or reused from the batch
    before, so a noise_amp sweep synthesises its references once per sign.
    Off the fd path the reference term of each row is synthesised once: the
    scene is built from it and extract subtracts it.  Every step checks its
    rows in the order a single sector raises its errors.  The scenarios of a
    batch share the config sections no sweep varies, so the first one stands
    for all of them there.
    """
    if not scns:
        return []
    cfg = scns[0].cfg
    secs = [_sector_scene(sign, scn) for scn in scns]
    ecfg = ex.ExtractionConfig(setup=setup, prior=[sec.prior for sec in secs],
                               amp_floor=cfg["extraction"]["amp_floor"])

    t, scene_t = setup.grid(), scns[0].grid
    refs = [sm.Mode(freq=sec.omega_true, amp=sec.amp_ref) for sec in secs]
    y0 = carry.mode_rows((sign, "reference"), refs, t)
    columns = list(zip(*(sec.modes[1:] for sec in secs)))
    others = [carry.mode_rows((sign, j), column, t) for j, column in enumerate(columns)]
    # the fd window filters the scene of the unwindowed target on the padded
    # grid; elsewhere the target term is the reference
    fd = _fd_window(cfg)
    if fd:
        values = carry.mode_rows((sign, "target"), [sec.modes[0] for sec in secs], scene_t).copy()
        for j, column in enumerate(columns):
            values += carry.mode_rows((sign, j, "scene"), column, scene_t)
    else:
        values = y0.copy()
        for term in others:
            values += term
    if tail is not None:
        values += tail
    for row, sec in zip(values, secs):
        if sec.scn.noise_samples is not None:
            row += sec.scn.noise_samples
    y = sm.SampledSignal(t_start=float(scene_t[0]), dt=setup.dt, values=values)
    if fd:  # each row through its own point's window: the pseudopoles move with ell
        rows = [aw.apply_window_fd(sm.SampledSignal(y.t_start, y.dt, row), sec.scn.cfg.windows[sign],
                                   cfg["window"]["stencil_order"]) for row, sec in zip(values, secs)]
        y = sm.SampledSignal(rows[0].t_start, y.dt, np.stack([row.values for row in rows]))
    results = ex.extract(y, ecfg, y0_reference=refs,
                         y0=sm.SampledSignal(t_start=setup.t0, dt=setup.dt, values=y0))

    # the contaminants are known exactly: their norm joins the noise budget
    # (triangle inequality)
    known = [sec.scn.noise_l2 for sec in secs]
    if others:
        l2 = sm.residual_l2(sm.SampledSignal(t_start=setup.t0, dt=setup.dt,
                                             values=sum(others[1:], others[0])), setup)
        known = [k + v for k, v in zip(known, l2.tolist())]
    out: list = []
    for sec, res, known_l2 in zip(secs, results, known):
        if isinstance(res, RinglabError):
            out.append(res)
            continue
        try:
            budget = ex.epsilon_budget(sec.amp_ref, sec.omega_true, sec.scn.cfg.tail,
                                       known_l2, setup)
        except RinglabError as exc:
            out.append(exc)
            continue
        z_true = np.exp(-1j * sec.omega_true * setup.delta)
        out.append(SectorResult(omega_true=sec.omega_true, z_true=z_true, result=res,
                                eps_budget=budget))
    return out


#: relative and absolute rounding floor of a scenario's checks.  It assumes
#: the quantities are O(1), which fails at large ell: phases |omega| t of about
#: 1e4 round to more than 1e-13 (ROADMAP item 14)
_CERT_RTOL, _CERT_ATOL = 1e-12, 1e-13


def _record(name: str, hyp: bool, value: float, bound: float) -> tuple:
    """A scenario's certified inequality, its bound raised by the rounding floor."""
    return (name, hyp, value, bound * (1.0 + _CERT_RTOL) + _CERT_ATOL)


def _fd_window(cfg: ScenarioConfig) -> bool:
    """Whether the scene is windowed on the fd path.  The eps budget bounds
    the tail, the noise and the contaminants, not an fd window's stencil
    error, so every check that reads the budget has a hypothesis that fails
    there."""
    return cfg["window"]["enabled"] and cfg["window"]["path"] == "fd"


def _sector_ledger(sec: SectorResult, cfg: ScenarioConfig) -> tuple:
    """One sector's error-versus-bound columns, in report order, and its
    certified inequalities."""
    res = sec.result
    led = {
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
    hyp = led["hyp_eps_small"]
    return led, [_record("z_stability", hyp, led["z_err"], led["bound_z_crude"]),
                 _record("z_stability_sharp", hyp, led["z_err"], led["bound_z"]),
                 _record("omega_error", hyp, led["omega_err"], led["bound_omega"]),
                 _record("budget_soundness", not _fd_window(cfg), led["eps"],
                         led["eps_budget"])]


def _certify(report: RunReport, label: str, checks) -> bool:
    """Decide each (name, hypothesis, value, bound) record: it fails when its
    hypothesis holds and not value <= bound, so a NaN never certifies.  Each
    failure is a violation; True when none failed."""
    failed = [(name, value, bound) for name, hyp, value, bound in checks
              if hyp and not value <= bound]
    for name, value, bound in failed:
        report.add_violation(f"{label}: {name} violated ({value:.6e} > {bound:.6e})")
    return not failed


_REPORT_TOLERANCES = {
    "newton_tol": pm.NEWTON_TOL,
    "certify_rtol": _CERT_RTOL,
    "certify_atol": _CERT_ATOL,
    "calibrated_c_hat": p2.CALIBRATED_C_HAT,
}


def _failed(report: RunReport, row: dict, prefix: str, exc: RinglabError) -> RunReport:
    """A failed row and its violation."""
    row["failed"] = True
    row["error"] = str(exc)
    report.add_row(row)
    report.add_violation(f"{prefix}{exc}")
    return report


#: the most samples (rows times grid nodes) one batch of sweep points holds.
#: Beyond it the per-call overhead is already amortised, and a larger batch
#: only adds memory: four rows of a 20 001-node grid would add about 10 MiB
#: to the peak RSS.  Across batches the carry (:class:`_Carry`) adds one
#: padded grid, one tail, one LCG stream and the last row of each term and
#: sign that a whole batch shared: about 1 MiB on a 20 001-node grid.
_BATCH_SAMPLES = 2**15


def _batches(points: list):
    """(start, stop) of each run of consecutive points with equal observation
    setups, at most _BATCH_SAMPLES samples each."""
    start = 0
    while start < len(points):
        setup = points[start].setup
        stop = start + 1
        cap = max(1, _BATCH_SAMPLES // (setup.n_samples + 1))
        while stop < len(points) and stop - start < cap and points[stop].setup == setup:
            stop += 1
        yield start, stop
        start = stop


def _run_batch(cfgs: list, setup: sm.ObservationSetup, carry: _Carry, signs=(+1, -1)) -> list:
    """Each config's sectors on ``setup``, one batch per sign.

    Per config: {sign: SectorResult}, or the RinglabError that ended it.
    The +1 sector runs first, and a scenario whose +1 sector failed runs no
    -1 sector, as when it runs alone.  The scene grid and the tail, which
    no sweep varies (the grid's padding neither), come from ``carry`` for
    every config and both signs.
    """
    t = carry.grid(setup, cfgs[0].fd_pad)
    scns = [_scenario(cfg, setup, t, carry) for cfg in cfgs]
    tail = carry.tail(cfgs[0].tail, t)
    outcome: list = [{} for _ in cfgs]
    for sign in signs:
        live = [i for i, sectors in enumerate(outcome) if isinstance(sectors, dict)]
        results = _run_sectors(sign, [scns[i] for i in live], setup, tail, carry)
        for i, sec in zip(live, results):
            if isinstance(sec, SectorResult):
                outcome[i][sign] = sec
            else:
                outcome[i] = sec
    return outcome


def _data_keys(cfg: ScenarioConfig) -> tuple:
    """The observables the inversion reads."""
    return ("U", "V", "W") if cfg["inversion"]["mode"] == "3p" else ("U", "V")


def _estimate(cfg: ScenarioConfig, sectors: dict) -> dict:
    """The observables of a scenario's two extracted frequencies."""
    return pm.observables(sectors[+1].result.omega_hat, sectors[-1].result.omega_hat,
                          cfg.model.ell, cfg.model.n)


def _run_points(cfgs: list) -> list:
    """Each config's scenario up to the bias ledger: its sectors, run in
    batches (:func:`_batches`), and under "estimate" and "inversion" its
    observables and the result of their inversion or the InversionError that
    ends it; or the RinglabError that ended its sectors.

    Every scenario whose sectors succeeded is inverted in one
    :func:`paramap.invert_rows` call: its arrays are (rows, 2 or 3), so the
    sample bound of a batch does not concern it.  The configs share the
    lattice map and the inversion mode, which no sweep varies, so the first
    one stands for all of them there.
    """
    outcome: list = []
    carry = _Carry()
    for start, stop in _batches(cfgs):
        outcome += _run_batch(cfgs[start:stop], cfgs[start].setup, carry)
    live = [i for i, sectors in enumerate(outcome) if isinstance(sectors, dict)]
    if live:
        keys = _data_keys(cfgs[0])
        estimates = [_estimate(cfgs[i], outcome[i]) for i in live]
        targets = np.array([[est[k] for k in keys] for est in estimates])
        inverted = pm.invert_rows(cfgs[0].model, targets, [cfgs[i].guess for i in live],
                                  [cfgs[i].box for i in live])
        for i, est, inv in zip(live, estimates, inverted):
            outcome[i].update(estimate=est, inversion=inv)
    return outcome


def _bias_ledger(cfg: ScenarioConfig, point: dict) -> tuple:
    """A scenario's data-error, inversion and bias-bound columns, in report
    order, and its certified inequalities, from its :func:`_run_points` entry."""
    model, setup, inv = cfg.model, cfg.setup, point["inversion"]
    three = cfg["inversion"]["mode"] == "3p"
    sp, sm_ = point[+1], point[-1]
    truth = pm.observables(sp.omega_true, sm_.omega_true, model.ell, model.n)
    data_err = float(np.linalg.norm([point["estimate"][k] - truth[k] for k in _data_keys(cfg)]))
    data_bound = pm.data_map_error_bound(sp.result.omega_hat - sp.omega_true,
                                         sm_.result.omega_hat - sm_.omega_true, model.ell,
                                         n=model.n if three else None)
    consts, p_hat = cfg.consts, inv["point"]
    param_err = float(np.linalg.norm(p_hat.as_array(three) - cfg.p_true.as_array(three)))
    eps_budget_pair = (sp.eps_budget["eps_bound"], sm_.eps_budget["eps_bound"])
    bound_omega = (sp.result.bound_omega, sm_.result.bound_omega)
    bound_omega_budget = [ex.omega_bound(e, e, abs(sec.z_true), setup.delta)  # e bounds eps0, eps1
                          for e, sec in zip(eps_budget_pair, (sp, sm_))]
    b2 = pm.bias_bound_2p(consts["C_star"], *bound_omega, model.ell)
    b2_budget = pm.bias_bound_2p(consts["C_star"], *bound_omega_budget, model.ell)
    # the bias bounds cover the data error only: a pole offset moves the true
    # frequencies off the lattice data map by a term that none of them bounds
    on_lattice = cfg["lattice"]["pole_offset"] == 0
    hyp = sp.result.hypotheses_ok.eps_small and sm_.result.hypotheses_ok.eps_small and on_lattice
    hyp_budget = (all(map(ex.eps_small, eps_budget_pair, (sp.z_true, sm_.z_true)))
                  and on_lattice and not _fd_window(cfg))
    columns = {
        "data_err": data_err, "data_bound": data_bound,
        "M_hat": p_hat.m, "a_hat": p_hat.a, "Lambda_hat": p_hat.lam,
        "param_err": param_err,
        "newton_iterations": inv["iterations"],
        "c_star": consts["c_star"], "C_star": consts["C_star"],
        "bias_bound_2p": b2, "bias_bound_2p_budget": b2_budget,
        "hyp_bias": hyp, "hyp_bias_budget": hyp_budget,
        # the 2p bounds cover an inversion with Lambda known: a 3p inversion
        # passes the damping channel's error, which has no 1/ell, into M
        "hyp_inversion_2p": not three,
    }
    records = [_record("data-map bound", True, data_err, data_bound),
               _record("2p bias bound", hyp and not three, param_err, b2),
               _record("budget bias bound", hyp_budget and not three, param_err, b2_budget)]
    if three:
        columns["bias_bound_3p"] = pm.bias_bound_2p(consts["C_star"], *bound_omega,
                                                    model.ell, model.n)
        records.append(_record("3p bias bound", hyp, param_err, columns["bias_bound_3p"]))
    return columns, records


def _scenario_rows(report: RunReport, cfgs: list, tags: list) -> RunReport:
    """The scenario table: row i is config i run by one :func:`_run_points`
    call over all of them, its truth and setup, each sector's columns and the
    bias ledger (or ``failed`` and ``error``), then ``tags[i]``.  Its records
    are certified in order: plus sector, minus sector, then the scenario's."""
    for i, (cfg, point, tag) in enumerate(zip(cfgs, _run_points(cfgs), tags)):
        model, p_true, setup, label = cfg.model, cfg.p_true, cfg.setup, f"scenario {i}"
        row: dict = {"scenario": i, "ell": model.ell,
                     "T0": setup.t0, "T": setup.t_len, "Delta": setup.delta,
                     "dt": setup.dt, "M_true": p_true.m, "a_true": p_true.a,
                     "Lambda_true": p_true.lam}
        failure, checks = point, []
        if isinstance(point, dict):
            for sign, side in ((+1, "plus"), (-1, "minus")):
                columns, records = _sector_ledger(point[sign], cfg)
                row.update({f"{k}_{side}": v for k, v in columns.items()})
                checks.append((f"{label} {side}", records))
            failure = point["inversion"]
        if isinstance(failure, RinglabError):
            _failed(report, row, f"{label}: ", failure)
        else:
            columns, records = _bias_ledger(cfg, point)
            row.update(columns)
            for name, recs in checks + [(label, records)]:
                _certify(report, name, recs)
            report.add_row(row)
        report.rows[-1].update(tag)
    return report


def run_pipeline(cfg: ScenarioConfig) -> RunReport:
    """End-to-end scenario: the scenario table of one row."""
    report = RunReport(metadata={"subcommand": "pipeline", **_REPORT_TOLERANCES})
    return _scenario_rows(report, [cfg], [{}])


def run_sweep(cfg: ScenarioConfig) -> RunReport:
    """The scenario table of the sweep's points (``cfg.points``), in order,
    each row tagged with the axis and its value.

    Consecutive points on equal observation setups (every point of an ell,
    separation or noise_amp sweep) synthesise and extract their sectors as
    the rows of one batch, and all points invert their data in one call;
    each point's row and violations are those it gives alone.
    """
    axis, values = cfg["sweep"]["axis"], cfg["sweep"]["values"]
    if axis is None or not values:
        raise ConfigError("sweep requires an axis and a nonempty value list")
    report = RunReport(metadata={"subcommand": "sweep", "axis": axis, **_REPORT_TOLERANCES})
    return _scenario_rows(report, cfg.points,
                          [{"sweep_axis": axis, "sweep_value": float(v)} for v in values])


# ---------------------------------------------------------------------------
# focused subcommand drivers
# ---------------------------------------------------------------------------

def run_extract(cfg: ScenarioConfig) -> RunReport:
    """One-sector extraction only: signal, Rayleigh quotient, bounds."""
    report = RunReport(metadata={"subcommand": "extract", **_REPORT_TOLERANCES})
    sectors = _run_batch([cfg], cfg.setup, _Carry(), signs=(+1,))[0]
    if isinstance(sectors, RinglabError):
        return _failed(report, {}, "", sectors)
    sec = sectors[+1]
    ledger, records = _sector_ledger(sec, cfg)
    report.add_row({"omega_true": sec.omega_true, "z_true": sec.z_true, **ledger})
    _certify(report, "extract", records)
    return report


def run_prony(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(metadata={"subcommand": "prony", **_REPORT_TOLERANCES})
    sec = cfg["prony"]
    a, z = sec["amps"], sec["nodes"]
    if not (sec["samples"] or a and z):
        raise ConfigError("prony needs either 'samples' or 'amps' + 'nodes'")
    try:  # every input comes from the config
        res = p2.prony4(*(sec["samples"] or [a[0] * z[0] ** j + a[1] * z[1] ** j
                                             for j in range(4)]))
        cond = p2.conditioning_report(a[0], a[1], z[0], z[1], float(sec["eta"])) if a and z else {}
    except (StructureError, ArithmeticError) as exc:
        raise ConfigError(f"prony input: {exc}") from None
    row = {"s1": res.s1, "s2": res.s2, "z1": res.z1, "z2": res.z2,
           "delta0": res.delta0, "confluent": res.confluent,
           "residual": res.residual}
    if res.confluent:
        row["b0"], row["b1"] = res.b0, res.b1
    if cond:
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
        dim, n_poles = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        dim = dim if sec["dim"] is None else sec["dim"]
        n_poles = n_poles if sec["n_poles"] is None else sec["n_poles"]
        resolvent = mt.random_rational_resolvent(rng, dim=dim, n_poles=n_poles,
                                                 max_order=sec["max_order"])
        forcing = mt.ForcingSpec(
            k=sec["forcing_k"], payload=rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        out = mt.band_subtract(resolvent, forcing, None, nu1, nu2, sec["times"])
        for t, mismatch, tail in zip(sec["times"], out["mismatch"],
                                     out["truncation_estimate"]):
            ok = _certify(report, f"model {idx}, t={t}",
                          [("band isolation", True, float(mismatch), tol)])
            report.add_row({
                "model": idx, "t": float(t), "dim": dim,
                "n_poles": len(resolvent.poles),
                "n_in_strip": len(resolvent.poles_in_strip(-nu2, -nu1)),
                "mismatch": float(mismatch), "tol": tol,
                "sigma_max": out["sigma_max"],
                "truncation_estimate": float(tail),
                # a hypothesis flag, not a check: ok reads only the mismatch
                "hyp_truncation": bool(tail < tol), "ok": ok,
            })
    return report


def run_pseudospectrum(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(metadata={"subcommand": "pseudospectrum", **_REPORT_TOLERANCES})
    sec = cfg["pseudospectrum"]
    poles = tuple(sec["poles"])
    model = mt.PseudospectrumModel(
        poles=poles, e_plus=float(sec["e_plus"]), e_minus=float(sec["e_minus"]),
        hol_bound=float(sec["hol_bound"]))
    re_grid = np.linspace(*cfg.re_range, sec["grid_n"])
    im_grid = np.linspace(*cfg.im_range, sec["grid_n"])
    for i, eps in enumerate(sec["eps"]):
        scan = mt.pseudospectrum_scan(model, re_grid, im_grid, float(eps))
        holds = _certify(report, f"pseudospectrum eps={eps}",
                         [("inclusion", True, scan["violations"], 0)])
        report.add_row({
            "eps": float(eps), "n_flagged": scan["n_flagged"],
            "violations": scan["violations"], "radius": scan["radius"],
            "inclusion_holds": holds, "grid_spacing": scan["spacing"],
        })
        flagged = np.argwhere(scan["mask"])
        rows = [(re_grid[j], im_grid[i2]) for i2, j in flagged]
        report.plotdata[f"pseudospectrum_eps{i}"] = (["re", "im"], rows)
    return report


def run_window_check(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(metadata={"subcommand": "window-check", **_REPORT_TOLERANCES})
    sec = cfg["window_check"]
    gpoly = cfg.check_window
    nodes, target = gpoly.nodes, gpoly.target
    for j, node in enumerate(nodes.nodes):
        want = 1.0 if j == target else 0.0
        dev = abs(complex(gpoly(node)) - want)
        ok = _certify(report, f"window-check node {j}", [("identity", True, dev, 1e-12)])
        report.add_row({"check": "identity", "node": j, "deviation": dev,
                        "tol": 1e-12, "ok": ok})
    rng = np.random.default_rng(sec["seed"])
    n_draws = sec["n_draws"]
    delta_scale = float(sec["delta_scale"])
    d_sharp = nodes.min_sep
    draws = []
    for k in range(n_draws):
        delta = delta_scale * d_sharp * rng.random()
        pert = [z + delta * np.exp(2j * np.pi * rng.random())
                for z in nodes.nodes]
        rob = aw.interp_robustness(nodes, pert, m=target)
        dev = max([rob["dev_target"], *rob["dev_off"]])
        draws.append((f"draw {k}", rob["hypothesis_ok"], dev, rob["bound"]))
    ok = _certify(report, "window-check robustness", draws)
    worst = max([0.0] + [dev / bound for _, hyp, dev, bound in draws if hyp and bound > 0])
    report.add_row({"check": "robustness", "n_draws": n_draws,
                    "worst_ratio_to_bound": worst, "ok": ok})
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
