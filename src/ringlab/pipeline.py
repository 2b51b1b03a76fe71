"""Configuration-driven experiment runner.

One scenario is: build the two one-mode sector signals from the lattice at
the true parameters, add tail and noise, optionally apply the analytic
window (modal or finite-difference path), extract both frequencies with the
shift Rayleigh quotient, form the estimated observables, invert the data
map, and emit the full error-versus-bound ledger.  Every subcommand is one
table held as columns: ``pipeline``, ``extract`` and ``prony`` have one row,
``sweep`` a row per point, ``band-isolate`` a row per (model, time),
``pseudospectrum`` a row per eps and ``window-check`` a row per node, then
its robustness row.  A driver hands its table's certified inequalities to
one function in one call, as (name, hypothesis, value, bound) records, and
builds its rows in one call; a violation with its hypothesis holding marks
the run as failed (CLI exit code 1).  Every scenario row runs every stage,
and a row that fails reports the first error its point raises alone.  Each
sector's scene (true frequency, reference amplitude, prior, contaminants) is
one set of columns over the table; consecutive points on one observation
setup synthesise and extract their sectors as the rows of one array; each
run of equal setups is one eps-budget call; every point's data are inverted
in one damped-Newton pass; and the ledgers, the checks and the report rows
are computed once per column, the rows built once at the end.  Each row is
bit for bit what its point gives alone: the columns use only elementwise
kernels that round as the scalar code did (|z| is hypot, never numpy's
complex abs; Python's complex division and libm's log1p and pow stay scalar
calls, row by row).  What no point of a run of equal setups varies is built
once, before its batches: the scene grid, the tail on it, the unscaled LCG
stream of its seed, which every noise amplitude scales, and each mode row
that every point of the run holds (a noise_amp sweep synthesises its
references, tail and stream once).  A row that only the points of one batch
share is synthesised once for that batch.

Inside a scenario every norm is taken in the discrete trapezoid-weighted
inner product on the sampling grid, the bilinear form sum_k q_k f_k conj(g_k)
whose weights the setup folds into one quadrature vector q.  The shift acts
exactly on the grid, so the stability lemmas hold verbatim for the discrete
quantities; the a-priori budget bounds are continuum envelopes and are
checked against the discrete residual sizes for soundness.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import CALIBRATED_C_HAT
from . import analytic_window as aw
from . import extractor as ex
from . import paramap as pm
from . import signal_model as sm
from .config import ScenarioConfig
from .errors import ConfigError, StructureError
from .report import RunReport


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

#: the columns each batch's extraction gives a sector
_EXTRACTION_COLUMNS = ("z_hat", "omega_hat", "eps0", "eps1", "z", "z_prior")


def _modes(freq: np.ndarray, amp: np.ndarray) -> list:
    """One Mode per row of the frequency and amplitude columns."""
    return [sm.Mode(freq=f, amp=a) for f, a in zip(freq.tolist(), amp.tolist())]


def _sector_scene(sign: int, cfgs: list) -> dict:
    """One sector of every config of a table, up to its samples, as columns:
    the true frequency, the reference amplitude (the target's times its
    window gain), the prior, and per contaminant in the sector its
    (frequency, amplitude) columns, windowed on the modal path ("amp" is the
    column of the target's own amplitude).  The configs share the sections
    no sweep varies (modes, window, the damping and kappa of the map), so the
    first stands for all there; ell and the true point are read per row.  A
    window, which moves with ell, is evaluated row by row."""
    cfg = cfgs[0]
    win, model = cfg["window"], cfg.model
    offset = cfg["lattice"]["pole_offset"]
    m, a, lam = np.array([(c.p_true.m, c.p_true.a, c.p_true.lam) for c in cfgs], dtype=float).T
    ell = np.array([c.model.ell for c in cfgs])
    held = [c for c in cfg["modes"]["contaminants"] if c["sign"] in (None, sign)]
    prior, *poles = pm.pseudopole_rows(model, [model.n, *(c["j"] for c in held)],
                                       sign, m, a, lam, ell)
    omega_true = prior + offset
    amp = cfg["modes"]["amp_plus" if sign > 0 else "amp_minus"]
    n = len(cfgs)
    freqs = [omega_true, *(pole + offset for pole in poles)]
    amps = [np.full(n, a_, dtype=complex) for a_ in (amp, *(c["amp"] for c in held))]
    amp_ref = amps[0] * (1.0 + 0.0j)
    if win["enabled"]:  # a window moves with ell, so it acts row by row
        gpolys = [c.windows[sign] for c in cfgs]
        amp_ref = np.array([amp * complex(g(f)) for g, f in zip(gpolys, omega_true.tolist())])
        if win["path"] == "modal":  # the target's windowed amplitude is amp_ref
            scenes = zip(*(_modes(f, a_) for f, a_ in zip(freqs, amps)))
            windowed = [aw.apply_window_modal(modes, g) for modes, g in zip(scenes, gpolys)]
            amps = [np.array([mode.amp for mode in term]) for term in zip(*windowed)]
    # 0 by default, which leaves the prior's bits: no part of it is a signed zero
    prior = prior + cfg["extraction"]["prior_offset"]
    return {"omega_true": omega_true, "amp_ref": amp_ref, "prior": prior,
            "amp": np.full(n, amp, dtype=complex), "contaminants": list(zip(freqs[1:], amps[1:]))}


def _shared_row(freq: np.ndarray, amp: np.ndarray, t: np.ndarray) -> Optional[np.ndarray]:
    """The one row that the (B,) columns freq and amp synthesise on t, not to
    be written to, if every row has one (freq, amp); else None.  Equal values
    that differ in the sign of a zero part give equal rows, since mode_rows
    adds 0.0j last."""
    if (freq != freq[0]).any() or (amp != amp[0]).any():
        return None
    row = sm.mode_rows(_modes(freq[:1], amp[:1]), t)
    row.flags.writeable = False
    return row


def _term_rows(freq: np.ndarray, amp: np.ndarray, t: np.ndarray, row: Optional[np.ndarray],
               modes: Optional[list] = None) -> np.ndarray:
    """``signal_model.mode_rows`` of the (B,) columns freq and amp on t, not to
    be written to: ``row`` (the row of every point of their run) or, if None,
    the row every point of the batch holds, repeated (a batch of one uses the
    row itself); else every row in one call, from ``modes`` if given (the
    columns' Modes)."""
    row = _shared_row(freq, amp, t) if row is None else row
    if row is None:
        return sm.mode_rows(modes or _modes(freq, amp), t)
    return row if len(freq) == 1 else np.repeat(row, len(freq), axis=0)


def _sector_terms(sec: dict, run: slice, grid: np.ndarray, t: np.ndarray, fd: bool) -> list:
    """(frequency column, amplitude column, grid, shared row) of each term that
    one sector synthesises over the run ``run`` of the table: the reference
    and each contaminant on the setup's ``grid``, then on the fd path the
    unwindowed target and each contaminant on the padded scene grid ``t``.
    The shared row is the one every point of the run holds
    (:func:`_shared_row`), or None."""
    terms = [(sec["omega_true"], sec["amp_ref"], grid),
             *((freq, amp, grid) for freq, amp in sec["contaminants"])]
    if fd:
        terms += [(sec["omega_true"], sec["amp"], t),
                  *((freq, amp, t) for freq, amp in sec["contaminants"])]
    return [(freq, amp, g, _shared_row(freq[run], amp[run], g)) for freq, amp, g in terms]


def _run_sectors(sign: int, sec: dict, rows: slice, cfgs: list, terms: list, t: np.ndarray,
                 tail: Optional[np.ndarray], noise: list, noise_l2: np.ndarray) -> tuple:
    """One sector of the points ``cfgs`` of a batch, rows ``rows`` of the
    table, whose scene columns are ``sec`` and whose terms are ``terms``
    (:func:`_sector_terms`): their :class:`extractor.Extraction` and the norm
    of their known terms (noise and contaminants, which the eps budget
    bounds).  ``t`` is the scene grid, on which ``tail`` (None if zero) and
    each point's ``noise`` samples (None if zero; ``noise_l2`` their norms)
    were sampled; both signs add them.

    The rows are synthesised as one (B, N) array and extracted in one call;
    every row comes out bit for bit as it would alone.  A term whose row
    every point of the run or of the batch holds is synthesised once
    (:func:`_term_rows`), so a noise_amp sweep synthesises its references
    once per sign.  Off the fd path the scene is built from the reference
    and contaminant rows that extract subtracts and the budget bounds.
    """
    cfg, setup = cfgs[0], cfgs[0].setup
    fd, k = _fd_window(cfg), 1 + len(sec["contaminants"])
    ecfg = ex.ExtractionConfig(setup=setup, prior=sec["prior"][rows],
                               amp_floor=cfg["extraction"]["amp_floor"])
    freq, amp, grid, shared = terms[0]
    refs = _modes(freq[rows], amp[rows])
    y0 = _term_rows(freq[rows], amp[rows], grid, shared, refs)
    others = [_term_rows(freq[rows], amp[rows], g, row) for freq, amp, g, row in terms[1:k]]
    if fd:  # the fd window filters the unwindowed target's scene on the padded grid
        scene = (_term_rows(freq[rows], amp[rows], g, row) for freq, amp, g, row in terms[k:])
    else:  # elsewhere the target term is the reference
        scene = iter([y0, *others])
    values = next(scene).copy()
    for term in scene:
        values += term
    if tail is not None:
        values += tail
    for row, samples in zip(values, noise):
        if samples is not None:
            row += samples
    y = sm.SampledSignal(t_start=float(t[0]), dt=setup.dt, values=values)
    if fd:  # each row through its own point's window: the pseudopoles move with ell
        filtered = [aw.apply_window_fd(sm.SampledSignal(y.t_start, y.dt, row),
                                       point.windows[sign], cfg["window"]["stencil_order"])
                    for row, point in zip(values, cfgs)]
        y = sm.SampledSignal(filtered[0].t_start, y.dt, np.stack([f.values for f in filtered]))
    res = ex.extract(y, ecfg, y0_reference=refs,
                     y0=sm.SampledSignal(t_start=setup.t0, dt=setup.dt, values=y0))
    # the contaminants are known exactly: their norm joins the noise budget
    # (triangle inequality)
    known = noise_l2
    if others:
        known = known + sm.residual_l2(sm.SampledSignal(
            t_start=setup.t0, dt=setup.dt, values=sum(others[1:], others[0])), setup)
    return res, known


#: relative and absolute rounding floor of a scenario's checks.  It assumes
#: the quantities are O(1), which fails at large ell: phases |omega| t of about
#: 1e4 round to more than 1e-13 (ROADMAP item 14)
_CERT_RTOL, _CERT_ATOL = 1e-12, 1e-13


def _record(name: str, hyp, value, bound) -> tuple:
    """A scenario's certified inequality, its bound raised by the rounding
    floor: floats, or one column per row."""
    return (name, hyp, value, bound * (1.0 + _CERT_RTOL) + _CERT_ATOL)


def _fd_window(cfg: ScenarioConfig) -> bool:
    """Whether the scene is windowed on the fd path.  The eps budget bounds
    the tail, the noise and the contaminants, not an fd window's stencil
    error, so every check that reads the budget has a hypothesis that fails
    there."""
    return cfg["window"]["enabled"] and cfg["window"]["path"] == "fd"


def _sector_ledger(sec: dict, cfg: ScenarioConfig) -> tuple:
    """One sector's error-versus-bound columns over a table, in report
    order, and its certified inequalities as column records."""
    led = {
        "z_hat": sec["z_hat"], "omega_hat": sec["omega_hat"],
        "omega_true": sec["omega_true"],
        "omega_err": sm._abs(sec["omega_hat"] - sec["omega_true"]),
        "z_err": sm._abs(sec["z_hat"] - sec["z_true"]),
        "eps0": sec["eps0"], "eps1": sec["eps1"], "eps": sec["eps"],
        "eps_budget": sec["eps_bound"],
        "bound_z": sec["bound_z"], "bound_z_crude": ex.stability_bound_crude(sec["eps"]),
        "bound_omega": sec["bound_omega"],
        "hyp_eps_small": sec["eps_small"],
        "hyp_branch": sec["branch_hyp"],
    }
    hyp = led["hyp_eps_small"]
    return led, [_record("z_stability", hyp, led["z_err"], led["bound_z_crude"]),
                 _record("z_stability_sharp", hyp, led["z_err"], led["bound_z"]),
                 _record("omega_error", hyp, led["omega_err"], led["bound_omega"]),
                 _record("budget_soundness", not _fd_window(cfg), led["eps"],
                         led["eps_budget"])]


def _certify(report: RunReport, checks: list, failed: Optional[dict] = None) -> list:
    """Decide each (name, hypothesis, value, bound) record: it fails where its
    hypothesis holds and not value <= bound, so a NaN never certifies.

    ``checks`` holds (labels, records) groups over one table: labels has one
    label per row, and a record's entries are scalars or one column per row,
    each decided as a column over the table.  Row by row, then group by group
    and record by record, each failure is the violation "label: name violated
    (value > bound)".  ``failed`` maps a row that a RinglabError ended to its
    (prefix, error): it certifies nothing, and its violation is "prefix
    error", in its turn.  No row is touched.  Returns per row whether
    nothing failed."""
    failed = failed or {}
    n = len(checks[0][0])
    decided = [[np.broadcast_to(np.logical_and(hyp, np.logical_not(np.less_equal(value, bound))), n)
                for _, hyp, value, bound in records] for _, records in checks]
    bad = np.zeros(n, dtype=bool)
    for fail in (f for group in decided for f in group):
        bad |= fail
    bad[list(failed)] = True
    for i in np.flatnonzero(bad).tolist():
        if i in failed:
            prefix, exc = failed[i]
            report.add_violation(f"{prefix}{exc}")
            continue
        for (labels, records), group in zip(checks, decided):
            for (name, _, value, bound), fail in zip(records, group):
                if fail[i]:
                    value, bound = (np.broadcast_to(v, n)[i] for v in (value, bound))
                    report.add_violation(
                        f"{labels[i]}: {name} violated ({value:.6e} > {bound:.6e})")
    return (~bad).tolist()


_REPORT_TOLERANCES = {
    "newton_tol": pm.NEWTON_TOL,
    "certify_rtol": _CERT_RTOL,
    "certify_atol": _CERT_ATOL,
    "calibrated_c_hat": CALIBRATED_C_HAT,
}


#: the most samples (rows times grid nodes) one batch of sweep points holds.
#: Beyond it the per-call overhead is already amortised, and a larger batch
#: only adds memory: four rows of a 20 001-node grid would add about 10 MiB
#: to the peak RSS.  A batch holds its scene rows and reference rows whole;
#: its extraction adds only run buffers of at most 8 192 terms per row
#: (signal_model._DOT_RUN), whatever the grid's length.  Its run of equal
#: setups adds one padded grid, one tail, one LCG stream and, per term and
#: sign, the row that every point of the run holds: about 1 MiB on a
#: 20 001-node grid.
_BATCH_SAMPLES = 2**15


def _setup_runs(points: list):
    """(start, stop) of each run of consecutive points with equal observation
    setups."""
    start = 0
    for stop in range(1, len(points) + 1):
        if stop == len(points) or points[stop].setup != points[start].setup:
            yield start, stop
            start = stop


def _data_keys(cfg: ScenarioConfig) -> tuple:
    """The observables the inversion reads."""
    return ("U", "V", "W") if cfg["inversion"]["mode"] == "3p" else ("U", "V")


def _estimate(cfgs: list, table: dict) -> dict:
    """The observables of each scenario's two extracted frequencies, as columns."""
    return pm.observables(table[+1]["omega_hat"], table[-1]["omega_hat"],
                          table["ell"], cfgs[0].model.n)


def _run_points(cfgs: list, signs=(+1, -1)) -> dict:
    """The scenario table of the configs up to its ledgers, as columns: per
    sign its sector columns (the scene, the extraction, "known", "z_true"
    and the budget's "eps_bound"), "ell", and "errors", per config None or
    the RinglabError that ended it.  With both signs, "estimate" holds the
    observables of each scenario, "inversion" is their
    :class:`paramap.Inversion` and "live" lists the scenarios whose sectors
    succeeded; an InversionError ends its row.

    Every row runs every stage.  Each sector's scene is one set of columns
    over the table.  Each run of equal setups (:func:`_setup_runs`) first
    builds what none of its points varies: the scene grid (padded on the fd
    path), the tail and the unscaled LCG stream on it, which no sweep varies
    within a run, and per sign the rows that all its points hold
    (:func:`_sector_terms`).  Its points are then synthesised and extracted
    in batches of at most _BATCH_SAMPLES samples, both signs of a batch in
    turn, and its eps budget is one call over the rows of every sign.  A row
    keeps the first error a lone scenario raises: its +1 extraction, its +1
    budget, its -1 extraction, its -1 budget, its inversion; what its later
    stages compute is not reported.  All scenarios are inverted in one
    :func:`paramap.invert_rows` call: its arrays are (rows, 2 or 3), so the
    sample bound of a batch does not concern it.  The configs share the
    lattice map and the inversion mode, which no sweep varies, so the first
    one stands for all of them there.
    """
    n = len(cfgs)
    table: dict = {"ell": np.array([cfg.model.ell for cfg in cfgs])}
    for sign in signs:
        table[sign] = _sector_scene(sign, cfgs)
    parts = {sign: [] for sign in signs}  # each batch's (extraction, known norms)
    eps_bound = np.full((len(signs), n), np.nan)
    errors = [None] * n
    for start, stop in _setup_runs(cfgs):
        # what no point of the run varies, built once
        first = cfgs[start]
        setup, pad = first.setup, first.fd_pad
        t = setup.grid() if not pad else (max(setup.t0 - pad * setup.dt, 0.0) + setup.dt
                                          * np.arange(setup.n_samples + 1 + 2 * pad))
        tail = None if first.tail.is_zero else first.tail.eval(t)
        lcg = None if first.noise.lcg_seed is None else first.noise.lcg_unit(t)
        terms = {sign: _sector_terms(table[sign], slice(start, stop), setup.grid(), t,
                                     _fd_window(first)) for sign in signs}
        run = {sign: [] for sign in signs}
        cap = max(1, _BATCH_SAMPLES // (setup.n_samples + 1))
        for lo in range(start, stop, cap):
            rows = slice(lo, min(lo + cap, stop))
            samples = [None if cfg.noise.is_zero else cfg.noise.eval(t, lcg) for cfg in cfgs[rows]]
            noise_l2 = np.array([0.0 if s is None else sm.residual_l2(
                sm.SampledSignal(t_start=float(t[0]), dt=setup.dt, values=s), setup)
                for s in samples])
            for sign in signs:
                run[sign].append(_run_sectors(sign, table[sign], rows, cfgs[rows], terms[sign],
                                              t, tail, samples, noise_l2))
        # one eps budget over the run's rows of every sign; each row keeps
        # its first error, in stage order
        budget = ex.epsilon_budget(
            *(np.concatenate([table[sign][key][start:stop] for sign in signs])
              for key in ("amp_ref", "omega_true")),
            first.tail, np.concatenate([known for sign in signs for _, known in run[sign]]), setup)
        eps_bound[:, start:stop] = budget["eps_bound"].reshape(len(signs), -1)
        found = iter(budget["errors"])
        for sign in signs:
            extracted = (exc for res, _ in run[sign] for exc in res.errors)
            for i, ext_exc, exc in zip(range(start, stop), extracted, found):
                errors[i] = errors[i] or ext_exc or exc
            parts[sign] += run[sign]
    delta = np.array([cfg.setup.delta for cfg in cfgs])
    for sign, col in zip(signs, eps_bound):
        sec = table[sign]
        # the certified columns of every batch's extraction, derived once
        joined = ex.Extraction(
            errors=[exc for res, _ in parts[sign] for exc in res.errors], delta=delta,
            **{key: np.concatenate([getattr(res, key) for res, _ in parts[sign]])
               for key in _EXTRACTION_COLUMNS})
        sec.update({key: getattr(joined, key) for key in (
            *_EXTRACTION_COLUMNS, "eps", "bound_z", "bound_omega", "eps_small", "branch_hyp")})
        sec["known"] = np.concatenate([known for _, known in parts[sign]])
        sec["z_true"] = np.exp(-1j * sec["omega_true"] * delta)
        sec["eps_bound"] = col
    table["errors"] = errors
    if len(signs) == 1:
        return table
    table["estimate"] = est = _estimate(cfgs, table)
    table["live"] = [i for i, exc in enumerate(errors) if exc is None]
    table["inversion"] = inv = pm.invert_rows(
        cfgs[0].model, np.column_stack([est[k] for k in _data_keys(cfgs[0])]),
        [cfg.guess for cfg in cfgs], [cfg.box for cfg in cfgs])
    table["errors"] = [exc or inv_exc for exc, inv_exc in zip(errors, inv.errors)]
    return table


def _bias_ledger(cfgs: list, table: dict) -> tuple:
    """The scenarios' data-error, inversion and bias-bound columns, in report
    order, and their certified inequalities as column records, from their
    :func:`_run_points` table."""
    cfg = cfgs[0]
    model, inv, ell = cfg.model, table["inversion"], table["ell"]
    three = cfg["inversion"]["mode"] == "3p"
    keys, d = _data_keys(cfg), 3 if three else 2
    sp, sm_ = table[+1], table[-1]
    delta = np.array([c.setup.delta for c in cfgs])
    p_true = np.array([(c.p_true.m, c.p_true.a, c.p_true.lam) for c in cfgs])
    consts = [c.consts for c in cfgs]
    c_star = np.array([k["C_star"] for k in consts])
    truth = pm.observables(sp["omega_true"], sm_["omega_true"], ell, model.n)
    data_err = pm._row_norms(np.column_stack([table["estimate"][k] - truth[k] for k in keys]))
    data_bound = pm.data_map_error_bound(sm._abs(sp["omega_hat"] - sp["omega_true"]),
                                         sm._abs(sm_["omega_hat"] - sm_["omega_true"]), ell,
                                         n=model.n if three else None)
    param_err = pm._row_norms(np.column_stack([inv.m, inv.a, inv.lam][:d]) - p_true[:, :d])
    bound_omega = (sp["bound_omega"], sm_["bound_omega"])
    # each budget eps bounds eps0 and eps1; rows plus, minus
    budget_eps, z_true = (np.array([sp[key], sm_[key]]) for key in ("eps_bound", "z_true"))
    bound_omega_budget = ex.omega_bound(budget_eps, budget_eps, sm._abs(z_true), delta)
    b2 = pm.bias_bound_2p(c_star, *bound_omega, ell)
    b2_budget = pm.bias_bound_2p(c_star, *bound_omega_budget, ell)
    # the bias bounds cover the data error only: a pole offset moves the true
    # frequencies off the lattice data map by a term that none of them bounds
    on_lattice = cfg["lattice"]["pole_offset"] == 0
    hyp = sp["eps_small"] & sm_["eps_small"] & on_lattice
    hyp_budget = ex.eps_small(budget_eps, z_true).all(axis=0) & (on_lattice and not _fd_window(cfg))
    columns = {
        "data_err": data_err, "data_bound": data_bound,
        "M_hat": inv.m, "a_hat": inv.a, "Lambda_hat": inv.lam,
        "param_err": param_err,
        "newton_iterations": inv.iterations,
        "c_star": np.array([k["c_star"] for k in consts]), "C_star": c_star,
        "bias_bound_2p": b2, "bias_bound_2p_budget": b2_budget,
        "hyp_bias": hyp, "hyp_bias_budget": hyp_budget,
        # the 2p bounds cover an inversion with Lambda known: a 3p inversion
        # passes the damping channel's error, which has no 1/ell, into M
        "hyp_inversion_2p": np.full(len(cfgs), not three),
    }
    records = [_record("data-map bound", True, data_err, data_bound),
               _record("2p bias bound", hyp & (not three), param_err, b2),
               _record("budget bias bound", hyp_budget & (not three), param_err, b2_budget)]
    if three:
        columns["bias_bound_3p"] = pm.bias_bound_2p(c_star, *bound_omega, ell, model.n)
        records.append(_record("3p bias bound", hyp, param_err, columns["bias_bound_3p"]))
    return columns, records


def _scenario_rows(report: RunReport, cfgs: list, tags: dict) -> RunReport:
    """The scenario table: row i is config i, run by one :func:`_run_points`
    call over all of them: its truth and setup, each sector's columns and the
    bias ledger (or ``failed`` and ``error``), then the ``tags`` columns.
    Its records are certified row by row: plus sector, minus sector, then
    the scenario's, and the rows are built after, in one
    :meth:`RunReport.add_rows` call."""
    table = _run_points(cfgs)
    labels = [f"scenario {i}" for i in range(len(cfgs))]
    base = {"scenario": list(range(len(cfgs))), "ell": table["ell"],
            **{key: [getattr(c.setup, attr) for c in cfgs] for key, attr in
               (("T0", "t0"), ("T", "t_len"), ("Delta", "delta"), ("dt", "dt"))},
            **{key: [getattr(c.p_true, attr) for c in cfgs] for key, attr in
               (("M_true", "m"), ("a_true", "a"), ("Lambda_true", "lam"))}}
    blocks, checks = [base], []
    for sign, side in ((+1, "plus"), (-1, "minus")):
        columns, records = _sector_ledger(table[sign], cfgs[0])
        blocks.append({f"{k}_{side}": v for k, v in columns.items()})
        checks.append(([f"{label} {side}" for label in labels], records))
    columns, records = _bias_ledger(cfgs, table)
    blocks.append(columns)
    checks.append((labels, records))
    errors, live = table["errors"], set(table["live"])
    _certify(report, checks, {i: (f"{label}: ", exc) for i, (label, exc)
                              in enumerate(zip(labels, errors)) if exc is not None})
    report.add_rows(
        [*blocks, {"failed": [True] * len(cfgs), "error": list(map(str, errors))}, tags],
        [(0, 1, 2, 3, 5) if exc is None else (0, 1, 2, 4, 5) if i in live else (0, 4, 5)
         for i, exc in enumerate(errors)])
    return report


def run_pipeline(cfg: ScenarioConfig) -> RunReport:
    """End-to-end scenario: the scenario table of one row."""
    report = RunReport(metadata={"subcommand": "pipeline", **_REPORT_TOLERANCES})
    return _scenario_rows(report, [cfg], {})


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
    return _scenario_rows(report, cfg.points, {
        "sweep_axis": [axis] * len(values), "sweep_value": np.array(values, dtype=float)})


# ---------------------------------------------------------------------------
# focused subcommand drivers
# ---------------------------------------------------------------------------

def run_extract(cfg: ScenarioConfig) -> RunReport:
    """One-sector extraction only: signal, Rayleigh quotient, bounds; the
    one-row table of the +1 sector."""
    report = RunReport(metadata={"subcommand": "extract", **_REPORT_TOLERANCES})
    table = _run_points([cfg], signs=(+1,))
    sec, exc = table[+1], table["errors"][0]
    ledger, records = _sector_ledger(sec, cfg)
    _certify(report, [(["extract"], records)], {0: ("", exc)} if exc else None)
    report.add_rows([{"omega_true": sec["omega_true"], "z_true": sec["z_true"], **ledger},
                     {"failed": [True], "error": [str(exc)]}], [(1,) if exc else (0,)])
    return report


def run_prony(cfg: ScenarioConfig) -> RunReport:
    from . import prony2 as p2
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
    report.add_rows([{key: [value] for key, value in row.items()}])
    return report


def run_band_isolate(cfg: ScenarioConfig) -> RunReport:
    """One row per (model, time), model-major, certified and built as one table."""
    from . import merotoy as mt
    report = RunReport(metadata={"subcommand": "band-isolate", **_REPORT_TOLERANCES})
    sec = cfg["band_isolate"]
    nu1, nu2, tol, times = float(sec["nu1"]), float(sec["nu2"]), float(sec["tol"]), sec["times"]
    per_model, mismatch, tail = [], [], []  # per model: model, dim, n_poles, n_in_strip, sigma_max
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
        # each line's accepted panels estimate at most tol/4 and its tail under
        # tol/40, so 0.55 tol in all; the residue ring's error takes the rest
        out = mt.band_subtract(resolvent, forcing, None, nu1, nu2, times, tol=tol / 4)
        per_model.append((idx, dim, len(resolvent.poles),
                          len(resolvent.poles_in_strip(-nu2, -nu1)), out["sigma_max"]))
        mismatch += out["mismatch"].tolist()
        tail += out["truncation_estimate"].tolist()
    # the models' times joined, model-major: a per-model value once per time
    model, dim, n_poles, n_in_strip, sigma_max = (
        [m[k] for m in per_model for _ in times] for k in range(5))
    ok = _certify(report, [([f"model {idx}, t={t}" for idx, *_ in per_model for t in times],
                            [("band isolation", True, mismatch, tol)])])
    report.add_rows([{
        "model": model, "t": [float(t) for _ in per_model for t in times], "dim": dim,
        "n_poles": n_poles, "n_in_strip": n_in_strip, "mismatch": mismatch,
        "tol": [tol] * len(mismatch), "sigma_max": sigma_max, "truncation_estimate": tail,
        # a hypothesis flag, not a check: ok reads only the mismatch
        "hyp_truncation": [est < tol for est in tail], "ok": ok,
    }])
    return report


def run_pseudospectrum(cfg: ScenarioConfig) -> RunReport:
    """One row per eps, certified and built as one table."""
    from . import merotoy as mt
    report = RunReport(metadata={"subcommand": "pseudospectrum", **_REPORT_TOLERANCES})
    sec = cfg["pseudospectrum"]
    model = mt.PseudospectrumModel(
        poles=tuple(sec["poles"]), e_plus=float(sec["e_plus"]), e_minus=float(sec["e_minus"]),
        hol_bound=float(sec["hol_bound"]))
    re_grid = np.linspace(*cfg.re_range, sec["grid_n"])
    im_grid = np.linspace(*cfg.im_range, sec["grid_n"])
    scans = [mt.pseudospectrum_scan(model, re_grid, im_grid, float(eps)) for eps in sec["eps"]]
    for i, scan in enumerate(scans):
        report.plotdata[f"pseudospectrum_eps{i}"] = (
            ["re", "im"], [(re_grid[j], im_grid[i2]) for i2, j in np.argwhere(scan["mask"])])
    col = {key: [scan[key] for scan in scans] for key in ("n_flagged", "violations", "radius")}
    holds = _certify(report, [([f"pseudospectrum eps={eps}" for eps in sec["eps"]],
                               [("inclusion", True, col["violations"], 0)])])
    report.add_rows([{"eps": [float(eps) for eps in sec["eps"]], **col, "inclusion_holds": holds,
                      "grid_spacing": [scan["spacing"] for scan in scans]}])
    return report


def run_window_check(cfg: ScenarioConfig) -> RunReport:
    """One row per window node, then the robustness row: one table, certified
    and built once, each of whose records holds on its own rows only."""
    report = RunReport(metadata={"subcommand": "window-check", **_REPORT_TOLERANCES})
    sec = cfg["window_check"]
    gpoly = cfg.check_window
    nodes, target = gpoly.nodes, gpoly.target
    n = len(nodes.nodes)
    is_node = np.arange(n + 1) < n  # the node rows, then the robustness row
    # the robustness row's deviation cell is filler, which no row holds
    dev = [abs(complex(gpoly(node)) - (1.0 if j == target else 0.0))
           for j, node in enumerate(nodes.nodes)] + [0.0]
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
        draws.append((f"draw {k}", ~is_node & rob["hypothesis_ok"],
                      max([rob["dev_target"], *rob["dev_off"]]), rob["bound"]))
    labels = [f"window-check node {j}" for j in range(n)] + ["window-check robustness"]
    ok = _certify(report, [(labels, [("identity", is_node, dev, 1e-12), *draws])])
    worst = max([0.0] + [d / bound for _, hyp, d, bound in draws if hyp[n] and bound > 0])
    report.add_rows([{"check": ["identity"] * n + ["robustness"]},
                     {"node": [*range(n), None], "deviation": dev, "tol": [1e-12] * (n + 1)},
                     {"n_draws": [n_draws] * (n + 1), "worst_ratio_to_bound": [worst] * (n + 1)},
                     {"ok": ok}], [(0, 1, 3)] * n + [(0, 2, 3)])
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
