"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here, not tuned at run time.  Randomized checks
use fixed seeds; the continuum-level inequality checks run on closed-form
inner products so no quadrature slack enters the verdicts.
"""
import time

import numpy as np
import pytest
from conftest import (fit_decay_order, make_setup, random_mode,
                      random_residual_modes, rayleigh_exact, rayleigh_quotient,
                      residual_sizes, scaled_scene, weighted_inner_exact)

from ringlab import analytic_window as aw
from ringlab import extractor as ex
from ringlab import merotoy as mt
from ringlab import paramap as pm
from ringlab import prony2 as p2
from ringlab import signal_model as sm
from ringlab.config import ScenarioConfig
from ringlab.pipeline import run_pipeline, run_sweep


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Rayleigh stability
# ---------------------------------------------------------------------------

def test_criterion_01_rayleigh_stability():
    rng = np.random.default_rng(101)
    t_start = time.monotonic()
    violations = 0
    worst_ratio = 0.0
    for _ in range(1000):
        mode, residual, setup, eps0, eps1, eps = scaled_scene(
            rng, float(rng.uniform(0.0, 0.125)))
        z = np.exp(-1j * mode.freq * setup.delta)
        z_hat = rayleigh_exact(mode, residual, setup)
        err = abs(z_hat - z)
        sharp = ex.stability_bound(eps0, eps1)
        if err > 3.0 * eps * (1 + 1e-12) or err > sharp * (1 + 1e-12):
            violations += 1
        if eps > 0:
            worst_ratio = max(worst_ratio, err / (3.0 * eps))
    elapsed = time.monotonic() - t_start
    verdict(1, "rayleigh-stability", violations == 0 and elapsed < 30.0,
            f"(1000 scenes, 0 violations required, got {violations}; "
            f"worst err/(3 eps) = {worst_ratio:.3f}; {elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 2. Frequency extraction
# ---------------------------------------------------------------------------

def test_criterion_02_frequency_extraction():
    rng = np.random.default_rng(202)
    violations = 0
    worst_ratio = 0.0
    count = 0
    while count < 1000:
        mode, residual, setup, eps0, eps1, eps = scaled_scene(
            rng, float(rng.uniform(0.0, 0.125)))
        z = np.exp(-1j * mode.freq * setup.delta)
        cap = min(0.125, abs(z) / 20.0)
        if eps > cap:
            continue
        count += 1
        z_hat = rayleigh_exact(mode, residual, setup)
        omega_hat = ex.branch_log(z_hat, mode.freq, setup.delta)
        err = abs(omega_hat - mode.freq)
        bound = ex.omega_bound(eps0, eps1, abs(z), setup.delta)
        if err > bound * (1 + 1e-12):
            violations += 1
        if eps > 0:
            worst_ratio = max(worst_ratio, err / bound)
    verdict(2, "frequency-extraction", violations == 0,
            f"(1000 scenes with eps <= min(1/8, |z|/20); {violations} "
            f"violations; worst err/bound = {worst_ratio:.3f})")


# ---------------------------------------------------------------------------
# 3. Pure-mode exactness
# ---------------------------------------------------------------------------

def test_criterion_03_pure_mode_exactness():
    rng = np.random.default_rng(303)
    worst_closed = worst_trap = 0.0
    for _ in range(100):
        setup = make_setup(rng)
        mode = random_mode(rng)
        y = sm.sample_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        z = np.exp(-1j * mode.freq * setup.delta)
        worst_closed = max(worst_closed, abs(rayleigh_exact(mode, [], setup) - z))
        worst_trap = max(worst_trap, abs(rayleigh_quotient(y, setup) - z))
    # The shift acts exactly on the grid, so the trapezoid-path quotient is
    # exact on pure modes too (<= C dt^2 trivially).  The dt^2 convergence
    # of the trapezoid path is measured on its underlying quadrature: the
    # weighted energy with the rectangular taper (the raised-cosine taper
    # telescopes the dt^2 Euler-Maclaurin term and converges at order 4).
    mode = sm.Mode(freq=1.3 - 0.15j, amp=1.0)
    errs = []
    dts = (0.1, 0.05, 0.025, 0.0125)
    for dt in dts:
        setup = sm.ObservationSetup(t0=1.0, t_len=10.0, delta=1.0, dt=dt,
                                    taper="rectangular")
        y = sm.sample_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        exact = weighted_inner_exact([mode], [mode], setup)
        trap = sm.weighted_inner(y, y, setup)
        errs.append(abs(trap - exact))
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    ok = worst_closed <= 1e-10 and worst_trap <= 1e-10 and abs(order - 2.0) <= 0.3
    verdict(3, "pure-mode-exactness", ok,
            f"(closed-form worst {worst_closed:.2e} <= 1e-10; trapezoid-path "
            f"worst {worst_trap:.2e}; quadrature order {order:.2f} = 2 +/- 0.3)")


# ---------------------------------------------------------------------------
# 4. Hankel identity
# ---------------------------------------------------------------------------

def test_criterion_04_hankel_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(500):
        a1 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
        a2 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
        while True:
            z1 = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
            z2 = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
            if abs(z1 - z2) >= 0.1:
                break
        ys = [a1 * z1**j + a2 * z2**j for j in range(3)]
        want = a1 * a2 * (z1 - z2) ** 2
        worst = max(worst, abs(p2.hankel_det(*ys) - want) / abs(want))
    verdict(4, "hankel-identity", worst <= 1e-12,
            f"(500 samples, worst relative deviation {worst:.2e} <= 1e-12)")


# ---------------------------------------------------------------------------
# 5. Prony conditioning
# ---------------------------------------------------------------------------

def test_criterion_05_prony_conditioning():
    t_start = time.monotonic()
    probe = p2.separation_scaling_probe(separations=(0.4, 0.2, 0.1, 0.05),
                                        eta=1e-8, n_directions=64)
    slope_ok = -3.5 <= probe["slope"] <= -2.5
    rng = np.random.default_rng(505)
    exceed = 0
    for sep in (0.08, 0.15, 0.25, 0.35, 0.45):
        for m1 in (0.6, 1.1, 1.7):
            for m2 in (0.7, 1.3):
                a1 = m1 * np.exp(2j * np.pi * rng.random())
                a2 = m2 * np.exp(2j * np.pi * rng.random())
                z1, z2 = 0.7 + sep / 2, 0.7 - sep / 2
                err = p2.worst_case_root_error(a1, a2, z1, z2, 1e-8,
                                               n_directions=64,
                                               seed=int(1e4 * sep))
                if err > p2.CALIBRATED_C_HAT * 1e-8 / (abs(a1 * a2) * sep**3):
                    exceed += 1
    elapsed = time.monotonic() - t_start
    verdict(5, "prony-conditioning",
            slope_ok and exceed == 0 and elapsed < 60.0,
            f"(two-stage worst-case slope {probe['slope']:.2f} in [-3.5,-2.5]; "
            f"{exceed} exceedances of calibrated C={p2.CALIBRATED_C_HAT} on "
            f"the disjoint validation grid; {elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 6. Window identities and robustness
# ---------------------------------------------------------------------------

def test_criterion_06_window_identities():
    rng = np.random.default_rng(606)
    worst_id = 0.0
    violations = 0
    for n in (1, 2, 3):
        for _ in range(200):
            while True:
                vals = rng.uniform(-3, 3, n + 1) + 1j * rng.uniform(-3, 0, n + 1)
                nodes = aw.PseudopoleSet(tuple(vals))
                if nodes.min_sep >= 0.3:
                    break
            m = int(rng.integers(0, n + 1))
            g = aw.lagrange_weight(nodes, m)
            scale = max(1.0, float(np.abs(vals).max()))
            for j, node in enumerate(nodes.nodes):
                want = 1.0 if j == m else 0.0
                worst_id = max(worst_id, abs(g(node) - want) / scale)
            delta = rng.uniform(0.0, nodes.min_sep / 8.0)
            pert = [z + delta * np.exp(2j * np.pi * rng.random())
                    for z in nodes.nodes]
            rob = aw.interp_robustness(nodes, pert, m=m)
            devs = [rob["dev_target"]] + list(rob["dev_off"])
            if max(devs) > rob["bound"] + 1e-15:
                violations += 1
    verdict(6, "window-identities-robustness",
            worst_id <= 1e-12 and violations == 0,
            f"(node identities worst {worst_id:.2e} <= 1e-12; perturbed "
            f"deviations <= 4(5/3)^n delta/d_sharp, {violations} violations "
            f"over 600 draws, n in {{1,2,3}})")


# ---------------------------------------------------------------------------
# 7. FD window application
# ---------------------------------------------------------------------------

def test_criterion_07_fd_window_convergence():
    nodes = aw.PseudopoleSet((0.5 - 0.05j, 0.5 - 0.2j))
    w = aw.modified_window(nodes, target=1, m0=2)  # degree 3
    m1 = sm.Mode(freq=nodes.nodes[0], amp=0.8)
    m2 = sm.Mode(freq=nodes.nodes[1], amp=1.2)
    modal = aw.apply_window_modal([m1, m2], w)
    results = {}
    for order, dts in ((4, (0.4, 0.3, 0.2)), (8, (0.4, 0.3, 0.2))):
        errs = []
        for dt in dts:
            t = dt * np.arange(int(40 / dt))
            sig = sm.SampledSignal(t_start=0.0, dt=dt,
                                   values=m1.eval(t) + m2.eval(t))
            out = aw.apply_window_fd(sig, w, stencil_order=order)
            tm = out.grid()
            # fixed interior window: the trim boundary migrates with dt and
            # would otherwise contaminate the measured rate
            mask = (tm >= 3.0) & (tm <= 30.0)
            want = modal[0].eval(tm) + modal[1].eval(tm)
            errs.append(np.max(np.abs(out.values - want)[mask]))
        results[order] = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    ok = all(abs(results[o] - o) <= 0.5 for o in (4, 8))
    verdict(7, "fd-window-convergence", ok,
            f"(measured orders: {results[4]:.2f} vs 4, {results[8]:.2f} vs 8, "
            f"tolerance +/- 0.5)")


# ---------------------------------------------------------------------------
# 8. Band isolation
# ---------------------------------------------------------------------------

def test_criterion_08_band_isolation():
    t_start = time.monotonic()
    worst = 0.0
    failures = 0
    for idx in range(50):
        rng = np.random.default_rng(800 + idx)
        dim = int(rng.integers(1, 4))
        resolvent = mt.random_rational_resolvent(
            rng, dim=dim, n_poles=int(rng.integers(1, 6)), max_order=2)
        forcing = mt.ForcingSpec(k=6, payload=rng.standard_normal(dim)
                                 + 1j * rng.standard_normal(dim))
        out = mt.band_subtract(resolvent, forcing, None, 0.3, 2.3,
                               (1.0, 2.0, 5.0))
        worst = max(worst, float(out["mismatch"].max()))
        failures += int(np.count_nonzero(out["mismatch"] >= 1e-6))
    elapsed = time.monotonic() - t_start
    verdict(8, "band-isolation", failures == 0 and elapsed < 120.0,
            f"(50 models x t in {{1,2,5}}, worst mismatch {worst:.2e} < 1e-6; "
            f"{elapsed:.1f}s < 120s)")


# ---------------------------------------------------------------------------
# 9. Rank-one residue
# ---------------------------------------------------------------------------

def test_criterion_09_rank_one_residue():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        d = 4
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w0 = complex(rng.standard_normal(), rng.standard_normal())
        pencil = mt.MatrixPencil(
            p0=a @ np.diag([0.0, 1, 1, 1]) @ b,
            p1=rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
            center=w0)
        formula = mt.rank_one_residue(pencil, w0)["projector"]
        oracle = mt.cauchy_residue(lambda w: np.linalg.inv(pencil(w)), w0,
                                   radius=1e-3)
        worst = max(worst, float(np.linalg.norm(formula - oracle)))
    verdict(9, "rank-one-residue", worst <= 1e-8,
            f"(100 random 4x4 pencils, worst formula-vs-contour gap "
            f"{worst:.2e} <= 1e-8)")


# ---------------------------------------------------------------------------
# 10. Pseudospectrum inclusion
# ---------------------------------------------------------------------------

def test_criterion_10_pseudospectrum_inclusion():
    model = mt.PseudospectrumModel(poles=(0.0 - 1.0j, 1.0 - 1.0j),
                                   e_plus=1.0, e_minus=1.0, hol_bound=0.1)
    re_grid = np.linspace(-1.0, 2.0, 400)
    im_grid = np.linspace(-2.5, 0.5, 400)
    total_violations = 0
    flagged = []
    eps_values = (1e-1, 1e-2, 1e-3, 1e-4)
    for eps, scan in zip(eps_values, mt.pseudospectrum_scan(model, re_grid, im_grid, eps_values)):
        total_violations += scan["violations"]
        flagged.append(scan["n_flagged"])
        # zoomed, resolution-compliant grids keep the check non-vacuous
        for pole in model.poles:
            r = 3.0 * scan["radius"]
            zr = np.linspace(pole.real - r, pole.real + r, 400)
            zi = np.linspace(pole.imag - r, pole.imag + r, 400)
            [zoom] = mt.pseudospectrum_scan(model, zr, zi, [eps])
            assert zoom["spacing"] <= zoom["radius"]
            total_violations += zoom["violations"]
            assert zoom["n_flagged"] > 0
    verdict(10, "pseudospectrum-inclusion", total_violations == 0,
            f"(eps sweep 1e-1..1e-4 on 400x400 grids, flagged counts "
            f"{flagged}, excluded points outside disks: {total_violations})")


# ---------------------------------------------------------------------------
# 11. End-to-end bias
# ---------------------------------------------------------------------------

CANONICAL = {
    "lattice": {"M": 1.0, "a": 0.08, "Lambda": 0.02,
                "damping": {"kind": "constant", "value": 0.2}, "ell": 100},
    "tail": {"c": 1.0, "nu": 0.5, "m": 2},
    "observation": {"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.05},
    "inversion": {"mode": "2p", "box": {"M": [0.9, 1.1], "a": [0.0, 0.15]}},
}


def _trend_scene(ell, seed):
    rng = np.random.default_rng(seed)
    model = pm.default_lattice(kappa=0.3, lam_kind="constant", lam_value=0.2,
                               ell=ell)
    p = pm.ParameterPoint(m=rng.uniform(0.95, 1.05),
                          a=rng.uniform(0.05, 0.11), lam=0.02)
    setup = sm.ObservationSetup(t0=4.0, t_len=10.0, delta=1.0, dt=0.05)
    detune = rng.uniform(0.1, 0.5)
    omega_hat = {}
    for sign in (1, -1):
        w = pm.pseudopole(model, 0, sign, p)
        mode = sm.Mode(freq=w, amp=1.0)
        # harmonic pinned near the sector frequency: the residual projection
        # onto the mode, and hence eps, is held fixed across ell
        noise = sm.NoiseSpec(harmonics=((2e-3, w.real + detune, 0.7),))
        y = sm.sample_scene([mode], sm.ZERO_TAIL, noise, setup)
        cfg = ex.ExtractionConfig(setup=setup, prior=w)
        res = ex.extract(y, cfg, y0_reference=[mode])
        omega_hat[sign] = res.omega_hat[0]
    est = pm.observables(omega_hat[1], omega_hat[-1], ell, 0)
    guess = pm.ParameterPoint(m=p.m * 1.005, a=p.a * 1.005, lam=0.02)
    inv = pm.invert_data(model, {"U": est["U"], "V": est["V"]}, guess)
    return float(np.hypot(inv["point"].m - p.m, inv["point"].a - p.a))


def test_criterion_11_end_to_end_bias():
    report = run_pipeline(ScenarioConfig(raw=dict(CANONICAL)))
    violations = list(report.violations)
    for axis, values in (("T0", [2.0, 4.0, 8.0]), ("ell", [50, 100, 200])):
        doc = dict(CANONICAL)
        doc["sweep"] = {"axis": axis, "values": values}
        violations += run_sweep(ScenarioConfig(raw=doc)).violations
    ratios = [_trend_scene(200, 1100 + s) / _trend_scene(100, 1100 + s)
              for s in range(10)]
    med = float(np.median(ratios))
    verdict(11, "end-to-end-bias", not violations and med <= 0.7,
            f"(canonical + T0/ell sweeps: {len(violations)} certified "
            f"violations; 1/ell trend median ratio {med:.3f} <= 0.7)")


# ---------------------------------------------------------------------------
# 12. Tail / start-time law
# ---------------------------------------------------------------------------

def test_criterion_12_tail_start_time_law():
    mode_freq = 1.0 - 0.1j
    nu, m_poly = 0.5, 2
    rate_target = nu + mode_freq.imag  # 0.4: decay rate of eps_tail in T0
    fitted = {}
    for m_use in (m_poly, 0):
        tail = sm.TailSpec(c_tail=1.0, nu=nu, m=m_use)
        t0s = np.array([4.0, 6.0, 8.0, 10.0, 12.0])
        eps_vals = []
        for t0 in t0s:
            setup = sm.ObservationSetup(t0=float(t0), t_len=10.0, delta=1.0,
                                        dt=0.01)
            r = sm.sample_scene([], tail, sm.ZERO_NOISE, setup)
            sizes = residual_sizes(
                sm.sample_scene([sm.Mode(freq=mode_freq, amp=1.0)], sm.ZERO_TAIL,
                                sm.ZERO_NOISE, setup), r, setup)
            eps_vals.append(sizes["eps"])
        # compensate the known polynomial factor to expose the exponent
        comp = np.log(eps_vals) + m_use * np.log(1.0 + t0s)
        fitted[m_use] = -np.polyfit(t0s, comp, 1)[0]
    ok = all(abs(fitted[m] - rate_target) <= 0.1 * rate_target for m in fitted)
    verdict(12, "tail-start-time-law", ok,
            f"(fitted decay rates: canonical m=2 tail {fitted[m_poly]:.4f}, "
            f"pure-exponential tail {fitted[0]:.4f}, target {rate_target:.4f} "
            f"within 10%)")


# ---------------------------------------------------------------------------
# 13. Forcing decay
# ---------------------------------------------------------------------------

def test_criterion_13_forcing_decay():
    fitted = {}
    for k in (2, 4):
        f = mt.ForcingSpec(k=k, payload=np.array([1.0]))
        sigma = np.geomspace(10.0, 1000.0, 600)
        vals = np.abs(f.transform(sigma - 0.5j)[:, 0])
        fitted[k] = fit_decay_order(sigma, vals)
    ok = all(abs(fitted[k] - k) <= 1.0 for k in fitted)
    verdict(13, "forcing-decay", ok,
            f"(fitted decay orders k=2: {fitted[2]:.2f}, k=4: {fitted[4]:.2f}; "
            f"each within +/- 1 of k)")


# ---------------------------------------------------------------------------
# 14. Confluent fit
# ---------------------------------------------------------------------------

def test_criterion_14_confluent_fit():
    rng = np.random.default_rng(1414)
    worst = 0.0
    for _ in range(200):
        b0 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
        b1 = rng.uniform(0.0, 2) * np.exp(2j * np.pi * rng.random())
        z = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.random())
        ys = [(b0 + b1 * j) * z**j for j in range(4)]
        res = p2.confluent_fit(*ys)
        worst = max(worst, abs(res.z1 - z), abs(res.b0 - b0), abs(res.b1 - b1))
    comparisons = 0
    for sep in (8e-5, 5e-5, 1e-5):
        for amps in ((1.0, 1.0), (0.7, 1.3)):
            z1, z2 = 0.8 + sep / 2, 0.8 - sep / 2
            ys = [amps[0] * z1**j + amps[1] * z2**j for j in range(4)]
            two = p2.two_node_fit(*ys)
            conf = p2.confluent_fit(*ys)
            if conf.residual < two.residual:
                comparisons += 1
    verdict(14, "confluent-fit", worst <= 1e-8 and comparisons == 6,
            f"(200 exact confluent recoveries, worst deviation {worst:.2e} "
            f"<= 1e-8; confluent residual < two-node residual in "
            f"{comparisons}/6 near-coalescent cases)")
