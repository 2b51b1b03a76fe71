"""Shared scene builders and oracles for the test suite.

The library measures every weighted inner product with the trapezoid sum on
the sampling grid.  The oracle here is the continuum one: the closed-form
integral of w(t) e^{st} over the taper's support, which gives <f, g>_w
exactly when f and g are sums of pure exponentials.  Randomized scenes are
built entirely from pure exponentials (damped modes, exponential tails,
leak floors, harmonic perturbations), so the certified inequalities can be
checked at the continuum level with no quadrature slack, and the grid path
can be checked against the continuum.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest

from ringlab import analytic_window as aw
from ringlab import extractor as ex
from ringlab import paramap as pm
from ringlab import prony2 as p2
from ringlab import signal_model as sm
from ringlab.errors import ConfigError, DegenerateSignalError


def _exp_integral(s: complex, a: float, b: float) -> complex:
    """Exact integral of e^{s t} over [a, b], stable for small |s|*(b-a)."""
    x = s * (b - a)
    if abs(x) < 1e-4:
        # series for (e^x - 1)/x
        series = 1.0 + x / 2.0 + x * x / 6.0 + x * x * x / 24.0
        return (b - a) * np.exp(s * a) * series
    return (np.exp(s * b) - np.exp(s * a)) / s


def _weighted_exp_integral(s: complex, setup: sm.ObservationSetup) -> complex:
    """Exact integral of w(t) e^{s t} over the support of w."""
    lo = setup.t0
    p_lo = setup.t0 + setup.delta
    p_hi = setup.t0 + setup.t_len - 2 * setup.delta
    hi = setup.t0 + setup.t_len - setup.delta
    if p_hi < p_lo:  # empty plateau (t_len < 3*delta)
        if setup.taper == "rectangular":
            return 0.0 + 0.0j
        raise ConfigError("closed-form raised-cosine path requires t_len >= 3*delta")
    total = _exp_integral(s, p_lo, p_hi)
    if setup.taper == "rectangular":
        return total
    om = 1j * np.pi / setup.delta
    # left ramp: 1/2 - (1/4) e^{om (t-lo)} - (1/4) e^{-om (t-lo)}
    total += 0.5 * _exp_integral(s, lo, p_lo)
    total -= 0.25 * np.exp(-om * lo) * _exp_integral(s + om, lo, p_lo)
    total -= 0.25 * np.exp(om * lo) * _exp_integral(s - om, lo, p_lo)
    # right ramp: 1/2 + (1/4) e^{om (t-p_hi)} + (1/4) e^{-om (t-p_hi)}
    total += 0.5 * _exp_integral(s, p_hi, hi)
    total += 0.25 * np.exp(-om * p_hi) * _exp_integral(s + om, p_hi, hi)
    total += 0.25 * np.exp(om * p_hi) * _exp_integral(s - om, p_hi, hi)
    return total


def weighted_inner_exact(modes_f: Sequence[sm.Mode], modes_g: Sequence[sm.Mode],
                         setup: sm.ObservationSetup) -> complex:
    """Closed-form continuum <f, g>_w for pure-exponential mode sums."""
    total = 0.0 + 0.0j
    for mf in modes_f:
        for mg in modes_g:
            s = -1j * mf.freq + 1j * np.conj(mg.freq)
            total += mf.amp * np.conj(mg.amp) * _weighted_exp_integral(s, setup)
    return total


def shifted(modes: Sequence[sm.Mode], delta: float) -> list:
    """The mode list of S_delta f, (S_delta f)(t) = f(t + delta)."""
    return [sm.Mode(freq=m.freq, amp=m.amp * np.exp(-1j * m.freq * delta))
            for m in modes]


def make_setup(rng: np.random.Generator) -> sm.ObservationSetup:
    delta = float(rng.choice([0.5, 1.0]))
    n_delta = int(rng.integers(4, 13))  # T = n_delta * Delta > 3*Delta
    t0 = float(rng.uniform(0.0, 3.0))
    dt = delta / 10.0
    taper = str(rng.choice(["raised-cosine", "rectangular"]))
    return sm.ObservationSetup(t0=t0, t_len=n_delta * delta, delta=delta,
                               dt=dt, taper=taper)


def random_mode(rng: np.random.Generator) -> sm.Mode:
    omega = complex(rng.uniform(0.3, 3.0), -rng.uniform(0.02, 0.3))
    amp = float(rng.uniform(0.3, 2.0)) * np.exp(2j * np.pi * rng.random())
    return sm.Mode(freq=omega, amp=amp)


def random_residual_modes(rng: np.random.Generator) -> list:
    """Residual content as a mode list: exponential tail + leak + harmonics."""
    modes = [sm.Mode(freq=-1j * rng.uniform(0.05, 1.0), amp=rng.uniform(0.1, 1.0))]
    if rng.random() < 0.5:
        modes.append(sm.Mode(freq=0.0 + 0.0j, amp=rng.uniform(0.01, 0.2)))
    for _ in range(int(rng.integers(0, 3))):
        c, mu, phi = rng.uniform(0.05, 0.5), rng.uniform(0.0, 6.0), 2 * np.pi * rng.random()
        modes.append(sm.Mode(freq=-mu + 0.0j, amp=0.5 * c * np.exp(1j * phi)))
        modes.append(sm.Mode(freq=+mu + 0.0j, amp=0.5 * c * np.exp(-1j * phi)))
    return modes


def scaled_scene(rng: np.random.Generator, eps_target: float):
    """One-mode scene with residual rescaled to hit a target eps exactly.

    Returns (mode, residual_modes, setup, eps0, eps1, eps); all quantities
    evaluated with closed-form continuum inner products.
    """
    setup = make_setup(rng)
    mode = random_mode(rng)
    residual = random_residual_modes(rng)
    y0_sq = weighted_inner_exact([mode], [mode], setup).real
    if y0_sq <= 0:
        return scaled_scene(rng, eps_target)
    n0 = np.sqrt(y0_sq)
    r_sq = weighted_inner_exact(residual, residual, setup).real
    r_shift = shifted(residual, setup.delta)
    rs_sq = weighted_inner_exact(r_shift, r_shift, setup).real
    eps_now = max(np.sqrt(max(r_sq, 0.0)), np.sqrt(max(rs_sq, 0.0))) / n0
    if eps_now <= 0:
        return scaled_scene(rng, eps_target)
    scale = eps_target / eps_now
    residual = [sm.Mode(freq=m.freq, amp=m.amp * scale) for m in residual]
    eps0 = np.sqrt(max(r_sq, 0.0)) * scale / n0
    eps1 = np.sqrt(max(rs_sq, 0.0)) * scale / n0
    return mode, residual, setup, eps0, eps1, max(eps0, eps1)


def rayleigh_exact(mode: sm.Mode, residual_modes: list,
                   setup: sm.ObservationSetup) -> complex:
    """Closed-form shift Rayleigh quotient of the scene y = mode + residual."""
    y = [mode] + list(residual_modes)
    num = weighted_inner_exact(shifted(y, setup.delta), y, setup)
    den = weighted_inner_exact(y, y, setup)
    return num / den


def rayleigh_quotient(y: sm.SampledSignal, setup: sm.ObservationSetup):
    """Shift Rayleigh quotient <S_delta y, y>_w / <y, y>_w on the grid, one
    per row of y (a complex for a 1-d y): extract's quotients, a row without
    weighted energy an error."""
    z = ex._quotients(y, setup)
    if None in z:
        raise DegenerateSignalError("zero weighted energy: Rayleigh quotient undefined")
    return z[0] if y.values.ndim == 1 else np.array(z)


def residual_sizes(y0: sm.SampledSignal, r: sm.SampledSignal,
                   setup: sm.ObservationSetup) -> dict:
    """Relative residual sizes eps0 = ||r||_w/||y0||_w, eps1 with r shifted.

    y0 is the sampled reference pure-exponential content; r is the residual
    signal on the same grid, formed whole (extract forms it run by run).
    For (B, N) rows each size is a (B,) array.
    """
    n0 = sm.wnorm(y0, setup)
    nr, nr1 = sm.wnorm(r, setup), sm.wnorm(sm.shift(r, setup.delta), setup)
    if np.any(np.asarray(n0) <= 0.0):
        raise DegenerateSignalError("reference mode has zero weighted energy")
    eps0, eps1 = nr / n0, nr1 / n0
    eps = np.maximum(eps0, eps1) if np.ndim(eps0) else max(eps0, eps1)
    return {"eps0": eps0, "eps1": eps1, "eps": eps}


def disk_check(omega_hat: complex, prior: complex, c_sep: float,
               eps=None, delta=None, z_abs=None) -> dict:
    """Membership of omega_hat in the labeled disk of radius c_sep/2 at the prior.

    When eps (with delta and |z|) is supplied, also evaluates the sufficient
    residual condition eps <= (c_sep/40) * delta * |z| that guarantees disk
    membership whenever the true pole sits within c_sep/4 of the prior.
    """
    in_disk = bool(abs(omega_hat - prior) <= 0.5 * c_sep)
    out = {"in_disk": in_disk}
    if eps is not None:
        if delta is None or z_abs is None:
            raise ConfigError("sufficient condition needs delta and |z|")
        out["eps_sufficient"] = bool(eps <= (c_sep / 40.0) * delta * z_abs)
    return out


def mode_energy_lower_bound_crude(amp: complex, freq: complex,
                                  setup: sm.ObservationSetup) -> float:
    """Crude bound |a| e^{Im(omega) (t0+T-2 delta)} sqrt(T - 3 delta) for ||.||_w."""
    if setup.t_len <= 3 * setup.delta:
        raise ConfigError("crude energy bound needs t_len > 3*delta")
    b = setup.t0 + setup.t_len - 2 * setup.delta
    return float(abs(amp) * np.exp(freq.imag * b) * np.sqrt(setup.t_len - 3 * setup.delta))


def point_array(p: pm.ParameterPoint, three_param: bool) -> np.ndarray:
    """(M, a, Lambda) of a parameter point, or (M, a) in 2p."""
    if three_param:
        return np.array([p.m, p.a, p.lam])
    return np.array([p.m, p.a])


def point_from_array(x: np.ndarray, lam_fixed: Optional[float] = None) -> pm.ParameterPoint:
    """The parameter point of (M, a, Lambda), or of (M, a) with Lambda
    ``lam_fixed`` (0 if None)."""
    if len(x) == 3:
        return pm.ParameterPoint(m=float(x[0]), a=float(x[1]), lam=float(x[2]))
    return pm.ParameterPoint(m=float(x[0]), a=float(x[1]),
                             lam=0.0 if lam_fixed is None else lam_fixed)


def photon_sphere_frequency(m: float, lam: float = 0.0) -> float:
    """Coordinate-time orbital frequency sqrt(1 - 9 lam M^2) / (3 sqrt(3) M)."""
    if m <= 0:
        raise ConfigError("mass must be positive")
    x = 9.0 * lam * m**2
    if x >= 1.0:
        raise ConfigError("extremal or over-extremal: 9*lam*M^2 >= 1")
    return float(pm._photon_u(m, 1.0 - x))


def prior_mismatch(nodes_p: aw.PseudopoleSet, nodes_ptilde: aw.PseudopoleSet) -> dict:
    """Mismatch diagnostics between two pseudopole priors.

    delta = max nodewise distance, d_sharp from the second set, and their
    ratio, which gates the window-robustness assertions.
    """
    if len(nodes_p) != len(nodes_ptilde):
        raise ConfigError("node counts must match")
    delta = max(abs(a - b) for a, b in zip(nodes_p.nodes, nodes_ptilde.nodes))
    d_sharp = nodes_ptilde.min_sep
    return {"delta": delta, "d_sharp": d_sharp,
            "ratio": delta / d_sharp if np.isfinite(d_sharp) else 0.0}


#: amplitude moduli of calibrate_c_hat's reference grid
AMP_MODULI = (0.5, 1.0, 2.0)


def calibrate_c_hat(separations: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
                    eta: float = 1e-8, n_directions: int = 64, seed: int = 1) -> float:
    """Calibrate the conditioning constant on the coarse reference grid.

    Returns 2x the maximum observed ratio of worst-case root error to
    eta / (|a1 a2| |z1 - z2|^3) over the grid; |z| stays <= 1.
    """
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for sep in separations:
        for m1 in AMP_MODULI:
            for m2 in AMP_MODULI:
                a1 = m1 * np.exp(2j * np.pi * rng.random())
                a2 = m2 * np.exp(2j * np.pi * rng.random())
                z1 = p2.Z_CENTER + 0.5 * sep
                z2 = p2.Z_CENTER - 0.5 * sep
                err = p2.worst_case_root_error(a1, a2, z1, z2, eta,
                                               n_directions=n_directions,
                                               seed=seed)
                ratio = err / (eta / (abs(a1 * a2) * sep**3))
                worst_ratio = max(worst_ratio, ratio)
    return 2.0 * worst_ratio


def fit_decay_order(sigma: np.ndarray, vals: np.ndarray, n_bins: int = 10) -> float:
    """Fitted algebraic decay order of an oscillatory magnitude profile.

    Bins log-spaced points into octaves, takes the max per bin (the
    envelope, insensitive to the oscillation nulls), and returns minus the
    log-log slope of the envelope.
    """
    sigma = np.asarray(sigma, dtype=float)
    vals = np.asarray(vals, dtype=float)
    edges = np.geomspace(sigma[0], sigma[-1], n_bins + 1)
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (sigma >= lo) & (sigma <= hi)
        if not np.any(mask):
            continue
        idx = np.argmax(vals[mask])
        xs.append(sigma[mask][idx])
        ys.append(vals[mask][idx])
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return -float(slope)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
