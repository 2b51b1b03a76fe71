"""Deterministic one-mode frequency extraction with certified error bounds.

The chain is: shift Rayleigh quotient z_hat -> logarithm branch selected by
a frequency prior -> omega_hat, together with the relative residual sizes
eps0, eps1 and the explicit stability constants that bound |z_hat - z| and
|omega_hat - omega|.

All certified inequalities are exact statements about one inner product
space: the discrete trapezoid-weighted product on the sampling grid, in
which z_hat and the residual sizes eps0, eps1 are all measured.  Because
the shift step is an exact multiple of dt, a pure mode is an exact shift
eigenvector of that product, so the bounds hold without quadrature caveats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (BranchSelectionError, ConfigError, DegenerateSignalError,
                     HypothesisError)
from .signal_model import (Mode, ObservationSetup, SampledSignal,
                           mode_energy_lower_bound, sample_scene, shift,
                           weighted_inner, wnorm, ZERO_NOISE, ZERO_TAIL,
                           TailSpec)


@dataclass(frozen=True)
class ExtractionConfig:
    setup: ObservationSetup
    prior: complex
    amp_floor: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.prior):
            raise ConfigError("prior frequency must be finite")
        if self.amp_floor < 0:
            raise ConfigError("amp_floor must be nonnegative")


@dataclass
class HypothesisFlags:
    eps_small: Optional[bool] = None
    branch_hyp: Optional[bool] = None


@dataclass
class ExtractionResult:
    z_hat: complex
    omega_hat: complex
    eps0: float = np.nan
    eps1: float = np.nan
    eps: float = np.nan
    bound_z: float = np.nan
    bound_omega: float = np.nan
    hypotheses_ok: HypothesisFlags = field(default_factory=HypothesisFlags)


def rayleigh_quotient(y: SampledSignal, setup: ObservationSetup) -> complex:
    """Shift Rayleigh quotient <S_delta y, y>_w / <y, y>_w."""
    num = weighted_inner(shift(y, setup.delta), y, setup)
    den = weighted_inner(y, y, setup)
    if not np.isfinite(den.real) or den.real <= 0.0:
        raise DegenerateSignalError("zero weighted energy: Rayleigh quotient undefined")
    return num / den


def residual_sizes(y0: SampledSignal, r: SampledSignal,
                   setup: ObservationSetup) -> dict:
    """Relative residual sizes eps0 = ||r||_w/||y0||_w, eps1 with r shifted.

    y0 is the sampled reference pure-exponential content; r is the residual
    signal on the same grid.
    """
    n0 = wnorm(y0, setup)
    if n0 <= 0.0:
        raise DegenerateSignalError("reference mode has zero weighted energy")
    eps0 = wnorm(r, setup) / n0
    eps1 = wnorm(shift(r, setup.delta), setup) / n0
    return {"eps0": eps0, "eps1": eps1, "eps": max(eps0, eps1)}


def stability_bound(eps0: float, eps1: float) -> float:
    """Sharp bound (eps0+eps1)(1+eps0)/(1-2 eps0) for |z_hat - z|; needs eps0 <= 1/4."""
    if eps0 > 0.25:
        raise HypothesisError("stability bound requires eps0 <= 1/4")
    return (eps0 + eps1) * (1.0 + eps0) / (1.0 - 2.0 * eps0)


def stability_bound_crude(eps: float) -> float:
    """Crude companion 3*eps, valid for eps <= 1/8."""
    if eps > 0.125:
        raise HypothesisError("crude stability bound requires eps <= 1/8")
    return 3.0 * eps


def log_lip_bound(z: complex, z_hat: complex) -> float:
    """Logarithm Lipschitz bound (2/|z|)|z_hat - z|, valid for |z_hat - z| <= |z|/2."""
    dz = abs(z_hat - z)
    if dz > 0.5 * abs(z):
        raise HypothesisError("log Lipschitz bound requires |z_hat - z| <= |z|/2")
    return 2.0 * dz / abs(z)


def branch_log(z_hat: complex, prior: complex, delta: float) -> complex:
    """Frequency from the shift eigenvalue, branch selected by the prior.

    omega_hat = (i/delta) * (Log(z_hat / z_prior) - i * prior * delta) with
    z_prior = exp(-i * prior * delta) and Log the principal branch; requires
    the ratio to stay in the disk |zeta - 1| <= 5/8, which keeps it off the
    principal cut.  By construction exp(-i * omega_hat * delta) = z_hat.
    """
    z_sharp = np.exp(-1j * prior * delta)
    ratio = z_hat / z_sharp
    if abs(ratio - 1.0) > 0.625:
        raise BranchSelectionError(
            f"|z_hat/z_prior - 1| = {abs(ratio - 1.0):.3g} > 5/8: prior too far")
    return (1j / delta) * (np.log(ratio) - 1j * prior * delta)


def extract(y: SampledSignal, cfg: ExtractionConfig,
            y0_reference: Optional[Sequence[Mode]] = None) -> ExtractionResult:
    """Run the extraction chain; certify bounds when a reference is supplied.

    With y0_reference (the known synthetic mode content, a single mode for
    the certified one-mode bounds) the residual sizes are evaluated and the
    result carries bound_z = (eps0+eps1)(1+eps0)/(1-2 eps0) and
    bound_omega = (10/(delta |z|)) eps, plus the hypothesis flags
    eps_small: eps <= min(1/8, |z|/20) and branch_hyp (the branch-selection
    hypotheses at the true z).  Without a reference both flags stay None:
    the hypotheses are about the true z, which is then unknown.
    """
    setup = cfg.setup
    z_hat = rayleigh_quotient(y, setup)
    omega_hat = branch_log(z_hat, cfg.prior, setup.delta)
    result = ExtractionResult(z_hat=z_hat, omega_hat=omega_hat)

    if y0_reference is not None:
        modes = list(y0_reference)
        if len(modes) != 1:
            raise ConfigError("certified extraction requires a single reference mode")
        mode = modes[0]
        if cfg.amp_floor and abs(mode.amp) < cfg.amp_floor:
            raise DegenerateSignalError("reference amplitude below detectability floor")
        y0 = sample_scene(modes, ZERO_TAIL, ZERO_NOISE, setup)
        r_vals = y.values - y0.values
        r = SampledSignal(t_start=y.t_start, dt=y.dt, values=r_vals)
        sizes = residual_sizes(y0, r, setup)
        result.eps0, result.eps1 = sizes["eps0"], sizes["eps1"]
        result.eps = sizes["eps"]
        z = np.exp(-1j * mode.freq * setup.delta)
        z_sharp = np.exp(-1j * cfg.prior * setup.delta)
        result.bound_omega = 10.0 * result.eps / (setup.delta * abs(z))
        result.hypotheses_ok.eps_small = bool(
            result.eps <= min(0.125, abs(z) / 20.0))
        result.hypotheses_ok.branch_hyp = bool(
            abs(z - z_sharp) <= 0.25 * abs(z_sharp)
            and abs(z_hat - z) <= 0.5 * abs(z))
        result.bound_z = (stability_bound(result.eps0, result.eps1)
                          if result.eps0 <= 0.25 else np.inf)
    return result


def epsilon_budget(amp: complex, freq: complex, tail: TailSpec, noise_l2: float,
                   setup: ObservationSetup, detector_norm: float = 1.0,
                   data_norm: float = 1.0) -> dict:
    """A-priori bounds on eps from the tail envelope and a noise L2 budget.

    eps_tail_bound = envelope(t0) * detector_norm * data_norm * sqrt(T)
    divided by the plateau energy lower bound for the reference mode;
    eps_meas_bound = noise_l2 / (same denominator); eps_bound is the sum.
    The envelope is nonincreasing, so envelope(t0)*sqrt(T) dominates the
    tail's L2 norm over the window, which in turn dominates both weighted
    residual norms.
    """
    if freq.imag >= 0:
        raise DegenerateSignalError("epsilon budget needs a damped mode (Im omega < 0)")
    if setup.t_len <= 3 * setup.delta:
        raise ConfigError("epsilon budget needs t_len > 3*delta")
    energy_sq = mode_energy_lower_bound(amp, freq, setup)
    denom = float(np.sqrt(energy_sq))
    envelope_t0 = (tail.c_tail * np.exp(-tail.nu * setup.t0)
                   * (1.0 + setup.t0) ** (-tail.m) + tail.leak)
    eps_tail = (envelope_t0 * detector_norm * data_norm
                * np.sqrt(setup.t_len) / denom)
    eps_meas = noise_l2 / denom
    return {"eps_tail_bound": float(eps_tail), "eps_meas_bound": float(eps_meas),
            "eps_bound": float(eps_tail + eps_meas)}


def disk_check(omega_hat: complex, prior: complex, c_sep: float,
               eps: Optional[float] = None, delta: Optional[float] = None,
               z_abs: Optional[float] = None) -> dict:
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
