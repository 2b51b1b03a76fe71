"""Deterministic one-mode frequency extraction with certified error bounds.

The chain is: shift Rayleigh quotient z_hat -> logarithm branch selected by
a frequency prior -> omega_hat, together with the relative residual sizes
eps0, eps1 and the explicit stability constants that bound |z_hat - z| and
|omega_hat - omega|.

All certified inequalities are exact statements about one inner product
space: the discrete trapezoid-weighted product on the sampling grid,
sum_k q_k f_k conj(g_k) with the setup's one quadrature vector q (dt x
trapezoid end-halves x taper), in which z_hat and the residual sizes eps0,
eps1 are all measured.  Because the shift step is an exact multiple of dt,
a pure mode is an exact shift eigenvector of that product, so the bounds
hold without quadrature caveats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (BranchSelectionError, ConfigError, DegenerateSignalError,
                     HypothesisError, RinglabError)
from .signal_model import (Mode, ObservationSetup, SampledSignal,
                           mode_energy_lower_bound, mode_rows, shift,
                           weighted_inner, wnorm, TailSpec)


@dataclass(frozen=True)
class ExtractionConfig:
    """The setup, the frequency prior (one complex, or one per row of a
    batch) and the detectability floor of the reference amplitude."""

    setup: ObservationSetup
    prior: complex
    amp_floor: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.prior)):
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


def _rows(val) -> list:
    """A per-row reduction as a list of Python scalars (one for a 1-d input)."""
    return np.atleast_1d(val).tolist()


def _quotients(y: SampledSignal, setup: ObservationSetup) -> list:
    """Each row's shift Rayleigh quotient, or None where the row has no
    weighted energy.  The division is Python's complex one, row by row."""
    num = _rows(weighted_inner(shift(y, setup.delta), y, setup))
    den = _rows(weighted_inner(y, y, setup))
    return [n / d if math.isfinite(d.real) and d.real > 0.0 else None
            for n, d in zip(num, den)]


def rayleigh_quotient(y: SampledSignal, setup: ObservationSetup):
    """Shift Rayleigh quotient <S_delta y, y>_w / <y, y>_w, one per row of y
    (a complex for a 1-d y)."""
    z = _quotients(y, setup)
    if None in z:
        raise DegenerateSignalError("zero weighted energy: Rayleigh quotient undefined")
    return z[0] if y.values.ndim == 1 else np.array(z)


def _residual_norms(y0: SampledSignal, r: SampledSignal,
                    setup: ObservationSetup) -> tuple:
    """||y0||_w, ||r||_w and ||S_delta r||_w, each one per row."""
    return (wnorm(y0, setup), wnorm(r, setup),
            wnorm(shift(r, setup.delta), setup))


def residual_sizes(y0: SampledSignal, r: SampledSignal,
                   setup: ObservationSetup) -> dict:
    """Relative residual sizes eps0 = ||r||_w/||y0||_w, eps1 with r shifted.

    y0 is the sampled reference pure-exponential content; r is the residual
    signal on the same grid.  For (B, N) rows each size is a (B,) array.
    """
    n0, nr, nr1 = _residual_norms(y0, r, setup)
    if np.any(np.asarray(n0) <= 0.0):
        raise DegenerateSignalError("reference mode has zero weighted energy")
    eps0, eps1 = nr / n0, nr1 / n0
    eps = np.maximum(eps0, eps1) if np.ndim(eps0) else max(eps0, eps1)
    return {"eps0": eps0, "eps1": eps1, "eps": eps}


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


def eps_small(eps: float, z: complex) -> bool:
    """The hypothesis eps <= min(1/8, |z|/20) of the certified bounds."""
    return bool(eps <= min(0.125, abs(z) / 20.0))


def omega_bound(eps0: float, eps1: float, z_abs: float, delta: float) -> float:
    """Bound -log(1 - bound_z/|z|)/delta for |omega_hat - omega|, bound_z the
    sharp :func:`stability_bound`; inf where eps0 > 1/4 or bound_z >= |z|.

    Proof: the series of Log gives |Log w| <= -log(1 - |w - 1|) for |w - 1| < 1,
    and on the prior's branch (assumed by the crude 10 eps/(delta |z|) too)
    omega_hat - omega = (i/delta) Log(z_hat/z), |z_hat/z - 1| <= bound_z/|z|.
    eps_small gives bound_z <= 3 eps <= 3|z|/20, so the bound is at most
    (20/17) 3 eps/(delta |z|).  bound_z increases in eps0 and eps1 for eps0 <
    1/2, so a budget eps bounding both enters as eps0 = eps1 = eps."""
    bound_z = stability_bound(eps0, eps1) if eps0 <= 0.25 else math.inf
    if not bound_z < z_abs:
        return math.inf
    return -math.log1p(-bound_z / z_abs) / delta


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
            y0_reference: Optional[Sequence[Mode]] = None,
            y0: Optional[SampledSignal] = None):
    """Run the extraction chain; certify bounds when a reference is supplied.

    With y0_reference (the known synthetic mode content, a single mode for
    the certified one-mode bounds) the residual sizes are evaluated and the
    result carries bound_z = (eps0+eps1)(1+eps0)/(1-2 eps0) and
    bound_omega = :func:`omega_bound`, plus the hypothesis flags
    eps_small: eps <= min(1/8, |z|/20) and branch_hyp (the branch-selection
    hypotheses at the true z).  Without a reference both flags stay None:
    the hypotheses are about the true z, which is then unknown.  ``y0``, the
    reference's samples on the setup grid, spares their synthesis when the
    caller already has them.

    A (B, N) batch is B independent extractions in one pass: cfg.prior is
    one prior or one per row, y0_reference one mode per row and y0 their
    (B, N) samples.  It returns one entry per row, the ExtractionResult or
    the RinglabError that extracting that row alone raises.
    """
    rows = _extract_rows(y, cfg, y0_reference, y0)
    if y.values.ndim == 2:
        return rows
    if isinstance(rows[0], RinglabError):
        raise rows[0]
    return rows[0]


def _extract_rows(y: SampledSignal, cfg: ExtractionConfig,
                  y0_reference: Optional[Sequence[Mode]],
                  y0: Optional[SampledSignal]) -> list:
    """extract on every row; each step's checks run row by row in the
    order a single extraction raises them."""
    setup = cfg.setup
    priors = np.broadcast_to(np.asarray(cfg.prior, dtype=complex),
                             y.values.shape[:-1]).ravel().tolist()
    out: list = []
    for z_hat, prior in zip(_quotients(y, setup), priors):
        if z_hat is None:
            out.append(DegenerateSignalError(
                "zero weighted energy: Rayleigh quotient undefined"))
            continue
        try:
            omega_hat = branch_log(z_hat, prior, setup.delta)
        except BranchSelectionError as exc:
            out.append(exc)
            continue
        out.append(ExtractionResult(z_hat=z_hat, omega_hat=omega_hat))
    if y0_reference is None or not any(isinstance(res, ExtractionResult) for res in out):
        return out

    modes = list(y0_reference)
    if len(modes) != len(out):
        raise ConfigError("certified extraction requires a single reference mode per row")
    for i, mode in enumerate(modes):
        if (cfg.amp_floor and abs(mode.amp) < cfg.amp_floor
                and isinstance(out[i], ExtractionResult)):
            out[i] = DegenerateSignalError("reference amplitude below detectability floor")
    if y0 is None:
        vals = mode_rows(modes, setup.grid())
        y0 = SampledSignal(t_start=setup.t0, dt=setup.dt,
                           values=vals if y.values.ndim == 2 else vals[0])
    r = SampledSignal(t_start=y.t_start, dt=y.dt, values=y.values - y0.values)
    norms = zip(*map(_rows, _residual_norms(y0, r, setup)))
    for i, (mode, prior, (n0, nr, nr1)) in enumerate(zip(modes, priors, norms)):
        result = out[i]
        if not isinstance(result, ExtractionResult):
            continue
        if n0 <= 0.0:
            out[i] = DegenerateSignalError("reference mode has zero weighted energy")
            continue
        result.eps0, result.eps1 = nr / n0, nr1 / n0
        result.eps = max(result.eps0, result.eps1)
        z = np.exp(-1j * mode.freq * setup.delta)
        z_sharp = np.exp(-1j * prior * setup.delta)
        result.hypotheses_ok.eps_small = eps_small(result.eps, z)
        result.hypotheses_ok.branch_hyp = bool(
            abs(z - z_sharp) <= 0.25 * abs(z_sharp)
            and abs(result.z_hat - z) <= 0.5 * abs(z))
        result.bound_z = (stability_bound(result.eps0, result.eps1)
                          if result.eps0 <= 0.25 else np.inf)
        result.bound_omega = omega_bound(result.eps0, result.eps1, abs(z), setup.delta)
    return out


#: the detector and data norms in the tail bound: a scalar scene observes the signal itself
DETECTOR_NORM = DATA_NORM = 1.0


def epsilon_budget(amp: complex, freq: complex, tail: TailSpec, noise_l2: float,
                   setup: ObservationSetup) -> dict:
    """A-priori bounds on eps from the tail envelope and a noise L2 budget.

    eps_tail_bound = envelope(t0) * DETECTOR_NORM * DATA_NORM * sqrt(T)
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
    if not denom > 0:
        raise DegenerateSignalError("plateau energy lower bound underflows to 0")
    envelope_t0 = (tail.c_tail * np.exp(-tail.nu * setup.t0)
                   * (1.0 + setup.t0) ** (-tail.m) + tail.leak)
    eps_tail = (envelope_t0 * DETECTOR_NORM * DATA_NORM
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
