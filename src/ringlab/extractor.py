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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import BranchSelectionError, ConfigError, DegenerateSignalError
from .signal_model import (Mode, ObservationSetup, SampledSignal, _abs,
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
class Extraction:
    """The extractions of a batch as (B,) columns, the one form of
    :func:`extract`'s result: the quotient z_hat, the frequency omega_hat
    and, with a reference, the residual sizes eps0 and eps1 and the shift
    eigenvalues z of the reference and z_prior of the prior, at shift step
    delta (a float or a column).  ``errors`` holds per row None or the
    RinglabError that extracting that row alone raises; such a row has NaN
    residual sizes.  The certified columns eps, bound_z, bound_omega and the
    flags eps_small and branch_hyp are derived from those on first use, so
    the columns of several batches, joined, derive them once.  Without a
    reference the residual sizes and bounds are NaN and both flags None."""

    z_hat: np.ndarray
    omega_hat: np.ndarray
    errors: list
    delta: float
    eps0: Optional[np.ndarray] = None
    eps1: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    z_prior: Optional[np.ndarray] = None

    def _certified(self, derive):
        """``derive()``, or NaN in every row without a reference."""
        if self.eps0 is None:
            return np.full(len(self.errors), np.nan)
        return derive()

    @cached_property
    def eps(self) -> np.ndarray:  # Python's max(eps0, eps1)
        return self._certified(lambda: np.where(self.eps1 > self.eps0, self.eps1, self.eps0))

    @cached_property
    def bound_z(self) -> np.ndarray:
        return self._certified(lambda: stability_bound(self.eps0, self.eps1))

    @cached_property
    def bound_omega(self) -> np.ndarray:
        return self._certified(lambda: _omega_rows(self.bound_z, _abs(self.z), self.delta))

    @cached_property
    def eps_small(self) -> Optional[np.ndarray]:
        return None if self.eps0 is None else eps_small(self.eps, self.z)

    @cached_property
    def branch_hyp(self) -> Optional[np.ndarray]:
        if self.eps0 is None:
            return None
        return ((_abs(self.z - self.z_prior) <= 0.25 * _abs(self.z_prior))
                & (_abs(self.z_hat - self.z) <= 0.5 * _abs(self.z)) & ~np.isnan(self.eps0))


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


def _residual_norms(y: SampledSignal, y0: SampledSignal,
                    setup: ObservationSetup) -> tuple:
    """||y0||_w, ||y - y0||_w and ||S_delta (y - y0)||_w, each one per row.
    The residual y - y0 is formed run by run inside the norms (at y's node
    indices, y0's samples aligned with y's), never as a whole array."""
    delta = setup.delta
    return (wnorm(y0, setup), wnorm(y, setup, minus=y0),
            wnorm(shift(y, delta), setup, minus=shift(y0, delta)))


def stability_bound(eps0, eps1):
    """Sharp bound (eps0+eps1)(1+eps0)/(1-2 eps0) for |z_hat - z|, which
    needs eps0 <= 1/4: inf where that fails (NaN too).  Floats, or columns
    for columns."""
    holds = np.less_equal(eps0, 0.25)
    e0 = np.where(holds, eps0, 0.0)  # the other rows divide by nothing near 0
    out = np.where(holds, (e0 + eps1) * (1.0 + e0) / (1.0 - 2.0 * e0), np.inf)
    return out if out.ndim else float(out)


def stability_bound_crude(eps):
    """Crude companion 3*eps of the sharp bound, a float or a column.  It
    holds for eps <= 1/8, which :func:`eps_small` implies; it is not checked
    here, as the hypothesis of the record that reads it."""
    return 3.0 * eps


def eps_small(eps, z):
    """The hypothesis eps <= min(1/8, |z|/20) of the certified bounds: a
    bool, or a bool column for columns."""
    z20 = _abs(np.asarray(z, dtype=complex)) / 20.0
    held = eps <= np.where(z20 < 0.125, z20, 0.125)  # Python's min(0.125, z20)
    return held if np.ndim(held) else bool(held)


def omega_bound(eps0, eps1, z_abs, delta):
    """Bound -log(1 - bound_z/|z|)/delta for |omega_hat - omega|, bound_z the
    sharp :func:`stability_bound`; inf where eps0 > 1/4 or bound_z >= |z|.
    Floats, or columns for columns; log1p is libm's, row by row.

    Proof: the series of Log gives |Log w| <= -log(1 - |w - 1|) for |w - 1| < 1,
    and on the prior's branch (assumed by the crude 10 eps/(delta |z|) too)
    omega_hat - omega = (i/delta) Log(z_hat/z), |z_hat/z - 1| <= bound_z/|z|.
    eps_small gives bound_z <= 3 eps <= 3|z|/20, so the bound is at most
    (20/17) 3 eps/(delta |z|).  bound_z increases in eps0 and eps1 for eps0 <
    1/2, so a budget eps bounding both enters as eps0 = eps1 = eps."""
    return _omega_rows(stability_bound(eps0, eps1), z_abs, delta)


def _omega_rows(bound_z, z_abs, delta):
    """:func:`omega_bound` of the sharp bounds ``bound_z``."""
    below = np.less(bound_z, z_abs)
    ratio = -np.where(below, bound_z, 0.0) / np.where(below, z_abs, 1.0)
    log = np.array([math.log1p(v) for v in np.ravel(ratio).tolist()]).reshape(below.shape)
    out = np.where(below, -log / delta, np.inf)
    return out if out.ndim else float(out)


def branch_log(z_hat: complex, prior: complex, delta: float) -> complex:
    """Frequency from the shift eigenvalue, branch selected by the prior.

    omega_hat = (i/delta) * (Log(z_hat / z_prior) - i * prior * delta) with
    z_prior = exp(-i * prior * delta) and Log the principal branch; requires
    the ratio to stay in the disk |zeta - 1| <= 5/8, which keeps it off the
    principal cut.  By construction exp(-i * omega_hat * delta) = z_hat.
    """
    omega, far, _ = _branch_rows(np.array([z_hat]), np.array([prior], dtype=complex), delta)
    if far[0] is not None:
        raise far[0]
    return omega[0]


def _branch_rows(z_hat: np.ndarray, prior: np.ndarray, delta: float) -> tuple:
    """:func:`branch_log` of each row: omega_hat, per row None or the
    BranchSelectionError that ends it, and z_prior."""
    z_sharp = np.exp(-1j * prior * delta)
    ratio = z_hat / z_sharp
    dist = _abs(ratio - 1.0)
    near = ~(dist > 0.625)
    # a row too far from its prior, or without a quotient (NaN), takes no log
    omega = (1j / delta) * (np.log(np.where(near, ratio, 1.0)) - 1j * prior * delta)
    far = [None if ok else BranchSelectionError(
        f"|z_hat/z_prior - 1| = {d:.3g} > 5/8: prior too far")
        for ok, d in zip(near.tolist(), dist.tolist())]
    return omega, far, z_sharp


def extract(y: SampledSignal, cfg: ExtractionConfig,
            y0_reference: Optional[Sequence[Mode]] = None,
            y0: Optional[SampledSignal] = None):
    """Run the extraction chain; certify bounds when a reference is supplied.

    With y0_reference (the known synthetic mode content, a single mode for
    the certified one-mode bounds) the residual sizes are evaluated and the
    result carries bound_z = (eps0+eps1)(1+eps0)/(1-2 eps0) and
    bound_omega = :func:`omega_bound`, plus the hypothesis flags
    eps_small: eps <= min(1/8, |z|/20) and branch_hyp (the branch-selection
    hypotheses at the true z); eps0 and eps1 are NaN in every row an error
    ends.  Without a reference both flags stay None: the hypotheses are
    about the true z, which is then unknown.  ``y0``, the
    reference's samples on the setup grid, spares their synthesis when the
    caller already has them.

    A (B, N) batch is B independent extractions in one pass: cfg.prior is
    one prior or one per row, y0_reference one mode per row and y0 their
    (B, N) samples.  It returns their :class:`Extraction`, in which a row
    keeps the first error that extracting it alone raises, in the order the
    chain checks them.  A 1-d y is run as a batch of one: it returns that
    one-row Extraction or raises that row's error.
    """
    if y.values.ndim == 2:
        return _extract_rows(y, cfg, y0_reference, y0)
    y, y0 = (None if s is None else SampledSignal(s.t_start, s.dt, s.values[None]) for s in (y, y0))
    res = _extract_rows(y, cfg, y0_reference, y0)
    if res.errors[0] is not None:
        raise res.errors[0]
    return res


def _extract_rows(y: SampledSignal, cfg: ExtractionConfig,
                  y0_reference: Optional[Sequence[Mode]],
                  y0: Optional[SampledSignal]) -> Extraction:
    """:func:`extract` of a (B, N) batch."""
    setup, delta = cfg.setup, cfg.setup.delta
    quotients = _quotients(y, setup)
    n = len(quotients)
    priors = np.asarray(cfg.prior, dtype=complex)
    if priors.shape != (n,):
        priors = np.full(n, priors)
    z_hat = np.array([np.nan if q is None else q for q in quotients], dtype=complex)
    omega_hat, errors, z_prior = _branch_rows(z_hat, priors, delta)
    errors = [DegenerateSignalError("zero weighted energy: Rayleigh quotient undefined")
              if q is None else exc for q, exc in zip(quotients, errors)]
    if y0_reference is None:
        return Extraction(z_hat, omega_hat, errors, delta)

    modes = list(y0_reference)
    if len(modes) != n:
        raise ConfigError("certified extraction requires a single reference mode per row")
    freq = np.array([mode.freq for mode in modes], dtype=complex)
    if cfg.amp_floor:
        low = _abs(np.array([mode.amp for mode in modes], dtype=complex)) < cfg.amp_floor
        errors = [DegenerateSignalError("reference amplitude below detectability floor")
                  if exc is None and below else exc for exc, below in zip(errors, low.tolist())]
    if y0 is None:
        y0 = SampledSignal(t_start=setup.t0, dt=setup.dt, values=mode_rows(modes, setup.grid()))
    n0, nr, nr1 = _residual_norms(y, y0, setup)
    empty = n0 <= 0.0
    errors = [DegenerateSignalError("reference mode has zero weighted energy")
              if exc is None and no_energy else exc
              for exc, no_energy in zip(errors, empty.tolist())]
    n0 = np.where(empty, 1.0, n0)  # rows without energy end above: no 0/0 here
    eps0, eps1 = nr / n0, nr1 / n0
    # an ended row has no sizes, so no bounds and no hypothesis
    ended = np.array([exc is not None for exc in errors])
    eps0, eps1 = np.where(ended, np.nan, eps0), np.where(ended, np.nan, eps1)
    return Extraction(z_hat, omega_hat, errors, delta, eps0, eps1,
                      np.exp(-1j * freq * delta), z_prior)


#: the detector and data norms in the tail bound: a scalar scene observes the signal itself
DETECTOR_NORM = DATA_NORM = 1.0


def epsilon_budget(amp, freq, tail: TailSpec, noise_l2, setup: ObservationSetup) -> dict:
    """A-priori bounds on eps from the tail envelope and a noise L2 budget.

    eps_tail_bound = envelope(t0) * DETECTOR_NORM * DATA_NORM * sqrt(T)
    divided by the plateau energy lower bound for the reference mode;
    eps_meas_bound = noise_l2 / (same denominator); eps_bound is the sum.
    The envelope is nonincreasing, so envelope(t0)*sqrt(T) dominates the
    tail's L2 norm over the window, which in turn dominates both weighted
    residual norms.

    With (B,) columns of amp, freq and noise_l2 every bound is a (B,)
    column, and "errors" holds per row None or the DegenerateSignalError
    that a call on that row's floats raises (its bounds NaN).  On floats
    it returns floats and raises that error.
    """
    if setup.t_len <= 3 * setup.delta:
        raise ConfigError("epsilon budget needs t_len > 3*delta")
    rows = np.ndim(freq) == 1
    freq = np.atleast_1d(np.asarray(freq, dtype=complex))
    damped = freq.imag < 0
    denom = np.sqrt(mode_energy_lower_bound(amp, np.where(damped, freq, -1j), setup))
    live = damped & (denom > 0)
    errors = [None if ok else DegenerateSignalError(
        "plateau energy lower bound underflows to 0" if up else
        "epsilon budget needs a damped mode (Im omega < 0)")
        for ok, up in zip(live.tolist(), damped.tolist())]
    denom = np.where(live, denom, np.nan)
    envelope_t0 = (tail.c_tail * np.exp(-tail.nu * setup.t0)
                   * (1.0 + setup.t0) ** (-tail.m) + tail.leak)
    eps_tail = (envelope_t0 * DETECTOR_NORM * DATA_NORM
                * np.sqrt(setup.t_len) / denom)
    eps_meas = noise_l2 / denom
    out = {"eps_tail_bound": eps_tail, "eps_meas_bound": eps_meas,
           "eps_bound": eps_tail + eps_meas}
    if rows:
        return {**out, "errors": errors}
    if errors[0] is not None:
        raise errors[0]
    return {k: float(v[0]) for k, v in out.items()}
