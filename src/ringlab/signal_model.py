"""Damped-exponential scenes and the weighted observation calculus.

A scene is a finite sum of damped complex exponentials (optionally with
polynomial-in-time prefactors), plus a deterministic tail envelope and a
deterministic measurement perturbation.  Everything here is built around
one exactness requirement: the shift step Delta is an integer multiple of
the sampling step, so the time shift acts exactly on the grid and a pure
mode is an exact eigenvector of the shift with eigenvalue exp(-i*omega*Delta).

Two evaluation paths coexist on purpose.  Signals whose content is exactly
a sum of pure exponentials carry that mode list as a tag, and weighted
inner products of tagged signals are computed in closed form (the oracle
path).  Untagged signals fall back to trapezoid quadrature on the grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateSignalError

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

#: tolerance for "delta is an exact integer multiple of dt" checks
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class Mode:
    """One damped complex exponential amp * t**poly_degree * exp(-i*freq*t).

    freq.imag <= 0 is the ringdown (decaying) convention; poly_degree >= 1
    only arises for higher-order / confluent poles.
    """

    freq: complex
    amp: complex
    poly_degree: int = 0

    def __post_init__(self):
        if self.poly_degree < 0:
            raise ConfigError("poly_degree must be a nonnegative integer")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        val = self.amp * np.exp(-1j * self.freq * t)
        if self.poly_degree:
            val = val * t**self.poly_degree
        return val


@dataclass(frozen=True)
class TailSpec:
    """Deterministic tail envelope c_tail * exp(-nu*t) * (1+t)**(-m) + leak."""

    c_tail: float = 0.0
    nu: float = 1.0
    m: int = 0
    leak: float = 0.0

    def __post_init__(self):
        if self.c_tail < 0 or self.leak < 0:
            raise ConfigError("tail amplitudes must be nonnegative")
        if self.nu <= 0:
            raise ConfigError("tail decay rate nu must be positive")
        if self.m < 0:
            raise ConfigError("polynomial decay order m must be nonnegative")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        env = self.c_tail * np.exp(-self.nu * t)
        if self.m:
            env = env * (1.0 + t) ** (-self.m)
        return env + self.leak

    @property
    def is_zero(self) -> bool:
        return self.c_tail == 0.0 and self.leak == 0.0


ZERO_TAIL = TailSpec(c_tail=0.0, nu=1.0, m=0, leak=0.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic measurement perturbation.

    Exactly one of two forms:

    * harmonics: a tuple of (c_k, mu_k, phi_k) giving
      eta(t) = sum_k c_k * cos(mu_k * t + phi_k), defined pointwise in t;
    * an LCG stream (seed, amplitude, dt): a 64-bit linear congruential
      generator x <- 6364136223846793005*x + 1442695040888963407 mod 2**64,
      sample_k = amplitude * (2*(x_k / 2**64) - 1), held constant around
      each grid node t = k*dt (nearest-node indexing, anchored at t=0).
      The state is advanced once from the seed before sample 0.  The stream
      is produced by jump-ahead doubling over a uint64 array (F. Brown,
      "Random number generation with arbitrary strides", Trans. Am. Nucl.
      Soc. 1994) and is bit-identical to the sequential recurrence.

    Identical specs produce bit-identical samples on the same grid.
    """

    harmonics: tuple = ()
    lcg_seed: Optional[int] = None
    lcg_amplitude: float = 0.0
    lcg_dt: float = 1.0

    def __post_init__(self):
        if self.harmonics and self.lcg_seed is not None:
            raise ConfigError("noise is either a harmonic list or an LCG stream, not both")
        if self.lcg_seed is not None and self.lcg_dt <= 0:
            raise ConfigError("LCG hold step must be positive")

    @property
    def is_zero(self) -> bool:
        return not self.harmonics and self.lcg_seed is None

    def _lcg_samples(self, n: int) -> np.ndarray:
        # x[m + j] = A_m * x[j] + C_m mod 2**64, with A_m = a**m and
        # C_m = c * (1 + a + ... + a**(m-1)); uint64 arrays wrap silently but
        # numpy scalars warn, so A_m and C_m advance as masked Python ints
        x = np.empty(n, dtype=np.uint64)
        if n:
            x[0] = (_LCG_MULT * (self.lcg_seed & _LCG_MASK) + _LCG_INC) & _LCG_MASK
        a_m, c_m, m = _LCG_MULT, _LCG_INC, 1
        while m < n:
            k = min(m, n - m)
            x[m:m + k] = np.uint64(a_m) * x[:k] + np.uint64(c_m)
            a_m, c_m, m = (a_m * a_m) & _LCG_MASK, (a_m * c_m + c_m) & _LCG_MASK, 2 * m
        return self.lcg_amplitude * (2.0 * (x / 2.0**64) - 1.0)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        val = np.zeros(t.shape, dtype=float)
        for c, mu, phi in self.harmonics:
            val = val + c * np.cos(mu * t + phi)
        if self.lcg_seed is not None:
            idx = np.rint(t / self.lcg_dt).astype(int)
            nmax = int(idx.max()) + 1 if idx.size else 0
            if np.any(idx < 0):
                raise ConfigError("LCG noise is defined for t >= 0 only")
            stream = self._lcg_samples(nmax)
            val = val + stream[idx]
        return val


ZERO_NOISE = NoiseSpec()


@dataclass(frozen=True)
class ObservationSetup:
    """Observation window [t0, t0+t_len], shift step delta, grid step dt.

    delta and t_len must both be integer multiples of dt so that the shift
    operator and the weight breakpoints land exactly on grid nodes.
    taper: 'raised-cosine' ramps of length delta on each side of the plateau
    [t0+delta, t0+t_len-2*delta], or 'rectangular' (plateau indicator).
    """

    t0: float
    t_len: float
    delta: float
    dt: float
    taper: str = "raised-cosine"

    def __post_init__(self):
        if self.t0 < 0:
            raise ConfigError("t0 must be nonnegative")
        if self.t_len <= 0 or self.dt <= 0:
            raise ConfigError("t_len and dt must be positive")
        if not (0 < self.delta < self.t_len):
            raise ConfigError("need 0 < delta < t_len")
        if self.taper not in ("raised-cosine", "rectangular"):
            raise ConfigError(f"unknown taper {self.taper!r}")
        for name, x in (("delta", self.delta), ("t_len", self.t_len)):
            k = x / self.dt
            if abs(k - round(k)) > _GRID_RTOL * max(1.0, k):
                raise ConfigError(f"{name} must be an integer multiple of dt")
        if self.n_samples + 1 < 4:
            raise ConfigError("grid must contain at least 4 samples")

    @property
    def shift_steps(self) -> int:
        return int(round(self.delta / self.dt))

    @property
    def n_samples(self) -> int:
        return int(round(self.t_len / self.dt))

    def grid(self) -> np.ndarray:
        """Sampling nodes t0 + k*dt covering [t0, t0+t_len]."""
        return self.t0 + self.dt * np.arange(self.n_samples + 1)


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on a uniform grid t_start + k*dt.

    ``modes`` is an optional exactness tag: when set, the samples are the
    pointwise values of that mode sum, enabling closed-form inner products.
    """

    t_start: float
    dt: float
    values: np.ndarray
    modes: Optional[tuple] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 4:
            raise ConfigError("sampled signal must be a 1-d array with >= 4 samples")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")

    def grid(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(len(self.values))

    def __len__(self) -> int:
        return len(self.values)


def scene_modes(modes: Sequence[Mode], tail: TailSpec = ZERO_TAIL,
                noise: NoiseSpec = ZERO_NOISE) -> Optional[tuple]:
    """Exact mode-sum representation of a scene, or None.

    A scene is exactly a sum of pure exponentials when every mode has
    poly_degree 0, the tail has no polynomial factor (m == 0), and the
    noise is a harmonic sum.  The tail maps to modes with freq = -i*nu
    (and freq = 0 for the leak floor); each harmonic c*cos(mu t + phi)
    maps to amplitudes (c/2) e^{+-i phi} at freq = -+mu.
    """
    out = []
    for mode in modes:
        if mode.poly_degree != 0:
            return None
        out.append(mode)
    if tail.m != 0:
        return None
    if tail.c_tail:
        out.append(Mode(freq=-1j * tail.nu, amp=tail.c_tail))
    if tail.leak:
        out.append(Mode(freq=0.0 + 0.0j, amp=tail.leak))
    if noise.lcg_seed is not None:
        return None
    for c, mu, phi in noise.harmonics:
        out.append(Mode(freq=-mu + 0.0j, amp=0.5 * c * np.exp(1j * phi)))
        out.append(Mode(freq=+mu + 0.0j, amp=0.5 * c * np.exp(-1j * phi)))
    return tuple(out)


def eval_scene(modes: Sequence[Mode], tail: TailSpec, noise: NoiseSpec, t):
    """Pointwise scene value sum_j amp_j t^p_j e^{-i omega_j t} + rho(t) + eta(t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ConfigError("scenes are defined for t >= 0")
    val = np.zeros(t.shape, dtype=complex)
    for mode in modes:
        val = val + mode.eval(t)
    if not tail.is_zero:
        val = val + tail.eval(t)
    if not noise.is_zero:
        val = val + noise.eval(t)
    return val if val.shape else complex(val)


def sample_scene(modes: Sequence[Mode], tail: TailSpec, noise: NoiseSpec,
                 setup: ObservationSetup) -> SampledSignal:
    """Sample a scene on the setup grid, tagging exact mode sums."""
    t = setup.grid()
    values = np.atleast_1d(eval_scene(modes, tail, noise, t))
    return SampledSignal(t_start=setup.t0, dt=setup.dt, values=values,
                         modes=scene_modes(modes, tail, noise))


def weight_eval(setup: ObservationSetup, t):
    """Taper weight w(t): 0 outside [t0, t0+T-delta], 1 on the plateau.

    Raised-cosine ramps of length delta connect 0 to the plateau
    [t0+delta, t0+T-2*delta]; the rectangular taper is the plateau
    indicator itself.
    """
    t = np.asarray(t, dtype=float)
    lo = setup.t0
    hi = setup.t0 + setup.t_len - setup.delta
    p_lo = setup.t0 + setup.delta
    p_hi = setup.t0 + setup.t_len - 2 * setup.delta
    if setup.taper == "rectangular":
        w = ((t >= p_lo) & (t <= p_hi)).astype(float)
    else:
        inside = (t >= lo) & (t <= hi)
        s_l = np.clip((t - lo) / setup.delta, 0.0, 1.0)
        s_r = np.clip((t - p_hi) / setup.delta, 0.0, 1.0)
        ramp_l = 0.5 * (1.0 - np.cos(np.pi * s_l))
        ramp_r = 0.5 * (1.0 + np.cos(np.pi * s_r))
        w = np.where(inside, np.minimum(ramp_l, ramp_r), 0.0)
    return w if w.shape else float(w)


def _slice_to_range(f: SampledSignal, t_lo: float, t_hi: float) -> np.ndarray:
    """Samples of f on the grid nodes spanning [t_lo, t_hi] (must be covered)."""
    k0 = (t_lo - f.t_start) / f.dt
    k0i = int(round(k0))
    npts = int(round((t_hi - t_lo) / f.dt)) + 1
    if (abs(k0 - k0i) > _GRID_RTOL * max(1.0, abs(k0))
            or k0i < 0 or k0i + npts > len(f)):
        raise ConfigError("grid does not cover the requested range on-node")
    return f.values[k0i:k0i + npts]


def _exp_integral(s: complex, a: float, b: float) -> complex:
    """Exact integral of e^{s t} over [a, b], stable for small |s|*(b-a)."""
    x = s * (b - a)
    if abs(x) < 1e-4:
        # series for (e^x - 1)/x
        series = 1.0 + x / 2.0 + x * x / 6.0 + x * x * x / 24.0
        return (b - a) * np.exp(s * a) * series
    return (np.exp(s * b) - np.exp(s * a)) / s


def _weighted_exp_integral(s: complex, setup: ObservationSetup) -> complex:
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


def weighted_inner_exact(modes_f: Sequence[Mode], modes_g: Sequence[Mode],
                         setup: ObservationSetup) -> complex:
    """Closed-form <f, g>_w for pure-exponential mode sums."""
    total = 0.0 + 0.0j
    for mf in modes_f:
        if mf.poly_degree:
            raise ConfigError("closed-form inner products require pure exponentials")
        for mg in modes_g:
            if mg.poly_degree:
                raise ConfigError("closed-form inner products require pure exponentials")
            s = -1j * mf.freq + 1j * np.conj(mg.freq)
            total += mf.amp * np.conj(mg.amp) * _weighted_exp_integral(s, setup)
    return total


def weighted_inner(f: SampledSignal, g: SampledSignal, setup: ObservationSetup,
                   method: str = "auto") -> complex:
    """Weighted inner product <f, g>_w = integral of w f conj(g) over [t0, t0+T-delta].

    method 'auto' uses the closed form when both signals are tagged as exact
    mode sums, otherwise composite trapezoid on the shared grid; 'trapezoid'
    and 'exact' force one path.
    """
    if method not in ("auto", "trapezoid", "exact"):
        raise ConfigError(f"unknown method {method!r}")
    if method != "trapezoid" and f.modes is not None and g.modes is not None:
        return weighted_inner_exact(f.modes, g.modes, setup)
    if method == "exact":
        raise ConfigError("exact path requires both signals tagged as mode sums")
    if abs(f.dt - g.dt) > _GRID_RTOL * f.dt:
        raise ConfigError("signals must share the sampling step")
    hi = setup.t0 + setup.t_len - setup.delta
    if setup.taper == "rectangular":
        # weight jumps exactly at grid nodes: integrate over the plateau only
        p_lo = setup.t0 + setup.delta
        p_hi = setup.t0 + setup.t_len - 2 * setup.delta
        if p_hi <= p_lo:
            return 0.0 + 0.0j
        prod = _slice_to_range(f, p_lo, p_hi) * np.conj(_slice_to_range(g, p_lo, p_hi))
        return complex(np.trapezoid(prod, dx=f.dt))
    prod = _slice_to_range(f, setup.t0, hi) * np.conj(_slice_to_range(g, setup.t0, hi))
    t = setup.t0 + f.dt * np.arange(len(prod))
    return complex(np.trapezoid(weight_eval(setup, t) * prod, dx=f.dt))


def wnorm(f: SampledSignal, setup: ObservationSetup, method: str = "auto") -> float:
    """Weighted norm ||f||_w."""
    val = weighted_inner(f, f, setup, method=method)
    return float(np.sqrt(max(val.real, 0.0)))


def shift(f: SampledSignal, delta: float) -> SampledSignal:
    """Exact grid shift (S_delta f)(t) = f(t + delta); domain shortens by delta."""
    k = delta / f.dt
    ki = int(round(k))
    if abs(k - ki) > _GRID_RTOL * max(1.0, abs(k)) or ki < 0:
        raise ConfigError("shift must be a nonnegative integer multiple of dt")
    if len(f) - ki < 4:
        raise ConfigError("shifted signal would have fewer than 4 samples")
    shifted_modes = None
    if f.modes is not None:
        shifted_modes = tuple(
            Mode(freq=m.freq, amp=m.amp * np.exp(-1j * m.freq * delta)) for m in f.modes
        )
    return SampledSignal(t_start=f.t_start, dt=f.dt, values=f.values[ki:],
                         modes=shifted_modes)


def mode_energy_lower_bound(amp: complex, freq: complex,
                            setup: ObservationSetup) -> float:
    """Plateau lower bound for ||a e^{-i omega t}||_w^2.

    Equals |a|^2 (e^{2 Im(omega) (t0+delta)} - e^{2 Im(omega) (t0+T-2 delta)}) /
    (-2 Im(omega)); requires Im(omega) < 0 and a nonempty plateau.
    """
    im = freq.imag
    if im >= 0:
        raise DegenerateSignalError("energy lower bound needs Im(omega) < 0")
    a = setup.t0 + setup.delta
    b = setup.t0 + setup.t_len - 2 * setup.delta
    if b < a:
        raise ConfigError("empty plateau: need t_len >= 3*delta")
    val = abs(amp) ** 2 * (np.exp(2 * im * a) - np.exp(2 * im * b)) / (-2 * im)
    return float(val)


def mode_energy_lower_bound_crude(amp: complex, freq: complex,
                                  setup: ObservationSetup) -> float:
    """Crude bound |a| e^{Im(omega) (t0+T-2 delta)} sqrt(T - 3 delta) for ||.||_w."""
    if setup.t_len <= 3 * setup.delta:
        raise ConfigError("crude energy bound needs t_len > 3*delta")
    b = setup.t0 + setup.t_len - 2 * setup.delta
    return float(abs(amp) * np.exp(freq.imag * b) * np.sqrt(setup.t_len - 3 * setup.delta))


def residual_l2(r: SampledSignal, setup: ObservationSetup) -> float:
    """L2 norm of r over the full window [t0, t0+T] by trapezoid.

    Dominates both ||r||_w and ||S_delta r||_w since 0 <= w <= 1 and the
    shifted domain stays inside the window.
    """
    vals = _slice_to_range(r, setup.t0, setup.t0 + setup.t_len)
    val = np.trapezoid(np.abs(vals) ** 2, dx=r.dt)
    return float(np.sqrt(val))
