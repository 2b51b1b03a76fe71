"""Damped-exponential scenes and the weighted observation calculus.

A scene is a finite sum of damped complex exponentials (optionally with
polynomial-in-time prefactors), plus a deterministic tail envelope and a
deterministic measurement perturbation.  Everything here is built around
one exactness requirement: the shift step Delta is an integer multiple of
the sampling step, so the time shift acts exactly on the grid and a pure
mode is an exact eigenvector of the shift with eigenvalue exp(-i*omega*Delta).

Weighted inner products are trapezoid sums on the sampling grid, the one
path: <f, g>_w = sum_k q_k f_k conj(g_k), a bilinear form whose weights
(dt, the trapezoid end-halves and the taper) are folded into one
quadrature vector q.  Each ObservationSetup computes its grid, its taper
weights and q once, on first use, and every inner product on that setup
reuses them.  A SampledSignal may hold B signals on one grid as the rows of
a (B, N) array; the inner products and norms then reduce along the last
axis, each row's value bit for bit the one it gives alone.  A row's sum is
one BLAS dot per run of at most _DOT_RUN terms, the runs added in order,
and the elementwise factors of a dot (q conj(g), q |f|^2, the difference of
a residual norm) are formed one run at a time, so a long grid makes no
temporary of its own length.  Synthesis works in its output array.  The
raised-cosine weight has zero slope at its grid-node
breakpoints, so the sums meet the continuum integral at order dt^4
(Trefethen & Weideman, SIAM Rev. 56, 2014); the tests hold the closed-form
integral as the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateSignalError

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

#: tolerance for "delta is an exact integer multiple of dt" checks
_GRID_RTOL = 1e-9

#: the most terms one BLAS dot sums.  OpenBLAS splits a dot of more than
#: 10 000 terms across its threads, and the split moves the last bits of the
#: sum, so a longer row is summed in runs of this length, added in order
_DOT_RUN = 8192


@dataclass(frozen=True)
class Mode:
    """One damped complex exponential amp * exp(-i*freq*t); freq.imag <= 0
    is the ringdown (decaying) convention."""

    freq: complex
    amp: complex

    def eval(self, t):
        return mode_rows([self], t)[0]


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
        env = np.multiply(-self.nu, t, out=np.empty(t.shape))  # in place from here on
        np.exp(env, out=env)
        env *= self.c_tail
        if self.m:
            decay = np.add(1.0, t)
            decay **= -self.m
            env *= decay
        env += self.leak
        return env[()]  # a scalar for a 0-d t

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

    The unscaled stream 2*(x_k / 2**64) - 1 at the nodes of a grid
    (:meth:`lcg_unit`) depends on the seed and hold step alone, so specs that
    differ only in amplitude can share it: ``eval(t, lcg_unit)`` takes it
    and scales it by the amplitude, the samples the spec draws alone.

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

    def lcg_unit(self, t) -> np.ndarray:
        """The unscaled LCG stream 2*(x_k / 2**64) - 1 at the node of each t,
        shaped like t."""
        idx = np.rint(np.asarray(t, dtype=float) / self.lcg_dt).astype(int)
        if np.any(idx < 0):
            raise ConfigError("LCG noise is defined for t >= 0 only")
        # x[m + j] = A_m * x[j] + C_m mod 2**64, with A_m = a**m and
        # C_m = c * (1 + a + ... + a**(m-1)); uint64 arrays wrap silently but
        # numpy scalars warn, so A_m and C_m advance as masked Python ints
        n = int(idx.max()) + 1 if idx.size else 0
        x = np.empty(n, dtype=np.uint64)
        if n:
            x[0] = (_LCG_MULT * (self.lcg_seed & _LCG_MASK) + _LCG_INC) & _LCG_MASK
        a_m, c_m, m = _LCG_MULT, _LCG_INC, 1
        while m < n:
            k = min(m, n - m)
            x[m:m + k] = np.uint64(a_m) * x[:k] + np.uint64(c_m)
            a_m, c_m, m = (a_m * a_m) & _LCG_MASK, (a_m * c_m + c_m) & _LCG_MASK, 2 * m
        unit = np.divide(x, 2.0**64)
        unit *= 2.0
        unit -= 1.0
        return unit[idx]

    def eval(self, t, lcg_unit: Optional[np.ndarray] = None):
        """eta(t); ``lcg_unit``, if given, is :meth:`lcg_unit` of t."""
        t = np.asarray(t, dtype=float)
        if self.lcg_seed is not None:  # 0.0 + amplitude x stream, in one array
            val = np.multiply(self.lcg_amplitude,
                              self.lcg_unit(t) if lcg_unit is None else lcg_unit)
            val += 0.0  # the sum's start: a -0.0 reads 0.0
            return val
        val = np.zeros(t.shape, dtype=float)
        term = np.empty(t.shape, dtype=float)
        for c, mu, phi in self.harmonics:  # val + c cos(mu t + phi), term by term
            np.multiply(mu, t, out=term)
            term += phi
            np.cos(term, out=term)
            term *= c
            val += term
        return val


ZERO_NOISE = NoiseSpec()


@dataclass(frozen=True)
class ObservationSetup:
    """Observation window [t0, t0+t_len], shift step delta, grid step dt.

    delta and t_len must both be integer multiples of dt so that the shift
    operator and the weight breakpoints land exactly on grid nodes.
    taper: 'raised-cosine' ramps of length delta on each side of the plateau
    [t0+delta, t0+t_len-2*delta], or 'rectangular' (plateau indicator).

    The grid, the taper weights and the quadrature vector are computed once
    per instance, on first use, and held as read-only arrays; they are not
    fields, so equality and hashing see only the five parameters.
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

    @cached_property
    def _grid(self) -> np.ndarray:
        return _read_only(self.t0 + self.dt * np.arange(self.n_samples + 1))

    @cached_property
    def weights(self) -> np.ndarray:
        """Taper weights w on the grid nodes of [t0, t0+t_len-delta] (read-only)."""
        nodes = self._grid[:self.n_samples - self.shift_steps + 1]
        return _read_only(weight_eval(self, nodes))

    def grid(self) -> np.ndarray:
        """Sampling nodes t0 + k*dt covering [t0, t0+t_len] (read-only)."""
        return self._grid

    @cached_property
    def _quadrature_pairs(self) -> np.ndarray:
        """The quadrature vector with each weight twice, the weights of
        complex samples read as (re, im) float pairs (read-only)."""
        w = self.weights
        if self.taper == "rectangular":
            # its weight jumps exactly at grid nodes: the sum runs over the
            # plateau only
            k = self.shift_steps
            w = w[k:len(w) - k]
        q = self.dt * w if len(w) > 1 else np.zeros(0)
        if len(q):
            q[[0, -1]] *= 0.5
        pairs = np.empty((len(q), 2))
        pairs[:, 0] = pairs[:, 1] = q
        return _read_only(pairs.reshape(-1))

    @property
    def quadrature(self) -> np.ndarray:
        """The weighted product's quadrature vector q = dt x trapezoid
        end-halves x taper weights (read-only), so that
        <f, g>_w = sum_k q_k f(t_k) conj(g(t_k)) over the grid nodes t_k of
        [t0, t0+t_len-delta], of the plateau alone for the rectangular
        taper; empty when the plateau holds fewer than two nodes."""
        return self._quadrature_pairs[::2]

    @property
    def _quadrature_t0(self) -> float:
        """The first node of the quadrature."""
        return self.t0 + self.delta if self.taper == "rectangular" else self.t0


def _abs(z) -> np.ndarray:
    """|z| of a complex array, as Python's abs gives it: numpy's complex
    absolute rounds otherwise in the last bit, its hypot does not."""
    return np.hypot(z.real, z.imag)


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """x**k per element through numpy's scalar power, which calls libm's pow
    as a Python float's ** does (and gives inf where that would overflow); an
    array's ** multiplies or calls a SIMD pow, and either can differ from
    libm's in the last bit."""
    return np.array([v ** k for v in x], dtype=float)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on a uniform grid t_start + k*dt.

    ``values`` is one signal of shape (N,) or a batch of B signals on the
    same grid, shape (B, N): each row is one signal, and the functions below
    that take a SampledSignal work along the last axis, returning one value
    per row (a scalar for a 1-d signal).  ``len`` is the samples per row.
    """

    t_start: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim not in (1, 2) or vals.shape[-1] < 4:
            raise ConfigError("sampled signal must be a 1-d array with >= 4 samples "
                              "or a 2-d array of such rows")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")

    def grid(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(len(self))

    def __len__(self) -> int:
        return self.values.shape[-1]


def eval_scene(modes: Sequence[Mode], tail: TailSpec, noise: NoiseSpec, t):
    """Pointwise scene value sum_j amp_j t^p_j e^{-i omega_j t} + rho(t) + eta(t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ConfigError("scenes are defined for t >= 0")
    val = np.zeros(t.shape, dtype=complex)
    for row in mode_rows(modes, t):
        val += row
    if not tail.is_zero:
        val += tail.eval(t)
    if not noise.is_zero:
        val += noise.eval(t)
    return val if val.shape else complex(val)


def sample_scene(modes: Sequence[Mode], tail: TailSpec, noise: NoiseSpec,
                 setup: ObservationSetup) -> SampledSignal:
    """Sample a scene on the setup grid."""
    t = setup.grid()
    values = np.atleast_1d(eval_scene(modes, tail, noise, t))
    return SampledSignal(t_start=setup.t0, dt=setup.dt, values=values)


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
        t1 = t.reshape(-1)
        inside = (t1 >= lo) & (t1 <= hi)
        s_l = np.clip((t1 - lo) / setup.delta, 0.0, 1.0)
        s_r = np.clip((t1 - p_hi) / setup.delta, 0.0, 1.0)
        # off the ramps s_l = 1 and s_r = 0, where 0.5 (1 -+ cos) is exactly 1,
        # so the cosines are taken on the ramp nodes alone
        w = inside.astype(float)
        ramp = inside & ((s_l < 1.0) | (s_r > 0.0))
        w[ramp] = np.minimum(0.5 * (1.0 - np.cos(np.pi * s_l[ramp])),
                             0.5 * (1.0 + np.cos(np.pi * s_r[ramp])))
        w = w.reshape(t.shape)
    return w if w.shape else float(w)


def _nodes(f: SampledSignal, t_lo: float, npts: int) -> slice:
    """The npts grid nodes of f from the node at t_lo on (must be covered)."""
    k0 = (t_lo - f.t_start) / f.dt
    k0i = int(round(k0))
    if (abs(k0 - k0i) > _GRID_RTOL * max(1.0, abs(k0))
            or k0i < 0 or k0i + npts > len(f)):
        raise ConfigError("grid does not cover the requested range on-node")
    return slice(k0i, k0i + npts)


def _per_row(val: np.ndarray, scalar):
    """A reduction's rows as an array, or ``scalar(val)`` for a 1-d input."""
    return scalar(val) if val.ndim == 0 else val


def _float_pairs(vals: np.ndarray) -> np.ndarray:
    """Complex samples as (re, im) float pairs along the last axis."""
    if vals.strides[-1] != vals.itemsize:
        vals = np.ascontiguousarray(vals)
    return vals.view(float)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] b[..., k], one per row: a stacked (1, n) @ (n, 1)
    matmul, which makes one BLAS dot call per row (a (B, n) @ (n,) gemv would
    round by B)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _run_sum(dot, n: int):
    """``dot(lo, hi)`` summed over the runs [lo, hi) of at most _DOT_RUN
    terms that cover range(n), added in order.  So a row's sum is the one it
    gives alone, whatever its batch or BLAS's thread count."""
    total = dot(0, min(n, _DOT_RUN))
    for lo in range(_DOT_RUN, n, _DOT_RUN):
        total = total + dot(lo, min(lo + _DOT_RUN, n))
    return total


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] b[..., k], one per row, in runs (:func:`_run_sum`)."""
    return _run_sum(lambda lo, hi: _dot(a[..., lo:hi], b[..., lo:hi]), a.shape[-1])


def weighted_inner(f: SampledSignal, g: SampledSignal,
                   setup: ObservationSetup, minus: Optional[SampledSignal] = None):
    """Weighted inner product <f, g>_w = sum_k q_k f_k conj(g_k) with the
    setup's quadrature vector q (:attr:`ObservationSetup.quadrature`): the
    composite trapezoid of w f conj(g) over [t0, t0+T-delta], over the
    plateau alone for the rectangular taper.

    f and g must sit on the setup's grid nodes.  Either may hold (B, N) rows:
    the sum runs along the last axis and gives one complex per row, a
    complex for two 1-d signals.  Every row's sum is the one its signal
    alone would give, bit for bit.  It is one dot per run of _DOT_RUN terms:
    f against q conj(g), or for ``f is g`` (a norm) the real
    sum_k q_k |f_k|^2, whose imaginary part is exactly 0.  The factor
    q conj(g), or |f|^2 as (re, im) squares, is formed one run at a time in
    one run-sized buffer, the call's only temporary.

    ``minus``, for a norm only, makes it <f - minus, f - minus>_w: minus's
    samples at f's node indices are subtracted run by run, bit for bit the
    norm of the formed difference ``f.values - minus.values``.
    """
    if abs(f.dt - g.dt) > _GRID_RTOL * f.dt:
        raise ConfigError("signals must share the sampling step")
    if minus is not None and f is not g:
        raise ConfigError("a subtrahend is taken by a norm only (f is g)")
    pairs, t_lo = setup._quadrature_pairs, setup._quadrature_t0
    n = len(pairs)
    nodes = _nodes(f, t_lo, n // 2)
    if f is g:  # sum_k q_k (re_k^2 + im_k^2): real and nonnegative
        x = _float_pairs(f.values[..., nodes])
        m = None if minus is None else _float_pairs(minus.values[..., nodes])
        buf = np.empty(x.shape[:-1] + (min(n, _DOT_RUN),))

        def squares(lo, hi):
            run, x_run = buf[..., :hi - lo], x[..., lo:hi]
            if m is None:
                np.multiply(x_run, x_run, out=run)
            else:
                np.subtract(x_run, m[..., lo:hi], out=run)
                np.multiply(run, run, out=run)
            return _dot(run, pairs[lo:hi])
        return _per_row(_run_sum(squares, n) + 0j, complex)
    f_vals = f.values[..., nodes]
    g_pairs = _float_pairs(g.values[..., _nodes(g, t_lo, n // 2)])
    buf = np.empty(g_pairs.shape[:-1] + (min(n // 2, _DOT_RUN),), dtype=complex)

    def against_q_conj_g(lo, hi):
        run = buf[..., :hi - lo]
        q_conj_g = run.view(float)
        np.multiply(g_pairs[..., 2 * lo:2 * hi], pairs[2 * lo:2 * hi], out=q_conj_g)
        np.negative(q_conj_g[..., 1::2], out=q_conj_g[..., 1::2])
        return _dot(f_vals[..., lo:hi], run)
    return _per_row(_run_sum(against_q_conj_g, n // 2), complex)


def wnorm(f: SampledSignal, setup: ObservationSetup,
          minus: Optional[SampledSignal] = None):
    """Weighted norm ||f||_w, one per row of f; ||f - minus||_w with
    ``minus`` (:func:`weighted_inner`)."""
    return _per_row(np.sqrt(np.asarray(weighted_inner(f, f, setup, minus)).real), float)


def shift(f: SampledSignal, delta: float) -> SampledSignal:
    """Exact grid shift (S_delta f)(t) = f(t + delta) of every row; the
    domain shortens by delta."""
    k = delta / f.dt
    ki = int(round(k))
    if abs(k - ki) > _GRID_RTOL * max(1.0, abs(k)) or ki < 0:
        raise ConfigError("shift must be a nonnegative integer multiple of dt")
    if len(f) - ki < 4:
        raise ConfigError("shifted signal would have fewer than 4 samples")
    return SampledSignal(t_start=f.t_start, dt=f.dt, values=f.values[..., ki:])


def mode_rows(modes: Sequence[Mode], t) -> np.ndarray:
    """The one evaluator of damped exponentials (Mode.eval and eval_scene call
    it): the (B, *t.shape) array whose row b is modes[b] at t, from one
    exponential over the whole batch, computed in its output array.  Its
    operations keep the committed report digests: -1j * freq in Python
    complex arithmetic, the amplitude multiplied last, and 0.0j added, so a
    -0.0 part reads 0.0."""
    t = np.asarray(t, dtype=float)
    shape = (len(modes),) + (1,) * t.ndim
    phase = np.array([-1j * m.freq for m in modes], dtype=complex).reshape(shape)
    amps = np.array([m.amp for m in modes], dtype=complex).reshape(shape)
    out = np.multiply(phase, t)  # every later step works in this one array
    np.exp(out, out=out)
    np.multiply(amps, out, out=out)
    out += 0.0j
    return out


def mode_energy_lower_bound(amp, freq, setup: ObservationSetup):
    """Plateau lower bound for ||a e^{-i omega t}||_w^2.

    Equals |a|^2 (e^{2 Im(omega) (t0+delta)} - e^{2 Im(omega) (t0+T-2 delta)}) /
    (-2 Im(omega)); requires Im(omega) < 0 and a nonempty plateau.  A float,
    or a column for columns of amp and freq.
    """
    freq, amp = np.asarray(freq, dtype=complex), np.asarray(amp, dtype=complex)
    im = freq.imag
    if (im >= 0).any():
        raise DegenerateSignalError("energy lower bound needs Im(omega) < 0")
    a = setup.t0 + setup.delta
    b = setup.t0 + setup.t_len - 2 * setup.delta
    if b < a:
        raise ConfigError("empty plateau: need t_len >= 3*delta")
    val = _pow(_abs(amp.reshape(-1)), 2) * (np.exp(2 * im * a) - np.exp(2 * im * b)) / (-2 * im)
    return val if freq.ndim else float(val[0])


def residual_l2(r: SampledSignal, setup: ObservationSetup):
    """L2 norm of r over the full window [t0, t0+T] by trapezoid, one per row:
    sqrt(dt (|r_0|^2 / 2 + |r_1|^2 + ... + |r_{N-1}|^2 + |r_N|^2 / 2)), the
    interior as one dot of the samples, read as (re, im) float pairs, with
    themselves.

    Dominates both ||r||_w and ||S_delta r||_w since 0 <= w <= 1 and the
    shifted domain stays inside the window.
    """
    x = _float_pairs(r.values[..., _nodes(r, setup.t0, setup.n_samples + 1)])
    inner, ends = x[..., 2:-2], x[..., [0, 1, -2, -1]]
    total = _row_dots(inner, inner) + 0.5 * _row_dots(ends, ends)
    return _per_row(np.sqrt(setup.dt * total), float)
