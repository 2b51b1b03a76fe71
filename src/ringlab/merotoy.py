"""A desk-scale meromorphic laboratory.

Rational matrix-valued resolvent families with explicit Laurent data, used
to exercise the residue-to-time-domain dictionary, truncated inverse-
Laplace line integrals, band isolation by contour subtraction, rank-one
residue formulas with dual states, forcing-transform decay, and localized
pseudospectrum scans.  Everything is small and explicit so that every
contour identity can be checked against an independent residue oracle.

Every function the contour code receives is batched: it maps an (n,) array
of frequencies to an (n, ...) array, so each quantity has one evaluation
path.  The band-isolation integrand is factored: the forcing is a scalar
transform F(omega) times a fixed payload vector, so g R F_hat is the (n,)
scalar g F times the (n, d) values R(omega) payload, and no (n, d, d)
resolvent array is formed.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContourError, HypothesisError, ResolutionError, StructureError


# ---------------------------------------------------------------------------
# rational resolvent families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    """A pole with its generalized Laurent coefficients.

    laurent[q-1] is the d x d coefficient of (omega - omega0)^(-q),
    q = 1..order; laurent[0] is the residue.
    """

    omega: complex
    order: int
    laurent: tuple

    def __post_init__(self):
        if self.order < 1 or len(self.laurent) != self.order:
            raise ConfigError("need one Laurent coefficient per pole order")
        mats = tuple(np.asarray(m, dtype=complex) for m in self.laurent)
        object.__setattr__(self, "laurent", mats)


@dataclass(frozen=True)
class RationalResolvent:
    """R(omega) = sum_poles sum_q Pi^[q] (omega-omega0)^(-q) + polynomial part."""

    poles: tuple
    hol: tuple = ()
    dim: int = 1

    def __post_init__(self):
        omegas = [p.omega for p in self.poles]
        if len(set(omegas)) != len(omegas):
            raise ConfigError("poles must be pairwise distinct")
        hol = tuple(np.asarray(m, dtype=complex) for m in self.hol)
        object.__setattr__(self, "hol", hol)

    def eval_many(self, omega: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Vectorized evaluation: (n,) frequencies -> values of R(omega) vec.

        A (d,) vec gives (n, d) values; a (d, m) vec, such as the identity,
        gives (n, d, m) ones.  The polynomial part is Horner in omega and each
        pole Horner in 1/(omega - omega0), over the fixed products hol_j vec
        and Pi^[q] vec.
        """
        omega = np.asarray(omega, dtype=complex)
        vec = np.asarray(vec, dtype=complex)
        w = omega.reshape(omega.shape + (1,) * vec.ndim)
        val = np.zeros(omega.shape + vec.shape, dtype=complex)
        for mat in reversed(self.hol):
            val = val * w + mat @ vec
        for p in self.poles:
            inv = 1.0 / (w - p.omega)
            acc = 0.0
            for mat in reversed(p.laurent):
                acc = (acc + mat @ vec) * inv
            val += acc
        return val

    def poles_in_strip(self, im_lo: float, im_hi: float) -> list:
        return [p for p in self.poles if im_lo < p.omega.imag < im_hi]


#: the real and the imaginary range random_rational_resolvent draws poles from
RANDOM_POLE_RE = (-2.0, 2.0)
RANDOM_POLE_IM = (-2.2, -0.4)
#: and the least distance between two of its poles
RANDOM_POLE_SEP = 0.3
#: the most poles it places RANDOM_POLE_SEP apart: while n - 1 excluded
#: disks cover less than its rectangle's area, a point of it is free
RANDOM_MAX_POLES = int(np.ceil(np.ptp(RANDOM_POLE_RE) * np.ptp(RANDOM_POLE_IM)
                               / (np.pi * RANDOM_POLE_SEP ** 2)))


def random_rational_resolvent(rng: np.random.Generator, dim: int = 2,
                              n_poles: int = 3, max_order: int = 2) -> RationalResolvent:
    """Random small resolvent family with well-separated poles."""
    omegas: list = []
    while len(omegas) < n_poles:
        w = complex(rng.uniform(*RANDOM_POLE_RE), rng.uniform(*RANDOM_POLE_IM))
        if all(abs(w - v) >= RANDOM_POLE_SEP for v in omegas):
            omegas.append(w)
    poles = []
    for w in omegas:
        order = int(rng.integers(1, max_order + 1))
        laurent = tuple(
            (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            / (2.0 ** q)
            for q in range(order)
        )
        poles.append(Pole(omega=w, order=order, laurent=laurent))
    hol = (0.2 * (rng.standard_normal((dim, dim))
                  + 1j * rng.standard_normal((dim, dim))),)
    return RationalResolvent(poles=tuple(poles), hol=hol, dim=dim)


# ---------------------------------------------------------------------------
# compactly supported forcing and its transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForcingSpec:
    """Smooth bump (t(1-t))^k e^{alpha t} on (0,1) carrying a payload vector.

    The bump vanishes to order k at both endpoints, so the transform decays
    like |omega|^-(k+1) on horizontal lines.  The contour code receives the
    spec itself: F_hat is the batched closed-form ``scalar`` times the fixed
    ``payload``.
    """

    k: int
    payload: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("smoothness order k must be >= 1")
        object.__setattr__(self, "payload", np.asarray(self.payload, dtype=complex))

    @cached_property
    def _series(self) -> np.ndarray:
        """Taylor coefficients B(k+q+1, k+1)/q! of the scalar in s, as many as
        the Beta series takes at the largest |s| it serves."""
        k = self.k
        num, den = math.factorial(k) ** 2, math.factorial(2 * k + 1)  # B(k+1, k+1)
        out = []
        for q in range(_series_terms(_series_radius(k))):
            out.append(num / den)  # exact integers, one rounding
            num, den = num * (k + q + 1), den * (2 * k + q + 2) * (q + 1)
        return np.array(out)

    @cached_property
    def _parts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Q_j = p^(k+j)(0) = (k+j)! (-1)^j C(k, j), j = 0..k, the nonzero
        derivatives, split as Q(x) = E(x^2) + x O(x^2): (E, O) coefficients."""
        k = self.k
        q = np.array([float(math.factorial(k + j) * math.comb(k, j) * (-1) ** j)
                      for j in range(k + 1)])
        return q[0::2], q[1::2]

    def scalar(self, omega: np.ndarray) -> np.ndarray:
        """F(omega) = integral over (0,1) of (t(1-t))^k e^{s t} dt, s = alpha + i omega.

        Batched: (n,) frequencies -> (n,) values, in closed form.  For
        |s| <= max(10, 1.5k) it sums the Beta series sum_q s^q B(k+q+1, k+1)/q!
        by Horner, over the terms ``_series_terms`` takes at the batch's largest
        such |s|.  Beyond, integration by parts
        terminates, because p = (t(1-t))^k has p^(r)(1) = (-1)^r p^(r)(0) and
        p^(r)(0) = 0 outside k <= r <= 2k: with x = 1/s,
        F = x^(k+1) [e^s Q(x) - (-1)^k Q(-x)],  Q(x) = sum_j p^(k+j)(0) x^j.
        For k <= 12 the relative error stays below 1e-11 against mpmath's
        B(k+1, k+1) 1F1(k+1; 2k+2; s) (tests/test_merotoy.py).
        """
        s = self.alpha + 1j * np.asarray(omega, dtype=complex)
        out = np.empty(s.shape, dtype=complex)
        mag = np.abs(s)
        near = mag <= _series_radius(self.k)
        if near.any():
            n_terms = _series_terms(float(mag[near].max()))
            out[near] = _horner(self._series[:n_terms], s[near])
        if not near.all():
            far = s[~near]
            x = 1.0 / far
            even, odd = self._parts
            x2 = x * x
            e, xo = _horner(even, x2), x * _horner(odd, x2)
            out[~near] = x ** (self.k + 1) * (
                np.exp(far) * (e + xo) - (-1) ** self.k * (e - xo))
        return out

    def transform(self, omega: np.ndarray) -> np.ndarray:
        """F_hat(omega) = payload * integral over (0,1) of
        e^{i omega t} (t(1-t))^k e^{alpha t} dt.

        Batched: (n,) frequencies -> (n, d) values, ``scalar`` times payload.
        """
        return self.scalar(omega)[:, None] * self.payload


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] x^j by Horner's rule, in place on one (n,) array."""
    acc = np.full(x.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _series_radius(k: int) -> float:
    """The largest |s| at which ``ForcingSpec.scalar`` sums the Beta series."""
    return max(10.0, 1.5 * k)


#: the Beta series' truncation error, in units of its first term c_0 = F(s = 0)
_SERIES_TAIL = 2.0 ** -60


def _series_terms(radius: float) -> int:
    """Fewest Beta-series terms n whose omitted tail is below _SERIES_TAIL c_0
    at every |s| <= radius.

    c_q = B(k+q+1, k+1)/q! <= c_0/q!, because B(k+q+1, k+1) <= B(k+1, k+1),
    so the terms from q = n on sum to at most c_0 r^n/n! (n+1)/(n+1-r) at
    |s| <= r, once n + 1 > r.
    """
    n, term = 0, 1.0  # term = radius^n / n!
    while n + 1 <= radius or term * (n + 1) / (n + 1 - radius) > _SERIES_TAIL:
        n += 1
        term *= radius / n
    return n


# ---------------------------------------------------------------------------
# derivatives of holomorphic callables
# ---------------------------------------------------------------------------

#: radius and node count of the Cauchy circle holomorphic_derivatives samples
_CAUCHY_RADIUS = 5e-2
_CAUCHY_NPTS = 64


def holomorphic_derivatives(fn: Callable, z0: complex, max_order: int) -> list:
    """Derivatives F^(r)(z0), r = 0..max_order, of a holomorphic callable.

    fn is batched: it maps an (n,) array of points to an (n, ...) array.
    Order 0 alone is fn at z0 itself; otherwise one call samples the
    _CAUCHY_NPTS-point Cauchy circle of radius _CAUCHY_RADIUS, and the
    trapezoid rule on it converges spectrally for holomorphic integrands.
    """
    if max_order == 0:
        return [np.asarray(fn(np.array([z0], dtype=complex)))[0]]
    theta = 2.0 * np.pi * np.arange(_CAUCHY_NPTS) / _CAUCHY_NPTS
    samples = np.asarray(fn(z0 + _CAUCHY_RADIUS * np.exp(1j * theta)), dtype=complex)
    out = []
    for r in range(max_order + 1):
        phase = np.exp(-1j * r * theta)
        coeff = np.tensordot(phase, samples, axes=(0, 0)) / _CAUCHY_NPTS
        out.append(math.factorial(r) * coeff / _CAUCHY_RADIUS**r)
    return out


# ---------------------------------------------------------------------------
# residue dictionary and line integrals
# ---------------------------------------------------------------------------

def _as_times(times) -> np.ndarray:
    """The times batch every contour function takes: a nonempty 1-D array, t > 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ConfigError("times must be a nonempty 1-D array")
    if not np.all(times > 0):
        raise ConfigError("line integral defined for t > 0")
    return times


def residue_time_term(pole: Pole, fn: Callable, times) -> np.ndarray:
    """Time-domain contribution of one pole against a holomorphic d-vector fn.

    i e^{-i omega0 t} sum_{q=1..m} sum_{r=0..q-1}
        (-i t)^(q-1-r) / ((q-1-r)! r!) Pi^[q] fn^(r)(omega0);
    a simple pole reduces to i e^{-i omega0 t} Pi^[1] fn(omega0).  fn is
    batched, (n,) frequencies -> (n, d) values, and is differentiated once,
    on a Cauchy ring by :func:`holomorphic_derivatives`, for every time.
    times is a (T,) array; the result is (T, d), one row per time.
    """
    times = _as_times(times)
    m = pole.order
    ders = holomorphic_derivatives(fn, pole.omega, m - 1)
    total = np.zeros((times.size, pole.laurent[0].shape[0]), dtype=complex)
    for q in range(1, m + 1):
        mat = pole.laurent[q - 1]
        for r in range(q):
            coeff = ((-1j * times) ** (q - 1 - r)
                     / (math.factorial(q - 1 - r) * math.factorial(r)))
            total += coeff[:, None] * (mat @ ders[r])
    return 1j * np.exp(-1j * pole.omega * times)[:, None] * total


_LINE_CLEARANCE = 1e-6


def _check_line_clear(resolvent: RationalResolvent, nu: float):
    for p in resolvent.poles:
        if abs(p.omega.imag + nu) < _LINE_CLEARANCE:
            raise ContourError(f"pole at {p.omega} sits on the line Im(omega) = {-nu}")


def _g_times(g: Optional[Callable], omega: np.ndarray, scalar: np.ndarray) -> np.ndarray:
    """g F at (n,) frequencies, given F there: F itself when g is None."""
    if g is None:
        return scalar
    return np.asarray(g(omega), dtype=complex) * scalar


#: QUADPACK's qk21 rule on [-1, 1] (Piessens et al., 1983): the abscissae
#: x >= 0 of the 21-point Kronrod rule, its weights, and the weights of the
#: 10-point Gauss rule whose nodes are the abscissae _XGK[1::2]
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _gk21() -> Tuple[np.ndarray, np.ndarray]:
    """qk21's 21 nodes, ascending, and its (2, 21) weight table: the K21
    weights and the G10 weights, which are zero at the 11 Kronrod-only nodes."""
    g10 = np.zeros(11)
    g10[1::2] = _WG
    half = np.array([_XGK, _WGK, g10])
    full = np.concatenate([half[:, :-1], half[:, ::-1]], axis=1)
    full[0, :10] *= -1.0
    return full[0], full[1:]


_GK_NODES, _GK_WEIGHTS = _gk21()

#: Nodes evaluated at once in one Gauss-Kronrod pass: bounds the (n, d)
#: values and per-panel sums a pass holds, whatever the truncation radius.
_GL_BLOCK = 8192


def _pass(forcing: ForcingSpec, nu: float, times: np.ndarray, mids: np.ndarray,
          half: float) -> Tuple[np.ndarray, Iterator[tuple]]:
    """The Gauss-Kronrod pass over the panels [m - half, m + half] of sigma,
    m in mids, on Im(omega) = -nu: its rule table and its blocks.

    At the node x of the panel m, omega = (m - i nu) + half x, so the phase
    e^{-i t omega} is the panel's e^{-i t (m - i nu)} times e^{-i t half x},
    which every panel of the pass shares.  The (2T, 21) rule table is the K21
    and K21 - G10 weights times that shared phase.  The blocks are a lazy
    generator that yields, per block of at most _GL_BLOCK nodes, the (n,)
    Kronrod nodes, panel by panel, the forcing scalar F at them and the
    (T, panels) panel phases.
    """
    weights = half * np.stack([_GK_WEIGHTS[0], _GK_WEIGHTS[0] - _GK_WEIGHTS[1]])
    rule = (weights[:, None, :] * np.exp(-1j * half * np.multiply.outer(times, _GK_NODES))
            ).reshape(2 * times.size, _GK_NODES.size)

    def blocks():
        step = _GL_BLOCK // _GK_NODES.size
        for lo in range(0, mids.size, step):
            base = mids[lo:lo + step] - 1j * nu
            omega = (base[:, None] + half * _GK_NODES).ravel()
            yield omega, forcing.scalar(omega), np.exp(-1j * np.multiply.outer(times, base))

    return rule, blocks()


def _table_bytes(n_panels: int, n_times: int) -> int:
    """The bytes a first-pass table of n_panels panels and n_times times holds:
    its panel midpoints, rule table, nodes, F values and panel phases."""
    n_nodes = _GK_NODES.size
    return 8 * n_panels + 16 * (2 * n_times * n_nodes + n_panels * (2 * n_nodes + n_times))


#: the most bytes of first-pass tables _first_pass keeps, least recently used
#: dropped first; a line whose table alone exceeds it is not tabulated
_FIRST_PASS_BYTES = 1 << 23
#: key -> (mids, half, (rule, blocks), its bytes), least recently used first
_FIRST_PASSES: OrderedDict = OrderedDict()


def _first_pass(forcing: ForcingSpec, nu: float, times: np.ndarray,
                sigma_max: float) -> Tuple[np.ndarray, float, tuple]:
    """The uniform panels (mids, half) of line_integral's first pass and its
    (rule, blocks), as ``_pass`` builds them.

    The panels cover |sigma| <= sigma_max, sized to the e^{-i sigma t}
    oscillation of the largest time.  None of the pass depends on the
    resolvent, g or the payload, so its blocks are tabulated, read-only, as
    a tuple, once per line nu, radius, times and forcing shape (k, alpha),
    the key the table is kept under, and every model on that line reads it.
    A table that alone would exceed _FIRST_PASS_BYTES is not kept: its pass
    comes back with ``_pass``'s lazy blocks.
    """
    key = (np.array([nu, sigma_max, forcing.alpha]).tobytes(), forcing.k, times.tobytes())
    entry = _FIRST_PASSES.pop(key, None)
    if entry is None:
        plen = min(4.0, 8.0 / max(float(times.max()), 1.0))
        edges = np.linspace(-sigma_max, sigma_max,
                            max(8, int(np.ceil(2.0 * sigma_max / plen))) + 1)
        mids, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0])
        rule, blocks = _pass(forcing, nu, times, mids, half)
        size = _table_bytes(mids.size, times.size)
        if size > _FIRST_PASS_BYTES:
            return mids, half, (rule, blocks)
        blocks = tuple(blocks)
        for arr in (mids, rule, *(a for block in blocks for a in block)):
            arr.flags.writeable = False
        entry = (mids, half, (rule, blocks), size)
    _FIRST_PASSES[key] = entry
    while sum(kept[-1] for kept in _FIRST_PASSES.values()) > _FIRST_PASS_BYTES:
        _FIRST_PASSES.popitem(last=False)
    return entry[:3]


def _gl_line_sum(values: Callable, rule: np.ndarray, blocks: Iterable[tuple],
                 allowance: float) -> Tuple[np.ndarray, np.ndarray]:
    """One Gauss-Kronrod pass: the (rule, blocks) of ``_pass``, or the
    ``_first_pass`` table of the same form.

    values maps (n,) frequencies and the forcing scalar F at them to (n, d)
    values; it is evaluated once at the 21 Kronrod nodes of every panel,
    block by block.  The rule table contracts the 21 values of every panel
    of a block at once, and each panel's own phase scales the result.  A
    panel's error estimate is its largest distance, over the times, between
    its K21 and embedded G10 integrals.  Returns the (T, d) sum of the K21
    integrals of the panels whose estimate is at most allowance, and the
    (P,) mask of the others.
    """
    total, refine = 0.0, []
    for omega, scalar, phase in blocks:
        n_times, n_panels = phase.shape
        vals = values(omega, scalar)
        sums = np.tensordot(rule, vals.reshape(n_panels, _GK_NODES.size, -1), axes=(1, 1))
        kronrod, error = sums.reshape(2, n_times, n_panels, -1) * phase[:, :, None]
        rough = np.linalg.norm(error, axis=2).max(axis=0) > allowance
        total = total + kronrod[:, ~rough].sum(axis=1)
        refine.append(rough)
    return total, np.concatenate(refine)


def _integrand(resolvent: RationalResolvent, forcing: ForcingSpec,
               g: Optional[Callable], omega: np.ndarray, scalar: np.ndarray) -> np.ndarray:
    """g R F_hat at (n,) frequencies, given the forcing scalar F there: the
    (n,) scalar g F times R(omega) payload."""
    return _g_times(g, omega, scalar)[:, None] * resolvent.eval_many(omega, forcing.payload)


#: the most times line_integral bisects a panel: its finest panels are those
#: of 16 times the first pass's uniform panel count
_MAX_BISECTIONS = 4


def line_integral(resolvent: RationalResolvent, forcing: ForcingSpec, g: Optional[Callable],
                  nu: float, times, sigma_max: float = 200.0,
                  tol: float = 1e-9) -> Tuple[np.ndarray, np.ndarray]:
    """Truncated inverse-Laplace integrals on the shifted line Im(omega) = -nu.

    (1/2 pi) * integral over |sigma| <= sigma_max of
        e^{-i omega t} g(omega) R(omega) F_hat(omega),  omega = sigma - i nu,
    for every t of the (T,) array times, by QUADPACK's G10/K21 Gauss-Kronrod
    pair, adaptively (after its qag: Piessens et al., 1983).  The first pass
    covers the line with n uniform panels sized to the e^{-i sigma t}
    oscillation of the largest t, and each later pass the halves of the panels
    the one before it bisected; ``_pass`` builds every pass.  The first pass
    depends only on nu, sigma_max, the times and the forcing's (k, alpha):
    ``_first_pass`` tabulates it once per such key, read-only, in a memo of
    at most _FIRST_PASS_BYTES, so every model that shares the line, radius,
    times and forcing shape reads it and evaluates only g and R itself.
    Every pass accepts each panel whose error estimate (the largest distance,
    over the times, between its K21 and embedded G10 values) is at most
    max(tol, 1e-14) times its share width / (2 sigma_max) of the line, adds
    its K21 value to the result, and bisects the others; the next pass
    evaluates only their halves, so no node is evaluated twice.  The estimates of the panels accepted this way sum to
    at most tol; after _MAX_BISECTIONS bisections (16n-panel widths) every
    panel is accepted.  Since a panel's estimate is its worst over the times,
    the panels of a batch of times are the union of each time's own.  Only the
    phase depends on t, so g R F_hat is evaluated once per node and shared by
    every time, and the integrand is analytic, so the rules converge
    spectrally.  Returns ((T, d) values, (T,) truncation estimates): the
    estimates are ``_tail_from_envelope`` of the ``_envelope`` at sigma_max,
    the tail formula ``choose_sigma_max`` applies.  F_hat is the forcing's
    scalar times its payload; g, when given, maps (n,) frequencies to (n,)
    values.
    """
    times = _as_times(times)
    _check_line_clear(resolvent, nu)

    def values(w, scalar):
        return _integrand(resolvent, forcing, g, w, scalar) / (2.0 * np.pi)

    mids, half, (rule, blocks) = _first_pass(forcing, nu, times, sigma_max)
    rate = max(tol, 1e-14) / sigma_max  # a panel's error allowance per unit half width
    value = 0.0
    for depth in range(_MAX_BISECTIONS + 1):
        allowance = rate * half if depth < _MAX_BISECTIONS else np.inf
        accepted, refine = _gl_line_sum(values, rule, blocks, allowance)
        value = value + accepted
        half *= 0.5
        mids = (mids[refine, None] + np.array([-half, half])).ravel()
        if not mids.size:
            break
        rule, blocks = _pass(forcing, nu, times, mids, half)
    envelope = _envelope(resolvent, forcing, g, nu, np.array([sigma_max]))
    return value, _tail_from_envelope(envelope[0], nu, times, sigma_max)


#: where the tail envelope is sampled, in units of the truncation radius
_TAIL_NODES = np.array([0.5, -0.5, 1.0, -1.0])


def _envelope(resolvent: RationalResolvent, forcing: ForcingSpec,
              g: Optional[Callable], nu: float, sigmas: np.ndarray) -> np.ndarray:
    """|g R F_hat| at sigma_max _TAIL_NODES on Im(omega) = -nu, for each of
    the (L,) radii sigmas: an (L, 4) array from one evaluation."""
    w = np.multiply.outer(sigmas, _TAIL_NODES).ravel() - 1j * nu
    return np.linalg.norm(_integrand(resolvent, forcing, g, w, forcing.scalar(w)),
                          axis=1).reshape(-1, 4)


def _tail_from_envelope(env: np.ndarray, nu: float, times: np.ndarray,
                        sigma_max: float) -> np.ndarray:
    """The (T,) tail estimates at radius sigma_max from its 4 envelope values,
    an extrapolation of the envelope beyond sigma_max from its measured
    algebraic decay.  The envelope does not depend on t, so four evaluations
    serve every time; only the factor e^{-nu t} does."""
    e_half = float(env[0] + env[1])
    e_full = float(env[2] + env[3])
    if e_full <= 0 or e_half <= 0:
        return np.zeros(times.size)
    p = np.log(e_half / e_full) / np.log(2.0)  # local algebraic decay exponent
    return (np.exp(-nu * times) * e_full * sigma_max
            / max(p - 1.0, 0.1) / (2.0 * np.pi))


#: the largest truncation radius choose_sigma_max returns
SIGMA_MAX_CAP = 6400.0


def choose_sigma_max(resolvent: RationalResolvent, forcing: ForcingSpec,
                     g: Optional[Callable], nu: float, times,
                     tol: float, start: float = 50.0) -> float:
    """Double the truncation radius until every time's tail estimate < tol/10,
    up to ``SIGMA_MAX_CAP``.

    The radii start, 2 start, ... below the cap are tried in order, but one
    ``_integrand`` call evaluates the envelope of every one of them.  Its
    values equal those of one call per radius bit for bit when every envelope
    node lies beyond the Beta-series radius of ``ForcingSpec.scalar``, whose
    closed form is then elementwise: with the default start every node has
    |s| >= 25 > max(10, 1.5k) for k <= 12.
    """
    times = _as_times(times)
    sigmas, sigma = [], start
    while sigma < SIGMA_MAX_CAP:
        sigmas.append(sigma)
        sigma *= 2.0
    envelope = _envelope(resolvent, forcing, g, nu, np.array(sigmas))
    for sigma, env in zip(sigmas, envelope):
        if _tail_from_envelope(env, nu, times, sigma).max() < tol / 10.0:
            return sigma
    return SIGMA_MAX_CAP


def band_subtract(resolvent: RationalResolvent, forcing: ForcingSpec,
                  g: Optional[Callable], nu1: float, nu2: float, times,
                  sigma_max: Optional[float] = None, tol: float = 1e-8) -> dict:
    """Contour subtraction: poles strictly between the two lines are isolated.

    difference = I_{nu1}(t) - I_{nu2}(t) equals the sum over poles with
    -nu2 < Im(omega) < -nu1 of their time-domain contributions.  With both
    lines traversed left to right, moving the contour downward encircles
    each strip pole in the negative direction, so each pole enters as minus
    its positively oriented circle term (verified here against quadrature;
    the residue oracle below uses exactly that orientation).  The reported
    mismatch is the norm of the difference of the two computations.

    times is a (T,) array and every time shares one truncation radius, one
    node set per line and one Cauchy ring per strip pole: ``difference``
    and ``residue_sum`` are (T, d), ``mismatch`` and ``truncation_estimate``
    are (T,), and ``sigma_max`` is one float, the radius the most demanding
    time and line need.
    """
    if not nu1 < nu2:
        raise ConfigError("need nu1 < nu2")
    times = _as_times(times)
    _check_line_clear(resolvent, nu1)
    _check_line_clear(resolvent, nu2)
    if sigma_max is None:
        sigma_max = max(choose_sigma_max(resolvent, forcing, g, nu, times, tol)
                        for nu in (nu1, nu2))
    i1, tail1 = line_integral(resolvent, forcing, g, nu1, times, sigma_max, tol)
    i2, tail2 = line_integral(resolvent, forcing, g, nu2, times, sigma_max, tol)
    difference = i1 - i2

    def windowed(w):
        # g is a polynomial, so g F is holomorphic and the ring applies; the
        # payload is constant and rides along
        return _g_times(g, w, forcing.scalar(w))[:, None] * forcing.payload

    residue_sum = np.zeros((times.size, resolvent.dim), dtype=complex)
    for pole in resolvent.poles_in_strip(-nu2, -nu1):
        residue_sum -= residue_time_term(pole, windowed, times)
    mismatch = np.linalg.norm(difference - residue_sum, axis=1)
    return {"difference": difference, "residue_sum": residue_sum,
            "mismatch": mismatch, "sigma_max": sigma_max,
            "truncation_estimate": tail1 + tail2}


# ---------------------------------------------------------------------------
# rank-one residues and detector amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixPencil:
    """P(omega) = P0 + (omega-center) P1 + (omega-center)^2 P2 (P2 optional)."""

    p0: np.ndarray
    p1: np.ndarray
    p2: Optional[np.ndarray] = None
    center: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=complex))
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=complex))
        if self.p2 is not None:
            object.__setattr__(self, "p2", np.asarray(self.p2, dtype=complex))

    @property
    def dim(self) -> int:
        return self.p0.shape[0]

    def __call__(self, omega: complex) -> np.ndarray:
        dw = omega - self.center
        val = self.p0 + dw * self.p1
        if self.p2 is not None:
            val = val + dw * dw * self.p2
        return val

    def derivative(self, omega: complex) -> np.ndarray:
        if self.p2 is None:
            return self.p1
        return self.p1 + 2.0 * (omega - self.center) * self.p2


#: rank_one_residue's kernel: the singular values at most _KERNEL_RTOL times
#: the largest; cauchy_residue's circle: _RESIDUE_NPTS nodes
_KERNEL_RTOL = 1e-8
_RESIDUE_NPTS = 128


def rank_one_residue(pencil: MatrixPencil, omega0: complex) -> dict:
    """Residue projector of P(omega)^-1 at a simple pole omega0.

    Pi f = <f, v0> u0 / <P'(omega0) u0, v0> with u0 spanning ker P(omega0)
    and v0 spanning the adjoint kernel (pairing <x, y> = y^H x).  The
    excitation denominator is reported: small values flag nonnormal
    amplification.
    """
    mat = pencil(omega0)
    u_svd, s, vh = np.linalg.svd(mat)
    if s[0] == 0:
        raise StructureError("pencil vanishes identically at omega0")
    if s[-1] > _KERNEL_RTOL * s[0]:
        raise StructureError("kernel dimension 0 at omega0 (not a pole)")
    if len(s) > 1 and s[-2] <= _KERNEL_RTOL * s[0]:
        raise StructureError("kernel dimension > 1 at omega0")
    u0 = vh[-1].conj()
    v0 = u_svd[:, -1]
    denom = complex(np.vdot(v0, pencil.derivative(omega0) @ u0))
    if abs(denom) < 1e-12 * float(np.linalg.norm(pencil.derivative(omega0))):
        raise StructureError("vanishing excitation denominator (higher-order pole?)")
    projector = np.outer(u0, v0.conj()) / denom
    return {"projector": projector, "u0": u0, "v0": v0, "denom": denom}


def cauchy_residue(fn: Callable, omega0: complex, radius: float = 1e-3) -> np.ndarray:
    """(1/2 pi i) contour integral of a matrix-valued fn around omega0."""
    theta = 2.0 * np.pi * np.arange(_RESIDUE_NPTS) / _RESIDUE_NPTS
    ring = np.exp(1j * theta)
    total = None
    for w in ring:
        val = np.asarray(fn(omega0 + radius * w), dtype=complex) * w
        total = val if total is None else total + val
    return radius * total / _RESIDUE_NPTS


def amplitude_pairing(f_at_pole: np.ndarray, u0: np.ndarray, v0: np.ndarray,
                      p1: np.ndarray, detector: np.ndarray) -> complex:
    """Scalar detector amplitude (<F_hat, v0> / <P1 u0, v0>) * detector(u0).

    Vanishes iff the detector annihilates the resonant state u0 or the data
    are orthogonal to the dual state v0.
    """
    denom = complex(np.vdot(v0, np.asarray(p1) @ np.asarray(u0)))
    if denom == 0:
        raise StructureError("excitation denominator vanishes")
    pairing = complex(np.vdot(v0, np.asarray(f_at_pole)))
    return pairing / denom * complex(np.dot(np.asarray(detector), np.asarray(u0)))


# ---------------------------------------------------------------------------
# localized pseudospectrum
# ---------------------------------------------------------------------------

@dataclass
class PseudospectrumModel:
    """Scalar toy model: resolvent norm profile hol + E+ E- / |q(omega)|.

    q is the product over (omega - pole_j) of N distinct poles with minimum
    separation d.  c_q = min_j |q'(pole_j)| / 2^max(N-1, 1) is the linear
    lower-bound constant |q(omega)| >= c_q r, r the distance to the nearest
    pole, which holds wherever r <= d/2: there every other pole is at least
    half its distance to the nearest one away.  Where r > d/2 every factor
    is at least r, so |q(omega)| >= r^N.
    """

    poles: tuple
    e_plus: float = 1.0
    e_minus: float = 1.0
    hol_bound: float = 0.0

    def __post_init__(self):
        self.poles = tuple(complex(p) for p in self.poles)
        # |q'(pole_j)| is the product of the distances to the other poles
        prods = []
        for j, pj in enumerate(self.poles):
            others = [pj - pk for k, pk in enumerate(self.poles) if k != j]
            prods.append(np.prod([abs(d) for d in others]) if others else 1.0)
        self.c_q = float(min(prods)) / 2.0 ** max(len(self.poles) - 1, 1)
        self.min_sep = min((abs(pj - pk) for j, pj in enumerate(self.poles)
                            for pk in self.poles[j + 1:]), default=np.inf)
        self._profile = (None, None)

    def q(self, omega):
        omega = np.asarray(omega, dtype=complex)
        val = np.ones(omega.shape, dtype=complex)
        for p in self.poles:
            val *= omega - p
        return val

    def norm(self, omega):
        with np.errstate(divide="ignore"):
            return self.hol_bound + self.e_plus * self.e_minus / np.abs(self.q(omega))

    def profile(self, re_grid: np.ndarray, im_grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The norm and the distance to the nearest pole at every point of
        the grid re_grid + i im_grid: two (len(im_grid), len(re_grid)) arrays.

        Neither depends on eps, so the last grid's pair is kept and every
        scan of that grid, one per eps of a run, reads it.
        """
        key = (re_grid.tobytes(), im_grid.tobytes())
        if self._profile[0] != key:
            omega = re_grid[None, :] + 1j * im_grid[:, None]
            dist = np.abs(omega - self.poles[0])
            for p in self.poles[1:]:
                np.minimum(dist, np.abs(omega - p), out=dist)
            self._profile = (key, (self.norm(omega), dist))
        return self._profile[1]

    def disk_radius(self, eps: float) -> float:
        """Certified confinement radius around the poles at level eps.

        A point with norm > 1/eps has |q| < q_crit = eps E+ E- / (1 - eps hol).
        By the two lower bounds on |q| (class docstring) its distance r to
        the nearest pole satisfies r < q_crit/c_q when q_crit <= (d/2)^N,
        and r <= max(d/2, q_crit^(1/N)) in every case.
        """
        if eps * self.hol_bound >= 1.0:
            raise HypothesisError("eps too large: holomorphic part saturates 1/eps")
        q_crit = eps * self.e_plus * self.e_minus / (1.0 - eps * self.hol_bound)
        n = len(self.poles)
        half_sep = 0.5 * self.min_sep
        if q_crit <= np.float64(half_sep) ** n:  # inf, not OverflowError, when huge
            return q_crit / self.c_q
        return max(half_sep, q_crit ** (1.0 / n))


def pseudospectrum_scan(model: PseudospectrumModel, re_grid: np.ndarray,
                        im_grid: np.ndarray, eps: float,
                        require_resolved: bool = False) -> dict:
    """Mark grid points where the model norm exceeds 1/eps; check confinement.

    Returns the boolean region mask, the certified disk radius, and how many
    flagged points lie farther than that radius from every pole (the inclusion
    needs none); with require_resolved, a grid coarser than it raises.  The
    norm and pole distances come from ``model.profile``, so of the scans of
    one grid at several eps only the first evaluates them.
    """
    re_grid = np.asarray(re_grid, dtype=float)
    im_grid = np.asarray(im_grid, dtype=float)
    radius = model.disk_radius(eps)
    spacing = max(np.diff(re_grid).max(), np.diff(im_grid).max())
    if require_resolved and spacing > radius:
        raise ResolutionError(
            f"grid spacing {spacing:.3g} coarser than predicted radius {radius:.3g}")
    norm, dist = model.profile(re_grid, im_grid)
    mask = norm > 1.0 / eps
    violations = int(np.count_nonzero(mask & (dist > radius)))
    return {"mask": mask, "radius": radius, "violations": violations,
            "spacing": float(spacing), "n_flagged": int(np.count_nonzero(mask))}
