"""Entire interpolation windows built from pseudopole nodes.

The window is a polynomial equal to 1 at a target node and 0 at the other
nodes, optionally multiplied by (omega/target)^m0 to plant a high-order
zero at the origin.  Two representations are kept side by side: the node
product (well conditioned for evaluation) and expanded coefficients (for
derivatives and the finite-difference realization g(i d/dt) on sampled
signals).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .signal_model import Mode, SampledSignal

def lagrange_robustness_constant(n: int) -> float:
    """The constant C_n of the robustness bound C_n * delta / d_sharp for
    perturbed nodes."""
    return 4.0 * (5.0 / 3.0) ** n


@dataclass(frozen=True)
class PseudopoleSet:
    """Pairwise distinct pseudopole nodes with cached minimal separation."""

    nodes: tuple

    def __post_init__(self):
        nodes = tuple(complex(z) for z in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise ConfigError("need at least one pseudopole node")
        if len(nodes) > 1 and self.min_sep == 0.0:
            raise ConfigError("pseudopole nodes must be pairwise distinct")

    @property
    def min_sep(self) -> float:
        """d_sharp: minimal pairwise distance (inf for a single node)."""
        z = np.asarray(self.nodes)
        if len(z) == 1:
            return np.inf
        diffs = np.abs(z[:, None] - z[None, :])
        return float(diffs[~np.eye(len(z), dtype=bool)].min())

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class WindowPolynomial:
    """(omega/z_target)^m0 times the Lagrange weight of the target node z_target."""

    nodes: PseudopoleSet
    target: int
    m0: int = 0

    def __post_init__(self):
        if not (0 <= self.target < len(self.nodes)):
            raise ConfigError("target index out of range")
        if self.m0 < 0:
            raise ConfigError("m0 must be nonnegative")
        if self.m0 > 0 and self.target_power == 0:
            raise ConfigError("modified window normalizer vanishes (target^m0 is 0)")

    @property
    def target_power(self) -> complex:
        """z_target^m0; numpy's power overflows to inf where Python's raises."""
        return complex(np.complex128(self.nodes.nodes[self.target]) ** self.m0)

    @property
    def degree(self) -> int:
        return len(self.nodes) - 1 + self.m0

    def __call__(self, omega):
        """Evaluate via the node product (well conditioned)."""
        omega = np.asarray(omega, dtype=complex)
        zt = self.nodes.nodes[self.target]
        val = np.ones(omega.shape, dtype=complex)
        for j, zj in enumerate(self.nodes.nodes):
            if j == self.target:
                continue
            val = val * (omega - zj) / (zt - zj)
        if self.m0:
            val = val * (omega / zt) ** self.m0
        return val if val.shape else complex(val)

    def coefficients(self) -> np.ndarray:
        """Expanded coefficients, ascending powers of omega."""
        zt = self.nodes.nodes[self.target]
        others = [z for j, z in enumerate(self.nodes.nodes) if j != self.target]
        denom = np.prod([zt - z for z in others]) if others else 1.0
        roots = list(others) + [0.0] * self.m0
        poly = np.array([1.0 + 0.0j])
        for r in roots:
            poly = np.convolve(poly, np.array([-r, 1.0], dtype=complex))
        scale = 1.0 / (denom * self.target_power)
        return poly * scale

    def derivative_coefficients(self, r: int) -> np.ndarray:
        """Coefficients of the r-th derivative (ascending powers)."""
        c = self.coefficients()
        for _ in range(r):
            c = c[1:] * np.arange(1, len(c))
            if len(c) == 0:
                return np.zeros(1, dtype=complex)
        return c

    def derivative(self, omega, r: int = 1):
        c = self.derivative_coefficients(r)
        omega = np.asarray(omega, dtype=complex)
        val = np.zeros(omega.shape, dtype=complex)
        for ck in c[::-1]:
            val = val * omega + ck
        return val if val.shape else complex(val)


def lagrange_weight(nodes: PseudopoleSet, m: int) -> WindowPolynomial:
    """Degree-n Lagrange weight: 1 at node m, 0 at the other nodes."""
    return WindowPolynomial(nodes=nodes, target=m, m0=0)


def modified_window(nodes: PseudopoleSet, target: Optional[int] = None,
                    m0: Optional[int] = None) -> WindowPolynomial:
    """Lagrange weight at the target times (omega/target)^m0.

    Defaults: target is the last node, m0 = n + 2 with n = len(nodes) - 1.
    The extra zero of order m0 at the origin keeps the window uniformly
    bounded on compact sets when the nodes scale to high frequency.
    """
    n = len(nodes) - 1
    target = n if target is None else target
    m0 = n + 2 if m0 is None else m0
    return WindowPolynomial(nodes=nodes, target=target, m0=m0)


def growth_profile(w: WindowPolynomial, nu: float, sigma_grid: Sequence[float],
                   r: int = 0) -> np.ndarray:
    """|d^r w(sigma - i nu)| on a real grid, by exact polynomial differentiation."""
    sigma = np.asarray(sigma_grid, dtype=float)
    return np.abs(w.derivative(sigma - 1j * nu, r) if r else w(sigma - 1j * nu))


def interp_robustness(nodes: PseudopoleSet, perturbed: Sequence[complex],
                      m: Optional[int] = None) -> dict:
    """Interpolation identities of the Lagrange weight at perturbed nodes.

    Returns deviations |G_m(node_m) - 1| and |G_m(node_j)| (j != m) together
    with delta = max perturbation, d_sharp, and the hypothesis flag
    delta <= d_sharp / 8.  Deviations are computed regardless of the flag;
    the bound 4*(5/3)^n * delta/d_sharp is only guaranteed when it holds.
    One node's weight is the constant 1, so its bound is 0.
    """
    n = len(nodes) - 1
    if len(perturbed) != n + 1:
        raise ConfigError("perturbed node count must match")
    m = n if m is None else m
    g = lagrange_weight(nodes, m)
    pert = [complex(z) for z in perturbed]
    delta = max(abs(p - z) for p, z in zip(pert, nodes.nodes))
    d_sharp = nodes.min_sep
    dev_target = abs(g(pert[m]) - 1.0)
    dev_off = [abs(g(p)) for j, p in enumerate(pert) if j != m]
    return {
        "dev_target": dev_target,
        "dev_off": dev_off,
        "delta": delta,
        "d_sharp": d_sharp,
        "hypothesis_ok": delta <= d_sharp / 8.0,
        "bound": lagrange_robustness_constant(n) * delta / d_sharp if n else 0.0,
    }


def apply_window_modal(modes: Sequence[Mode], w: WindowPolynomial) -> list:
    """Exact modal action: each amplitude is scaled by w(omega_j).  A Mode is
    a simple pole's term; a higher-order pole's polynomial prefactor would mix
    with window derivatives."""
    return [Mode(freq=mode.freq, amp=mode.amp * complex(w(mode.freq))) for mode in modes]


def centered_stencil(deriv_order: int, accuracy: int, dt: float) -> np.ndarray:
    """Centered finite-difference weights for d^q/dt^q of accuracy ``accuracy``.

    Solves the local moment (Vandermonde) system on offsets -K..K with
    K = (q + accuracy - 1) // 2, the minimal symmetric width: odd moments
    beyond the solved range vanish by symmetry, so the nominal order is met
    for both parities of q.  Returns the 2K+1 weights.
    """
    if accuracy < 2 or accuracy % 2:
        raise ConfigError("stencil accuracy must be a positive even integer")
    q = deriv_order
    k = (q + accuracy - 1) // 2
    offsets = list(range(-k, k + 1))
    rows = len(offsets)
    # exact rational solve: integer Vandermonde systems are ill-conditioned
    # in floats and the ~1e-10 weight error would floor high-order stencils
    from fractions import Fraction

    a = [[Fraction(off) ** s for off in offsets] for s in range(rows)]
    b = [Fraction(math.factorial(q)) if s == q else Fraction(0)
         for s in range(rows)]
    for col in range(rows):
        piv = next((r for r in range(col, rows) if a[r][col] != 0), None)
        if piv is None:
            raise ConfigError("stencil moment system singular")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(rows):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - factor * b[col]
    wts = np.array([float(b[r] / a[r][r]) for r in range(rows)])
    return wts / dt**q


def fd_trim(degree: int, stencil_order: int) -> int:
    """Nodes per side that ``apply_window_fd`` trims for a degree-``degree``
    window: the half-width (degree + p - 1)//2 of the widest stencil, 0 for
    a constant window."""
    return (degree + stencil_order - 1) // 2 if degree else 0


def apply_window_fd(signal: SampledSignal, w: WindowPolynomial,
                    stencil_order: int = 8) -> SampledSignal:
    """Apply w(i d/dt) to a sampled signal with centered stencils.

    On a pure mode exp(-i omega t) the symbol of i d/dt is omega, so the
    output amplitude is w(omega) up to O((|omega| dt)^p) with p the stencil
    accuracy.  The output grid loses ``fd_trim(degree, p)`` nodes per side.
    """
    coeffs = w.coefficients()
    kmax = fd_trim(len(coeffs) - 1, stencil_order)
    n = len(signal)
    if n - 2 * kmax < 4:
        raise ConfigError("not enough samples for the requested stencil")
    core = slice(kmax, n - kmax)
    out = np.zeros(n - 2 * kmax, dtype=complex)
    for q, cq in enumerate(coeffs):
        if cq == 0:
            continue
        if q == 0:
            out += cq * signal.values[core]
            continue
        wts = centered_stencil(q, stencil_order, signal.dt)
        k = fd_trim(q, stencil_order)
        acc = np.zeros(n - 2 * k, dtype=complex)
        for j, wt in enumerate(wts):
            acc += wt * signal.values[j:j + n - 2 * k]
        trim = kmax - k
        acc = acc[trim:len(acc) - trim] if trim else acc
        out += cq * (1j) ** q * acc
    return SampledSignal(t_start=signal.t_start + kmax * signal.dt,
                         dt=signal.dt, values=out)
