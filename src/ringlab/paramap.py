"""Synthetic pseudopole lattice over parameters and explicit bias bounds.

The lattice places pseudopoles at ell*(u(p) +/- v(p)) - i (j + 1/2) lam(p)
for configurable smooth functions (u, v, lam) of the parameter point, so
that the normalized observables U, V, W-tilde invert it exactly.  The bias
theorems are map-agnostic given the inverse stability constant C*, which is
measured on a grid rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, InversionError

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class ParameterPoint:
    """Mass M > 0, rotation a, cosmological constant lam > 0 (9*lam*M^2 < 1)."""

    m: float
    a: float
    lam: float = 0.0

    def __post_init__(self):
        if self.m <= 0:
            raise ConfigError("mass must be positive")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")
        if 9.0 * self.lam * self.m**2 >= 1.0:
            raise ConfigError("need 9*lam*M^2 < 1 (photon-sphere frequency real)")

    def as_array(self, three_param: bool) -> np.ndarray:
        if three_param:
            return np.array([self.m, self.a, self.lam])
        return np.array([self.m, self.a])

    @staticmethod
    def from_array(x: np.ndarray, lam_fixed: Optional[float] = None) -> "ParameterPoint":
        if len(x) == 3:
            return ParameterPoint(m=float(x[0]), a=float(x[1]), lam=float(x[2]))
        return ParameterPoint(m=float(x[0]), a=float(x[1]),
                              lam=0.0 if lam_fixed is None else lam_fixed)


def photon_sphere_frequency(m: float, lam: float = 0.0) -> float:
    """Coordinate-time orbital frequency sqrt(1 - 9 lam M^2) / (3 sqrt(3) M)."""
    if m <= 0:
        raise ConfigError("mass must be positive")
    x = 9.0 * lam * m**2
    if x >= 1.0:
        raise ConfigError("extremal or over-extremal: 9*lam*M^2 >= 1")
    return float(np.sqrt(1.0 - x) / (3.0 * np.sqrt(3.0) * m))


@dataclass(frozen=True)
class LatticeModel:
    """Pseudopole lattice ell*(u +/- v) - i (j+1/2) lam over parameter points.

    u_fn: scaled mean frequency, v_fn: scaled splitting, lam_fn: damping
    scale; overtone layers are strictly ordered in Im as long as lam_fn > 0.
    """

    u_fn: Callable[[ParameterPoint], float]
    v_fn: Callable[[ParameterPoint], float]
    lam_fn: Callable[[ParameterPoint], float]
    n: int = 0
    ell: int = 100

    def __post_init__(self):
        if self.n < 0 or self.ell < 1:
            raise ConfigError("need overtone n >= 0 and ell >= 1")

    def data_map(self, p: ParameterPoint, three_param: bool) -> np.ndarray:
        if three_param:
            return np.array([self.u_fn(p), self.v_fn(p), self.lam_fn(p)])
        return np.array([self.u_fn(p), self.v_fn(p)])


def default_lattice(kappa: float = 0.3, lam_kind: str = "photon_sphere",
                    lam_value: float = 0.2, n: int = 0, ell: int = 100) -> LatticeModel:
    """Default lattice: u = photon-sphere frequency, v = kappa * a.

    lam_kind selects the damping scale: 'photon_sphere' reuses u (fine for
    two-parameter work, degenerate for three), 'gap_over_mass' uses
    (1 - 9 lam M^2)/M (independent of u, suitable for three-parameter
    inversion), 'constant' uses lam_value.
    """
    if kappa <= 0:
        raise ConfigError("kappa must be positive")
    u_fn = lambda p: photon_sphere_frequency(p.m, p.lam)
    v_fn = lambda p: kappa * p.a
    if lam_kind == "photon_sphere":
        lam_fn = u_fn
    elif lam_kind == "gap_over_mass":
        lam_fn = lambda p: (1.0 - 9.0 * p.lam * p.m**2) / p.m
    elif lam_kind == "constant":
        if lam_value <= 0:
            raise ConfigError("constant damping scale must be positive")
        lam_fn = lambda p: lam_value
    else:
        raise ConfigError(f"unknown lam_kind {lam_kind!r}")
    return LatticeModel(u_fn=u_fn, v_fn=v_fn, lam_fn=lam_fn, n=n, ell=ell)


def pseudopole(model: LatticeModel, j: int, sign: int, p: ParameterPoint) -> complex:
    """Lattice pseudopole ell*(u + sign*v) - i (j + 1/2) lam at parameter p."""
    if sign not in (+1, -1):
        raise ConfigError("sign must be +1 or -1")
    if j < 0:
        raise ConfigError("overtone index must be nonnegative")
    u, v, lam = model.u_fn(p), model.v_fn(p), model.lam_fn(p)
    return model.ell * (u + sign * v) - 1j * (j + 0.5) * lam


def observables(omega_plus: complex, omega_minus: complex, ell: int, n: int) -> dict:
    """Normalized observables U, V and the damping observable W_tilde.

    U = Re(w+ + w-)/(2 ell), V = Re(w+ - w-)/(2 ell),
    W_tilde = -Im(w+)/(n + 1/2).
    """
    if ell < 1:
        raise ConfigError("ell must be >= 1")
    return {
        "U": (omega_plus + omega_minus).real / (2.0 * ell),
        "V": (omega_plus - omega_minus).real / (2.0 * ell),
        "W": -omega_plus.imag / (n + 0.5),
    }


def data_map_error_bound(delta_omega_plus: complex, delta_omega_minus: complex,
                         ell: int, n: Optional[int] = None) -> float:
    """Bound for the data-map perturbation from frequency errors.

    Two components: sqrt(2)/(2 ell) (|dw+| + |dw-|); with the damping
    observable (n given) the extra term |dw+|/(n + 1/2) is added.
    """
    base = SQRT2 / (2.0 * ell) * (abs(delta_omega_plus) + abs(delta_omega_minus))
    if n is None:
        return base
    return base + abs(delta_omega_plus) / (n + 0.5)


def _fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                 rel_step: float = 1e-6) -> np.ndarray:
    fx = fun(x)
    jac = np.zeros((len(fx), len(x)))
    for j in range(len(x)):
        h = rel_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return jac


def invert_data(model: LatticeModel, data: dict, guess: ParameterPoint,
                tol: float = 1e-12, max_iter: int = 50,
                box: Optional[Sequence[Tuple[float, float]]] = None) -> dict:
    """Damped Newton inversion of the lattice data map.

    data holds U, V and optionally W (three-parameter mode).  The iteration
    stops when the residual norm drops below tol; a singular Jacobian,
    non-convergence within max_iter, or a converged point outside the box
    raises InversionError.
    """
    three = "W" in data
    target = np.array([data["U"], data["V"]] + ([data["W"]] if three else []))
    lam_fixed = guess.lam

    def fun(x: np.ndarray) -> np.ndarray:
        p = ParameterPoint.from_array(x, lam_fixed=lam_fixed)
        return model.data_map(p, three) - target

    x = guess.as_array(three)
    n_iter = 0
    res = fun(x)
    while np.linalg.norm(res) > tol:
        if n_iter >= max_iter:
            raise InversionError(f"Newton did not converge in {max_iter} iterations")
        jac = _fd_jacobian(fun, x)
        det = np.linalg.det(jac)
        if not np.isfinite(det) or abs(det) < 1e-14 * np.linalg.norm(jac, 2) ** len(x):
            raise InversionError("singular Jacobian of the data map")
        step = np.linalg.solve(jac, -res)
        lam_damp = 1.0
        base = np.linalg.norm(res)
        while lam_damp > 1.0 / 1024.0:
            try:
                trial = x + lam_damp * step
                trial_res = fun(trial)
            except ConfigError:
                lam_damp *= 0.5
                continue
            if np.linalg.norm(trial_res) < base:
                break
            lam_damp *= 0.5
        else:
            raise InversionError("damped Newton stalled (no descent direction)")
        x = x + lam_damp * step
        res = fun(x)
        n_iter += 1
    if box is not None:
        for val, (lo, hi) in zip(x, box):
            if not (lo <= val <= hi):
                raise InversionError(
                    f"converged point {x} leaves the parameter box")
    return {"point": ParameterPoint.from_array(x, lam_fixed=lam_fixed),
            "iterations": n_iter, "residual": float(np.linalg.norm(res))}


def inverse_constants(model: LatticeModel,
                      box: Sequence[Tuple[float, float]],
                      grid_n: int = 5, three_param: Optional[bool] = None,
                      rel_step: float = 1e-6) -> dict:
    """Grid estimates of the inverse stability constants of the data map.

    c_star = min |det D G| over the grid, C_star = max ||(D G)^-1||_2
    (Lipschitz constant of the local inverse); Jacobians by central
    differences.  The box is [(M_lo, M_hi), (a_lo, a_hi)[, (lam_lo, lam_hi)]].
    """
    if three_param is None:
        three_param = len(box) == 3
    if len(box) != (3 if three_param else 2):
        raise ConfigError("box dimension must match the inversion mode")
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    c_star = np.inf
    big_c = 0.0

    def fun(x: np.ndarray) -> np.ndarray:
        p = ParameterPoint.from_array(x, lam_fixed=None if three_param else 0.0)
        return model.data_map(p, three_param)

    for x in pts:
        jac = _fd_jacobian(fun, x, rel_step=rel_step)
        det = np.linalg.det(jac)
        if not np.isfinite(det) or det == 0:
            raise InversionError(f"singular data-map Jacobian at {x}")
        c_star = min(c_star, abs(det))
        big_c = max(big_c, float(np.linalg.norm(np.linalg.inv(jac), 2)))
    return {"c_star": float(c_star), "C_star": big_c, "grid_n": grid_n,
            "rel_step": rel_step}


def _check_eps_flags(eps_plus: float, eps_minus: float,
                     z_plus: complex, z_minus: complex) -> bool:
    return (eps_plus <= min(0.125, abs(z_plus) / 20.0)
            and eps_minus <= min(0.125, abs(z_minus) / 20.0))


def bias_bound_2p(eps_plus: float, eps_minus: float, z_plus: complex,
                  z_minus: complex, delta: float, ell: int,
                  c_star: float) -> dict:
    """Two-parameter bias bound (5 sqrt2 C*/(Delta ell)) (e+/|z+| + e-/|z-|).

    The certifying hypothesis eps <= min(1/8, |z|/20) is reported as a flag,
    never enforced.
    """
    bound = (5.0 * SQRT2 * c_star / (delta * ell)
             * (eps_plus / abs(z_plus) + eps_minus / abs(z_minus)))
    return {"bound": float(bound),
            "eps_small": _check_eps_flags(eps_plus, eps_minus, z_plus, z_minus)}


def bias_bound_split(eps_tail: Tuple[float, float], eps_meas: Tuple[float, float],
                     z_plus: complex, z_minus: complex, delta: float, ell: int,
                     c_star: float) -> dict:
    """Tail/measurement split of the two-parameter bias bound."""
    pref = 5.0 * SQRT2 * c_star / (delta * ell)
    b_tail = pref * (eps_tail[0] / abs(z_plus) + eps_tail[1] / abs(z_minus))
    b_meas = pref * (eps_meas[0] / abs(z_plus) + eps_meas[1] / abs(z_minus))
    return {"bound_tail": float(b_tail), "bound_meas": float(b_meas),
            "bound": float(b_tail + b_meas)}


def bias_bound_3p(eps_plus: float, eps_minus: float, z_plus: complex,
                  z_minus: complex, delta: float, ell: int, n: int,
                  c_star3: float) -> dict:
    """Three-parameter bias bound: the 2p term plus the damping-channel term
    (10 C*3/(Delta (n+1/2))) e+/|z+|."""
    if n < 0:
        raise ConfigError("overtone index must be nonnegative")
    base = (5.0 * SQRT2 * c_star3 / (delta * ell)
            * (eps_plus / abs(z_plus) + eps_minus / abs(z_minus)))
    extra = 10.0 * c_star3 / (delta * (n + 0.5)) * eps_plus / abs(z_plus)
    return {"bound": float(base + extra),
            "eps_small": _check_eps_flags(eps_plus, eps_minus, z_plus, z_minus)}
