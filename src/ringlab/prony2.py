"""Four-sample recovery of a two-exponential signal and its conditioning.

Noiseless samples y_j = a1 z1^j + a2 z2^j satisfy the order-2 recurrence
y_{j+2} = s1 y_{j+1} - s2 y_j with s1 = z1 + z2, s2 = z1 z2, so four
consecutive samples determine (s1, s2) through a 2x2 linear system whose
determinant is the Hankel quantity delta0 = y0 y2 - y1^2 = a1 a2 (z1-z2)^2.
Near node coalescence that determinant degenerates quadratically and the
root split adds another inverse power of the separation: the worst-case
root error scales like eta / (|a1 a2| |z1 - z2|^3).  The confluent model
y_j = (b0 + b1 j) z^j is the stable parametrization at the coalescence
limit and is used as the fallback.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import CALIBRATED_C_HAT  # noqa: F401  (its statement and calibration)
from .errors import ConfigError, StructureError

#: route to the confluent fit below this relative Hankel determinant size
CONFLUENCE_THRESHOLD = 1e-8

#: smallness constant c0 in eta <= c0 |a1 a2| |z1 - z2|^4
SMALLNESS_C0 = 1e-2

#: midpoint of the node pairs of separation_scaling_probe and of the
#: calibration grid of CALIBRATED_C_HAT (tests/conftest.py's calibrate_c_hat)
Z_CENTER = 0.7
#: perturbation directions of conditioning_report's slope probe (seed 0)
REPORT_DIRECTIONS = 32


@dataclass
class PronyResult:
    s1: complex
    s2: complex
    z1: complex
    z2: complex
    delta0: complex
    confluent: bool = False
    b0: Optional[complex] = None
    b1: Optional[complex] = None
    labels: Tuple[int, int] = (0, 1)
    label_ambiguous: bool = False
    residual: float = 0.0

    @property
    def roots(self) -> Tuple[complex, complex]:
        return (self.z1, self.z2)


def hankel_det(y0: complex, y1: complex, y2: complex) -> complex:
    """delta0 = y0 y2 - y1^2; equals a1 a2 (z1 - z2)^2 on exact two-mode data."""
    return y0 * y2 - y1 * y1


def _quadratic_roots(s1: complex, s2: complex) -> Tuple[complex, complex]:
    """Roots of lambda^2 - s1 lambda + s2 with a cancellation-safe sign choice."""
    disc = s1 * s1 - 4.0 * s2
    sq = np.sqrt(disc + 0.0j)
    # pick the sign that adds constructively to s1
    if (np.conj(s1) * sq).real < 0.0:
        sq = -sq
    big = 0.5 * (s1 + sq)
    if big == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    return big, s2 / big


def _sample_residual(ys: Sequence[complex], model) -> float:
    """Max deviation of the model from the third and fourth samples."""
    return float(max(abs(ys[2] - model(2)), abs(ys[3] - model(3))))


def two_node_fit(y0: complex, y1: complex, y2: complex, y3: complex) -> PronyResult:
    """Solve the 2x2 recurrence system and split the roots; no routing."""
    delta0 = hankel_det(y0, y1, y2)
    if delta0 == 0:
        raise StructureError("two-node fit: Hankel determinant vanishes")
    s1 = (y0 * y3 - y1 * y2) / delta0
    s2 = (y1 * y3 - y2 * y2) / delta0
    z1, z2 = _quadratic_roots(s1, s2)
    # amplitudes from the first two samples, residual on the last two
    det = z1 - z2
    if det != 0:
        a2 = (y1 - z1 * y0) / (z2 - z1)
        a1 = y0 - a2
        resid = _sample_residual(
            (y0, y1, y2, y3), lambda j: a1 * z1**j + a2 * z2**j)
    else:
        resid = _sample_residual(
            (y0, y1, y2, y3), lambda j: s1 * (y1 if j == 2 else y2) - s2 * (y0 if j == 2 else y1))
    return PronyResult(s1=s1, s2=s2, z1=z1, z2=z2, delta0=delta0,
                       residual=resid)


def confluent_fit(y0: complex, y1: complex, y2: complex, y3: complex) -> PronyResult:
    """Fit the confluent model y_j = (b0 + b1 j) z^j.

    The double-root recurrence has s2 = (s1/2)^2, so s1 solves the quadratic
    (y0/4) s1^2 - y1 s1 + y2 = 0; among the two candidates the one with the
    smaller recurrence residual on y3 wins.
    (b0, b1) follow linearly from y0, y1; the residual on y2, y3 is reported.
    """
    if abs(y0) > 0:
        a, b, c = y0 / 4.0, -y1, y2
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(disc + 0.0j)
        if (np.conj(b) * sq).real > 0.0:
            sq = -sq  # align sq with -b to avoid cancellation
        big = -b + sq
        if big != 0:
            s1_cands = [big / (2.0 * a), 2.0 * c / big]
        else:
            s1_cands = [0.0 + 0.0j]
        cands = [0.5 * s for s in s1_cands]  # z = s1/2
    elif abs(y1) > 0:
        cands = [0.5 * (y2 / y1)]
    else:
        raise StructureError("confluent fit needs a nonzero leading sample")

    def recur_resid(z: complex) -> float:
        s1, s2 = 2.0 * z, z * z
        return abs(y3 - (s1 * y2 - s2 * y1)) + abs(y2 - (s1 * y1 - s2 * y0))

    cands = [z for z in cands if z != 0] or cands
    cands.sort(key=recur_resid)
    z = cands[0]
    if z == 0:
        raise StructureError("confluent fit: degenerate node z = 0")
    b0 = y0
    b1 = y1 / z - b0
    resid = _sample_residual(
        (y0, y1, y2, y3), lambda j: (b0 + b1 * j) * z**j)
    return PronyResult(s1=2.0 * z, s2=z * z, z1=z, z2=z,
                       delta0=hankel_det(y0, y1, y2), confluent=True,
                       b0=b0, b1=b1, residual=resid)


def prony4(y0: complex, y1: complex, y2: complex, y3: complex,
           z_priors: Optional[Tuple[complex, complex]] = None,
           force_two_node: bool = False) -> PronyResult:
    """Two-exponential recovery from four consecutive samples.

    Routes to the confluent fit when |delta0| falls below
    CONFLUENCE_THRESHOLD * max(1, |y0|, |y1|, |y2|)^2 (the determinant
    scales quadratically in the sample magnitude).  With priors supplied,
    the recovered nodes are labeled against them.
    """
    delta0 = hankel_det(y0, y1, y2)
    scale = max(1.0, abs(y0), abs(y1), abs(y2)) ** 2
    if not force_two_node and abs(delta0) < CONFLUENCE_THRESHOLD * scale:
        return confluent_fit(y0, y1, y2, y3)
    result = two_node_fit(y0, y1, y2, y3)
    if z_priors is not None:
        perm, ambiguous = label_roots(result.roots, z_priors)
        result.labels = perm
        result.label_ambiguous = ambiguous
        if perm != (0, 1):
            result.z1, result.z2 = result.z2, result.z1
    return result


def label_roots(roots: Tuple[complex, complex],
                priors: Tuple[complex, complex]) -> Tuple[Tuple[int, int], bool]:
    """Match roots to priors by total distance; flag ambiguous matches.

    Returns (permutation, ambiguous): permutation[k] is the index of the
    root assigned to prior k.  A root is ambiguous when it lies within
    |prior1 - prior2| / 4 of neither prior.
    """
    p1, p2 = (complex(p) for p in priors)
    if p1 == p2:
        raise ConfigError("priors must be distinct")
    r = [complex(z) for z in roots]
    d_id = abs(r[0] - p1) + abs(r[1] - p2)
    d_sw = abs(r[1] - p1) + abs(r[0] - p2)
    perm = (0, 1) if d_id <= d_sw else (1, 0)
    radius = 0.25 * abs(p1 - p2)
    ambiguous = any(min(abs(z - p1), abs(z - p2)) > radius for z in r)
    return perm, ambiguous


def worst_case_root_error(a1: complex, a2: complex, z1: complex, z2: complex,
                          eta: float, n_directions: int = 64,
                          seed: int = 0) -> float:
    """Max root error of the end-to-end solve over random perturbation phases.

    Perturbations e_j = eta * exp(i phi_j) (worst admissible magnitude on
    every sample); the recovered roots are matched to the truth by the
    cheaper of the two labelings.

    Note: sample perturbations reach the roots through correlated
    coefficient errors; at first order the root error is
    (r1 - z2 r0) / (a1 (z1-z2)^2) with r_j the recurrence residuals of the
    noise, so this end-to-end quantity scales like sep^-2.  The cubed law
    lives in the factored two-stage mechanism, see worst_case_root_error_factored.
    """
    rng = np.random.default_rng(seed)
    ys = np.array([a1 * z1**j + a2 * z2**j for j in range(4)])
    worst = 0.0
    for _ in range(n_directions):
        phases = np.exp(2j * np.pi * rng.random(4))
        yt = ys + eta * phases
        res = two_node_fit(*yt)
        d_id = max(abs(res.z1 - z1), abs(res.z2 - z2))
        d_sw = max(abs(res.z1 - z2), abs(res.z2 - z1))
        worst = max(worst, min(d_id, d_sw))
    return worst


def worst_coefficient_error(a1: complex, a2: complex, z1: complex, z2: complex,
                            eta: float, n_directions: int = 64,
                            seed: int = 0) -> float:
    """Max coefficient error max(|ds1|, |ds2|) over sample perturbations.

    First stage of the conditioning mechanism: inverting the 2x2 Hankel
    system loses |z1 - z2|^-2.
    """
    rng = np.random.default_rng(seed)
    ys = np.array([a1 * z1**j + a2 * z2**j for j in range(4)])
    s1, s2 = z1 + z2, z1 * z2
    worst = 0.0
    for _ in range(n_directions):
        phases = np.exp(2j * np.pi * rng.random(4))
        yt = ys + eta * phases
        res = two_node_fit(*yt)
        worst = max(worst, abs(res.s1 - s1), abs(res.s2 - s2))
    return worst


def root_split_error(s1: complex, s2: complex, coeff_err: float,
                     n_directions: int = 64, seed: int = 0) -> float:
    """Max root displacement over coefficient perturbations |ds_i| <= coeff_err.

    Second stage of the mechanism: converting perturbed symmetric functions
    into perturbed roots loses another |z1 - z2|^-1.
    """
    rng = np.random.default_rng(seed)
    z1, z2 = _quadratic_roots(s1, s2)
    worst = 0.0
    for _ in range(n_directions):
        ph = np.exp(2j * np.pi * rng.random(2))
        zt1, zt2 = _quadratic_roots(s1 + coeff_err * ph[0], s2 + coeff_err * ph[1])
        d_id = max(abs(zt1 - z1), abs(zt2 - z2))
        d_sw = max(abs(zt1 - z2), abs(zt2 - z1))
        worst = max(worst, min(d_id, d_sw))
    return worst


def worst_case_root_error_factored(a1: complex, a2: complex, z1: complex,
                                   z2: complex, eta: float,
                                   n_directions: int = 64,
                                   seed: int = 0) -> float:
    """Two-stage worst case: worst coefficient error, then worst root split.

    This composition is exactly what the cubic conditioning law
    eta / (|a1 a2| |z1 - z2|^3) quantifies.
    """
    coeff = worst_coefficient_error(a1, a2, z1, z2, eta,
                                    n_directions=n_directions, seed=seed)
    return root_split_error(z1 + z2, z1 * z2, coeff,
                            n_directions=n_directions, seed=seed + 1)


def separation_scaling_probe(separations: Sequence[float] = (0.4, 0.2, 0.1, 0.05),
                             eta: float = 1e-8, a1: complex = 1.0,
                             a2: complex = 1.0, n_directions: int = 64, seed: int = 0,
                             protocol: str = "factored") -> dict:
    """Log-log slope of worst-case root error against node separation.

    protocol 'factored' composes the two conditioning stages (slope near
    -3, the mechanism of the cubed law); 'end-to-end' perturbs the four
    samples directly (slope near -2 thanks to a first-order cancellation
    between the coefficient errors).
    """
    if protocol not in ("factored", "end-to-end"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    fn = (worst_case_root_error_factored if protocol == "factored"
          else worst_case_root_error)
    seps = np.asarray(separations, dtype=float)
    errs = []
    for i, sep in enumerate(seps):
        z1 = Z_CENTER + 0.5 * sep
        z2 = Z_CENTER - 0.5 * sep
        errs.append(fn(a1, a2, z1, z2, eta, n_directions=n_directions,
                       seed=seed + i))
    errs = np.asarray(errs)
    slope = np.polyfit(np.log(seps), np.log(errs), 1)[0]
    return {"separations": seps, "errors": errs, "slope": float(slope),
            "protocol": protocol}


def conditioning_report(a1: complex, a2: complex, z1: complex, z2: complex,
                        eta: float, probe: bool = True) -> dict:
    """Conditioning diagnostics for a two-node configuration.

    bound = CALIBRATED_C_HAT * eta / (|a1 a2| |z1 - z2|^3); smallness_ok is the gate
    eta <= c0 |a1 a2| |z1 - z2|^4 under which the bound is certified.  The
    optional probe reports the measured log-log slope of worst-case root
    error against separation (cubic law: slope near -3).
    """
    if a1 * a2 == 0:
        raise StructureError("conditioning needs a1 a2 != 0")
    sep = abs(z1 - z2)
    if sep == 0:
        raise StructureError("conditioning needs distinct nodes")
    prod = abs(a1 * a2)
    out = {
        "delta0_mag": abs(prod * sep**2),
        "smallness_ok": bool(eta <= SMALLNESS_C0 * prod * sep**4),
        "bound": CALIBRATED_C_HAT * eta / (prod * sep**3),
        "c_hat": CALIBRATED_C_HAT,
    }
    if probe:
        out["scaling_exponent_probe"] = separation_scaling_probe(
            eta=max(eta, 1e-10), a1=a1, a2=a2,
            n_directions=REPORT_DIRECTIONS, seed=0)["slope"]
    return out
