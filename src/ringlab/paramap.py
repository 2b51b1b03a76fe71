"""Synthetic pseudopole lattice over parameters and explicit bias bounds.

The lattice places pseudopoles at ell*(u(p) +/- v(p)) - i (j + 1/2) lam(p)
for explicit smooth functions (u, v, lam) of the parameter point, so that
the normalized observables U, V, W-tilde invert it exactly.  The bias
theorems are map-agnostic given the inverse stability constant C*, a proven
extremum of the closed-form Jacobian over a parameter box, not a sample.
The bias bound ends one chain: C* times the data-map bound of the sectors'
frequency-error bounds (:func:`extractor.omega_bound`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, InversionError
from .signal_model import _pow

SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))

#: invert_rows's residual-norm tolerance and step limit
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def _row_norms(r: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a real (B, d) array, bit for bit.  norm
    takes sqrt(r.dot(r)), and a stacked (1, d) @ (d, 1) matmul makes that same
    dot call per row; einsum, (r * r).sum(1) and norm(axis=1) round otherwise."""
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def _photon_u(m, s):
    """sqrt(s) / (3 sqrt3 M), s = 1 - 9 Lambda M^2, for floats or arrays."""
    return np.sqrt(s) / (3.0 * SQRT3 * m)


@dataclass(frozen=True)
class ParameterPoint:
    """Mass M > 0, rotation a, cosmological constant lam > 0 (9*lam*M^2 < 1)."""

    m: float
    a: float
    lam: float = 0.0

    def __post_init__(self):
        if self.m <= 0:
            raise ConfigError("mass must be positive")
        if not 0.0 < self.m * self.m < math.inf:
            raise ConfigError("M^2 must be a finite nonzero float")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")
        if 9.0 * self.lam * self.m**2 >= 1.0:
            raise ConfigError("need 9*lam*M^2 < 1 (photon-sphere frequency real)")


@dataclass(frozen=True)
class LatticeModel:
    """Pseudopole lattice ell*(u +/- v) - i (j+1/2) lam over parameter points.

    u is the photon-sphere frequency, v = kappa * a, and lam > 0 (so overtone
    layers are strictly ordered in Im) is u for lam_kind 'photon_sphere'
    (degenerate in 3p), (1 - 9 Lambda M^2)/M for 'gap_over_mass' (independent
    of u) or lam_value for 'constant'.
    """

    kappa: float
    lam_kind: str
    lam_value: float
    n: int
    ell: int

    def __post_init__(self):
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.lam_kind not in ("photon_sphere", "gap_over_mass", "constant"):
            raise ConfigError(f"unknown lam_kind {self.lam_kind!r}")
        if self.lam_kind == "constant" and self.lam_value <= 0:
            raise ConfigError("constant damping scale must be positive")
        if self.n < 0 or self.ell < 1:
            raise ConfigError("need overtone n >= 0 and ell >= 1")

    def uvl(self, m, a, s) -> tuple:
        """(u, v, lam) at mass m, rotation a and s = 1 - 9 Lambda M^2, as floats
        or as arrays: the one statement of the lattice formula.  The values
        are not checked; ParameterPoint says where the map is defined."""
        u = _photon_u(m, s)
        lam = (u if self.lam_kind == "photon_sphere" else s / m
               if self.lam_kind == "gap_over_mass" else self.lam_value)
        return u, self.kappa * a, lam

    def data_map(self, p: ParameterPoint, three_param: bool) -> np.ndarray:
        return np.array(self.uvl(p.m, p.a, 1.0 - 9.0 * p.lam * p.m**2)[:3 if three_param else 2])

    def data_rows(self, m: np.ndarray, a: np.ndarray, s: np.ndarray,
                  three_param: bool) -> np.ndarray:
        """:meth:`data_map` at the points (m, a[, Lambda]) with s = 1 - 9 Lambda M^2:
        (B, 2 or 3)."""
        out = np.empty((len(m), 3 if three_param else 2))
        for col, val in zip(out.T, self.uvl(m, a, s)):
            col[:] = val
        return out

    def jacobian(self, p: ParameterPoint, three_param: bool) -> np.ndarray:
        """D data_map at p: rows (u, v[, lam]), columns (M, a[, Lambda])."""
        m, lam = np.array([float(p.m)]), np.array([float(p.lam)])
        m2 = _pow(m, 2)
        return self.jacobian_rows(m, lam, m2, 1.0 - 9.0 * lam * m2, three_param)[0]

    def jacobian_rows(self, m: np.ndarray, lam: np.ndarray, m2: np.ndarray, s: np.ndarray,
                      three_param: bool) -> np.ndarray:
        """:meth:`jacobian` at the points with mass m and Lambda lam, m2 = M**2
        (by _pow) and s = 1 - 9 Lambda M^2: (B, d, d)."""
        r = np.sqrt(s)
        d = 3 if three_param else 2
        jac = np.zeros((len(m), d, d))
        jac[:, 0, 0] = u_m = -1.0 / (3.0 * SQRT3 * m2 * r)
        jac[:, 1, 1] = self.kappa
        if three_param:
            jac[:, 0, 2] = u_lam = -0.5 * SQRT3 * m / r
            if self.lam_kind == "photon_sphere":
                jac[:, 2, 0], jac[:, 2, 2] = u_m, u_lam
            elif self.lam_kind == "gap_over_mass":
                jac[:, 2, 0], jac[:, 2, 2] = -1.0 / m2 - 9.0 * lam, -9.0 * m
        return jac


def default_lattice(kappa: float = 0.3, lam_kind: str = "photon_sphere",
                    lam_value: float = 0.2, n: int = 0, ell: int = 100) -> LatticeModel:
    """The lattice with damping scale lam_kind (see :class:`LatticeModel`)."""
    return LatticeModel(kappa=kappa, lam_kind=lam_kind, lam_value=lam_value, n=n, ell=ell)


def pseudopole(model: LatticeModel, j: int, sign: int, p: ParameterPoint) -> complex:
    """Lattice pseudopole ell*(u + sign*v) - i (j + 1/2) lam at parameter p."""
    if sign not in (+1, -1):
        raise ConfigError("sign must be +1 or -1")
    if j < 0:
        raise ConfigError("overtone index must be nonnegative")
    u, v, lam = model.uvl(p.m, p.a, 1.0 - 9.0 * p.lam * p.m**2)
    return complex(_pole(j, sign, u, v, lam, model.ell))


def pseudopole_rows(model: LatticeModel, js: Sequence[int], sign: int, m: np.ndarray,
                    a: np.ndarray, lam: np.ndarray, ell: np.ndarray) -> list:
    """:func:`pseudopole` of overtone j in js, each a column over the rows:
    the points (m, a, lam) on model's map at ell per row (model's own ell
    unused), bit for bit."""
    u, v, damping = model.uvl(m, a, 1.0 - 9.0 * lam * _pow(m, 2))
    return [_pole(j, sign, u, v, damping, ell) for j in js]


def _pole(j, sign, u, v, lam, ell):
    """ell*(u + sign*v) - i (j + 1/2) lam: floats, or columns."""
    return ell * (u + sign * v) - 1j * (j + 0.5) * lam


def observables(omega_plus, omega_minus, ell, n: int) -> dict:
    """Normalized observables U, V and the damping observable W_tilde.

    U = Re(w+ + w-)/(2 ell), V = Re(w+ - w-)/(2 ell),
    W_tilde = -Im(w+)/(n + 1/2); floats, or columns for columns.
    """
    if np.any(np.less(ell, 1)):
        raise ConfigError("ell must be >= 1")
    return {
        "U": (omega_plus + omega_minus).real / (2.0 * ell),
        "V": (omega_plus - omega_minus).real / (2.0 * ell),
        "W": -omega_plus.imag / (n + 0.5),
    }


def data_map_error_bound(delta_omega_plus, delta_omega_minus, ell, n: Optional[int] = None):
    """Bound sqrt(2)/(2 ell) (|dw+| + |dw-|) for the data-map perturbation from
    frequency errors (or their bounds); with the damping observable (n given)
    the term |dw+|/(n + 1/2) is added.  Floats, or columns for columns (of
    real sizes: numpy's complex abs rounds otherwise than Python's)."""
    base = SQRT2 / (2.0 * ell) * (abs(delta_omega_plus) + abs(delta_omega_minus))
    return base if n is None else base + abs(delta_omega_plus) / (n + 0.5)


def invert_data(model: LatticeModel, data: dict, guess: ParameterPoint,
                box: Optional[Sequence[Tuple[float, float]]] = None) -> dict:
    """Damped Newton inversion of the lattice data map: :func:`invert_rows`
    on one row, whose InversionError it raises.  Returns that row as
    {"point", "iterations", "residual"}.

    data holds U, V and optionally W (three-parameter mode).
    """
    target = [data["U"], data["V"]] + ([data["W"]] if "W" in data else [])
    inv = invert_rows(model, np.array([target], dtype=float), [guess], [box])
    if inv.errors[0] is not None:
        raise inv.errors[0]
    return {"point": ParameterPoint(float(inv.m[0]), float(inv.a[0]), float(inv.lam[0])),
            "iterations": int(inv.iterations[0]), "residual": float(inv.residual[0])}


def invert_rows(model: LatticeModel, targets: np.ndarray, guesses: Sequence[ParameterPoint],
                boxes: Sequence[Optional[Sequence[Tuple[float, float]]]]) -> Inversion:
    """Damped Newton inversion of the lattice data map, one point per row.

    targets is (B, d): rows (U, V) or, in three-parameter mode, (U, V, W).
    Each row starts from its guess (whose Lambda stays fixed in 2p) and ends
    with its point, iteration count and residual norm (the row of the
    returned :class:`Inversion`), and with its InversionError if one ends it
    (the point being then its last accepted iterate): its
    residual norm below NEWTON_TOL stops it, and non-convergence within
    NEWTON_MAX_ITER steps, a singular Jacobian (relative to its largest
    entry), ten halvings of the step without descent, or a converged point
    outside its box (None: no box) end it.  The rows share model's data map;
    ell and n do not enter it.  The rows still iterating take each step
    together, each halving its own step until it descends, in the operations
    one row takes alone, so every row ends bit for bit as it would alone.
    """
    n_rows, d = targets.shape
    three = d == 3
    x = np.array([[g.m, g.a, g.lam][:d] for g in guesses], dtype=float).reshape(n_rows, d)
    out: list = [None] * n_rows

    def evaluate(xs, lam, tgt) -> list:
        """[M**2, s = 1 - 9 Lambda M^2, residual, its norm] at the rows xs
        (Lambda: lam in 2p)."""
        m = xs[:, 0]
        if three:
            lam = xs[:, 2]
        m2 = _pow(m, 2)
        s = 1.0 - 9.0 * lam * m2
        res = model.data_rows(m, xs[:, 1], s, three) - tgt
        return [m2, s, res, _row_norms(res)]

    def valid(xs, lam, s):
        """Where ParameterPoint accepts the rows xs, NaN as there: its raise
        conditions, negated (9 Lambda M^2 >= 1 is s <= 0)."""
        m, mm = xs[:, 0], xs[:, 0] * xs[:, 0]
        if three:
            lam = xs[:, 2]
        return ~(m <= 0) & (0.0 < mm) & (mm < math.inf) & ~((lam < 0) | (s <= 0.0))

    # the rows compute in arrays what a point computes in Python floats,
    # which overflow and divide silently
    with np.errstate(all="ignore"):
        # the rows still iterating: their rows of x (ids) and their state
        rows = [np.arange(n_rows), x, np.array([g.lam for g in guesses], dtype=float), targets]
        rows += evaluate(*rows[1:])
        norm, iters = rows[-1].copy(), np.zeros(n_rows, dtype=int)
        for it in range(NEWTON_MAX_ITER + 1):
            ids, xs, lam, tgt, m2, s, res, nrm = rows
            # every row holds its last accepted iterate, its residual norm and
            # its step count, whatever ends it
            x[ids], norm[ids], iters[ids] = xs, nrm, it
            going = nrm > NEWTON_TOL
            n_going = np.count_nonzero(going)
            if not n_going:
                break
            if n_going < len(ids):
                rows = [v[going] for v in rows]
                ids, xs, lam, tgt, m2, s, res, nrm = rows
            if it == NEWTON_MAX_ITER:
                for i in ids:
                    out[i] = InversionError(f"Newton did not converge in {NEWTON_MAX_ITER} iterations")
                break
            jac = model.jacobian_rows(xs[:, 0], xs[:, 2] if three else lam, m2, s, three)
            det = np.abs(np.linalg.det(jac))
            regular = (det < math.inf) & ~(det < 1e-14 * _pow(np.abs(jac).max(axis=(1, 2)), d))
            if np.count_nonzero(regular) < len(ids):
                for i in ids[~regular]:
                    out[i] = InversionError("singular Jacobian of the data map")
                rows, jac = [v[regular] for v in rows], jac[regular]
                ids, xs, lam, tgt, m2, s, res, nrm = rows
            step = np.linalg.solve(jac, -res[:, :, None])[:, :, 0]
            # every row tries the full step (1.0 * step is step); a row that
            # does not descend halves its step, down to 1/512, and stalls then
            trial = xs + step
            new = evaluate(trial, lam, tgt)
            moved = valid(trial, lam, new[1]) & (new[-1] < nrm)
            todo = np.flatnonzero(~moved)
            damp = 1.0
            while todo.size:
                damp *= 0.5
                if damp <= 1.0 / 1024.0:
                    for i in ids[todo]:
                        out[i] = InversionError("damped Newton stalled (no descent direction)")
                    break
                t = xs[todo] + damp * step[todo]
                t_new = evaluate(t, lam[todo], tgt[todo])
                down = valid(t, lam[todo], t_new[1]) & (t_new[-1] < nrm[todo])
                for v, w in zip([trial, *new], [t, *t_new]):
                    v[todo[down]] = w[down]
                moved[todo[down]] = True
                todo = todo[~down]
            rows = [ids, trial, lam, tgt, *new]
            if np.count_nonzero(moved) < len(ids):
                rows = [v[moved] for v in rows]
    boxed = [i for i, box in enumerate(boxes) if box is not None]
    if boxed:
        ranges = np.array([boxes[i][:d] for i in boxed], dtype=float)
        lo, hi = ranges[..., 0], ranges[..., 1]
        xb = x[boxed][:, :lo.shape[1]]
        inside = np.all((lo <= xb) & (xb <= hi), axis=1)
        for i in np.array(boxed)[~inside].tolist():
            if out[i] is None:
                out[i] = InversionError(f"converged point {x[i]} leaves the parameter box")
    lam = x[:, 2] if three else np.array([g.lam for g in guesses], dtype=float)
    return Inversion(m=x[:, 0], a=x[:, 1], lam=lam, iterations=iters, residual=norm, errors=out)


@dataclass
class Inversion:
    """:func:`invert_rows`'s rows as (B,) columns, the one form of its
    result: the point (m, a, lam; lam the guess's in 2p), the Newton steps
    and the residual norm.  A row that ``errors`` ends (None, or its
    InversionError) holds its last accepted iterate, the residual norm there
    and the steps it accepted."""

    m: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    errors: list


def inverse_constants(model: LatticeModel, box: Sequence[Tuple[float, float]]) -> dict:
    """Inverse stability constants of the data map G over a parameter box.

    C_star = sup ||DG^-1||_2 (the Lipschitz constant of the local inverse)
    and c_star = inf |det DG| over the box [(M_lo, M_hi), (a_lo, a_hi)
    [, (Lambda_lo, Lambda_hi)]].  DG (:meth:`LatticeModel.jacobian`) does not
    depend on a; it is evaluated at the vertices where the extrema are proven
    to sit.  r = sqrt(1 - 9 Lambda M^2) decreases in M and in Lambda.

    2p (Lambda = 0): DG = diag(u_M, kappa), so ||DG^-1|| = max(1/kappa,
    3 sqrt3 M^2) and |det DG| = kappa/(3 sqrt3 M^2), both at M_hi.  A fixed
    Lambda > 0 scales |u_M| by 1/r >= 1, lowering the first and raising the
    second, so these values bound every 2p inversion at Lambda >= 0.

    3p, gap_over_mass: the a-row decouples, so ||DG^-1|| = max(1/kappa,
    ||B^-1||) and |det DG| = kappa det B for the (M, Lambda) block B, where
    det B = sqrt3 r/(2M) is least at (M_hi, Lambda_hi).  B^-1 = S N S' with
    S = diag(1, -1), S' = diag(-1, 1), N = [[6 sqrt3 M^2/r, M^2/r^2],
    [2(1 + 9 Lambda M^2)/(sqrt3 M r), 2/(9 M r^2)]] >= 0, so ||B^-1|| is the
    max of y.N x over unit x, y >= 0.  Each entry of N grows with Lambda, and
    in t = log M its log is affine plus nonnegative multiples of log(1 + w)
    and -log(1 - w), w = 9 Lambda e^(2t) < 1, both convex: the entries are
    log-convex, hence convex, in t, and so are y.N x and its max.  So C_star
    is the larger of ||DG^-1|| at (M_lo, Lambda_hi) and (M_hi, Lambda_hi).

    3p, photon_sphere or constant: the lam row of DG equals the u row or is
    zero, so DG is singular everywhere and InversionError is raised.
    """
    if len(box) not in (2, 3):
        raise ConfigError("box must hold the (M, a) or (M, a, Lambda) ranges")
    three_param = len(box) == 3
    if three_param and model.lam_kind != "gap_over_mass":
        raise InversionError(f"singular data-map Jacobian: a {model.lam_kind} "
                             "damping scale does not separate M from Lambda")
    (m_lo, m_hi), a = box[0], box[1][0]
    lam_lo, lam_hi = box[2] if three_param else (0.0, 0.0)
    ParameterPoint(m=m_lo, a=a, lam=lam_lo)  # M_lo > 0 and Lambda_lo >= 0
    jacs = [model.jacobian(ParameterPoint(m=m, a=a, lam=lam_hi), three_param)
            for m in ((m_hi, m_lo) if three_param else (m_hi,))]
    return {"c_star": float(abs(np.linalg.det(jacs[0]))),
            "C_star": max(float(np.linalg.norm(np.linalg.inv(j), 2)) for j in jacs)}


def bias_bound_2p(c_star, bound_omega_plus, bound_omega_minus, ell, n: Optional[int] = None):
    """C* (the inverse's Lipschitz bound over the box) times the
    :func:`data_map_error_bound` of the sectors' frequency-error bounds: the 2p
    bias bound, or with n the 3p one; floats, or columns for columns.  Each
    bound_omega is :func:`extractor.omega_bound`, which holds while its
    sector's eps meets eps <= min(1/8, |z|/20); this function does not check it."""
    return c_star * data_map_error_bound(bound_omega_plus, bound_omega_minus, ell, n)
