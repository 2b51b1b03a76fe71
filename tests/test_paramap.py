import numpy as np
import pytest
from conftest import photon_sphere_frequency, point_array, point_from_array

from ringlab import extractor as ex
from ringlab import paramap as pm
from ringlab.errors import ConfigError, InversionError


def lattice_2p(ell=100):
    return pm.default_lattice(kappa=0.3, lam_kind="constant", lam_value=0.2,
                              ell=ell)


def lattice_3p(ell=100):
    return pm.default_lattice(kappa=0.3, lam_kind="gap_over_mass", ell=ell)


KINDS = ("photon_sphere", "gap_over_mass", "constant")


def fd_jacobian(model, p, three, rel_step=1e-6):
    """Central differences of the data map: the oracle for the analytic Jacobian."""
    x = point_array(p, three)
    cols = []
    for j in range(len(x)):
        h = rel_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g = [model.data_map(point_from_array(y, lam_fixed=p.lam), three)
             for y in (xp, xm)]
        cols.append((g[0] - g[1]) / (2.0 * h))
    return np.stack(cols, axis=1)


def grid_extrema(model, box, three, n=201):
    """max ||J^-1||_2 and min |det J| of the analytic Jacobian on an n x n
    (M, Lambda) grid; J does not depend on a.  In 2p the Lambda axis runs
    from 0 to the box's Lambda_hi, since the 2p constants claim every
    Lambda >= 0."""
    lam_lo, lam_hi = box[2]
    m, lam = (axis.ravel() for axis in np.meshgrid(
        np.linspace(*box[0], n), np.linspace(lam_lo if three else 0.0, lam_hi, n),
        indexing="ij"))
    # model.jacobian at every grid point, as one call on the rows
    m2 = pm._pow(m, 2)
    jacs = model.jacobian_rows(m, lam, m2, 1.0 - 9.0 * lam * m2, three)
    return (np.linalg.norm(np.linalg.inv(jacs), 2, axis=(1, 2)).max(),
            np.abs(np.linalg.det(jacs)).min())


def random_box(rng):
    """A subextremal (M, a, Lambda) box: 9 Lambda_hi M_hi^2 <= 0.95.  M_lo is
    log-uniform, so that small-mass boxes, where ||J^-1|| peaks at M_lo, are
    drawn as often as large-mass ones, where it peaks at M_hi."""
    m_lo = np.exp(rng.uniform(np.log(0.02), np.log(3.0)))
    m_hi = m_lo * rng.uniform(1.01, 2.0)
    lam_hi = rng.uniform(0.01, 0.95) / (9.0 * m_hi**2)
    a_lo = rng.uniform(-0.3, 0.3)
    return [(m_lo, m_hi), (a_lo, a_lo + 0.1), (lam_hi * rng.uniform(0.0, 0.9), lam_hi)]


class TestPhotonSphere:
    def test_schwarzschild_limit(self):
        assert abs(photon_sphere_frequency(1.0, 0.0)
                   - 1.0 / (3.0 * np.sqrt(3.0))) < 1e-15

    def test_with_cosmological_constant(self):
        want = np.sqrt(0.82) / (3.0 * np.sqrt(3.0))
        assert abs(photon_sphere_frequency(1.0, 0.02) - want) < 1e-15
        assert abs(want - 0.174271) < 1e-6

    def test_degeneration_to_zero(self):
        vals = [photon_sphere_frequency(1.0, lam)
                for lam in (0.05, 0.1, 0.11, 0.111)]
        assert vals[-1] < 0.01 * vals[0] + 0.02
        with pytest.raises(ConfigError):
            photon_sphere_frequency(1.0, 1.0 / 9.0)


class TestPseudopole:
    def test_zero_rotation_degeneracy(self):
        # v = kappa*a vanishes at a = 0: the labeled pair coalesces and the
        # splitting observable V is exactly zero
        model = lattice_2p()
        p = pm.ParameterPoint(m=1.0, a=0.0, lam=0.02)
        wp = pm.pseudopole(model, 0, +1, p)
        wm = pm.pseudopole(model, 0, -1, p)
        assert wp == wm
        assert pm.observables(wp, wm, model.ell, 0)["V"] == 0.0

    def test_layer_spacing(self):
        model = lattice_2p()
        p = pm.ParameterPoint(m=1.0, a=0.1, lam=0.02)
        w0 = pm.pseudopole(model, 0, +1, p)
        w1 = pm.pseudopole(model, 1, +1, p)
        assert abs((w0.imag - w1.imag) - 0.2) < 1e-14
        assert w0.real == w1.real

    def test_explicit_value(self):
        model = pm.default_lattice(kappa=0.3, lam_kind="constant",
                                   lam_value=0.2, ell=10)
        p = pm.ParameterPoint(m=1.0, a=0.1, lam=0.02)
        got = pm.pseudopole(model, 0, +1, p)
        want = 10 * (photon_sphere_frequency(1.0, 0.02) + 0.03) - 0.1j
        assert abs(got - want) < 1e-13
        assert abs(got - (2.04271 - 0.1j)) < 1e-5


class TestObservables:
    def test_explicit(self):
        obs = pm.observables(2.0 - 0.15j, -1.8 - 0.15j, 10, 0)
        assert abs(obs["U"] - 0.01) < 1e-15
        assert abs(obs["V"] - 0.19) < 1e-15
        assert abs(obs["W"] - 0.3) < 1e-15

    def test_equal_frequencies_zero_split(self):
        obs = pm.observables(2.0 - 0.1j, 2.0 - 0.1j, 10, 0)
        assert obs["V"] == 0.0

    def test_lattice_exactness(self, rng):
        model = lattice_3p()
        for _ in range(50):
            p = pm.ParameterPoint(m=rng.uniform(0.8, 1.2),
                                  a=rng.uniform(-0.2, 0.2),
                                  lam=rng.uniform(0.0, 0.05))
            wp = pm.pseudopole(model, model.n, +1, p)
            wm = pm.pseudopole(model, model.n, -1, p)
            obs = pm.observables(wp, wm, model.ell, model.n)
            u, v, lam = model.data_map(p, True)
            assert abs(obs["U"] - u) < 1e-12
            assert abs(obs["V"] - v) < 1e-12
            assert abs(obs["W"] - lam) < 1e-12


class TestLatticeFormula:
    @pytest.mark.parametrize("kind", KINDS)
    def test_data_map_rows_and_pseudopoles_agree(self, kind):
        # one formula: the map that places the pseudopoles is, bit for bit,
        # the map that Newton inverts
        rng = np.random.default_rng(KINDS.index(kind))
        model = pm.default_lattice(kappa=rng.uniform(0.1, 2.0), lam_kind=kind,
                                   lam_value=rng.uniform(0.05, 0.5), n=2,
                                   ell=int(rng.integers(1, 300)))
        points = []
        for _ in range(50):
            m = rng.uniform(0.1, 3.0)
            points.append(pm.ParameterPoint(m=m, a=rng.uniform(-0.3, 0.3),
                                            lam=rng.uniform(0.0, 0.99) / (9.0 * m * m)))
        m, a = np.array([p.m for p in points]), np.array([p.a for p in points])
        s = np.array([1.0 - 9.0 * p.lam * p.m**2 for p in points])
        rows3, rows2 = model.data_rows(m, a, s, True), model.data_rows(m, a, s, False)
        for p, row3, row2 in zip(points, rows3, rows2):
            u, v, lam = model.data_map(p, True)
            assert row3.tolist() == [u, v, lam] and row2.tolist() == [u, v]
            assert model.data_map(p, False).tolist() == [u, v]
            for j in range(model.n + 1):
                for sign in (+1, -1):
                    assert pm.pseudopole(model, j, sign, p) == \
                        complex(model.ell * (u + sign * v), -(j + 0.5) * lam)


class TestEstimatedData:
    def test_error_bounds(self):
        wp, wm = 2.0 - 0.15j, -1.8 - 0.15j
        dwp, dwm = 0.02j, 0.01 + 0j
        est = pm.observables(wp + dwp, wm + dwm, 10, 0)
        tru = pm.observables(wp, wm, 10, 0)
        assert abs(est["U"] - tru["U"]) <= 0.03 / 20 + 1e-15
        g_err = np.hypot(est["U"] - tru["U"], est["V"] - tru["V"])
        assert g_err <= np.sqrt(2) / 20 * 0.03 + 1e-15
        assert abs(pm.data_map_error_bound(dwp, dwm, 10)
                   - np.sqrt(2) / 20 * 0.03) < 1e-15
        # damping channel: |W_hat - W| = |Im dw+|/(n+1/2)
        assert abs(abs(est["W"] - tru["W"]) - 0.04) < 1e-15


class TestJacobian:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("three", [False, True])
    def test_matches_central_differences(self, rng, kind, three):
        model = pm.default_lattice(kappa=rng.uniform(0.1, 2.0), lam_kind=kind)
        for _ in range(20):
            m = rng.uniform(0.5, 1.5)
            p = pm.ParameterPoint(m=m, a=rng.uniform(-0.3, 0.3),
                                  lam=rng.uniform(0.0, 0.5) / (9.0 * m**2))
            jac = model.jacobian(p, three)
            assert jac.shape == (len(point_array(p, three)),) * 2
            err = np.abs(jac - fd_jacobian(model, p, three)).max()
            assert err <= 1e-7 * np.abs(jac).max()


class TestInvertData:
    def test_fixed_point(self):
        model = lattice_2p()
        p = pm.ParameterPoint(m=1.0, a=0.08, lam=0.02)
        data = dict(zip("UV", model.data_map(p, True)))
        out = pm.invert_data(model, data, p)
        assert out["iterations"] <= 1
        assert abs(out["point"].m - p.m) < 1e-12

    def test_offset_guess_converges(self, rng):
        model = lattice_2p()
        for _ in range(20):
            p = pm.ParameterPoint(m=rng.uniform(0.9, 1.1),
                                  a=rng.uniform(0.02, 0.12), lam=0.02)
            data = dict(zip("UV", model.data_map(p, True)))
            guess = pm.ParameterPoint(m=p.m * 1.01, a=p.a * 1.01, lam=0.02)
            out = pm.invert_data(model, data, guess)
            err = np.hypot(out["point"].m - p.m, out["point"].a - p.a)
            assert err < 1e-10

    def test_canonical_inversion_evaluates_each_iterate_once(self, monkeypatch):
        # the canonical scenario's inversion: guess 1% off, three undamped
        # steps.  Each accepted trial is the next iterate, so the batched data
        # map runs once per iterate, and the residual norms are stacked dot
        # products: no np.linalg.norm call is made
        model = lattice_2p()
        p = pm.ParameterPoint(m=1.0, a=0.08, lam=0.02)
        data = dict(zip("UV", model.data_map(p, True)))
        guess = pm.ParameterPoint(m=1.01, a=0.08 * 1.01 + 0.001, lam=0.02)
        counts = {"data_rows": 0, "norm": 0}
        data_rows, norm = pm.LatticeModel.data_rows, np.linalg.norm

        def counted_rows(*args, **kwargs):
            counts["data_rows"] += 1
            return data_rows(*args, **kwargs)

        def counted_norm(*args, **kwargs):
            counts["norm"] += 1
            return norm(*args, **kwargs)

        monkeypatch.setattr(pm.LatticeModel, "data_rows", counted_rows)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        out = pm.invert_data(model, data, guess, box=[(0.9, 1.1), (0.0, 0.15)])
        assert out["iterations"] == 3
        assert counts == {"data_rows": 4, "norm": 0}
        assert abs(out["point"].m - p.m) < 1e-12 and abs(out["point"].a - p.a) < 1e-12

    def test_three_parameter_round_trip(self):
        model = lattice_3p()
        p = pm.ParameterPoint(m=1.0, a=0.08, lam=0.02)
        data = dict(zip("UVW", model.data_map(p, True)))
        guess = pm.ParameterPoint(m=1.02, a=0.081, lam=0.021)
        out = pm.invert_data(model, data, guess)
        assert abs(out["point"].m - 1.0) < 1e-10
        assert abs(out["point"].lam - 0.02) < 1e-10

    def test_boundary_degeneracy_raises(self):
        # a_true = 0 with noisy V pushing a below the box floor mirrors the
        # |a| >= a1 restriction of the three-parameter regime
        model = lattice_2p()
        p = pm.ParameterPoint(m=1.0, a=0.0, lam=0.02)
        data = {"U": model.data_map(p, True)[0], "V": -1e-3}  # perturbed split, a < 0
        guess = pm.ParameterPoint(m=1.0, a=0.01, lam=0.02)
        with pytest.raises(InversionError):
            pm.invert_data(model, data, guess, box=[(0.9, 1.1), (0.0, 0.2)])

    def test_degenerate_damping_map_raises(self):
        # default lam = photon-sphere frequency duplicates U: singular 3p map
        model = pm.default_lattice(kappa=0.3, lam_kind="photon_sphere")
        p = pm.ParameterPoint(m=1.0, a=0.08, lam=0.02)
        data = dict(zip("UVW", model.data_map(p, True) + [0.0, 0.0, 1e-4]))
        with pytest.raises(InversionError):
            pm.invert_data(model, data,
                           pm.ParameterPoint(m=1.01, a=0.081, lam=0.021))


def seeded_rows(model, three, n, rng):
    """n random inversion rows (targets, guesses, boxes): data on the map, near
    it and far from it, guesses near and far (some with a mass so small that
    the Jacobian is singular), with and without a box."""
    keys = ("U", "V", "W") if three else ("U", "V")
    targets, guesses, boxes = [], [], []
    while len(targets) < n:
        m = rng.uniform(0.5, 1.5)
        p = pm.ParameterPoint(m=m, a=rng.uniform(-0.2, 0.3), lam=rng.uniform(0.0, 0.9) / (9 * m * m))
        data = model.data_map(p, three)
        kind = rng.random()
        if kind < 0.25:
            data = rng.uniform(-1.0, 1.0, len(keys)) * 10 ** rng.uniform(-4.0, 0.0, len(keys))
        elif kind < 0.5:
            data = data + rng.normal(0.0, 0.05, len(keys))
        try:
            if rng.random() < 0.1:
                guess = pm.ParameterPoint(m=10 ** rng.uniform(-9, -7), a=p.a, lam=0.0)
            else:
                gm = m * np.exp(rng.normal(0.0, 0.3))
                lam = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.9) / (9 * gm * gm)
                guess = pm.ParameterPoint(m=gm, a=p.a + rng.normal(0.0, 0.05), lam=lam)
        except ConfigError:
            continue
        targets.append(data)
        guesses.append(guess)
        boxes.append(None if rng.random() < 0.3 else
                     [(0.9 * m, 1.1 * m), (p.a - 0.05, p.a + 0.05), (0.0, 1.0)])
    return np.array(targets, dtype=float), guesses, boxes


def scalar_newton(model, data, guess, box):
    """The per-point damped Newton loop that invert_rows replaced, kept as its
    reference: Python floats, ParameterPoint's checks and one numpy call per
    determinant, solve and norm."""
    three = "W" in data
    target = np.array([data["U"], data["V"]] + ([data["W"]] if three else []))

    def fun(x):
        p = point_from_array(x, lam_fixed=guess.lam)
        return model.data_map(p, three) - target

    def jacobian(x):
        p = point_from_array(x, lam_fixed=guess.lam)
        m, lam = p.m, p.lam
        r = np.sqrt(1.0 - 9.0 * lam * m**2)
        u_m = -1.0 / (3.0 * pm.SQRT3 * m**2 * r)
        if not three:
            return np.array([[u_m, 0.0], [0.0, model.kappa]])
        u_lam = -0.5 * pm.SQRT3 * m / r
        lam_m, lam_lam = {"photon_sphere": (u_m, u_lam),
                          "gap_over_mass": (-1.0 / m**2 - 9.0 * lam, -9.0 * m),
                          "constant": (0.0, 0.0)}[model.lam_kind]
        return np.array([[u_m, 0.0, u_lam], [0.0, model.kappa, 0.0], [lam_m, 0.0, lam_lam]])

    x = point_array(guess, three)
    n_iter, res = 0, fun(x)
    res_norm = np.linalg.norm(res)
    while res_norm > pm.NEWTON_TOL:
        if n_iter >= pm.NEWTON_MAX_ITER:
            raise InversionError(f"Newton did not converge in {pm.NEWTON_MAX_ITER} iterations")
        jac = jacobian(x)
        det = np.linalg.det(jac)
        if not np.isfinite(det) or abs(det) < 1e-14 * np.abs(jac).max() ** len(x):
            raise InversionError("singular Jacobian of the data map")
        step = np.linalg.solve(jac, -res)
        lam_damp = 1.0
        while lam_damp > 1.0 / 1024.0:
            try:
                trial = x + lam_damp * step
                trial_res = fun(trial)
            except ConfigError:
                lam_damp *= 0.5
                continue
            trial_norm = np.linalg.norm(trial_res)
            if trial_norm < res_norm:
                break
            lam_damp *= 0.5
        else:
            raise InversionError("damped Newton stalled (no descent direction)")
        x, res, res_norm = trial, trial_res, trial_norm
        n_iter += 1
    if box is not None and not all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
        raise InversionError(f"converged point {x} leaves the parameter box")
    return {"point": point_from_array(x, lam_fixed=guess.lam),
            "iterations": n_iter, "residual": float(res_norm)}


def rows_of(inv):
    """The outcome of each row of an Inversion's columns."""
    return [str(exc) if exc is not None else
            (float(m), float(a), float(lam), int(it), float(res))
            for m, a, lam, it, res, exc in zip(inv.m, inv.a, inv.lam, inv.iterations,
                                               inv.residual, inv.errors)]


def outcome(result):
    """A row's point, iteration count and residual, or its error text."""
    if isinstance(result, InversionError):
        return str(result)
    p = result["point"]
    return (p.m, p.a, p.lam, result["iterations"], result["residual"])


class TestInvertRows:
    @pytest.mark.parametrize("three", [False, True])
    def test_rows_equal_their_batches_of_one(self, rng, three):
        # random batches of seeded rows: each row ends exactly as invert_data
        # ends it alone, whichever rows share its batch, and invert_data
        # exactly as the per-point loop it replaced
        model = lattice_3p() if three else lattice_2p()
        targets, guesses, boxes = seeded_rows(model, three, 240, rng)
        alone = []
        for target, guess, box in zip(targets, guesses, boxes):
            data = dict(zip("UVW", target))
            ends = []
            for invert in (pm.invert_data, scalar_newton):
                with np.errstate(all="ignore"):  # the reference warns where it overflows
                    try:
                        ends.append(outcome(invert(model, data, guess, box)))
                    except InversionError as exc:
                        ends.append(str(exc))
            assert ends[0] == ends[1]
            alone.append(ends[0])
        order = rng.permutation(len(targets))
        start = 0
        while start < len(order):
            idx = order[start:start + int(rng.integers(1, 41))]
            batch = pm.invert_rows(model, targets[idx], [guesses[i] for i in idx],
                                   [boxes[i] for i in idx])
            assert rows_of(batch) == [alone[i] for i in idx]
            start += len(idx)
        kinds = {o if isinstance(o, tuple) else o.split(" [")[0] for o in alone}
        errors = {k for k in kinds if isinstance(k, str)}
        assert len(kinds) > len(errors)  # some rows converge
        assert {"singular Jacobian of the data map", "converged point",
                "damped Newton stalled (no descent direction)"} <= errors
        if three:
            assert f"Newton did not converge in {pm.NEWTON_MAX_ITER} iterations" in errors

    @pytest.mark.parametrize("d", [2, 3])
    def test_row_norms_are_numpy_norms(self, rng, d):
        # np.linalg.norm of a 1-d real vector is sqrt(v.dot(v)); the stacked
        # rows must round exactly as it does
        rows = rng.normal(size=(20000, d)) * 10 ** rng.uniform(-8, 8, (20000, 1))
        assert pm._row_norms(rows).tolist() == [np.linalg.norm(r) for r in rows]

    def test_pow_is_python_pow(self, rng):
        # the rows square the mass as a Python float's ** does, through libm's pow
        x = rng.uniform(0.5, 2.0, 20000) * 2.0 ** rng.integers(-30, 30, 20000)
        for k in (2, 3):
            assert pm._pow(x, k).tolist() == [v ** k for v in x.tolist()]


    @pytest.mark.parametrize("stop, error, steps", [
        ("stall", "damped Newton stalled (no descent direction)", 4),
        ("max_iter", "Newton did not converge in 1 iterations", 1),
        ("singular", "singular Jacobian of the data map", 0),
    ], ids=["stall", "max_iter", "singular"])
    def test_a_row_an_error_ends_holds_its_last_iterate(self, monkeypatch, stop, error, steps):
        # whatever ends a row, it holds its last accepted iterate, the residual
        # norm there and its accepted steps, the same on every call: the state
        # that a step limit of that many steps stops it in
        model = pm.default_lattice(lam_kind="constant")
        guess = pm.ParameterPoint(m=1.0, a=0.08, lam=0.02)
        targets = np.array([[-1.0, 0.024], [0.19245, 0.024]])
        if stop == "max_iter":
            monkeypatch.setattr(pm, "NEWTON_MAX_ITER", 1)
        elif stop == "singular":  # lam = u duplicates U: the 3p map is singular
            model = pm.default_lattice(kappa=0.3, lam_kind="photon_sphere")
            data = model.data_map(guess, True)
            targets = np.array([data + [0.0, 0.0, 1e-4], data])
            guess = pm.ParameterPoint(m=1.01, a=0.081, lam=0.021)

        def state(inv):
            return [inv.m.tolist(), inv.a.tolist(), inv.lam.tolist(),
                    inv.iterations.tolist(), inv.residual.tolist()]

        inv = pm.invert_rows(model, targets, [guess] * 2, [None] * 2)
        assert str(inv.errors[0]) == error and inv.iterations[0] == steps
        assert state(pm.invert_rows(model, targets, [guess] * 2, [None] * 2)) == state(inv)
        s = 1.0 - 9.0 * inv.lam * pm._pow(inv.m, 2)
        residual = model.data_rows(inv.m, inv.a, s, targets.shape[1] == 3) - targets
        assert inv.residual.tolist() == pm._row_norms(residual).tolist()
        assert np.isfinite(inv.residual).all()
        monkeypatch.setattr(pm, "NEWTON_MAX_ITER", steps)
        cut = pm.invert_rows(model, targets[:1], [guess], [None])
        assert str(cut.errors[0]) == f"Newton did not converge in {steps} iterations"
        assert state(cut) == [col[:1] for col in state(inv)]


class TestInverseConstants:
    @pytest.mark.parametrize("three", [False, True])
    def test_demo_boxes_match_dense_grid(self, three):
        # the demo configs' (M, Lambda) boxes; the 2p grid's Lambda axis is [0, 0.03]
        box = [(0.9, 1.1), (0.02, 0.15), (0.01, 0.03)]
        model = pm.default_lattice(kappa=0.3, lam_kind="gap_over_mass" if three else "constant")
        out = pm.inverse_constants(model, box if three else box[:2])
        big_c, small_c = grid_extrema(model, box, three)
        assert big_c <= out["C_star"] <= big_c * (1 + 1e-12)
        assert out["c_star"] <= small_c
        if three:  # C*: what finite-difference grids of 2 to 41 points gave
            assert abs(out["C_star"] - 15.52539331) < 1e-8
            assert abs(out["c_star"] - 0.3 * np.sqrt(3 * (1 - 0.27 * 1.21)) / 2.2) < 1e-15
        else:
            assert abs(out["C_star"] / (3 * np.sqrt(3) * 1.21) - 1) < 1e-15
            assert abs(out["c_star"] * (3 * np.sqrt(3) * 1.21) / 0.3 - 1) < 1e-15

    @pytest.mark.parametrize("seed", range(20))
    def test_random_boxes_match_dense_grid(self, seed):
        # one subextremal box per seed, 3p (gap_over_mass) on even seeds and
        # 2p with a random damping kind on odd ones; kappa is log-uniform on
        # [0.05, 3], so that 1/kappa dominates on some boxes
        rng = np.random.default_rng(seed)
        box = random_box(rng)
        three = seed % 2 == 0
        kind = "gap_over_mass" if three else str(rng.choice(KINDS))
        model = pm.default_lattice(kappa=np.exp(rng.uniform(np.log(0.05), np.log(3.0))),
                                   lam_kind=kind)
        out = pm.inverse_constants(model, box if three else box[:2])
        big_c, small_c = grid_extrema(model, box, three)
        assert big_c <= out["C_star"] <= big_c * (1 + 1e-12)
        assert out["c_star"] <= small_c

    @pytest.mark.parametrize("kind", ["photon_sphere", "constant"])
    def test_singular_three_param_kinds_raise(self, kind):
        model = pm.default_lattice(kappa=0.3, lam_kind=kind)
        box = [(0.9, 1.1), (0.02, 0.15), (0.01, 0.03)]
        with pytest.raises(InversionError):
            pm.inverse_constants(model, box)
        p = pm.ParameterPoint(m=1.0, a=0.08, lam=0.02)
        data = dict(zip("UVW", model.data_map(p, True) + [0.0, 0.0, 1e-4]))
        with pytest.raises(InversionError):
            pm.invert_data(model, data, pm.ParameterPoint(m=1.01, a=0.081, lam=0.021))

    def test_default_lattice_finite(self):
        out = pm.inverse_constants(lattice_2p(), [(0.9, 1.1), (0.02, 0.12)])
        assert 0 < out["c_star"] < np.inf
        assert 0 < out["C_star"] < np.inf

    def test_shrinking_box_monotone(self):
        model = lattice_2p()
        big = pm.inverse_constants(model, [(0.85, 1.15), (0.02, 0.14)])
        small = pm.inverse_constants(model, [(0.95, 1.05), (0.05, 0.11)])
        assert small["C_star"] <= big["C_star"] * (1 + 1e-9)


class TestBiasBounds:
    def test_zero_eps(self):
        assert pm.bias_bound_2p(2.0, 0.0, 0.0, 100) == 0.0
        assert pm.bias_bound_2p(2.0, 0.0, 0.0, 100, 0) == 0.0

    def test_explicit_values(self):
        b2 = pm.bias_bound_2p(2.0, 0.05, 0.03, 100)
        want2 = 2.0 * np.sqrt(2) / 200 * 0.08
        assert abs(b2 - want2) < 1e-15
        assert b2 == 2.0 * pm.data_map_error_bound(0.05, 0.03, 100)
        b3 = pm.bias_bound_2p(2.0, 0.05, 0.03, 100, 0)
        want3 = want2 + 2.0 * 0.05 / 0.5
        assert abs(b3 - want3) < 1e-15
        assert b3 == 2.0 * pm.data_map_error_bound(0.05, 0.03, 100, n=0)

    def test_ell_scaling(self):
        b1 = pm.bias_bound_2p(2.0, 0.05, 0.03, 100)
        b2 = pm.bias_bound_2p(2.0, 0.05, 0.03, 200)
        assert abs(b2 - b1 / 2) < 1e-15

    def test_3p_large_overtone_limit(self):
        b2 = pm.bias_bound_2p(2.0, 0.05, 0.03, 100)
        b3s = [pm.bias_bound_2p(2.0, 0.05, 0.03, 100, n) for n in (10, 10**3, 10**6)]
        assert b3s[0] > b3s[1] > b3s[2] > b2  # damping term shrinks to zero
        assert abs(b3s[-1] - b2) < 1e-6

    def test_split_adds_up(self):
        # a tail part and a measurement part of each sector's bound give
        # bias bounds that add up to the bound of their sum
        tail, meas = (0.04, 0.02), (0.01, 0.01)
        parts = [pm.bias_bound_2p(2.0, *b, 100) for b in (tail, meas)]
        assert sum(parts) == pytest.approx(pm.bias_bound_2p(2.0, 0.05, 0.03, 100), rel=1e-15)

    def test_flags(self):
        # the bounds' hypothesis is the extractor's, checked per sector
        assert not ex.eps_small(0.2, 0.9) and ex.eps_small(0.01, 0.9)


class TestCertifiedBias:
    def test_roundtrip_bias_within_bound(self, rng):
        # perturb frequencies by known delta-omegas; the inverted point must
        # stay within C* times the data-map perturbation
        model = lattice_2p()
        box = [(0.9, 1.1), (0.02, 0.14)]
        consts = pm.inverse_constants(model, box)
        for _ in range(30):
            p = pm.ParameterPoint(m=rng.uniform(0.95, 1.05),
                                  a=rng.uniform(0.04, 0.12), lam=0.02)
            wp = pm.pseudopole(model, 0, +1, p)
            wm = pm.pseudopole(model, 0, -1, p)
            dwp = 1e-4 * np.exp(2j * np.pi * rng.random())
            dwm = 1e-4 * np.exp(2j * np.pi * rng.random())
            est = pm.observables(wp + dwp, wm + dwm, model.ell, model.n)
            guess = pm.ParameterPoint(m=p.m, a=p.a, lam=0.02)
            out = pm.invert_data(model, {"U": est["U"], "V": est["V"]}, guess)
            err = np.hypot(out["point"].m - p.m, out["point"].a - p.a)
            bound = pm.bias_bound_2p(consts["C_star"], abs(dwp), abs(dwm), model.ell)
            assert err <= bound * (1 + 1e-9)
